package lint

// The fixture harness is an analysistest in miniature: each directory
// under testdata/ is a package compiled against real stdlib export data,
// annotated with `// want "substring"` comments on the lines where an
// analyzer must report. The harness runs one analyzer per fixture via
// RunPackage (so //lint:ignore directives in fixtures are honored end to
// end) and fails on both missed wants and unexpected diagnostics.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureImports are the stdlib packages fixtures may import; their
// export data (plus transitive deps) is materialized once per test run.
var fixtureImports = []string{
	"context", "encoding/binary", "fmt", "io", "math/rand/v2", "net",
	"sync", "sync/atomic", "time",
}

var (
	stdOnce sync.Once
	stdFset *token.FileSet
	stdImp  types.Importer
	stdErr  error
)

// stdImporter returns a shared FileSet and a gc-export importer able to
// resolve the fixture imports.
func stdImporter(t *testing.T) (*token.FileSet, types.Importer) {
	t.Helper()
	stdOnce.Do(func() {
		pkgs, err := goList(".", fixtureImports)
		if err != nil {
			stdErr = err
			return
		}
		stdFset = token.NewFileSet()
		stdImp = importer.ForCompiler(stdFset, "gc", exportLookup(pkgs))
	})
	if stdErr != nil {
		t.Fatalf("materializing stdlib export data: %v", stdErr)
	}
	return stdFset, stdImp
}

// loadFixture parses and type-checks testdata/<dir> as a package whose
// import path is pkgPath (fixtures use fake paths to steer analyzer
// scoping).
func loadFixture(t *testing.T, dir, pkgPath string) *Package {
	t.Helper()
	fset, imp := stdImporter(t)
	full := filepath.Join("testdata", dir)
	names, err := filepath.Glob(filepath.Join(full, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture %s: %v (files %v)", dir, err, names)
	}
	sort.Strings(names)
	var files []*ast.File
	srcs := map[string][]byte{}
	for _, name := range names {
		// Like the real loader, test files stay outside the type-checked
		// package; dut/wireexhaustive reads them syntactically from Dir.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", name, err)
		}
		files = append(files, f)
		srcs[name] = src
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	return &Package{
		Path:  pkgPath,
		Dir:   full,
		Fset:  fset,
		Files: files,
		Srcs:  srcs,
		Types: tpkg,
		Info:  info,
	}
}

// wantRe extracts the quoted substrings of a `// want "a" "b"` comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// fixtureWants collects the expected-diagnostic annotations, keyed by
// file:line.
func fixtureWants(pkg *Package) map[string][]string {
	wants := map[string][]string{}
	for name, src := range pkg.Srcs {
		for i, line := range strings.Split(string(src), "\n") {
			_, after, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s:%d", name, i+1)
			for _, m := range wantRe.FindAllStringSubmatch(after, -1) {
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// checkFixture runs the analyzers over the fixture and matches the
// diagnostics against the want annotations.
func checkFixture(t *testing.T, pkg *Package, analyzers ...*Analyzer) {
	t.Helper()
	diags, err := RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		got[key] = append(got[key], d.Message)
	}
	wants := fixtureWants(pkg)
	for key, subs := range wants {
		msgs := append([]string(nil), got[key]...)
		// Match longest wants first so "(rand.New)" cannot steal the
		// diagnostic meant for "(rand.NewPCG)".
		sort.Slice(subs, func(i, j int) bool { return len(subs[i]) > len(subs[j]) })
		for _, sub := range subs {
			found := -1
			for i, msg := range msgs {
				if strings.Contains(msg, sub) {
					found = i
					break
				}
			}
			if found < 0 {
				t.Errorf("%s: missing diagnostic containing %q (got %v)", key, sub, got[key])
				continue
			}
			msgs = append(msgs[:found], msgs[found+1:]...)
		}
		for _, msg := range msgs {
			t.Errorf("%s: unexpected extra diagnostic %q", key, msg)
		}
	}
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic %q", key, msgs)
		}
	}
}

func TestAnalyzersOnFixtures(t *testing.T) {
	tests := []struct {
		name     string
		dir      string
		pkgPath  string
		analyzer *Analyzer
	}{
		{"nondeterminism", "nondet", "example.com/internal/core/fixture", AnalyzerNondeterminism},
		{"nondeterminism-engine-blessing", "nondet_engine", "example.com/internal/engine", AnalyzerNondeterminism},
		{"scratchalias", "scratch", "example.com/internal/dist/fixture", AnalyzerScratchAlias},
		{"floateq", "floateq", "example.com/internal/stats/fixture", AnalyzerFloatEq},
		{"framediscipline", "frame", "example.com/internal/network/fixture", AnalyzerFrameDiscipline},
		{"ctxprop", "ctxprop", "example.com/internal/engine/fixture", AnalyzerCtxProp},
		{"seedpurity", "seed", "example.com/internal/core/fixture", AnalyzerSeedPurity},
		{"seedpurity-engine-exemption", "seed_engine", "example.com/internal/engine", AnalyzerSeedPurity},
		{"hotalloc", "hotalloc", "example.com/internal/network/fixture", AnalyzerHotAlloc},
		{"goroleak", "goroleak", "example.com/internal/network/fixture", AnalyzerGoroLeak},
		{"atomicdiscipline", "atomicdiscipline", "example.com/internal/core/fixture", AnalyzerAtomicDiscipline},
		{"wireexhaustive", "wireexhaustive", "example.com/internal/network/fixture", AnalyzerWireExhaustive},
		{"wireexhaustive-writer", "wireexhaustive_writer", "example.com/internal/network/fixture", AnalyzerWireExhaustive},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkFixture(t, loadFixture(t, tc.dir, tc.pkgPath), tc.analyzer)
		})
	}
}

// TestAnalyzerScoping verifies that a package outside an analyzer's scope
// produces no findings even when the code would violate the rule.
func TestAnalyzerScoping(t *testing.T) {
	tests := []struct {
		name     string
		dir      string
		analyzer *Analyzer
	}{
		{"floateq", "floateq", AnalyzerFloatEq},
		{"goroleak", "goroleak", AnalyzerGoroLeak},
		{"wireexhaustive", "wireexhaustive", AnalyzerWireExhaustive},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, "example.com/cmd/tool")
			diags, err := RunPackage(pkg, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != 0 {
				t.Errorf("out-of-scope package produced %d findings: %v", len(diags), diags)
			}
		})
	}
}

// TestSuppressionInterplay runs two rules together over one fixture:
// trailing and stacked //lint:ignore forms suppress their targets, while
// malformed directives (unknown rule, blank-line separation) escalate to
// dut/ignore instead of suppressing anything.
func TestSuppressionInterplay(t *testing.T) {
	pkg := loadFixture(t, "interplay", "example.com/internal/network/fixture")
	checkFixture(t, pkg, AnalyzerHotAlloc, AnalyzerGoroLeak)

	// The same run, unfiltered: the suppressed findings must still exist,
	// marked, for structured output.
	all, err := RunPackageAll(NewProgram(pkg), pkg, []*Analyzer{AnalyzerHotAlloc, AnalyzerGoroLeak})
	if err != nil {
		t.Fatal(err)
	}
	suppressedByRule := map[string]int{}
	for _, d := range all {
		if d.Suppressed {
			suppressedByRule[d.Rule]++
		}
	}
	if suppressedByRule["dut/goroleak"] != 2 || suppressedByRule["dut/hotalloc"] != 1 {
		t.Errorf("suppressed counts = %v, want dut/goroleak:2 dut/hotalloc:1", suppressedByRule)
	}
}

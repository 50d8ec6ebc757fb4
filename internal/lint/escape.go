package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// EscapeAudit closes the gap between dut/hotalloc's static model and the
// compiler's escape analysis: it parses `go build -gcflags=-m=2` output
// and reports every compiler-detected heap allocation inside a
// hot-reachable function that the analyzer neither flagged nor a
// documented //lint:ignore covers. The analyzer proves the shapes it
// models; the compiler diff proves nothing slipped between them.

// EscapeMiss is one compiler-detected heap escape unaccounted for by the
// analyzer.
type EscapeMiss struct {
	// Pos locates the escape in the analyzed source.
	Pos token.Position
	// Fn names the hot function containing it.
	Fn string
	// Text is the compiler's diagnostic.
	Text string
}

// String renders the miss as file:line:col, the hot function and the
// compiler's diagnostic.
func (m EscapeMiss) String() string {
	return fmt.Sprintf("%s:%d:%d escape in hot %s: %s", m.Pos.Filename, m.Pos.Line, m.Pos.Column, m.Fn, m.Text)
}

// hotRegion is the line extent of one hot-reachable function, with its
// cold (early-return/panic) subranges carved out.
type hotRegion struct {
	file       string
	start, end int
	fn         string
	cold       [][2]int
	// covered marks the function as carrying at least one dut/hotalloc
	// diagnostic or suppression: its allocation profile has been reviewed.
	covered bool
}

// HotPackages returns the import paths of every package containing a
// hot-reachable function, sorted — the package set `go build -gcflags`
// must be pointed at.
func (p *Program) HotPackages() []string {
	reach := p.hotReachable()
	seen := map[string]bool{}
	for _, path := range p.order {
		g := p.fragment(p.pkgs[path])
		for key := range g.nodes {
			if _, hot := reach[key]; hot {
				seen[path] = true
				break
			}
		}
	}
	out := make([]string, 0, len(seen))
	for path := range seen {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// hotRegions computes the hot-function line map. diags are the full
// (suppressed included) diagnostics of a run; directives mark reviewed
// lines the analyzer itself produced nothing for.
func hotRegions(p *Program, diags []Diagnostic) []hotRegion {
	reach := p.hotReachable()
	var regions []hotRegion
	for _, path := range p.order {
		pkg := p.pkgs[path]
		g := p.fragment(pkg)
		known := knownRules(Analyzers())
		// Lines covered by a dut/hotalloc suppression directive in this
		// package, keyed file:line.
		directiveLines := map[string]bool{}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			for _, d := range parseIgnores(pkg.Fset, f, pkg.Srcs[name], known) {
				if d.Err == "" && d.Rule == AnalyzerHotAlloc.Name {
					directiveLines[fmt.Sprintf("%s:%d", d.File, d.Target)] = true
				}
			}
		}
		diagLines := map[string]bool{}
		for _, d := range diags {
			if d.Rule == AnalyzerHotAlloc.Name {
				diagLines[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] = true
			}
		}
		for key, node := range g.nodes {
			if _, hot := reach[key]; !hot {
				continue
			}
			start := pkg.Fset.Position(node.decl.Pos())
			end := pkg.Fset.Position(node.decl.End())
			r := hotRegion{file: start.Filename, start: start.Line, end: end.Line, fn: node.fn.Name()}
			for _, cr := range newColdBlocks(node.decl.Body).ranges {
				r.cold = append(r.cold, [2]int{
					pkg.Fset.Position(cr[0]).Line, pkg.Fset.Position(cr[1]).Line,
				})
			}
			for _, gr := range amortizedGrowRanges(node.decl.Body) {
				r.cold = append(r.cold, [2]int{
					pkg.Fset.Position(gr[0]).Line, pkg.Fset.Position(gr[1]).Line,
				})
			}
			for line := r.start; line <= r.end; line++ {
				lk := fmt.Sprintf("%s:%d", r.file, line)
				if diagLines[lk] || directiveLines[lk] {
					r.covered = true
					break
				}
			}
			regions = append(regions, r)
		}
	}
	return regions
}

// amortizedGrowRanges collects the extents of guarded grow blocks: an
// if statement whose condition tests cap, len, or nil and whose body
// assigns a make result. That is the repo's blessed grow-to-cap /
// lazy-init idiom — the allocation runs once (or on capacity growth)
// and the steady state reuses the buffer — so a compiler escape inside
// one is amortized, not a per-call allocation. The carve-out mirrors
// dut/hotalloc's own make([]T, n) exemption.
func amortizedGrowRanges(body *ast.BlockStmt) [][2]token.Pos {
	var ranges [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !isGrowGuard(ifs.Cond) {
			return true
		}
		assignsMake := false
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, rhs := range as.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
						assignsMake = true
					}
				}
			}
			return true
		})
		if assignsMake {
			ranges = append(ranges, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return ranges
}

// isGrowGuard reports whether cond is a capacity or initialization
// test: any expression mentioning cap(...) or len(...), or a
// comparison against nil.
func isGrowGuard(cond ast.Expr) bool {
	guard := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				guard = true
			}
		case *ast.Ident:
			if e.Name == "nil" {
				guard = true
			}
		}
		return true
	})
	return guard
}

// escapeMarkers are the -m=2 messages that mean "a heap allocation
// happens here". Leaking-param notes attribute the allocation to the
// caller and does-not-escape notes are the good case; both are skipped.
var escapeMarkers = []string{"escapes to heap", "moved to heap"}

// EscapeAudit diffs compiler escape output against the analyzer's view.
// buildOutput is the combined output of `go build -gcflags=-m=2` over
// the hot packages, run from root (relative diagnostic paths are
// resolved against it). diags must be a full RunPackageAll result so
// suppressed findings count as reviewed.
func EscapeAudit(p *Program, diags []Diagnostic, buildOutput, root string) []EscapeMiss {
	regions := hotRegions(p, diags)
	var misses []EscapeMiss
	seen := map[string]bool{} // -m=2 repeats diagnostics per inline context
	for _, line := range strings.Split(buildOutput, "\n") {
		pos, text, ok := parseEscapeLine(line, root)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)
		if seen[key] {
			continue
		}
		seen[key] = true
		marked := false
		for _, m := range escapeMarkers {
			if strings.Contains(text, m) {
				marked = true
				break
			}
		}
		if !marked {
			continue
		}
		for i := range regions {
			r := &regions[i]
			if pos.Filename != r.file || pos.Line < r.start || pos.Line > r.end {
				continue
			}
			cold := false
			for _, cr := range r.cold {
				if pos.Line >= cr[0] && pos.Line <= cr[1] {
					cold = true
					break
				}
			}
			if cold || r.covered {
				break
			}
			misses = append(misses, EscapeMiss{Pos: pos, Fn: r.fn, Text: text})
			break
		}
	}
	sort.Slice(misses, func(i, j int) bool {
		a, b := misses[i], misses[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return misses
}

// parseEscapeLine splits one "path:line:col: message" compiler line,
// resolving relative paths against root.
func parseEscapeLine(line, root string) (token.Position, string, bool) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return token.Position{}, "", false
	}
	ln, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return token.Position{}, "", false
	}
	name := parts[0]
	if !filepath.IsAbs(name) {
		name = filepath.Join(root, name)
	}
	return token.Position{Filename: name, Line: ln, Column: col}, strings.TrimSpace(parts[3]), true
}

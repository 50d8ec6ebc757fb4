package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// AnalyzerWireExhaustive verifies closure of the wire-frame registry: for
// every FrameType constant the package declares, there must be its one
// encoder, Append<Name>, a ReadFrame decoder case with validation, a
// FuzzFrame round-trip seed (the fuzz harness encodes a valid frame of
// the type), and a malformed-input seed (a raw f.Add byte literal
// carrying the frame's type byte) — so the next AGG_*-style frame family
// cannot ship half-covered. The package's frames must also leave through
// writeCoalesced, the one frame writer, which must be in the
// dut/framediscipline writer set. Test files are not part of the
// type-checked load, so the fuzz seeds are checked syntactically from
// the package directory's *_test.go sources.
var AnalyzerWireExhaustive = &Analyzer{
	Name: "dut/wireexhaustive",
	Doc:  "FrameType without Append encoder, validating decoder case or fuzz seeds; frames without the framediscipline writer",
	Run:  runWireExhaustive,
}

func runWireExhaustive(p *Pass) error {
	if !p.InScope(frameScope...) {
		return nil
	}
	frames := frameConsts(p.Pkg)
	if len(frames) == 0 {
		return nil
	}

	readFrame := p.findFuncDecl("ReadFrame")
	caseFor, validated := decoderCases(p, readFrame)
	roundTrip, malformed, err := fuzzSeeds(p)
	if err != nil {
		return err
	}

	if writer, ok := p.Pkg.Scope().Lookup(frameWriter).(*types.Func); !ok {
		p.Reportf(frames[0].obj.Pos(), "the package declares frames but no %s to write them", frameWriter)
	} else if !frameWriteCalls[frameWriter] {
		p.Reportf(writer.Pos(), "%s is missing from the dut/framediscipline writer set (frameWriteCalls)", frameWriter)
	}
	for _, fr := range frames {
		if _, ok := p.Pkg.Scope().Lookup("Append" + fr.base).(*types.Func); !ok {
			p.Reportf(fr.obj.Pos(), "%s has no encoder: want Append%s", fr.name, fr.base)
		}
		if readFrame != nil {
			if !caseFor[fr.obj] {
				p.Reportf(fr.obj.Pos(), "%s has no ReadFrame decoder case", fr.name)
			} else if !validated[fr.obj] {
				p.Reportf(fr.obj.Pos(), "%s decoder case performs no validation (no error construction or check* call)", fr.name)
			}
		} else {
			p.Reportf(fr.obj.Pos(), "%s is declared but the package has no ReadFrame decoder", fr.name)
		}
		if !roundTrip[fr.base] {
			p.Reportf(fr.obj.Pos(), "%s has no FuzzFrame round-trip seed (no Append%s call in a Fuzz function)", fr.name, fr.base)
		}
		if !malformed[fr.value] {
			p.Reportf(fr.obj.Pos(), "%s has no malformed-input fuzz seed (no raw f.Add byte literal with type byte %d)", fr.name, fr.value)
		}
	}
	return nil
}

// wireFrame is one FrameType constant of the registry.
type wireFrame struct {
	obj   types.Object
	name  string // constant name, e.g. FrameAggSum
	base  string // encoder suffix, e.g. AggSum
	value uint64 // wire type byte
}

// frameConsts collects the package's FrameType constants in value order.
func frameConsts(pkg *types.Package) []wireFrame {
	var out []wireFrame
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok || named.Obj().Name() != "FrameType" || named.Obj().Pkg() != pkg {
			continue
		}
		v, ok := constant.Uint64Val(c.Val())
		if !ok {
			continue
		}
		out = append(out, wireFrame{
			obj:   c,
			name:  name,
			base:  strings.TrimPrefix(name, "Frame"),
			value: v,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

// findFuncDecl locates a package-level function declaration by name.
func (p *Pass) findFuncDecl(name string) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, fd := range funcDecls(f) {
			if fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// decoderCases maps each frame constant to whether ReadFrame has a case
// for it and whether that case validates (constructs an error or calls
// a check* helper).
func decoderCases(p *Pass, readFrame *ast.FuncDecl) (caseFor, validated map[types.Object]bool) {
	caseFor = map[types.Object]bool{}
	validated = map[types.Object]bool{}
	if readFrame == nil {
		return caseFor, validated
	}
	ast.Inspect(readFrame.Body, func(n ast.Node) bool {
		clause, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		hasValidation := false
		for _, stmt := range clause.Body {
			ast.Inspect(stmt, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || hasValidation {
					return !hasValidation
				}
				name := calleeName(call)
				if strings.HasPrefix(name, "check") || name == "Errorf" || name == "New" {
					hasValidation = true
				}
				return true
			})
		}
		for _, e := range clause.List {
			obj := exprObj(p.Info, e)
			if obj == nil {
				continue
			}
			caseFor[obj] = true
			if hasValidation {
				validated[obj] = true
			}
		}
		return true
	})
	return caseFor, validated
}

// fuzzSeeds scans the package directory's *_test.go sources (parse-only:
// test files are outside the type-checked load) for the fuzz corpus.
// roundTrip records the suffixes of Append* encoders called inside
// Fuzz* functions; malformed records the type byte of every raw []byte
// seed handed to f.Add (byte 3 of the frame header).
func fuzzSeeds(p *Pass) (roundTrip map[string]bool, malformed map[uint64]bool, err error) {
	roundTrip = map[string]bool{}
	malformed = map[uint64]bool{}
	pkg, ok := p.Prog.pkgs[p.PkgPath]
	if !ok || pkg.Dir == "" {
		return roundTrip, malformed, nil
	}
	names, err := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
	if err != nil {
		return nil, nil, fmt.Errorf("lint: globbing test files of %s: %w", p.PkgPath, err)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(p.Fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		for _, fd := range funcDecls(f) {
			if !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				cn := calleeName(call)
				if rest, ok := strings.CutPrefix(cn, "Append"); ok {
					roundTrip[rest] = true
				}
				if cn == "Add" && len(call.Args) == 1 {
					if b, ok := rawSeedTypeByte(call.Args[0]); ok {
						malformed[b] = true
					}
				}
				return true
			})
		}
	}
	return roundTrip, malformed, nil
}

// rawSeedTypeByte extracts byte 3 — the frame type — of a raw []byte
// composite-literal seed.
func rawSeedTypeByte(e ast.Expr) (uint64, bool) {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) < 4 {
		return 0, false
	}
	arr, ok := lit.Type.(*ast.ArrayType)
	if !ok {
		return 0, false
	}
	if id, ok := arr.Elt.(*ast.Ident); !ok || id.Name != "byte" {
		return 0, false
	}
	bl, ok := lit.Elts[3].(*ast.BasicLit)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(bl.Value, 0, 8)
	if err != nil {
		return 0, false
	}
	return v, true
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerScratchAlias enforces the scratch-buffer ownership contract
// behind the zero-allocation pipeline: a slice handed to SampleInto (the
// dist helper, a Sampler method, or a fixture spelled the same way)
// is lent to the callee for the duration of the call only. Within the
// enclosing function, a caller-visible buffer (parameter or struct field)
// that was passed as a scratch buffer must not be returned, stored into a
// field, or grown with append — append may reallocate, silently forking
// the buffer the rest of the pipeline reuses and breaking both the
// zero-alloc guarantee and bit-identical replay. The same holds for the
// dst parameter inside SampleInto implementations.
var AnalyzerScratchAlias = &Analyzer{
	Name: "dut/scratchalias",
	Doc:  "scratch buffers handed to SampleInto/RunRoundScratch retained, returned, or append-grown",
	Run:  runScratchAlias,
}

func runScratchAlias(p *Pass) error {
	if !p.InScope(deterministicScope...) {
		return nil
	}
	for _, f := range p.Files {
		for _, fd := range funcDecls(f) {
			p.checkScratchFunc(fd)
		}
	}
	return nil
}

// scratchBuffer is one tracked buffer object: caller-visible storage that
// was lent out as scratch at since.
type scratchBuffer struct {
	obj   types.Object
	since token.Pos
}

// checkScratchFunc analyzes one function for scratch-buffer escapes.
func (p *Pass) checkScratchFunc(fd *ast.FuncDecl) {
	params := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}

	var tracked []scratchBuffer
	track := func(obj types.Object, pos token.Pos) {
		if obj == nil {
			return
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		// Only caller-visible storage: a parameter or a struct field. A
		// locally-allocated slice is owned by this function, so returning
		// or growing it is legal (e.g. dist.SampleN).
		if !params[obj] && !v.IsField() {
			return
		}
		tracked = append(tracked, scratchBuffer{obj: obj, since: pos})
	}

	// The dst parameter of a SampleInto implementation is scratch from the
	// start of the body.
	if fd.Name.Name == "SampleInto" && fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if !isIntSlice(p.Info.TypeOf(field.Type)) {
				continue
			}
			for _, name := range field.Names {
				track(p.Info.Defs[name], fd.Body.Pos())
			}
			break
		}
	}

	// First pass: collect buffers lent to SampleInto calls.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || calleeName(call) != "SampleInto" {
			return true
		}
		if arg := scratchArg(p.Info, call); arg != nil {
			track(exprObj(p.Info, arg), call.End())
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}
	retained := func(e ast.Expr, after token.Pos) *scratchBuffer {
		obj := exprObj(p.Info, e)
		if obj == nil {
			return nil
		}
		for i := range tracked {
			if tracked[i].obj == obj && (after == token.NoPos || e.Pos() >= tracked[i].since) {
				return &tracked[i]
			}
		}
		return nil
	}

	// Second pass: flag escapes.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			// append(buf, ...) may reallocate the scratch backing array,
			// regardless of where it appears relative to the lend.
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "append" && len(node.Args) > 0 {
				if p.Info.Uses[id] == types.Universe.Lookup("append") {
					if b := retained(node.Args[0], token.NoPos); b != nil {
						p.Reportf(node.Pos(),
							"append on scratch buffer %s may reallocate and break the zero-alloc reuse contract", objName(b.obj))
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if b := retained(res, node.Pos()); b != nil {
					p.Reportf(node.Pos(),
						"returning scratch buffer %s lent to SampleInto; the callee's samples alias the shared scratch", objName(b.obj))
				}
			}
		case *ast.AssignStmt:
			// Storing the buffer into a field retains it beyond the call.
			for i, rhs := range node.Rhs {
				b := retained(rhs, node.Pos())
				if b == nil || i >= len(node.Lhs) {
					continue
				}
				if _, ok := ast.Unparen(node.Lhs[i]).(*ast.SelectorExpr); ok {
					p.Reportf(node.Pos(),
						"storing scratch buffer %s into a field retains it beyond the SampleInto call", objName(b.obj))
				}
			}
		}
		return true
	})
}

// scratchArg picks the buffer argument of a SampleInto call: the first
// []int argument (arg 1 of dist.SampleInto(s, buf, rng), arg 0 of the
// method form SampleInto(dst, rng)).
func scratchArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	for _, arg := range call.Args {
		if isIntSlice(info.TypeOf(arg)) {
			return arg
		}
	}
	return nil
}

// isIntSlice reports whether t is []int.
func isIntSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

// objName names an object for a diagnostic.
func objName(obj types.Object) string {
	if obj == nil {
		return "buffer"
	}
	return obj.Name()
}

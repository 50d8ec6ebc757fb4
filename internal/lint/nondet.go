package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerNondeterminism enforces the seeded-stream contract: inside the
// deterministic packages every verdict-affecting computation must be a
// pure function of the engine seed. It flags wall-clock reads (time.Now /
// time.Since), the global math/rand generators,
// ad-hoc rand generator construction outside the blessed engine
// derivations, seeding a dist.PCG outside internal/engine and
// internal/dist, and map iteration (whose order is randomized per run).
var AnalyzerNondeterminism = &Analyzer{
	Name: "dut/nondeterminism",
	Doc:  "wall-clock, global/ad-hoc rand, and map-order dependence in deterministic packages",
	Run:  runNondeterminism,
}

// blessedRNGConstructors are the engine functions allowed to call
// rand.New / rand.NewPCG: the canonical (seed, trial, player) stream
// derivations of internal/engine/rng.go.
var blessedRNGConstructors = map[string]bool{
	"NodeRNG":        true,
	"TrialRNG":       true,
	"PlayerRNG":      true,
	"NewReusableRNG": true,
}

// randConstructors are the math/rand(/v2) package functions that build
// generator state rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewSource":  true,
	"NewZipf":    true,
}

func runNondeterminism(p *Pass) error {
	if !p.InScope(deterministicScope...) {
		return nil
	}
	engine := pathIn(p.PkgPath, "internal/engine")
	for _, f := range p.Files {
		for _, fd := range funcDecls(f) {
			blessed := engine && fd.Recv == nil && blessedRNGConstructors[fd.Name.Name]
			ast.Inspect(fd, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					p.checkNondetCall(node, blessed)
				case *ast.RangeStmt:
					p.checkMapRange(node)
				}
				return true
			})
		}
	}
	return nil
}

// checkNondetCall flags time.Now/Since, math/rand usage and dist.PCG
// seeding.
func (p *Pass) checkNondetCall(call *ast.CallExpr, inBlessedConstructor bool) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	// The batch kernels' generator is seeded only where the engine
	// derives a stream (ReusableRNG) or where the type lives.
	if name == "Seed" && recvTypeName(fn) == "PCG" && pathIn(pkg, "internal/dist") &&
		!pathIn(p.PkgPath, "internal/engine", "internal/dist") {
		p.Reportf(call.Pos(),
			"ad-hoc dist.PCG seeding (PCG.Seed) outside the engine derivations; use engine.ReusableRNG")
		return
	}
	switch pkg {
	case "time":
		if name == "Now" || name == "Since" {
			p.Reportf(call.Pos(),
				"wall-clock read (time.%s) in a deterministic package; time it outside the deterministic packages or suppress with a reason", name)
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on rand types (e.g. PCG.Seed) are fine
		}
		if randConstructors[name] {
			if !inBlessedConstructor {
				p.Reportf(call.Pos(),
					"ad-hoc rand generator (rand.%s) outside the blessed engine derivations; use engine.NodeRNG/TrialRNG/ReusableRNG", name)
			}
			return
		}
		p.Reportf(call.Pos(),
			"global math/rand generator (rand.%s) is not seed-derived; draw from an engine stream instead", name)
	}
}

// checkMapRange flags ranging over a map value, except for the
// key-collection idiom that feeds a sort.
func (p *Pass) checkMapRange(r *ast.RangeStmt) {
	t := p.Info.TypeOf(r.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isKeyCollection(r) {
		return
	}
	p.Reportf(r.Pos(),
		"map iteration order is nondeterministic; iterate a sorted or structurally ordered key set")
}

// isKeyCollection recognizes the order-insensitive canonical fix for map
// iteration: a key-only range whose body is exactly `keys = append(keys,
// k)`, collecting the keys for a subsequent sort.
func isKeyCollection(r *ast.RangeStmt) bool {
	if r.Value != nil || len(r.Body.List) != 1 {
		return false
	}
	assign, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

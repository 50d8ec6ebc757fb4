package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AnalyzerFrameDiscipline enforces the wire-protocol contract in
// internal/network and internal/congest: every byte on a connection goes
// through the validated frame encoder (wire.go), every frame read happens
// under a freshly-set deadline, and a frame write must not ride a
// deadline that sampling or rule evaluation has already consumed. It
// flags raw conn.Write/conn.Read calls outside the encoder and outside
// Write/Read wrapper methods, binary.Write/binary.Read anywhere in scope,
// frame reads (ReadFrame/expectFrame) with no earlier deadline call in
// the same function, and frame writes (writeCoalesced, the one function
// that writes frames) after a SampleInto or rule Message call since the
// last deadline refresh.
var AnalyzerFrameDiscipline = &Analyzer{
	Name: "dut/framediscipline",
	Doc:  "raw conn writes, binary.Write/Read, and deadline-less or stale-deadline frame IO",
	Run:  runFrameDiscipline,
}

// encoderFiles hold the blessed frame encoder, exempt from the raw-IO
// rules (the encoder is where the raw write lives by design).
var encoderFiles = map[string]bool{"wire.go": true}

// frameWriter is the one function that writes frames.
const frameWriter = "writeCoalesced"

var (
	deadlineCalls = map[string]bool{
		"setDeadline": true, "SetDeadline": true,
		"SetReadDeadline": true, "SetWriteDeadline": true,
		// The batch session splits the budget between its reader and
		// writer goroutines through these wrappers.
		"setReadDeadline": true, "setWriteDeadline": true,
	}
	frameReadCalls = map[string]bool{
		"ReadFrame": true, "readFrame": true, "expectFrame": true,
	}
	// Every frame is encoded by a wire.go Append* function and leaves
	// through frameWriter, alone or in a coalesced run.
	frameWriteCalls = map[string]bool{frameWriter: true}
	// consumingCalls can eat an arbitrary slice of the current deadline
	// budget: batch sampling and user-provided rule evaluation.
	consumingCalls = map[string]bool{"SampleInto": true, "Message": true}
)

// frameEvent is one ordered IO-relevant call inside a function body.
type frameEvent struct {
	pos  token.Pos
	kind int
}

const (
	evDeadline = iota
	evConsume
	evRead
	evWrite
)

func runFrameDiscipline(p *Pass) error {
	if !p.InScope(frameScope...) {
		return nil
	}
	connIface := netConnInterface(p.Pkg)
	for _, f := range p.Files {
		if encoderFiles[p.fileBase(f.Pos())] {
			continue
		}
		for _, fd := range funcDecls(f) {
			wrapper := fd.Recv != nil && (fd.Name.Name == "Write" || fd.Name.Name == "Read")
			p.checkFrameFunc(fd.Body, connIface, wrapper)
		}
	}
	return nil
}

// checkFrameFunc analyzes one function body; nested function literals
// recurse with their own deadline state (a goroutine or callback manages
// its own IO budget).
func (p *Pass) checkFrameFunc(body *ast.BlockStmt, connIface *types.Interface, wrapper bool) {
	var events []frameEvent
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			p.checkFrameFunc(fl.Body, connIface, false)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		p.checkRawIO(call, connIface, wrapper)
		p.checkBinaryIO(call)
		switch name := calleeName(call); {
		case deadlineCalls[name]:
			events = append(events, frameEvent{call.Pos(), evDeadline})
		case consumingCalls[name]:
			events = append(events, frameEvent{call.Pos(), evConsume})
		case frameReadCalls[name]:
			events = append(events, frameEvent{call.Pos(), evRead})
		case frameWriteCalls[name]:
			events = append(events, frameEvent{call.Pos(), evWrite})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	deadlineSeen, consumedSince := false, false
	for _, ev := range events {
		switch ev.kind {
		case evDeadline:
			deadlineSeen, consumedSince = true, false
		case evConsume:
			consumedSince = true
		case evRead:
			if !deadlineSeen {
				p.Reportf(ev.pos,
					"frame read without a deadline set in this function; a dead peer blocks the round forever")
			}
		case evWrite:
			if deadlineSeen && consumedSince {
				p.Reportf(ev.pos,
					"frame write under a deadline already consumed by sampling or rule evaluation; refresh the deadline first")
			}
		}
	}
}

// checkRawIO flags direct Write/Read method calls on a net.Conn.
func (p *Pass) checkRawIO(call *ast.CallExpr, connIface *types.Interface, wrapper bool) {
	if wrapper || connIface == nil {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Write" && sel.Sel.Name != "Read") {
		return
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return
	}
	// A basic type never satisfies net.Conn; this also rejects the
	// Invalid type of package identifiers (pkg.Write calls), for which
	// types.Implements is unspecified.
	if _, basic := t.Underlying().(*types.Basic); basic {
		return
	}
	if !implementsConn(t, connIface) {
		return
	}
	p.Reportf(call.Pos(),
		"raw conn.%s bypasses the validated frame encoder; encode with the wire.go Append* functions, write with writeCoalesced and read with ReadFrame", sel.Sel.Name)
}

// checkBinaryIO flags encoding/binary stream IO, which would bypass the
// frame header/length validation.
func (p *Pass) checkBinaryIO(call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return
	}
	if fn.Name() == "Write" || fn.Name() == "Read" {
		p.Reportf(call.Pos(),
			"binary.%s writes an unframed stream; encode through the validated frame encoder instead", fn.Name())
	}
}

// netConnInterface finds the net.Conn interface among the package's
// imports (nil when the package does not import net).
func netConnInterface(pkg *types.Package) *types.Interface {
	for _, imp := range allImports(pkg, map[*types.Package]bool{}) {
		if imp.Path() != "net" {
			continue
		}
		obj := imp.Scope().Lookup("Conn")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}

// allImports walks the transitive import graph (net may arrive
// indirectly, e.g. via a helper package).
func allImports(pkg *types.Package, seen map[*types.Package]bool) []*types.Package {
	var out []*types.Package
	for _, imp := range pkg.Imports() {
		if seen[imp] {
			continue
		}
		seen[imp] = true
		out = append(out, imp)
		out = append(out, allImports(imp, seen)...)
	}
	return out
}

// implementsConn reports whether t (or *t) satisfies net.Conn.
func implementsConn(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

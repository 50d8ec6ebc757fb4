package lint

import (
	"fmt"
	"strings"
	"testing"
)

// TestProgramCacheInvalidation pins the per-package granularity of the
// call-graph cache: invalidating one package rebuilds only that
// package's fragment, while untouched fragments keep pointer identity —
// so an incremental caller never re-pays whole-program construction.
func TestProgramCacheInvalidation(t *testing.T) {
	hot := loadFixture(t, "hotalloc", "example.com/internal/network/fixture")
	goro := loadFixture(t, "goroleak", "example.com/internal/engine/fixture")
	prog := NewProgram(hot, goro)

	hotFrag := prog.fragment(hot)
	goroFrag := prog.fragment(goro)
	if len(hotFrag.nodes) == 0 || len(goroFrag.nodes) == 0 {
		t.Fatalf("fragments empty: hot=%d goro=%d", len(hotFrag.nodes), len(goroFrag.nodes))
	}
	if len(prog.hotReachable()) == 0 {
		t.Fatal("no hot-reachable functions despite a //dut:hotpath root")
	}

	prog.Invalidate(goro.Path)
	if got := prog.fragment(hot); got != hotFrag {
		t.Error("invalidating one package rebuilt another package's fragment")
	}
	if got := prog.fragment(goro); got == goroFrag {
		t.Error("invalidated fragment was served from cache")
	}
	// Derived cross-package caches must drop on any invalidation.
	if prog.hotFrom != nil {
		t.Error("hotFrom cache survived Invalidate")
	}
	if len(prog.hotReachable()) == 0 {
		t.Error("hot reachability lost after rebuild")
	}
}

// TestColdpathBoundary pins the marker semantics: reachability descends
// through unmarked callees but stops at a //dut:coldpath function.
func TestColdpathBoundary(t *testing.T) {
	hot := loadFixture(t, "hotalloc", "example.com/internal/network/fixture")
	prog := NewProgram(hot)
	reach := prog.hotReachable()
	var keys []string
	for k := range reach {
		keys = append(keys, k)
	}
	has := func(sub string) bool {
		for _, k := range keys {
			if k == sub || len(k) > len(sub) && k[len(k)-len(sub)-1:] == "."+sub {
				return true
			}
		}
		return false
	}
	if !has("fill") {
		t.Errorf("fill not hot-reachable; reach=%v", keys)
	}
	if has("newWorker") {
		t.Errorf("//dut:coldpath newWorker is hot-reachable; reach=%v", keys)
	}
	if has("orphan") {
		t.Errorf("unreachable orphan is hot-reachable; reach=%v", keys)
	}
}

// TestHotKernelsStayReachable pins dut/hotalloc's coverage of the
// repository's hot kernels: each must stay reachable from a
// //dut:hotpath root, or the analyzer stops checking it without a
// word. The call graph does not follow a func value or an interface
// call, so a kernel behind one (the engine Loop's Trial, a node
// program's Step) needs a marked root of its own.
func TestHotKernelsStayReachable(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages under ./internal")
	}
	module, _, _ := strings.Cut(pkgs[0].Path, "/internal/")
	reach := NewProgram(pkgs...).hotReachable()
	for _, kernel := range []string{
		"(*%s/internal/core.SMP).runMessagesScratch",
		"(*%s/internal/congest.Tester).runSeededScratch",
		"(*%s/internal/congest.Simulator).Run",
		"(*%s/internal/network.PlayerNode).voteBatch",
		"(*%s/internal/network.batchSession).decideCounters",
		"%s/internal/network.reduceSums",
		"(*%s/internal/dist.AliasSampler).SampleInto",
		"(*%s/internal/centralized.CollisionCounter).Count",
		"(*%s/internal/core.collisions).count",
		"%s/internal/engine.NodeSeedBlock",
		"%s/internal/core.PackPlaneWord",
	} {
		key := fmt.Sprintf(kernel, module)
		if _, ok := reach[key]; !ok {
			t.Errorf("%s is reachable from no //dut:hotpath root", key)
		}
	}
}

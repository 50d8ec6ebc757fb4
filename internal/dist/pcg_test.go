package dist

import (
	"math/rand/v2"
	"testing"
)

// TestPCGMatchesStdlib pins PCG to math/rand/v2's generator: 10,000
// words from each of many seeds, all drawn from one PCG that is
// re-Seeded between them, and the state they leave behind. The zero
// value goes first, as the state Seed(0, 0) sets.
func TestPCGMatchesStdlib(t *testing.T) {
	seeds := [][2]uint64{{0, 0}, {1, 2}, {^uint64(0), ^uint64(0)}, {0, ^uint64(0)}}
	pick := rand.New(rand.NewPCG(99, 100))
	for len(seeds) < 64 {
		seeds = append(seeds, [2]uint64{pick.Uint64(), pick.Uint64()})
	}
	var p PCG
	for k, s := range seeds {
		if k > 0 {
			p.Seed(s[0], s[1])
		}
		ref := rand.NewPCG(s[0], s[1])
		for i := 0; i < 10000; i++ {
			if got, want := p.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %#x: word %d is %#x, want %#x", s, i, got, want)
			}
		}
		if want := stdState(ref); p != want {
			t.Fatalf("seed %#x: state %+v after 10000 words, want %+v", s, p, want)
		}
	}
}

// TestPCGMultiStep checks the two-step and four-step constants: one
// pcgStep2 equals two pcgStep calls, and one pcgStep4 four, on random
// states and at the extremes.
func TestPCGMultiStep(t *testing.T) {
	states := [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {0, ^uint64(0)}, {^uint64(0), 0}}
	pick := rand.New(rand.NewPCG(7, 8))
	for len(states) < 10000 {
		states = append(states, [2]uint64{pick.Uint64(), pick.Uint64()})
	}
	for _, s := range states {
		wantHi, wantLo := pcgStep(pcgStep(s[0], s[1]))
		if hi, lo := pcgStep2(s[0], s[1]); hi != wantHi || lo != wantLo {
			t.Fatalf("state %#x: two-step (%#x, %#x), two single steps (%#x, %#x)", s, hi, lo, wantHi, wantLo)
		}
		wantHi, wantLo = pcgStep(pcgStep(wantHi, wantLo))
		if hi, lo := pcgStep4(s[0], s[1]); hi != wantHi || lo != wantLo {
			t.Fatalf("state %#x: four-step (%#x, %#x), four single steps (%#x, %#x)", s, hi, lo, wantHi, wantLo)
		}
	}
}

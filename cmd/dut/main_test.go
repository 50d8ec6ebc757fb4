package main

import (
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

func TestRunDispatch(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("no args exit = %d", code)
	}
	if code := run([]string{"help"}); code != 0 {
		t.Errorf("help exit = %d", code)
	}
	if code := run([]string{"frobnicate"}); code != 2 {
		t.Errorf("unknown subcommand exit = %d", code)
	}
	if code := run([]string{"verify", "-badflag"}); code != 2 {
		t.Errorf("verify bad flag exit = %d", code)
	}
	if code := run([]string{"exp", "-run", "E99"}); code != 2 {
		t.Errorf("unknown experiment exit = %d", code)
	}
}

func TestCmdBounds(t *testing.T) {
	if code := cmdBounds(nil); code != 0 {
		t.Errorf("default bounds exit = %d", code)
	}
	if code := cmdBounds([]string{"-n", "1024", "-k", "16", "-eps", "0.25"}); code != 0 {
		t.Errorf("custom bounds exit = %d", code)
	}
	if code := cmdBounds([]string{"-n", "1"}); code != 1 {
		t.Errorf("invalid n exit = %d", code)
	}
	if code := cmdBounds([]string{"-badflag"}); code != 2 {
		t.Errorf("bad flag exit = %d", code)
	}
}

func TestHardFor(t *testing.T) {
	h, err := hardFor(1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 1024 {
		t.Errorf("N = %d", h.N())
	}
	if _, err := hardFor(1000, 0.5); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestBuildSource(t *testing.T) {
	rng := newTestRand()
	for _, source := range []string{"uniform", "zipf", "hard"} {
		s, desc, err := buildSource(source, 64, 0.5, rng)
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		if s == nil || desc == "" {
			t.Errorf("%s: empty result", source)
		}
		if v := s.Sample(rng); v < 0 || v >= 64 {
			t.Errorf("%s: sample %d out of range", source, v)
		}
	}
	if _, _, err := buildSource("nope", 64, 0.5, rng); err == nil {
		t.Error("unknown source accepted")
	}
	if _, _, err := buildSource("hard", 100, 0.5, rng); err == nil {
		t.Error("non-power-of-two hard accepted")
	}
}

func TestRunTesterModes(t *testing.T) {
	rng := newTestRand()
	s, _, err := buildSource("uniform", 256, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"collision", "chisq", "threshold", "and"} {
		rate, err := runTester(mode, 256, 0.5, 4, 0, 5, s, rng)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if rate < 0 || rate > 1 {
			t.Errorf("%s: rate %v", mode, rate)
		}
	}
	if _, err := runTester("nope", 256, 0.5, 4, 0, 1, s, rng); err == nil {
		t.Error("unknown mode accepted")
	}
	// Explicit q is honored.
	if _, err := runTester("collision", 256, 0.5, 4, 50, 2, s, rng); err != nil {
		t.Errorf("explicit q: %v", err)
	}
}

func TestCmdTestSyntheticSources(t *testing.T) {
	if code := cmdTest([]string{"-n", "256", "-source", "uniform", "-mode", "collision", "-trials", "3", "-seed", "1"}); code != 0 {
		t.Errorf("uniform test exit = %d", code)
	}
	if code := cmdTest([]string{"-n", "256", "-source", "hard", "-mode", "threshold", "-k", "4", "-trials", "3", "-seed", "2"}); code != 0 {
		t.Errorf("hard test exit = %d", code)
	}
	if code := cmdTest([]string{"-source", "nope"}); code != 1 {
		t.Errorf("bad source exit = %d", code)
	}
	if code := cmdTest([]string{"-badflag"}); code != 2 {
		t.Errorf("bad flag exit = %d", code)
	}
}

func TestCmdNetDemo(t *testing.T) {
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-seed", "3"}); code != 0 {
		t.Errorf("mem netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-tcp", "-far", "-seed", "4"}); code != 0 {
		t.Errorf("tcp netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "1000", "-far"}); code != 1 {
		t.Errorf("non-power-of-two far exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-badflag"}); code != 2 {
		t.Errorf("bad flag exit = %d", code)
	}
}

func TestCmdNetDemoBatched(t *testing.T) {
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-seed", "3", "-rounds", "9", "-batch", "4", "-window", "2"}); code != 0 {
		t.Errorf("batched mem netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-tcp", "-far", "-seed", "4", "-batch", "8"}); code != 0 {
		t.Errorf("batched tcp netdemo exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-window", "2"}); code != 2 {
		t.Errorf("-window without -batch exit = %d", code)
	}
	if code := cmdNetDemo([]string{"-n", "256", "-k", "4", "-batch", "-1"}); code != 2 {
		t.Errorf("negative -batch exit = %d", code)
	}
}

// TestCmdNetDemoFrameCounts pins the per-tier frame counts netdemo
// prints, FINISH included: the demo closes its backend, which finishes
// the session the engine left parked, before it reads the counts.
func TestCmdNetDemoFrameCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "flat star",
			args: []string{"-n", "256", "-k", "4", "-seed", "3", "-rounds", "9", "-batch", "4", "-window", "2"},
			want: []string{
				"frames root -> players: 16 frames (FINISH:4 ROUND_BATCH:12)",
				"frames players -> root: 16 frames (HELLO:4 VOTE_BATCH:12)",
			},
		},
		{
			name: "referee tree",
			args: []string{"-k", "16", "-shards", "4", "-batch", "8", "-window", "2", "-rounds", "32", "-seed", "7"},
			want: []string{
				"frames root -> aggregators:    20 frames (FINISH:4 ROUND_BATCH:16)",
				"frames aggregators -> root:    20 frames (AGG_HELLO:4 AGG_SUM:16)",
				"frames aggregators -> players: 80 frames (FINISH:16 ROUND_BATCH:64)",
				"frames players -> aggregators: 80 frames (HELLO:16 VOTE_BATCH:64)",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, code := captureStdout(t, func() int { return cmdNetDemo(tc.args) })
			if code != 0 {
				t.Fatalf("netdemo exit = %d; output:\n%s", code, out)
			}
			var got []string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "frames ") {
					got = append(got, line)
				}
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("frame counts:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed with its result.
func captureStdout(t *testing.T, f func() int) (string, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	code := f()
	os.Stdout = stdout
	_ = w.Close()
	out := <-printed
	_ = r.Close()
	return string(out), code
}

func newTestRand() *rand.Rand {
	return rand.New(rand.NewPCG(7, 11))
}

package bench

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/distributed-uniformity/dut/internal/engine"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{42}, 0.99); got != 42 {
		t.Errorf("percentile of one sample = %v, want 42", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// spread rule BENCHMARK.json bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestJudgeBounds(t *testing.T) {
	rate := MetricSpec{Name: "trials_per_s", Better: "higher", Bound: 0.1}
	cpu := MetricSpec{Name: "cpu_us_per_trial", Better: "lower", Bound: 0.1}
	allocs := MetricSpec{Name: "allocs_per_trial", Better: "lower", Bound: 0.05}
	flat := func(v float64) []float64 { return []float64{v, v, v} }
	for _, tc := range []struct {
		name string
		m    MetricSpec
		a, b []float64
		want string
	}{
		{"cpu inside bound", cpu, flat(100), flat(109), within},
		{"cpu past bound", cpu, flat(100), flat(111), worse},
		{"cpu better past bound", cpu, flat(100), flat(85), better},
		{"rate drop past bound", rate, flat(100), flat(89), worse},
		{"rate rise inside bound", rate, flat(100), flat(105), within},
		{"noisy base", cpu, []float64{80, 100, 120}, []float64{95, 100, 105}, unresolved},
		{"noisy but every run better", cpu, []float64{80, 100, 120}, []float64{50, 55, 60}, better},
		{"allocs inside bound", allocs, flat(20), flat(20.9), within},
		{"allocs past bound", allocs, flat(20), flat(21.5), worse},
	} {
		if got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// A traced cluster backend must still take the engine's batch path: one
// RunRoundsScratch per chunk of batch*window trials, and the same verdicts
// as the bare backend.
func TestTracedClusterBackendTakesBatchPath(t *testing.T) {
	w, err := Lookup("cluster-flat")
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	w.batch, w.window, w.workers = 8, 2, 1
	const trials = 53
	in, err := newInputs(w.n, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTracer(w)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := w.build(tr)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := w.build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := engine.Run(ctx, traced, in.source, trials, w.options(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Run(ctx, bare, in.source, trials, w.options(7))
	if err != nil {
		t.Fatal(err)
	}
	chunk := w.batch * w.window
	if n, wantChunks := len(tr.chunks), (trials+chunk-1)/chunk; n != wantChunks {
		t.Errorf("traced run made %d RunRoundsScratch calls, want %d", n, wantChunks)
	}
	for i := range want {
		if got[i].Verdict != want[i].Verdict {
			t.Fatalf("trial %d: traced verdict %v, bare %v", i, got[i].Verdict, want[i].Verdict)
		}
	}
	if calls := tr.rule.calls(); calls != uint64(trials*w.k) {
		t.Errorf("rule wrapper counted %d calls, want %d", calls, trials*w.k)
	}
}

// flipBackend flips the verdict of one trial: a backend that breaks the
// cross-backend determinism contract.
type flipBackend struct {
	engine.BatchBackend
	trial int
}

func (b flipBackend) RunRoundsScratch(ctx context.Context, scratch any, specs []engine.RoundSpec, batch int, out []engine.RoundResult) error {
	if err := b.BatchBackend.RunRoundsScratch(ctx, scratch, specs, batch, out); err != nil {
		return err
	}
	for i, s := range specs {
		if s.Trial == b.trial {
			out[i].Verdict = !out[i].Verdict
		}
	}
	return nil
}

func TestGateCatchesOneFlippedVerdict(t *testing.T) {
	w, err := Lookup("smp-sampling")
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	in, err := newInputs(w.n, 5)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := w.build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.reference()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, in: in, log: testWriter{t}}
	ctx := context.Background()
	honest := []callRecord{r.call(ctx, bare, in.source, 11)}
	if _, _, err := gate(ctx, ref, in.source, w, honest, w.gateTrials); err != nil {
		t.Fatalf("gate rejected an honest backend: %v", err)
	}
	flipped := []callRecord{r.call(ctx, flipBackend{bare.(engine.BatchBackend), 37}, in.source, 11)}
	if _, _, err := gate(ctx, ref, in.source, w, flipped, w.gateTrials); err == nil {
		t.Fatal("gate accepted a backend that flipped trial 37")
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// benchmarkSpec is BENCHMARK.json as the repository commits it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	s := loadBenchmarkSpec(t)
	ws := workloads()
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the harness has %q: %q", i, s.Workloads[i], w.Name, w.Why)
		}
	}
}

// The smoke run drives every workload at reduced size through both passes
// and checks each reports exactly the metrics BENCHMARK.json names, with
// their units, and passes the correctness gate.
func TestSmokeAllWorkloads(t *testing.T) {
	s := loadBenchmarkSpec(t)
	ctx := context.Background()
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			res, err := Run(ctx, w.smoke(), Config{Seed: 1, Trace: trace, Log: testWriter{t}})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

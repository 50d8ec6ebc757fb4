package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Spec is the subset of BENCHMARK.json the comparison reads.
type Spec struct {
	EndToEnd []MetricSpec `json:"end_to_end"`
}

// MetricSpec is one end-to-end metric of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Paths relative to the repository root, where dutbench runs.
const (
	// SpecPath is the benchmark definition holding the metric bounds.
	SpecPath = "BENCHMARK.json"
	// OutDir receives result and trace files; it is git-ignored.
	OutDir = "bench/out"
)

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	return s, nil
}

// Header identifies where and from what a result file was measured.
type Header struct {
	GitSHA     string  `json:"git_sha"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Date       string  `json:"date"`
}

// machineHeader describes this build and machine. Outside a git checkout
// the sha reads "unknown".
func machineHeader(seed uint64, seconds float64) Header {
	h := Header{
		GitSHA: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Seed: seed, Seconds: seconds,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			h.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// RunRecord is one workload run inside a result file.
type RunRecord struct {
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
}

// ResultFile is what a full dutbench run writes and -compare reads.
type ResultFile struct {
	Header Header      `json:"header"`
	Runs   []RunRecord `json:"runs"`
}

// LoadResults reads a result file.
func LoadResults(path string) (ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ResultFile{}, err
	}
	var f ResultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return ResultFile{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	return f, nil
}

// values collects one end-to-end metric of one workload across the
// untraced runs of a file.
func (f ResultFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// Verdicts of a comparison row.
const (
	within     = "within"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// allowance is how far a metric may worsen from base before it counts as a
// regression: its bound, a share of base.
func allowance(m MetricSpec, base float64) float64 {
	return m.Bound * math.Abs(base)
}

// worsening is how much worse b reads than a, in the metric's direction.
func worsening(m MetricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return a - b
	}
	return b - a
}

// judge decides one row. A metric whose run-to-run spread (interquartile
// range, either side) is wider than its allowance is unresolved, unless
// every run of b reads better than every run of a.
func judge(m MetricSpec, a, b []float64) string {
	medA, medB := median(a), median(b)
	allowed := allowance(m, medA)
	noise := 0.0
	for _, xs := range [][]float64{a, b} {
		q1, q3 := quartiles(xs)
		noise = math.Max(noise, q3-q1)
	}
	loss := worsening(m, medA, medB)
	switch {
	case noise > allowed:
		if allBetter(m, a, b) {
			return better
		}
		return unresolved
	case loss > allowed:
		return worse
	case -loss > allowed:
		return better
	}
	return within
}

func allBetter(m MetricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worsening(m, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

// Compare prints one row per workload and end-to-end metric of two result
// files against the BENCHMARK.json bounds, and reports whether any row is
// worse.
func Compare(out io.Writer, spec Spec, a, b ResultFile) (anyWorse bool) {
	for _, f := range []struct {
		side string
		h    Header
	}{{"A", a.Header}, {"B", b.Header}} {
		fmt.Fprintf(out, "%s: sha %s dirty=%v %s nproc=%d GOMAXPROCS=%d cpu=%q seed=%d seconds=%g\n",
			f.side, f.h.GitSHA, f.h.Dirty, f.h.GoVersion, f.h.NProc, f.h.GOMAXPROCS, f.h.CPUModel, f.h.Seed, f.h.Seconds)
	}
	fmt.Fprintf(out, "%-14s %-22s %-34s %-34s %8s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
	for _, w := range workloads() {
		for _, m := range spec.EndToEnd {
			xa, xb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(out, "%-14s %-22s missing (A %d runs, B %d runs)\n", w.Name, m.Name, len(xa), len(xb))
				continue
			}
			v := judge(m, xa, xb)
			if v == worse {
				anyWorse = true
			}
			fmt.Fprintf(out, "%-14s %-22s %-34s %-34s %+7.2f%% %s\n", w.Name, m.Name,
				summary(xa, m.Unit), summary(xb, m.Unit), 100*ratio(median(xb)-median(xa), math.Abs(median(xa))), v)
		}
	}
	return anyWorse
}

func summary(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %s", median(xs), q1, q3, unit)
}

package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// parseResult reads a Result from the last non-empty line of a run's
// standard output.
func parseResult(stdout []byte) (Result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	var r Result
	if last == "" {
		return r, fmt.Errorf("bench: run printed no result")
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("bench: result line %q: %w", last, err)
	}
	return r, nil
}

// RunAll runs every workload runs times, each pass in its own child
// process (exe re-executed with -workload), so CPU time, peak RSS and GC
// state never leak between workloads. Each workload gets an untraced pass
// for the end-to-end metrics and a traced pass for the per-layer ones. It
// prints every metric with its unit and reports whether every pass was
// correct.
func RunAll(ctx context.Context, exe string, seed uint64, seconds float64, runs int, stdout, stderr io.Writer) (ResultFile, bool) {
	file := ResultFile{Header: machineHeader(seed, seconds)}
	ok := true
	for run := 0; run < runs; run++ {
		for _, w := range workloads() {
			for _, trace := range []bool{false, true} {
				flag := "0"
				if trace {
					flag = "1"
				}
				var out bytes.Buffer
				cmd := exec.CommandContext(ctx, exe, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", flag)
				cmd.Stdout, cmd.Stderr = &out, stderr
				runErr := cmd.Run()
				res, err := parseResult(out.Bytes())
				if err != nil {
					fmt.Fprintf(stderr, "%s (trace=%v): %v (exit: %v)\n", w.Name, trace, err, runErr)
					ok = false
					continue
				}
				if runErr != nil || !res.Correct || res.Failed > 0 {
					ok = false
				}
				file.Runs = append(file.Runs, RunRecord{Workload: w.Name, Run: run, Trace: trace, Result: res})
				printResult(stdout, w.Name, trace, res)
			}
		}
	}
	return file, ok
}

func printResult(out io.Writer, workload string, trace bool, r Result) {
	kind := "end-to-end"
	if trace {
		kind = "per-layer"
	}
	fmt.Fprintf(out, "%s %s: correct=%v attempted=%d failed=%d\n", workload, kind, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// Command dutbench runs the repository's benchmark. With -workload it runs
// one workload in this process and prints its result as the last line of
// standard output; without it, it runs every workload in child processes
// and writes a result file; with -compare it checks two result files
// against the bounds in BENCHMARK.json. It reads BENCHMARK.json and writes
// under bench/out, both relative to the repository root, so it runs from
// there: bench/run.sh builds and runs it; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"github.com/distributed-uniformity/dut/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dutbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in-process and print its result as the last line")
	seed := fs.Uint64("seed", 1, "seed of the inputs and engine seeds")
	seconds := fs.Float64("seconds", 10, "measured seconds per run (at least the workload's minimum repetitions run)")
	trace := fs.Int("trace", 0, "with -workload: 1 runs paired traced repetitions and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "without -workload: full runs of every workload")
	compare := fs.Bool("compare", false, "compare two result files: dutbench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dutbench: -compare needs two result files")
			return 2
		}
		spec, err := bench.LoadSpec(bench.SpecPath)
		if err != nil {
			fmt.Fprintln(stderr, "dutbench:", err)
			return 1
		}
		a, err := bench.LoadResults(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "dutbench:", err)
			return 1
		}
		b, err := bench.LoadResults(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "dutbench:", err)
			return 1
		}
		if bench.Compare(stdout, spec, a, b) {
			return 1
		}
		return 0

	case *workload != "":
		if *trace != 0 && *trace != 1 {
			fmt.Fprintln(stderr, "dutbench: -trace must be 0 or 1")
			return 2
		}
		w, err := bench.Lookup(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "dutbench:", err)
			return 2
		}
		res, err := bench.Run(ctx, w, bench.Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: bench.OutDir, Log: stderr})
		if err != nil {
			fmt.Fprintln(stderr, "dutbench:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "dutbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "dutbench:", err)
		return 1
	}
	file, ok := bench.RunAll(ctx, exe, *seed, *seconds, *runs, stdout, stderr)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "dutbench:", err)
		return 1
	}
	sha := file.Header.GitSHA
	if len(sha) > 7 {
		sha = sha[:7]
	}
	name := fmt.Sprintf("dutbench-%s-seed%d-%s.json", sha, *seed, time.Now().UTC().Format("20060102T150405Z"))
	path := filepath.Join(bench.OutDir, name)
	if err := os.MkdirAll(bench.OutDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "dutbench:", err)
		return 1
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "dutbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "result file:", path)
	if !ok {
		fmt.Fprintln(stderr, "dutbench: a workload failed its correctness gate or did not finish")
		return 1
	}
	return 0
}

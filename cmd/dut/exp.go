package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/distributed-uniformity/dut/internal/experiments"
)

func cmdExp(args []string) int {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	var (
		runList = fs.String("run", "E21", "comma-separated experiment IDs, or all")
		list    = fs.Bool("list", false, "list registered experiments and exit")
		scale   = fs.Float64("scale", 1, "trial-count multiplier (smaller = faster smoke run)")
		seed    = fs.Uint64("seed", 1, "random seed")
		par     = fs.Int("par", 0, "worker parallelism (0 = GOMAXPROCS)")
		outDir  = fs.String("out", "", "also write each table to <ID>.md under this directory")
		csv     = fs.Bool("csv", false, "with -out, also write <ID>.csv")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-4s %s (%s)\n", e.ID, e.Title, e.Reproduces)
		}
		return 0
	}
	return expMain(strings.Split(*runList, ","), experiments.Config{Scale: *scale, Seed: *seed, Parallelism: *par}, *outDir, *csv)
}

// expMain runs the named experiments ("all" selects the whole registry)
// in registry order and prints each table; with outDir set it also
// writes <ID>.md (and <ID>.csv with csv) there. An unknown ID fails the
// command before anything runs or is written.
func expMain(ids []string, cfg experiments.Config, outDir string, csv bool) int {
	var selected []experiments.Experiment
	if len(ids) == 1 && strings.TrimSpace(ids[0]) == "all" {
		selected = experiments.Registry()
	} else {
		for _, id := range ids {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "dut exp: unknown experiment %q; -list prints the registry\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dut exp: %v\n", err)
			return 1
		}
	}
	failures := 0
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dut exp: %s failed: %v\n", e.ID, err)
			failures++
			continue
		}
		md := table.Markdown()
		fmt.Println(md)
		if outDir == "" {
			continue
		}
		fmt.Printf("   (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		write := func(name, content string) {
			if err := os.WriteFile(filepath.Join(outDir, name), []byte(content), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dut exp: %v\n", err)
				failures++
			}
		}
		write(e.ID+".md", md)
		if csv {
			write(e.ID+".csv", table.CSV())
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

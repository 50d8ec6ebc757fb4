package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/distributed-uniformity/dut/internal/experiments"
)

func TestExpList(t *testing.T) {
	if code := cmdExp([]string{"-list"}); code != 0 {
		t.Errorf("list exit = %d", code)
	}
}

func TestExpRunsOneExperiment(t *testing.T) {
	dir := t.TempDir()
	// E10 is exact and fast at any scale.
	if code := cmdExp([]string{"-run", "E10", "-scale", "0.05", "-out", dir, "-csv"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	md, err := os.ReadFile(filepath.Join(dir, "E10.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "E10") {
		t.Error("markdown output missing experiment content")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "E10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "residual") {
		t.Error("csv output missing header")
	}
	// Unselected experiments must not be written.
	if _, err := os.Stat(filepath.Join(dir, "E1.md")); !os.IsNotExist(err) {
		t.Error("unselected experiment was written")
	}
}

func TestExpUnknownIDWritesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	if code := cmdExp([]string{"-run", "E10,E99", "-scale", "0.05", "-out", dir}); code != 2 {
		t.Errorf("unknown id exit = %d, want 2", code)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("an unknown id still created the output directory (%v)", err)
	}
}

func TestExpBadOutputDir(t *testing.T) {
	// A file in place of the output directory must fail cleanly.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := expMain([]string{"E10"}, experiments.Config{Scale: 0.05, Seed: 1}, blocker, false); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
}

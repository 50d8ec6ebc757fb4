package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFullVerificationSuitePasses(t *testing.T) {
	// The complete lemma/identity checklist must pass; any FAIL line is a
	// regression in the mathematical machinery.
	if code := verifyAll(1, false); code != 0 {
		t.Fatalf("dut verify exited %d", code)
	}
}

func TestReporterCountsFailures(t *testing.T) {
	var buf bytes.Buffer
	rep := &reporter{out: &buf}
	rep.check("good", true, "")
	rep.check("bad", false, "detail")
	rep.check("also bad", false, "detail")
	if rep.failures != 2 {
		t.Errorf("failures = %d, want 2", rep.failures)
	}
	if got := strings.Count(buf.String(), "FAIL"); got != 2 {
		t.Errorf("printed %d FAIL lines, want 2", got)
	}
	var vbuf bytes.Buffer
	verbose := &reporter{verbose: true, out: &vbuf}
	verbose.check("good", true, "detail shown")
	if verbose.failures != 0 {
		t.Errorf("verbose pass counted as failure")
	}
	if !strings.Contains(vbuf.String(), "detail shown") {
		t.Error("verbose mode did not print details")
	}
}

// Package experiments implements the reproduction harness: one registered
// experiment per theorem/lemma of the paper (see DESIGN.md section 3 for
// the index). Each experiment generates the rows reported in
// EXPERIMENTS.md: lemma-verification experiments evaluate both sides of
// the proven inequalities (exactly on small instances), and
// sample-complexity experiments measure the empirical minimal resources of
// the matching upper-bound protocols and compare their scaling shape
// against the lower-bound formulas.
//
// Experiments accept a Config whose Scale knob shrinks or grows the grids
// and trial counts, so the same code serves quick smoke runs (bench
// harness, go test) and the full tables (`dut exp -out`).
package experiments

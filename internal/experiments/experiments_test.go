package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// smokeCfg keeps the exact (lemma/identity) experiment tests fast; their
// results do not depend on trial counts.
var smokeCfg = Config{Scale: 0.05, Seed: 7}

// searchCfg is used by the Monte-Carlo minimal-q/minimal-k experiments,
// whose assertions need enough trials to damp boundary noise.
var searchCfg = Config{Scale: 0.3, Seed: 7}

// runExperimentCfg executes one experiment and returns the table.
func runExperimentCfg(t *testing.T, id string, cfg Config) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	table, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if len(table.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return table
}

// runExperiment executes at smoke scale.
func runExperiment(t *testing.T, id string) *Table {
	t.Helper()
	return runExperimentCfg(t, id, smokeCfg)
}

// cell parses a table cell as float64.
func cell(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(table.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, table.Rows[row][col], err)
	}
	return v
}

func TestE6LemmaRatiosBelowOne(t *testing.T) {
	table := runExperiment(t, "E6")
	for i := range table.Rows {
		if r := cell(t, table, i, 6); r > 1+1e-9 {
			t.Errorf("row %d: Lemma 5.1 ratio %v > 1", i, r)
		}
		if r := cell(t, table, i, 9); r > 1+1e-9 {
			t.Errorf("row %d: Lemma 4.2 ratio %v > 1", i, r)
		}
	}
}

func TestE7BiasedRatiosBelowOne(t *testing.T) {
	table := runExperiment(t, "E7")
	for i := range table.Rows {
		if r := cell(t, table, i, 5); r > 1+1e-9 {
			t.Errorf("row %d: Lemma 4.3 ratio %v > 1", i, r)
		}
	}
}

func TestE8NeededConstantBelowOne(t *testing.T) {
	table := runExperiment(t, "E8")
	for i := range table.Rows {
		if c := cell(t, table, i, 6); c > 1 {
			t.Errorf("row %d: Lemma 4.4 needs C=%v > 1", i, c)
		}
	}
}

func TestE9CombinatoricsRatios(t *testing.T) {
	table := runExperiment(t, "E9")
	for i := range table.Rows {
		if r := cell(t, table, i, 5); r > 1+1e-9 {
			t.Errorf("row %d: |X_S| ratio %v > 1", i, r)
		}
	}
	if !strings.Contains(table.Notes, "E9b") {
		t.Error("moments sub-table missing from notes")
	}
}

func TestE10ResidualsAtFloatNoise(t *testing.T) {
	table := runExperiment(t, "E10")
	for i := range table.Rows {
		for col := 3; col <= 5; col++ {
			if r := cell(t, table, i, col); r > 1e-12 {
				t.Errorf("row %d col %d: residual %v above float noise", i, col, r)
			}
		}
	}
}

func TestE13GapNearZero(t *testing.T) {
	table := runExperimentCfg(t, "E13", searchCfg)
	for i := range table.Rows {
		if gap := cell(t, table, i, 3); gap > 0.25 {
			t.Errorf("row %d: starved AND gap %v, want ~0", i, gap)
		}
	}
}

func TestE14Fact63RatiosBelowOne(t *testing.T) {
	table := runExperiment(t, "E14")
	for i := range table.Rows {
		if r := cell(t, table, i, 4); r > 1+1e-9 {
			t.Errorf("row %d: Fact 6.3 ratio %v > 1", i, r)
		}
	}
}

func TestE15KKLRatiosBelowOne(t *testing.T) {
	table := runExperiment(t, "E15")
	for i := range table.Rows {
		if r := cell(t, table, i, 6); r > 1+1e-9 {
			t.Errorf("row %d: KKL ratio %v > 1", i, r)
		}
	}
}

func TestE4LearningAboveLowerBound(t *testing.T) {
	table := runExperimentCfg(t, "E4", searchCfg)
	for i := range table.Rows {
		kStar := cell(t, table, i, 1)
		lb := cell(t, table, i, 3)
		if kStar < lb {
			t.Errorf("row %d: measured k* %v below the Theorem 1.4 lower bound %v", i, kStar, lb)
		}
	}
}

func TestE5CollisionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal-q search in -short mode")
	}
	table := runExperimentCfg(t, "E5", searchCfg)
	for i := range table.Rows {
		if table.Rows[i][0] != "collision" {
			continue
		}
		ratio := cell(t, table, i, 4)
		if ratio < 0.5 || ratio > 8 {
			t.Errorf("row %d: q*/(sqrt(n)/eps^2) = %v, want O(1)", i, ratio)
		}
	}
}

func TestE1ThresholdShape(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal-q search in -short mode")
	}
	table := runExperimentCfg(t, "E1", searchCfg)
	// q* must not increase with k, and must respect the lower bound.
	prev := cell(t, table, 0, 1)
	for i := range table.Rows {
		q := cell(t, table, i, 1)
		if q > prev*1.3 {
			t.Errorf("row %d: q* grew with k: %v -> %v", i, prev, q)
		}
		prev = q
		if lb := cell(t, table, i, 3); q < lb {
			t.Errorf("row %d: measured q* %v below the Theorem 6.1 bound %v", i, q, lb)
		}
	}
	first := cell(t, table, 0, 1)
	last := cell(t, table, len(table.Rows)-1, 1)
	if last > first/2 {
		t.Errorf("no parallel gain: q*(k=1)=%v, q*(k=256)=%v", first, last)
	}
}

func TestE2ANDStaysNearCentralized(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal-q search in -short mode")
	}
	table := runExperimentCfg(t, "E2", searchCfg)
	first := cell(t, table, 0, 1)
	for i := range table.Rows {
		q := cell(t, table, i, 1)
		// The AND rule's gain is the slow k^Theta(eps^2) one: far below the
		// sqrt(k) = 16x of E1's threshold tester at k=256. Allow generous
		// Monte-Carlo slack around the ~3-5x measured gain.
		if q < first/10 {
			t.Errorf("row %d: AND-rule q* dropped to %v from %v — that is sqrt(k)-scale parallelism, which locality should forfeit", i, q, first)
		}
	}
}

func TestE11HashingTesterShape(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal-k search in -short mode")
	}
	table := runExperimentCfg(t, "E11", searchCfg)
	prev := cell(t, table, 0, 1)
	for i := 1; i < len(table.Rows); i++ {
		k := cell(t, table, i, 1)
		if k > prev {
			t.Errorf("row %d: k* grew with message length: %v -> %v", i, prev, k)
		}
		prev = k
	}
}

func TestE3AndE12Run(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal-q search in -short mode")
	}
	e3Table := runExperimentCfg(t, "E3", searchCfg)
	if len(e3Table.Rows) != 6 {
		t.Errorf("E3 rows = %d", len(e3Table.Rows))
	}
	e12Table := runExperimentCfg(t, "E12", searchCfg)
	if len(e12Table.Rows) != 3 {
		t.Errorf("E12 rows = %d", len(e12Table.Rows))
	}
	// The E12 invariant: normalized tau in the same ballpark across
	// profiles.
	lo, hi := 1e18, 0.0
	for i := range e12Table.Rows {
		v := cell(t, e12Table, i, 3)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 4*lo {
		t.Errorf("E12 normalized tau spread too wide: [%v, %v]", lo, hi)
	}
}

func TestMinimalQValidation(t *testing.T) {
	h, err := dist.NewHardInstance(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinimalQ(nil, 16, h, 1, 10, 20, engine.Options{}); err == nil {
		t.Error("nil builder accepted")
	}
	if _, err := MinimalK(nil, 16, h, 1, 10, 20, engine.Options{}); err == nil {
		t.Error("nil builder accepted")
	}
}

func TestMinimalQFindsWorkingPoint(t *testing.T) {
	// Sanity: the returned q actually works, q-1 was judged insufficient
	// during the search (implicitly), and builders see the exact q.
	h, err := dist.NewHardInstance(7, 0.5) // n=256
	if err != nil {
		t.Fatal(err)
	}
	var lastQ int
	build := func(q int) (core.Protocol, error) {
		lastQ = q
		return core.NewThresholdTester(core.ThresholdTesterConfig{N: 256, K: 8, Q: q, Eps: 0.5})
	}
	qStar, err := MinimalQ(build, 256, h, 2, 1<<14, 60, engine.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if qStar < 2 || qStar > 1<<14 {
		t.Fatalf("q* = %d out of range", qStar)
	}
	if lastQ == 0 {
		t.Fatal("builder never invoked")
	}
}

func TestE16MultiBitGrowthWithinEnvelope(t *testing.T) {
	table := runExperiment(t, "E16")
	if len(table.Rows) != 3 {
		t.Fatalf("E16 rows = %d", len(table.Rows))
	}
	prev := 0.0
	for i := range table.Rows {
		kl := cell(t, table, i, 1)
		if kl+1e-15 < prev {
			t.Errorf("row %d: quantized KL %v dropped below previous %v", i, kl, prev)
		}
		prev = kl
		growth := cell(t, table, i, 3)
		envelope := cell(t, table, i, 4)
		if growth > envelope {
			t.Errorf("row %d: growth %v outside the 2^r envelope %v", i, growth, envelope)
		}
	}
}

func TestE17AblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal-q search in -short mode")
	}
	table := runExperimentCfg(t, "E17", searchCfg)
	if len(table.Rows) != 4 {
		t.Fatalf("E17 rows = %d", len(table.Rows))
	}
	for i := range table.Rows {
		ratio := cell(t, table, i, 3)
		if ratio < 0.5 || ratio > 8 {
			t.Errorf("row %d: normalized q* %v escaped the sqrt(n)/eps^2 band", i, ratio)
		}
	}
}

func TestE18CONGESTEquivalence(t *testing.T) {
	table := runExperimentCfg(t, "E18", searchCfg)
	if len(table.Rows) != 5 {
		t.Fatalf("E18 rows = %d", len(table.Rows))
	}
	// Every row runs on the SMP reference's seeds, so it must read the
	// reference's rates, verdict for verdict.
	if !strings.Contains(table.Notes, " topology trials: 0.") {
		t.Errorf("a topology's verdicts differ from the SMP reference's: %s", table.Notes)
	}
	for i := range table.Rows {
		diameter := cell(t, table, i, 1)
		rounds := cell(t, table, i, 2)
		if rounds < diameter {
			t.Errorf("row %d: %v rounds below diameter %v", i, rounds, diameter)
		}
		if rounds > 4*diameter+10 {
			t.Errorf("row %d: %v rounds not O(diameter %v)", i, rounds, diameter)
		}
		pu := cell(t, table, i, 4)
		pf := cell(t, table, i, 5)
		if pu < 2.0/3 {
			t.Errorf("row %d: accept(U) = %v below 2/3", i, pu)
		}
		if pf > 1.0/3 {
			t.Errorf("row %d: accept(far) = %v above 1/3", i, pf)
		}
		ref := "SMP reference on the same seeds: accept(U) = " + table.Rows[i][4] + ", accept(far) = " + table.Rows[i][5] + "."
		if !strings.Contains(table.Notes, ref) {
			t.Errorf("row %d reads accept(U) %s, accept(far) %s; the SMP reference does not: %s",
				i, table.Rows[i][4], table.Rows[i][5], table.Notes)
		}
	}
}

func TestE19TransferAboveFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("minimal-q search in -short mode")
	}
	table := runExperimentCfg(t, "E19", searchCfg)
	for i := range table.Rows {
		total := cell(t, table, i, 2)
		floor := cell(t, table, i, 3)
		if total < floor {
			t.Errorf("row %d: closeness total samples %v below the uniformity floor %v", i, total, floor)
		}
	}
	if !strings.Contains(table.Notes, "E19b") {
		t.Error("independence sub-table missing")
	}
}

func TestE20GapBelowCeiling(t *testing.T) {
	table := runExperiment(t, "E20")
	if len(table.Rows) != 7 {
		t.Fatalf("E20 rows = %d", len(table.Rows))
	}
	for i := range table.Rows {
		gap := cell(t, table, i, 4)
		ceiling := cell(t, table, i, 5)
		if gap > ceiling+1e-9 {
			t.Errorf("row %d: gap %v exceeds divergence ceiling %v", i, gap, ceiling)
		}
	}
}

package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestConfigValidate pins the validation contract: negative Parallelism
// and negative Scale are rejected, everything else passes.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"explicit parallelism", Config{Parallelism: 4}, true},
		{"negative parallelism", Config{Parallelism: -1}, false},
		{"very negative parallelism", Config{Parallelism: -128}, false},
		{"negative scale", Config{Scale: -0.5}, false},
		{"smoke scale", Config{Scale: 0.01}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestRegistryRejectsNegativeParallelism is the regression test for the
// previously unchecked pass-through: every registered experiment must
// refuse a negative Parallelism before doing any work.
func TestRegistryRejectsNegativeParallelism(t *testing.T) {
	for _, e := range Registry() {
		_, err := e.Run(Config{Scale: 0.01, Parallelism: -3})
		if err == nil {
			t.Errorf("%s: ran with Parallelism=-3, want validation error", e.ID)
			continue
		}
		if !strings.Contains(err.Error(), "parallelism") {
			t.Errorf("%s: error %q does not mention parallelism", e.ID, err)
		}
	}
}

// TestTablesIndependentOfCoreCount runs every registered experiment at a
// small scale under GOMAXPROCS 1 and 4 and requires identical tables: a
// table is a function of its seed and scale alone, never of the core
// count or of map order, so `make results` prints the committed files on
// any machine. Each experiment is a subtest named by its ID, so a failure
// names the experiment and `-run TablesIndependentOfCoreCount/E19` reruns
// one.
func TestTablesIndependentOfCoreCount(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment, twice, in -short mode")
	}
	cfg := Config{Scale: 0.01, Seed: 1}
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			table := func(procs int) string {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				table, err := e.Run(cfg)
				if err != nil {
					t.Fatalf("under GOMAXPROCS %d: %v", procs, err)
				}
				return table.Markdown()
			}
			if one, four := table(1), table(4); one != four {
				t.Errorf("different tables under GOMAXPROCS 1 and 4:\n%s\n%s", one, four)
			}
		})
	}
}

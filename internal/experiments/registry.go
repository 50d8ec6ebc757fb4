package experiments

import (
	"fmt"
	"sort"
)

// Config tunes an experiment run.
type Config struct {
	// Scale multiplies trial counts and sweep sizes; 1 reproduces the
	// EXPERIMENTS.md tables, smaller values give smoke runs. Zero means 1.
	Scale float64
	// Seed drives all randomness.
	Seed uint64
	// Parallelism is the engine's worker count (engine.Options.Workers)
	// for the experiments' trials; 0 means GOMAXPROCS, and no table
	// depends on it. Negative values are rejected by Validate rather than
	// silently passed through to the engine (whose "negative means
	// GOMAXPROCS" default would mask a caller bug such as a miscomputed
	// worker budget).
	Parallelism int
}

// Validate rejects configurations no experiment can run meaningfully.
// Every registered experiment's Run calls it before doing any work.
func (c Config) Validate() error {
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: negative parallelism %d", c.Parallelism)
	}
	if c.Scale < 0 {
		return fmt.Errorf("experiments: negative scale %v", c.Scale)
	}
	return nil
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// trials scales a base trial count, with a floor to keep estimates
// meaningful.
func (c Config) trials(base int) int {
	t := int(float64(base) * c.scale())
	if t < 20 {
		t = 20
	}
	return t
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the stable identifier ("E1"... "E15") from DESIGN.md.
	ID string
	// Title is a one-line description.
	Title string
	// Reproduces names the paper result the experiment checks.
	Reproduces string
	// Run generates the result table.
	Run func(cfg Config) (*Table, error)
}

// Registry returns all experiments sorted by ID (numeric order). Every
// returned experiment's Run validates its Config before executing.
func Registry() []Experiment {
	exps := []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(),
		e10(), e11(), e12(), e13(), e14(), e15(), e16(), e17(), e18(), e19(), e20(), e21(), e22(),
	}
	for i := range exps {
		exps[i].Run = validated(exps[i].Run)
	}
	sort.Slice(exps, func(i, j int) bool {
		return idNum(exps[i].ID) < idNum(exps[j].ID)
	})
	return exps
}

// validated guards an experiment's Run with Config.Validate.
func validated(run func(Config) (*Table, error)) func(Config) (*Table, error) {
	return func(cfg Config) (*Table, error) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return run(cfg)
	}
}

func idNum(id string) int {
	var n int
	_, _ = fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID looks an experiment up by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

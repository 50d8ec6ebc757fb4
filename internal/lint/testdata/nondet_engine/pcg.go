package fixture

import "example.com/internal/dist"

// reusable seeds its generator in place, as engine.ReusableRNG does.
type reusable struct{ pcg dist.PCG }

func (r *reusable) seedNode(a, b uint64) {
	r.pcg.Seed(a, b) // the engine derives the streams: clean
}

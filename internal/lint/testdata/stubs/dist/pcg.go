// Package dist stands in for the repository's internal/dist in fixtures
// that call its generator.
package dist

// PCG mirrors dist.PCG's seeding and drawing methods.
type PCG struct{ hi, lo uint64 }

// Seed mirrors dist.PCG.Seed.
func (p *PCG) Seed(seed1, seed2 uint64) { p.hi, p.lo = seed1, seed2 }

// Uint64 mirrors dist.PCG.Uint64.
func (p *PCG) Uint64() uint64 {
	p.lo++
	return p.hi ^ p.lo
}

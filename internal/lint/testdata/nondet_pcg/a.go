// Package fixture exercises dut/nondeterminism's dist.PCG rule under a
// deterministic package path outside internal/engine and internal/dist.
package fixture

import "example.com/internal/dist"

func bad(p *dist.PCG) {
	p.Seed(1, 2) // want "ad-hoc dist.PCG seeding (PCG.Seed)"
	var local dist.PCG
	local.Seed(3, 4) // want "ad-hoc dist.PCG seeding (PCG.Seed)"
}

func good(p *dist.PCG) uint64 {
	return p.Uint64() // drawing from a generator the engine seeded is fine
}

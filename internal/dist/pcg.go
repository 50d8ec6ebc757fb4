package dist

import "math/bits"

// PCG is math/rand/v2's PCG generator word for word: a 128-bit LCG with
// the same multiplier and increment, and the same DXSM output function.
// Seeded alike, it yields exactly the stream rand.PCG yields, and
// rand.New(&p) serves the same rand.Rand draws.
//
// It exists so the batch kernels can see the state: each kernel loads it
// into locals once per call, advances it there, and stores it once at
// the end. The zero value is the state Seed(0, 0) sets. A PCG is not
// safe for concurrent use.
type PCG struct {
	hi, lo uint64
}

// Seed resets the generator to behave as rand.NewPCG(seed1, seed2).
func (p *PCG) Seed(seed1, seed2 uint64) {
	p.hi, p.lo = seed1, seed2
}

// Uint64 advances the generator and returns its next word, as
// rand.PCG.Uint64 does.
func (p *PCG) Uint64() uint64 {
	p.hi, p.lo = pcgStep(p.hi, p.lo)
	return pcgOut(p.hi, p.lo)
}

// The LCG's one-step multiplier and increment (math/rand/v2's), the
// two-step pair mul2 = mul² and inc2 = mul·inc + inc, and the four-step
// pair mul4 = mul⁴ and inc4 = inc·(mul³ + mul² + mul + 1), all mod
// 2^128. A state s steps to mul·s + inc, so two steps take it to
// mul2·s + inc2 and four to mul4·s + inc4.
const (
	pcgMulHi  = 0x2360ed051fc65da4
	pcgMulLo  = 0x4385df649fccf645
	pcgIncHi  = 0x5851f42d4c957f2d
	pcgIncLo  = 0x14057b7ef767814f
	pcgMul2Hi = 0x17bce35bdf69743c
	pcgMul2Lo = 0x529ed9eb20e0ae99
	pcgInc2Hi = 0x4871bec9994273f8
	pcgInc2Lo = 0xac1f8a1c3883459a
	pcgMul4Hi = 0xf4dd417327db7a9b
	pcgMul4Lo = 0xd194dfbe42d45771
	pcgInc4Hi = 0x93d2c4665cea0ea8
	pcgInc4Lo = 0xca268d515f068aa4
)

// pcgStep advances the state (hi, lo) by one LCG step.
func pcgStep(hi, lo uint64) (uint64, uint64) {
	return pcgAffine(hi, lo, pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo)
}

// pcgStep2 advances the state (hi, lo) by two LCG steps with one
// 128-bit multiply-add, so a draw's second state does not wait on its
// first.
func pcgStep2(hi, lo uint64) (uint64, uint64) {
	return pcgAffine(hi, lo, pcgMul2Hi, pcgMul2Lo, pcgInc2Hi, pcgInc2Lo)
}

// pcgStep4 advances the state (hi, lo) by four LCG steps with one
// 128-bit multiply-add: the full-table alias loop's two index chains
// each move by four states per pair of draws.
func pcgStep4(hi, lo uint64) (uint64, uint64) {
	return pcgAffine(hi, lo, pcgMul4Hi, pcgMul4Lo, pcgInc4Hi, pcgInc4Lo)
}

// pcgAffine returns (hi, lo)·(mulHi, mulLo) + (incHi, incLo) mod 2^128:
// three 64-bit multiplies.
func pcgAffine(hi, lo, mulHi, mulLo, incHi, incLo uint64) (uint64, uint64) {
	h, l := bits.Mul64(lo, mulLo)
	h += hi*mulLo + lo*mulHi
	l, c := bits.Add64(l, incLo, 0)
	h, _ = bits.Add64(h, incHi, c)
	return h, l
}

// pcgOut is the DXSM output of state (hi, lo): two more multiplies.
func pcgOut(hi, lo uint64) uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

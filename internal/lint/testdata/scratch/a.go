// Package fixture exercises dut/scratchalias.
package fixture

type sampler struct{}

type rng struct{}

// SampleInto is the fixture stand-in for dist.SampleInto; its dst
// parameter is scratch from the start of the body.
func SampleInto(s sampler, dst []int, r *rng) {
	_ = append(dst, 0) // want "append on scratch buffer dst"
}

type owner struct {
	buf  []int
	keep []int
}

func (o *owner) bad(s sampler, r *rng) []int {
	SampleInto(s, o.buf, r)
	o.keep = o.buf       // want "storing scratch buffer buf into a field"
	_ = append(o.buf, 1) // want "append on scratch buffer buf"
	return o.buf         // want "returning scratch buffer buf"
}

func goodLocal(s sampler, r *rng) []int {
	out := make([]int, 8)
	SampleInto(s, out, r)
	return out // locally allocated, owned by this function: clean
}

func goodUse(s sampler, buf []int, r *rng) int {
	SampleInto(s, buf, r)
	total := 0
	for _, v := range buf { // reading the lent buffer is fine
		total += v
	}
	return total
}

// reusable is the fixture stand-in for engine.ReusableRNG, whose
// SampleInto takes the sampler first and the buffer second.
type reusable struct{}

// SampleInto mirrors ReusableRNG.SampleInto's receiver form.
func (*reusable) SampleInto(s sampler, dst []int) {}

type player struct {
	rng  *reusable
	buf  []int
	keep []int
}

func (p *player) badReceiverForm(s sampler) []int {
	p.rng.SampleInto(s, p.buf)
	p.buf = append(p.buf, 0) // want "append on scratch buffer buf"
	p.keep = p.buf           // want "storing scratch buffer buf into a field"
	return p.buf             // want "returning scratch buffer buf"
}

func (p *player) goodReceiverForm(s sampler) int {
	p.rng.SampleInto(s, p.buf)
	return len(p.buf) // reading the lent buffer is fine
}

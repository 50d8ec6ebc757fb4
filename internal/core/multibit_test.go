package core

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// The plane codec's references move one message bit at a time, the way
// the node's pack and the referee's gather did before the word-at-a-time
// kernels: PackPlaneWord and UnpackPlaneWord must agree with them at
// every width, run length and word position.

// refPackPlaneWord is the bit-at-a-time reference of PackPlaneWord: it
// clears word w of every plane, then sets lane j of plane b for each set
// bit b < bits of msgs[j].
func refPackPlaneWord(planes []uint64, words, w, bits int, msgs []Message) {
	for b := 0; b < bits; b++ {
		planes[b*words+w] = 0
	}
	for j, m := range msgs {
		for b := 0; b < bits; b++ {
			if m>>b&1 == 1 {
				planes[b*words+w] |= 1 << j
			}
		}
	}
}

// refUnpackLane is the bit-at-a-time reference of UnpackPlaneWord: lane
// j's message gathered from word w of each plane.
func refUnpackLane(planes []uint64, words, w, bits, j int) Message {
	var m Message
	for b := 0; b < bits; b++ {
		m |= Message(planes[b*words+w]>>j&1) << b
	}
	return m
}

// checkPlaneCodec packs msgs into word w of a words-wide plane set whose
// other words hold noise, and checks the pack against the reference
// (every other word untouched, the lanes above len(msgs) zero), then
// unpacks the word at strides 1 and 3 and checks every lane — and only
// the lanes in reach — against the reference and against msgs cut to
// `bits` bits. rng fills the noise.
func checkPlaneCodec(t *testing.T, rng *rand.Rand, words, w, bits int, msgs []Message) {
	t.Helper()
	planes := make([]uint64, bits*words)
	for i := range planes {
		planes[i] = rng.Uint64()
	}
	want := append([]uint64(nil), planes...)
	refPackPlaneWord(want, words, w, bits, msgs)
	PackPlaneWord(planes, words, w, bits, msgs)
	for i := range planes {
		if planes[i] != want[i] {
			t.Fatalf("r=%d, %d messages into word %d of %d: plane %d word %d = %#x, reference %#x",
				bits, len(msgs), w, words, i/words, i%words, planes[i], want[i])
		}
	}
	if n := len(msgs); n < 64 {
		for b := 0; b < bits; b++ {
			if pad := planes[b*words+w] >> n; pad != 0 {
				t.Fatalf("r=%d, %d messages: plane %d has padding bits %#x set above lane %d", bits, n, b, pad, n)
			}
		}
	}
	mask := ^Message(0)
	if bits < 64 {
		mask = 1<<bits - 1
	}
	for _, stride := range []int{1, 3} {
		const sentinel = Message(0xdead)
		got := make([]Message, len(msgs)*stride)
		for i := range got {
			got[i] = sentinel
		}
		UnpackPlaneWord(got[:(len(msgs)-1)*stride+1], stride, planes, words, w, bits)
		for i, m := range got {
			j := i / stride
			switch {
			case i%stride != 0 || j >= len(msgs):
				if m != sentinel {
					t.Fatalf("r=%d, stride %d: unpack wrote slot %d outside its %d lanes", bits, stride, i, len(msgs))
				}
			case m != refUnpackLane(planes, words, w, bits, j) || m != msgs[j]&mask:
				t.Fatalf("r=%d, stride %d: lane %d unpacked %#x, packed %#x (reference %#x)",
					bits, stride, j, m, msgs[j]&mask, refUnpackLane(planes, words, w, bits, j))
			}
		}
	}
}

// TestPlaneCodecRoundTrip: at every width 1–64 and run length 1–64, pack
// then unpack is the identity on the messages' low `bits` bits, the
// packed word equals the bit-at-a-time reference with its padding lanes
// zero, and no other plane word is touched.
func TestPlaneCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0x91a7e5))
	for bits := 1; bits <= 64; bits++ {
		for n := 1; n <= 64; n++ {
			msgs := make([]Message, n)
			for j := range msgs {
				msgs[j] = Message(rng.Uint64())
			}
			words := 1 + rng.IntN(3)
			checkPlaneCodec(t, rng, words, rng.IntN(words), bits, msgs)
		}
	}
}

// FuzzVotePlanes compares the plane codec with the bit-at-a-time
// reference for any width, run length, word position and messages: the
// first three bytes pick the width (1–64), the run length (1–64) and
// the plane geometry, and every following 8 bytes are one message, with
// bits above the width left in to be ignored.
func FuzzVotePlanes(f *testing.F) {
	f.Add([]byte{0, 63, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{63, 64, 9, 0x80, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		bits, n, geom := 1+int(data[0])%64, 1+int(data[1])%64, int(data[2])
		words := 1 + geom%4
		w := geom / 4 % words
		rng := rand.New(rand.NewPCG(uint64(geom), uint64(len(data))))
		msgs := make([]Message, n)
		for j, rest := 0, data[3:]; j < n && len(rest) > 0; j++ {
			var b [8]byte
			rest = rest[copy(b[:], rest):]
			msgs[j] = Message(binary.LittleEndian.Uint64(b[:]))
		}
		checkPlaneCodec(t, rng, words, w, bits, msgs)
	})
}

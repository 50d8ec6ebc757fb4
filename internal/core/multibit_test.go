package core

import (
	"encoding/binary"
	"fmt"
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
	// Widths 2 and 8 bound the pack's byte gather and 1 and 9 sit just
	// outside it. The runs fill part of one 8-message byte group (1, 7),
	// one whole group (8), one and part of a second (9), and all but one
	// lane or all 64 lanes of the word (63, 64).
	for _, bits := range []int{1, 2, 8, 9} {
		for _, n := range []int{1, 7, 8, 9, 63, 64} {
			seed := []byte{byte(bits - 1), byte(n - 1), byte(n)}
			for i := 0; i < 8*n; i++ {
				seed = append(seed, byte(i*0x9d+bits*0x3b))
			}
			f.Add(seed)
		}
	}
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

// BenchmarkPackPlaneWord times one 64-message pack at a 1-bit width
// (cluster-flat's votes), at the byte gather's 3 and 4 bits
// (cluster-tree's and cluster-short's), and at 9 bits, the narrowest
// width past it. Run it by hand:
//
//	go test -run '^$' -bench PackPlaneWord -cpu 1 ./internal/core
func BenchmarkPackPlaneWord(b *testing.B) {
	const words = 4 // a 256-trial batch
	rng := rand.New(rand.NewPCG(36, 0xb17e))
	for _, bits := range []int{1, 3, 4, 9} {
		msgs := make([]Message, 64)
		for j := range msgs {
			msgs[j] = Message(rng.Uint64() & (1<<bits - 1))
		}
		planes := make([]uint64, bits*words)
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PackPlaneWord(planes, words, i%words, bits, msgs)
			}
		})
	}
}

// TestCountShape: CountShape classifies the threshold family and a sum
// referee of the rule's width as counts, each with a count that decides
// every random full slate as the referee's Decide does, and every other
// referee, a sum of another width included, as opaque.
func TestCountShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 0xc0))
	for _, k := range []int{1, 2, 5, 8} {
		for _, msgBits := range []int{1, 3} {
			for _, tc := range []struct {
				referee Referee
				count   bool
			}{
				{BitReferee{Rule: ANDRule{}}, true},
				{BitReferee{Rule: ORRule{}}, true},
				{BitReferee{Rule: MajorityRule{}}, true},
				{BitReferee{Rule: ThresholdRule{T: 2}}, true},
				{BitReferee{Rule: ThresholdRule{T: k + 3}}, true},
				{BitReferee{Rule: ThresholdRule{T: 0}}, false},
				{BitReferee{Rule: FuncRule{F: func([]bool) bool { return true }}}, false},
				{SumThresholdReferee{Bits: msgBits, T: k}, true},
				{SumThresholdReferee{Bits: msgBits, T: 1000}, true},
				{SumThresholdReferee{Bits: msgBits, T: 0}, false},
				{SumThresholdReferee{Bits: msgBits + 1, T: k}, false},
				{&CollisionReferee{}, false},
			} {
				threshold, valueBits, flip, ok := CountShape(tc.referee, k, msgBits)
				if ok != tc.count {
					t.Errorf("k=%d, %d-bit rule: CountShape(%#v) ok = %v", k, msgBits, tc.referee, ok)
					continue
				}
				msgs := make([]Message, k)
				for trial := 0; ok && trial < 64; trial++ {
					count := 0
					for i := range msgs {
						msgs[i] = Message(rng.Uint64() & (1<<msgBits - 1))
						v := msgs[i] & (1<<valueBits - 1)
						if flip {
							v = ^msgs[i] & 1
						}
						count += int(v)
					}
					want, err := tc.referee.Decide(msgs)
					if err != nil {
						t.Fatal(err)
					}
					if got := count < threshold; got != want {
						t.Fatalf("k=%d, %#v over %#x: count %d < %d is %v, Decide %v", k, tc.referee, msgs, count, threshold, got, want)
					}
				}
			}
		}
	}
}

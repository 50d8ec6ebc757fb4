package network

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzFrame hammers the wire decoder with arbitrary bytes: it must
// never panic, and any frame it does accept must re-encode to an
// equivalent frame (round-trip coherence). Run with `go test -fuzz
// FuzzFrame ./internal/network` for continuous fuzzing; the seed
// corpus runs as part of the normal test suite, and CI runs a short
// -fuzztime smoke on every push.
func FuzzFrame(f *testing.F) {
	// v is the current wire version; seeds spell it symbolically so a
	// version bump keeps every malformed seed malformed for the reason
	// its comment gives, not merely for its stale version byte.
	const v = Version

	// Seed with every valid frame type plus structural mutations.
	hello := AppendHello(nil, Hello{Player: 3, Bits: 1})
	finish := AppendFinish(nil)
	f.Add(hello)
	f.Add([]byte{0xD0, 0x7A, v, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0xfe, 0xed, 0xfa, 0xce})   // retired ROUND
	f.Add([]byte{0xD0, 0x7A, v, 3, 0, 0, 0, 12, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 99}) // retired VOTE
	f.Add([]byte{0xD0, 0x7A, v, 4, 0, 0, 0, 1, 1})                                    // retired VERDICT
	f.Add(finish)
	f.Add([]byte{})
	f.Add([]byte{0xD0, 0x7A, v, 14, 0, 0, 0, 0})               // unknown type
	f.Add([]byte{0x00, 0x00, v, 1, 0, 0, 0, 0})                // bad magic
	f.Add([]byte{0xD0, 0x7A, 9, 1, 0, 0, 0, 0})                // bad version
	f.Add([]byte{0xD0, 0x7A, v, 1, 0xFF, 0xFF, 0xFF, 0xFF})    // huge length
	f.Add([]byte{0xD0, 0x7A, v, 2, 0, 0, 0, 4, 1, 2, 3, 4})    // retired ROUND, short payload
	f.Add([]byte{0xD0, 0x7A, v, 3, 0, 0, 0, 5, 1, 2, 3, 4, 5}) // retired VOTE, short payload
	f.Add([]byte{0xD0, 0x7A, v, 4, 0, 0, 0, 1, 2})             // retired VERDICT, byte other than 0/1
	f.Add([]byte{0xD0, 0x7A, v, 4, 0, 0, 0, 1, 0xFF})          // retired VERDICT, byte 0xFF
	f.Add([]byte{0xD0, 0x7A, v, 5, 0, 0, 0, 1, 0})             // FINISH with a payload byte

	// Version-1 frames: a valid version-1 VOTE_BATCH and ROUND are
	// rejected on the version byte before their type is considered.
	f.Add([]byte{0xD0, 0x7A, 1, 7, 0, 0, 0, 20,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 3,
		0, 0, 0, 0, 0, 0, 0, 5}) // version-1 VOTE_BATCH
	f.Add([]byte{0xD0, 0x7A, 1, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1}) // version-1 ROUND

	// Version-2 ROUND_BATCH carried a seed list: batch(4) count(4)
	// seed(8 each). Two seeds make a 24-byte payload, the size of a
	// version-3 trial range, so only the version byte tells them apart.
	f.Add([]byte{0xD0, 0x7A, 2, 6, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 2,
		0, 0, 0, 0, 0xfe, 0xed, 0xfa, 0xce,
		0, 0, 0, 0, 0, 0, 0, 3}) // version-2 ROUND_BATCH, two seeds

	// Version-3 frames: a HELLO and a ROUND_BATCH laid out exactly as
	// version 4 lays them out, and the verdict downlink's VERDICT_BATCH
	// and AGG_VERDICT, are all rejected on the version byte.
	f.Add([]byte{0xD0, 0x7A, 3, 1, 0, 0, 0, 5, 0, 0, 0, 3, 1}) // version-3 HELLO
	f.Add([]byte{0xD0, 0x7A, 3, 6, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 1,
		0, 0, 0, 0, 0xfe, 0xed, 0xfa, 0xce,
		0, 0, 0, 0, 0, 0, 0, 3}) // version-3 ROUND_BATCH
	f.Add([]byte{0xD0, 0x7A, 3, 8, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 65,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0, 0, 0, 1}) // version-3 VERDICT_BATCH, 65 trials
	f.Add([]byte{0xD0, 0x7A, 3, 13, 0, 0, 0, 32,
		0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 3,
		0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5,
		0, 0, 0, 0, 0, 0, 0, 5}) // version-3 AGG_VERDICT, three shards, one absent

	// A valid vote batch with a partial final word.
	voteBatch, _ := AppendVoteBatch(nil, VoteBatch{Player: 3, Batch: 7, Count: 3, Planes: []uint64{0b101}})
	f.Add(voteBatch)

	// Valid trial ranges: one trial, a full batch, and both ending on
	// the last legal trial, math.MaxInt64.
	for _, r := range []RoundBatch{
		{Batch: 7, Count: 1, Base: 0xfeedface, First: 3},
		{Batch: 7, Count: MaxBatchTrials, Base: 0xfeedface, First: 1 << 40},
		{Batch: 7, Count: 1, Base: 1, First: math.MaxInt64},
		{Batch: 7, Count: MaxBatchTrials, Base: 1, First: math.MaxInt64 - (MaxBatchTrials - 1)},
	} {
		buf, _ := AppendRoundBatch(nil, r)
		f.Add(buf)
	}

	// Malformed batch frames the decoder must reject (never panic on):
	// length prefixes disagreeing with the count field, counts out of
	// range, wrong bitset word counts, and non-zero padding bits.
	f.Add([]byte{0xD0, 0x7A, v, 6, 0, 0, 0, 23,
		0, 0, 0, 7, 0, 0, 0, 5,
		0, 0, 0, 0, 0, 0, 0, 9,
		0, 0, 0, 0, 0, 0, 0}) // ROUND_BATCH 23-byte payload
	f.Add([]byte{0xD0, 0x7A, v, 6, 0, 0, 0, 25,
		0, 0, 0, 7, 0, 0, 0, 5,
		0, 0, 0, 0, 0, 0, 0, 9,
		0, 0, 0, 0, 0, 0, 0, 0, 0}) // ROUND_BATCH 25-byte payload
	f.Add([]byte{0xD0, 0x7A, v, 6, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 9,
		0, 0, 0, 0, 0, 0, 0, 0}) // ROUND_BATCH count 0
	f.Add([]byte{0xD0, 0x7A, v, 6, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0x04, 0x01,
		0, 0, 0, 0, 0, 0, 0, 9,
		0, 0, 0, 0, 0, 0, 0, 0}) // ROUND_BATCH count 1025
	f.Add([]byte{0xD0, 0x7A, v, 6, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 0, 0, 9,
		0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // ROUND_BATCH last trial MaxInt64+1
	f.Add([]byte{0xD0, 0x7A, v, 6, 0, 0, 0, 24,
		0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0, 0, 0, 9,
		0, 0, 0, 0, 0, 0, 0, 0}) // ROUND_BATCH huge count
	f.Add([]byte{0xD0, 0x7A, v, 7, 0, 0, 0, 20,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // VOTE_BATCH count 1 with padding bit 1 set
	f.Add([]byte{0xD0, 0x7A, v, 7, 0, 0, 0, 20,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0}) // VOTE_BATCH count 0
	f.Add([]byte{0xD0, 0x7A, v, 7, 0, 0, 0, 12,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 65}) // VOTE_BATCH count 65, zero words
	f.Add([]byte{0xD0, 0x7A, v, 8, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 0}) // retired VERDICT_BATCH, count 1 with two words
	f.Add([]byte{0xD0, 0x7A, v, 8, 0xFF, 0xFF, 0xFF, 0xFF}) // retired VERDICT_BATCH, huge length prefix

	// Valid r-bit vote batches across the width range: single plane,
	// two planes, and wide frames whose trial lanes span plane strides.
	for _, tc := range []struct {
		bits  int
		count uint32
	}{{1, 3}, {2, 7}, {7, 65}, {8, 64}} {
		planes := make([]uint64, tc.bits*batchWords(int(tc.count)))
		for b := 0; b < tc.bits; b++ {
			for j := uint32(0); j < tc.count; j++ {
				if (uint32(b)+j)%3 == 0 {
					planes[b*batchWords(int(tc.count))+int(j)/64] |= 1 << (j % 64)
				}
			}
		}
		buf, _ := AppendVoteBatch(nil, VoteBatch{Player: 3, Batch: 7, Count: tc.count, Planes: planes})
		f.Add(buf)
	}

	// Malformed r-bit vote frames the decoder must reject: the retired
	// VOTE_BATCH_R (type 9) with its width byte, and VOTE_BATCH plane runs
	// that are not a whole number of 1..64 planes or carry padding.
	f.Add([]byte{0xD0, 0x7A, v, 9, 0, 0, 0, 13,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 0}) // retired type, bits 0
	f.Add([]byte{0xD0, 0x7A, v, 9, 0, 0, 0, 13,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 65}) // retired type, bits 65
	f.Add([]byte{0xD0, 0x7A, v, 9, 0, 0, 0, 21,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 2,
		0, 0, 0, 0, 0, 0, 0, 1}) // retired type, bits 2 but a 1-plane stride
	f.Add([]byte{0xD0, 0x7A, v, 7, 0, 0, 0, 28,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // count 1 with padding bit set in plane 1
	f.Add([]byte{0xD0, 0x7A, v, 9, 0, 0, 0, 13,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 0, 1}) // retired type, count 0
	f.Add([]byte{0xD0, 0x7A, v, 7, 0, 0, 0, 36,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 65,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 1}) // count 65 with 3 words: not a multiple of the 2-word stride
	f.Add([]byte{0xD0, 0x7A, v, 7, 0, 0, 0, 12,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1}) // r = 0: no planes at all
	f.Add(append([]byte{0xD0, 0x7A, v, 7, 0, 0, 0x02, 0x14,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1}, make([]byte, 8*65)...)) // r = 65 one-word planes

	// Valid aggregator frames: a handshake with a partially-present
	// shard, a reduced sum batch with a partial final word, and a
	// forwarded plane batch with an absent member in the mask — plus the
	// degenerate all-absent plane frame.
	aggHello, _ := AppendAggHello(nil, AggHello{Agg: 1, Bits: 3, Present: 2, Members: []uint32{2, 5, 9}})
	aggSum, _ := AppendAggSum(nil, AggSum{Agg: 1, Batch: 7, Count: 65, Bits: 2, Planes: 3, Present: 4,
		Sums: []uint64{0xAAAA, 1, 0x5555, 0, 0xF0F0, 1}})
	aggPlanes, _ := AppendAggPlanes(nil, AggPlanes{Agg: 1, Batch: 7, Count: 3, Bits: 2, Members: 3, Present: 2,
		Mask: []uint64{0b101}, Planes: []uint64{0b101, 0b011, 0b110, 0b001}})
	aggEmpty, _ := AppendAggPlanes(nil, AggPlanes{Agg: 2, Batch: 7, Count: 3, Bits: 2, Members: 3, Present: 0,
		Mask: []uint64{0}})
	f.Add(aggHello)
	f.Add(aggSum)
	f.Add(aggPlanes)
	f.Add(aggEmpty)

	// Malformed aggregator frames the decoder must reject: duplicate
	// members, a present count exceeding the shard, counter strides
	// disagreeing with the plane count, non-zero padding above the trial
	// count or the member count, and a present count disagreeing with
	// the mask popcount.
	f.Add([]byte{0xD0, 0x7A, v, 10, 0, 0, 0, 21,
		0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 5, 0, 0, 0, 5}) // AGG_HELLO duplicate member 5
	f.Add([]byte{0xD0, 0x7A, v, 10, 0, 0, 0, 21,
		0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 5, 0, 0, 0, 3}) // AGG_HELLO members not ascending
	f.Add([]byte{0xD0, 0x7A, v, 10, 0, 0, 0, 17,
		0, 0, 0, 1, 1, 0, 0, 0, 3, 0, 0, 0, 1,
		0, 0, 0, 0}) // AGG_HELLO 3 present of 1 member
	f.Add([]byte{0xD0, 0x7A, v, 11, 0, 0, 0, 26,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1, 2,
		0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0}) // AGG_SUM 2 planes, 1 sum word
	f.Add([]byte{0xD0, 0x7A, v, 11, 0, 0, 0, 26,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1, 1,
		0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 2}) // AGG_SUM padding bit above trial 0
	f.Add([]byte{0xD0, 0x7A, v, 11, 0, 0, 0, 18,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1, 0,
		0, 0, 0, 4}) // AGG_SUM zero planes
	f.Add([]byte{0xD0, 0x7A, v, 12, 0, 0, 0, 37,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1,
		0, 0, 0, 2, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1}) // AGG_PLANES present 2, mask popcount 1
	f.Add([]byte{0xD0, 0x7A, v, 12, 0, 0, 0, 37,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1,
		0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 0, 0, 1}) // AGG_PLANES mask bit above the only member
	f.Add([]byte{0xD0, 0x7A, v, 12, 0, 0, 0, 37,
		0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 1, 1,
		0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // AGG_PLANES padding bit above trial 0

	// The retired AGG_VERDICT (type 13), laid out as version 3 sent it:
	// the decoder must reject every one as an unknown type.
	f.Add([]byte{0xD0, 0x7A, v, 13, 0, 0, 0, 12,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 0}) // retired AGG_VERDICT, zero shards
	f.Add([]byte{0xD0, 0x7A, v, 13, 0, 0, 0, 32,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 0}) // retired AGG_VERDICT, count 1 with two words
	f.Add([]byte{0xD0, 0x7A, v, 13, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2}) // retired AGG_VERDICT, padding bit above trial 0
	f.Add([]byte{0xD0, 0x7A, v, 13, 0, 0, 0, 24,
		0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 1,
		0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0, 0, 0, 1}) // retired AGG_VERDICT, present over the shard cap
	f.Add([]byte{0xD0, 0x7A, v, 13, 0xFF, 0xFF, 0xFF, 0xFF}) // retired AGG_VERDICT, huge length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, msg, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejects are fine; panics are not
		}
		// Accepted frames must round-trip.
		var buf []byte
		switch m := msg.(type) {
		case Hello:
			buf = AppendHello(nil, m)
		case Finish:
			buf = AppendFinish(nil)
		case RoundBatch:
			if err := checkRoundBatch(m); err != nil {
				t.Fatalf("decoder accepted invalid ROUND_BATCH: %v", err)
			}
			if buf, err = AppendRoundBatch(nil, m); err != nil {
				t.Fatalf("re-encode round batch: %v", err)
			}
		case VoteBatch:
			if err := checkVoteBatch(m); err != nil {
				t.Fatalf("decoder accepted invalid VOTE_BATCH planes: %v", err)
			}
			if buf, err = AppendVoteBatch(nil, m); err != nil {
				t.Fatalf("re-encode vote batch: %v", err)
			}
		case AggHello:
			if err := checkAggHello(m); err != nil {
				t.Fatalf("decoder accepted invalid AGG_HELLO: %v", err)
			}
			if buf, err = AppendAggHello(nil, m); err != nil {
				t.Fatalf("re-encode agg hello: %v", err)
			}
		case AggSum:
			if err := checkAggSum(m); err != nil {
				t.Fatalf("decoder accepted invalid AGG_SUM: %v", err)
			}
			if buf, err = AppendAggSum(nil, m); err != nil {
				t.Fatalf("re-encode agg sum: %v", err)
			}
		case AggPlanes:
			if err := checkAggPlanes(m); err != nil {
				t.Fatalf("decoder accepted invalid AGG_PLANES: %v", err)
			}
			if buf, err = AppendAggPlanes(nil, m); err != nil {
				t.Fatalf("re-encode agg planes: %v", err)
			}
		default:
			t.Fatalf("decoded unknown type %T", msg)
		}
		typ2, msg2, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		// Batch frames hold bitset slices, so structural equality rather
		// than ==.
		if typ2 != typ || !reflect.DeepEqual(msg2, msg) {
			t.Fatalf("round trip changed frame: (%v, %+v) -> (%v, %+v)", typ, msg, typ2, msg2)
		}
	})
}

// FuzzFrameStream cuts a byte stream at arbitrary points and feeds the
// pieces to the frame cursor: the frames it reports, with their sizes
// and trial counts, must be exactly the frames ReadFrame decodes from
// the stream's valid prefix. Each cuts byte is the length of the next
// piece. It also reads the whole stream through one reused frameReader,
// which must decode every frame to the value, and fail where and as, a
// fresh ReadFrame does: no word a longer earlier frame leaves in the
// reader's scratch may show in a shorter later one. Run with
// `go test -fuzz '^FuzzFrameStream$' ./internal/network`.
func FuzzFrameStream(f *testing.F) {
	var all []byte
	for _, g := range goldenFrames {
		all, _ = encode(all, g.msg)
	}
	f.Add(all, []byte{1, 7, 3, 0, 12, 200, 5})
	f.Add(all, bytes.Repeat([]byte{1}, len(all)))
	f.Add(all, []byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8})
	f.Add(all[:len(all)-1], []byte{13, 20}) // truncated last frame
	round, _ := AppendRoundBatch(nil, RoundBatch{Batch: 1, Count: MaxBatchTrials})
	vote, _ := AppendVoteBatch(nil, VoteBatch{Player: 2, Batch: 1, Count: 65, Planes: []uint64{1, 1}})
	f.Add(append(append(round, vote...), AppendFinish(nil)...), []byte{16, 3, 1})
	// Longer frames before shorter ones of the same type, so a reused
	// reader's scratch holds stale words past every later frame's end.
	wide, _ := AppendVoteBatch(nil, VoteBatch{Player: 2, Batch: 1, Count: 65, Planes: []uint64{3, 1, 5, 1}})
	narrow, _ := AppendVoteBatch(nil, VoteBatch{Player: 2, Batch: 2, Count: 3, Planes: []uint64{6}})
	planesWide, _ := AppendAggPlanes(nil, AggPlanes{Agg: 1, Batch: 1, Count: 3, Bits: 2, Members: 3, Present: 2,
		Mask: []uint64{0b101}, Planes: []uint64{0b101, 0b011, 0b110, 0b001}})
	planesEmpty, _ := AppendAggPlanes(nil, AggPlanes{Agg: 1, Batch: 2, Count: 3, Bits: 2, Members: 3, Present: 0,
		Mask: []uint64{0}})
	helloWide, _ := AppendAggHello(nil, AggHello{Agg: 1, Bits: 3, Present: 2, Members: []uint32{2, 5, 9}})
	helloNarrow, _ := AppendAggHello(nil, AggHello{Agg: 2, Bits: 3, Present: 1, Members: []uint32{4}})
	f.Add(bytes.Join([][]byte{wide, narrow, planesWide, planesEmpty, helloWide, helloNarrow}, nil), []byte{40, 2, 60})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		fresh, reused := bytes.NewReader(stream), &frameReader{r: bytes.NewReader(stream)}
		for i := 0; ; i++ {
			typ, msg, err := ReadFrame(fresh)
			rtyp, rerr := reused.read()
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
				t.Fatalf("frame %d: fresh ReadFrame failed with %v, the reused reader with %v", i, err, rerr)
			}
			if err != nil {
				break
			}
			if got := reused.boxed(rtyp); rtyp != typ || !reflect.DeepEqual(got, msg) {
				t.Fatalf("frame %d: reused reader decoded (%v, %+v), fresh ReadFrame (%v, %+v)", i, rtyp, got, typ, msg)
			}
		}
		want, end := decodedFrames(stream)
		var pos []int
		for at, i := 0, 0; i < len(cuts); i++ {
			if at += int(cuts[i]); at > end {
				break
			}
			pos = append(pos, at)
		}
		if got := cursorSplit(stream[:end], pos...); !reflect.DeepEqual(got, want) {
			t.Fatalf("cursor reported %+v, ReadFrame decoded %+v", got, want)
		}
	})
}

package network

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// encode appends msg's frame with the Append* encoder of its type.
func encode(buf []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case Hello:
		return AppendHello(buf, m), nil
	case Finish:
		return AppendFinish(buf), nil
	case RoundBatch:
		return AppendRoundBatch(buf, m)
	case VoteBatch:
		return AppendVoteBatch(buf, m)
	case AggHello:
		return AppendAggHello(buf, m)
	case AggSum:
		return AppendAggSum(buf, m)
	case AggPlanes:
		return AppendAggPlanes(buf, m)
	default:
		return buf, fmt.Errorf("no encoder for %T", msg)
	}
}

// send writes msg as one frame through writeCoalesced, the way every
// sender in the package does.
func send(w io.Writer, msg any) error {
	frame, err := encode(nil, msg)
	if err != nil {
		return err
	}
	return writeCoalesced(w, frame)
}

// rawFrame encodes msg by its documented payload layout with no check
// at all: the frame a buggy or hostile peer would put on the wire.
func rawFrame(msg any) []byte {
	var p []byte
	u32 := func(v uint32) { p = binary.BigEndian.AppendUint32(p, v) }
	words := func(ws []uint64) {
		for _, w := range ws {
			p = binary.BigEndian.AppendUint64(p, w)
		}
	}
	var t FrameType
	switch m := msg.(type) {
	case Hello:
		t = FrameHello
		u32(m.Player)
		p = append(p, m.Bits)
	case Finish:
		t = FrameFinish
	case RoundBatch:
		t = FrameRoundBatch
		u32(m.Batch)
		u32(m.Count)
		words([]uint64{m.Base, m.First})
	case VoteBatch:
		t = FrameVoteBatch
		u32(m.Player)
		u32(m.Batch)
		u32(m.Count)
		words(m.Planes)
	case AggHello:
		t = FrameAggHello
		u32(m.Agg)
		p = append(p, m.Bits)
		u32(m.Present)
		u32(uint32(len(m.Members)))
		for _, id := range m.Members {
			u32(id)
		}
	case AggSum:
		t = FrameAggSum
		u32(m.Agg)
		u32(m.Batch)
		u32(m.Count)
		p = append(p, m.Bits, m.Planes)
		u32(m.Present)
		words(m.Sums)
	case AggPlanes:
		t = FrameAggPlanes
		u32(m.Agg)
		u32(m.Batch)
		u32(m.Count)
		p = append(p, m.Bits)
		u32(m.Members)
		u32(m.Present)
		words(m.Mask)
		words(m.Planes)
	default:
		panic(fmt.Sprintf("rawFrame: %T", msg))
	}
	return append(appendHeader(nil, t, len(p)), p...)
}

func TestFrameRoundTrips(t *testing.T) {
	frames := []struct {
		typ FrameType
		msg any
	}{
		{FrameHello, Hello{Player: 7, Bits: 3}},
		{FrameRoundBatch, RoundBatch{Batch: 4, Count: 65, Base: 0xdeadbeefcafe, First: 1 << 40}},
		{FrameVoteBatch, VoteBatch{Player: 7, Batch: 4, Count: 1, Planes: []uint64{1}}},
		{FrameVoteBatch, VoteBatch{Player: 7, Batch: 4, Count: 3, Planes: []uint64{0b101, 0b011, 0b110}}},
		{FrameFinish, Finish{}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := send(&buf, f.msg); err != nil {
			t.Fatalf("%v: %v", f.typ, err)
		}
	}
	for _, f := range frames {
		typ, msg, err := ReadFrame(&buf)
		if err != nil || typ != f.typ || !reflect.DeepEqual(msg, f.msg) {
			t.Errorf("read (%v, %+v, %v), want (%v, %+v)", typ, msg, err, f.typ, f.msg)
		}
	}
}

// goldenFrames are valid frames of every type with their version-4
// wire bytes: the Append* encoders must reproduce every byte.
var goldenFrames = []struct {
	msg any
	hex string
}{
	{Hello{Player: 3, Bits: 1}, "d07a0401000000050000000301"},
	{Finish{}, "d07a040500000000"},
	{RoundBatch{Batch: 7, Count: 1, Base: 0xfeedface, First: 3},
		"d07a040600000018000000070000000100000000feedface0000000000000003"},
	{VoteBatch{Player: 3, Batch: 7, Count: 3, Planes: []uint64{0b101}},
		"d07a0407000000140000000300000007000000030000000000000005"},
	{VoteBatch{Player: 3, Batch: 7, Count: 65, Planes: []uint64{0x8000000000000001, 1, 0x4000000000000002, 0, 0x2000000000000004, 1}},
		"d07a04070000003c000000030000000700000041800000000000000100000000000000014000000000000002000000000000000020000000000000040000000000000001"},
	{AggHello{Agg: 1, Bits: 3, Present: 2, Members: []uint32{2, 5, 9}},
		"d07a040a0000001900000001030000000200000003000000020000000500000009"},
	{AggSum{Agg: 1, Batch: 7, Count: 65, Bits: 2, Planes: 3, Present: 4, Sums: []uint64{0xAAAA, 1, 0x5555, 0, 0xF0F0, 1}},
		"d07a040b00000042000000010000000700000041020300000004000000000000aaaa000000000000000100000000000055550000000000000000000000000000f0f00000000000000001"},
	{AggPlanes{Agg: 1, Batch: 7, Count: 3, Bits: 2, Members: 3, Present: 2, Mask: []uint64{0b101}, Planes: []uint64{0b101, 0b011, 0b110, 0b001}},
		"d07a040c0000003d00000001000000070000000302000000030000000200000000000000050000000000000005000000000000000300000000000000060000000000000001"},
	{AggPlanes{Agg: 2, Batch: 7, Count: 3, Bits: 2, Members: 3, Present: 0, Mask: []uint64{0}, Planes: []uint64{}},
		"d07a040c0000001d0000000200000007000000030200000003000000000000000000000000"},
}

// TestFrameGoldenBytes pins the wire: every encoder writes exactly the
// golden bytes, the documented layout (rawFrame) agrees, and the bytes
// decode back to the frame.
func TestFrameGoldenBytes(t *testing.T) {
	for _, g := range goldenFrames {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encode(nil, g.msg)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%T: encoded (%x, %v), want %x", g.msg, got, err, want)
		}
		if raw := rawFrame(g.msg); !bytes.Equal(raw, want) {
			t.Errorf("%T: documented layout %x, want %x", g.msg, raw, want)
		}
		if _, msg, err := ReadFrame(bytes.NewReader(want)); err != nil || !reflect.DeepEqual(msg, g.msg) {
			t.Errorf("%T: decoded (%+v, %v), want %+v", g.msg, msg, err, g.msg)
		}
	}
}

// TestChecksSharedByEncoderAndDecoder extends TestRoundBatchNamedErrors
// to every other frame with a check: each struct-level violation is
// rejected by its Append* encoder, which appends nothing, and the same
// frame put on the wire by hand is rejected by ReadFrame with the very
// same error. Two violations have no wire form of their own, and the
// decoder must only reject them.
func TestChecksSharedByEncoderAndDecoder(t *testing.T) {
	ids := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i)
		}
		return out
	}
	ones := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = ^uint64(0)
		}
		return out
	}
	cases := []struct {
		name   string
		msg    any
		noWire string // why the violation has no wire form; "" = same error on decode
	}{
		{"vote count 0", VoteBatch{Count: 0, Planes: []uint64{0}}, ""},
		{"vote count 1025", VoteBatch{Count: MaxBatchTrials + 1, Planes: make([]uint64, 17)}, ""},
		{"vote no planes", VoteBatch{Count: 1, Planes: []uint64{}}, ""},
		{"vote partial plane", VoteBatch{Count: 65, Planes: make([]uint64, 3)}, ""},
		{"vote 65 planes", VoteBatch{Count: 1, Planes: make([]uint64, 65)}, ""},
		{"vote padding plane 0", VoteBatch{Count: 1, Planes: []uint64{2}}, ""},
		{"vote padding plane 1", VoteBatch{Count: 65, Planes: []uint64{0, 1, 0, 2}}, ""},

		{"agg hello bits 0", AggHello{Bits: 0, Members: []uint32{1}}, ""},
		{"agg hello bits 65", AggHello{Bits: 65, Members: []uint32{1}}, ""},
		{"agg hello no members", AggHello{Bits: 1, Members: []uint32{}}, ""},
		{"agg hello too many members", AggHello{Bits: 1, Members: ids(MaxShardPlayers + 1)},
			"the frame exceeds maxPayload, so readFrame rejects its size first"},
		{"agg hello duplicate", AggHello{Bits: 1, Members: []uint32{5, 5}}, ""},
		{"agg hello descending", AggHello{Bits: 1, Members: []uint32{5, 3}}, ""},
		{"agg hello present above members", AggHello{Bits: 1, Present: 2, Members: []uint32{1}}, ""},

		{"agg sum count 0", AggSum{Count: 0, Bits: 1, Planes: 1, Sums: []uint64{}}, ""},
		{"agg sum count 1025", AggSum{Count: MaxBatchTrials + 1, Bits: 1, Planes: 1, Sums: make([]uint64, 17)}, ""},
		{"agg sum bits 0", AggSum{Count: 1, Bits: 0, Planes: 1, Sums: []uint64{0}}, ""},
		{"agg sum bits 65", AggSum{Count: 1, Bits: 65, Planes: 1, Sums: []uint64{0}}, ""},
		{"agg sum planes 0", AggSum{Count: 1, Bits: 1, Planes: 0, Sums: []uint64{}}, ""},
		{"agg sum planes 65", AggSum{Count: 1, Bits: 1, Planes: 65, Sums: make([]uint64, 65)}, ""},
		{"agg sum present over cap", AggSum{Count: 1, Bits: 1, Planes: 1, Present: MaxShardPlayers + 1, Sums: []uint64{0}}, ""},
		{"agg sum stride", AggSum{Count: 1, Bits: 1, Planes: 2, Sums: []uint64{0}}, ""},
		{"agg sum padding", AggSum{Count: 1, Bits: 1, Planes: 2, Sums: []uint64{0, 2}}, ""},

		{"agg planes count 0", AggPlanes{Count: 0, Bits: 1, Members: 1, Mask: []uint64{0}, Planes: []uint64{}}, ""},
		{"agg planes bits 0", AggPlanes{Count: 1, Bits: 0, Members: 1, Mask: []uint64{0}, Planes: []uint64{}}, ""},
		{"agg planes no members", AggPlanes{Count: 1, Bits: 1, Members: 0, Mask: []uint64{}, Planes: []uint64{}}, ""},
		{"agg planes too many members", AggPlanes{Count: 1, Bits: 1, Members: MaxShardPlayers + 1,
			Mask: make([]uint64, aggMaskWords(MaxShardPlayers+1)), Planes: []uint64{}}, ""},
		{"agg planes mask length", AggPlanes{Count: 1, Bits: 1, Members: 1, Mask: []uint64{0, 0}, Planes: []uint64{}},
			"the wire has no mask length: the decoder reads aggMaskWords(Members) words and the rest as planes"},
		{"agg planes mask padding", AggPlanes{Count: 1, Bits: 1, Members: 1, Present: 1, Mask: []uint64{0b11}, Planes: []uint64{0, 0}}, ""},
		{"agg planes present above popcount", AggPlanes{Count: 1, Bits: 1, Members: 2, Present: 2, Mask: []uint64{0b01}, Planes: []uint64{0}}, ""},
		{"agg planes over the word cap", AggPlanes{Count: MaxBatchTrials, Bits: 64, Members: 1025, Present: 1025,
			Mask: append(ones(16), 1), Planes: []uint64{}}, ""},
		{"agg planes stride", AggPlanes{Count: 1, Bits: 2, Members: 1, Present: 1, Mask: []uint64{1}, Planes: []uint64{0}}, ""},
		{"agg planes padding", AggPlanes{Count: 1, Bits: 1, Members: 1, Present: 1, Mask: []uint64{1}, Planes: []uint64{2}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := encode(nil, tc.msg)
			if err == nil || len(buf) != 0 {
				t.Fatalf("encoder: (%d bytes, %v), want nothing and an error", len(buf), err)
			}
			_, _, derr := ReadFrame(bytes.NewReader(rawFrame(tc.msg)))
			switch {
			case derr == nil:
				t.Errorf("decoder accepted the frame the encoder rejects with %q", err)
			case tc.noWire == "" && derr.Error() != err.Error():
				t.Errorf("decoder: %q, want the encoder's %q", derr, err)
			}
		})
	}
}

// TestMaxPayloadIsLargestFrame pins maxPayload from both sides: the
// largest batch and aggregator frame each check accepts encodes to
// exactly maxPayload bytes of payload and decodes, so the bound neither
// clips a legal frame nor admits an allocation no legal frame needs;
// HELLO and FINISH stay within MaxFrameSize.
func TestMaxPayloadIsLargestFrame(t *testing.T) {
	full := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = ^uint64(0)
		}
		return out
	}
	trials := batchWords(MaxBatchTrials)
	members := make([]uint32, MaxShardPlayers)
	for i := range members {
		members[i] = uint32(i)
	}
	// AGG_PLANES at the plane-word cap: 1024 present players of 64-bit
	// messages over a full batch, in the largest shard.
	present := MaxAggPlaneWords / (64 * trials)
	mask := make([]uint64, aggMaskWords(MaxShardPlayers))
	copy(mask, full(present/64))
	for _, tc := range []struct {
		typ FrameType
		msg any
	}{
		{FrameRoundBatch, RoundBatch{Count: MaxBatchTrials}},
		{FrameVoteBatch, VoteBatch{Count: MaxBatchTrials, Planes: full(64 * trials)}},
		{FrameAggHello, AggHello{Bits: 64, Present: MaxShardPlayers, Members: members}},
		{FrameAggSum, AggSum{Count: MaxBatchTrials, Bits: 64, Planes: 64, Present: MaxShardPlayers, Sums: full(64 * trials)}},
		{FrameAggPlanes, AggPlanes{Count: MaxBatchTrials, Bits: 64, Members: MaxShardPlayers, Present: uint32(present),
			Mask: mask, Planes: full(MaxAggPlaneWords)}},
	} {
		frame, err := encode(nil, tc.msg)
		if err != nil {
			t.Fatalf("%v: %v", tc.typ, err)
		}
		if got := len(frame) - headerSize; got != maxPayload(tc.typ) {
			t.Errorf("%v: largest frame carries %d payload bytes, maxPayload is %d", tc.typ, got, maxPayload(tc.typ))
		}
		if typ, _, err := ReadFrame(bytes.NewReader(frame)); err != nil || typ != tc.typ {
			t.Errorf("%v: largest frame decoded as (%v, %v)", tc.typ, typ, err)
		}
	}
	for _, frame := range [][]byte{AppendHello(nil, Hello{Player: math.MaxUint32, Bits: 64}), AppendFinish(nil)} {
		if len(frame)-headerSize > MaxFrameSize {
			t.Errorf("% x: payload over MaxFrameSize", frame)
		}
	}
}

// TestVoteBatchOneBitLayout pins the r = 1 encoding: one bitset plane and
// no width byte, so a 1-bit vote batch carries exactly the version-1
// VOTE_BATCH payload.
func TestVoteBatchOneBitLayout(t *testing.T) {
	got, err := AppendVoteBatch(nil, VoteBatch{Player: 3, Batch: 7, Count: 3, Planes: []uint64{0b101}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xD0, 0x7A, Version, byte(FrameVoteBatch), 0, 0, 0, 20,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 3,
		0, 0, 0, 0, 0, 0, 0, 0b101}
	if !bytes.Equal(got, want) {
		t.Errorf("1-bit VOTE_BATCH = % x, want % x", got, want)
	}
}

// TestVoteBatchWidthFromLength: the decoder derives r from the payload
// length and accepts exactly whole numbers of 1..64 planes.
func TestVoteBatchWidthFromLength(t *testing.T) {
	frame := func(count uint32, planeWords int) []byte {
		var header [headerSize]byte
		binary.BigEndian.PutUint16(header[0:2], Magic)
		header[2] = Version
		header[3] = byte(FrameVoteBatch)
		binary.BigEndian.PutUint32(header[4:8], uint32(12+8*planeWords))
		p := append(header[:], 0, 0, 0, 1, 0, 0, 0, 2)
		p = binary.BigEndian.AppendUint32(p, count)
		return append(p, make([]byte, 8*planeWords)...)
	}
	for _, tc := range []struct {
		count      uint32
		planeWords int
		width      int // 0 = rejected
	}{
		{1, 1, 1}, {1, 8, 8}, {1, 64, 64}, {65, 2, 1}, {65, 14, 7}, {1024, 16 * 64, 64},
		{1, 0, 0},       // r = 0
		{1, 65, 0},      // r = 65
		{65, 3, 0},      // 1.5 planes of 2 words: not a whole plane count
		{1024, 17, 0},   // not a multiple of the 16-word stride
		{65, 2 * 65, 0}, // r = 65 at two words per plane
	} {
		_, msg, err := ReadFrame(bytes.NewReader(frame(tc.count, tc.planeWords)))
		if tc.width == 0 {
			if err == nil {
				t.Errorf("count %d with %d plane words accepted as %d-bit", tc.count, tc.planeWords, msg.(VoteBatch).Width())
			}
			continue
		}
		if err != nil {
			t.Errorf("count %d with %d plane words: %v", tc.count, tc.planeWords, err)
			continue
		}
		if got := msg.(VoteBatch).Width(); got != tc.width {
			t.Errorf("count %d with %d plane words decoded as %d-bit, want %d", tc.count, tc.planeWords, got, tc.width)
		}
	}
	if _, err := AppendVoteBatch(nil, VoteBatch{Count: 65, Planes: make([]uint64, 3)}); err == nil {
		t.Error("encoder accepted a partial plane")
	}
}

func TestReadFrameRejectsBadMagic(t *testing.T) {
	buf := []byte{0x00, 0x01, Version, 1, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(buf)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
}

func TestReadFrameRejectsBadVersion(t *testing.T) {
	// Version 1 is the retired per-trial protocol, version 2 the
	// seed-list ROUND_BATCH and version 3 the verdict downlink: an older
	// peer fails the first frame instead of being misparsed or waiting
	// for verdicts.
	for _, v := range []byte{1, 2, 3, 99} {
		raw := AppendFinish(nil)
		raw[2] = v
		if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: %v", v, err)
		}
	}
}

// byteCounter counts the bytes read through it.
type byteCounter struct {
	r io.Reader
	n int
}

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadFrameRejectsOversized: no length prefix can make the decoder
// allocate past its type's bound. A header announcing one byte more than
// maxPayload fails as oversized, for every live type, and so does a
// retired type's header announcing 0xFFFFFFFF bytes; either way ReadFrame
// has consumed the 8 header bytes and no payload byte.
func TestReadFrameRejectsOversized(t *testing.T) {
	check := func(ft FrameType, size uint32) {
		t.Run(ft.String(), func(t *testing.T) {
			var header [headerSize]byte
			binary.BigEndian.PutUint16(header[0:2], Magic)
			header[2] = Version
			header[3] = byte(ft)
			binary.BigEndian.PutUint32(header[4:8], size)
			r := &byteCounter{r: bytes.NewReader(append(header[:], make([]byte, MaxFrameSize)...))}
			if _, _, err := ReadFrame(r); err == nil || !strings.Contains(err.Error(), "oversized") {
				t.Errorf("%d-byte length prefix: %v, want an oversized error", size, err)
			}
			if r.n != headerSize {
				t.Errorf("%d-byte length prefix: ReadFrame consumed %d bytes, want the %d header bytes", size, r.n, headerSize)
			}
		})
	}
	for _, ft := range []FrameType{FrameHello, FrameFinish, FrameRoundBatch, FrameVoteBatch, FrameAggHello, FrameAggSum, FrameAggPlanes} {
		check(ft, uint32(maxPayload(ft))+1)
	}
	for _, ft := range []FrameType{2, 3, 4, 8, 9, 13} {
		check(ft, math.MaxUint32)
	}
}

func TestReadFrameRejectsTruncatedPayload(t *testing.T) {
	raw, err := AppendVoteBatch(nil, VoteBatch{Player: 1, Batch: 2, Count: 1, Planes: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader(raw[:4])); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReadFrameRejectsWrongPayloadSizes(t *testing.T) {
	mk := func(t FrameType, size int) []byte {
		var header [8]byte
		binary.BigEndian.PutUint16(header[0:2], Magic)
		header[2] = Version
		header[3] = byte(t)
		binary.BigEndian.PutUint32(header[4:8], uint32(size))
		return append(header[:], make([]byte, size)...)
	}
	for _, tt := range []struct {
		t    FrameType
		size int
	}{
		{FrameHello, 4}, {FrameFinish, 1}, {FrameRoundBatch, 7}, {FrameRoundBatch, 23}, {FrameRoundBatch, 25},
		{FrameVoteBatch, 11},
	} {
		if _, _, err := ReadFrame(bytes.NewReader(mk(tt.t, tt.size))); err == nil {
			t.Errorf("%v with %d-byte payload accepted", tt.t, tt.size)
		}
	}
	// The retired types are unknown now, at any payload size they used to
	// carry: version 1's ROUND, VOTE and VERDICT, version 2's VOTE_BATCH_R,
	// and version 3's VERDICT_BATCH and AGG_VERDICT.
	for _, tt := range []struct {
		t    FrameType
		size int
	}{{2, 8}, {3, 12}, {4, 1}, {9, 21}, {8, 16}, {13, 24}, {77, 0}} {
		if _, _, err := ReadFrame(bytes.NewReader(mk(tt.t, tt.size))); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Errorf("frame type %d: err = %v, want unknown-type error", uint8(tt.t), err)
		}
	}
}

// TestRoundBatchIsFixedSize pins the version-3 control cost: a
// ROUND_BATCH is one 32-byte frame whatever its trial count, and it
// decodes back to the range it names.
func TestRoundBatchIsFixedSize(t *testing.T) {
	var buf []byte
	for count := uint32(1); count <= MaxBatchTrials; count++ {
		r := RoundBatch{Batch: count, Count: count, Base: 0x5eed, First: math.MaxInt64 - uint64(count-1)}
		var err error
		buf, err = AppendRoundBatch(buf[:0], r)
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		if len(buf) != 32 {
			t.Fatalf("count %d: ROUND_BATCH of %d bytes, want 32", count, len(buf))
		}
		typ, msg, err := ReadFrame(bytes.NewReader(buf))
		if err != nil || typ != FrameRoundBatch || msg != r {
			t.Fatalf("count %d: decoded (%v, %+v, %v), want %+v", count, typ, msg, err, r)
		}
	}
}

// TestRoundBatchNamedErrors: the encoder and the decoder share one
// check, and each violation is its own named error.
func TestRoundBatchNamedErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    RoundBatch
		want error
	}{
		{"count 0", RoundBatch{Count: 0}, ErrRoundBatchCount},
		{"count 1025", RoundBatch{Count: MaxBatchTrials + 1}, ErrRoundBatchCount},
		{"last trial past MaxInt64", RoundBatch{Count: 2, First: math.MaxInt64}, ErrRoundBatchRange},
		{"first trial past MaxInt64", RoundBatch{Count: 1, First: math.MaxInt64 + 1}, ErrRoundBatchRange},
		{"first trial at MaxUint64", RoundBatch{Count: MaxBatchTrials, First: math.MaxUint64}, ErrRoundBatchRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if buf, err := AppendRoundBatch(nil, tc.r); !errors.Is(err, tc.want) || len(buf) != 0 {
				t.Errorf("encoder: (%d bytes, %v), want nothing and %v", len(buf), err, tc.want)
			}
			raw := appendHeader(nil, FrameRoundBatch, roundBatchPayload)
			raw = binary.BigEndian.AppendUint32(raw, tc.r.Batch)
			raw = binary.BigEndian.AppendUint32(raw, tc.r.Count)
			raw = binary.BigEndian.AppendUint64(raw, tc.r.Base)
			raw = binary.BigEndian.AppendUint64(raw, tc.r.First)
			if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, tc.want) {
				t.Errorf("decoder: %v, want %v", err, tc.want)
			}
		})
	}
}

func TestExpectFrameTypeMismatch(t *testing.T) {
	buf, err := AppendRoundBatch(nil, RoundBatch{Batch: 1, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame[VoteBatch](bytes.NewReader(buf), FrameVoteBatch); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameHello.String() != "HELLO" || FrameAggPlanes.String() != "AGG_PLANES" {
		t.Error("frame names wrong")
	}
	for _, unknown := range []FrameType{2, 8, 9, 13, 77} {
		if got, want := unknown.String(), "FrameType("+strconv.Itoa(int(unknown))+")"; got != want {
			t.Errorf("FrameType(%d).String() = %q, want %q", uint8(unknown), got, want)
		}
	}
}

// cursorFrame is what a frameCursor reports of one frame.
type cursorFrame struct {
	kind  FrameType
	size  int
	count uint32 // a batch frame's trial count, from its fields event
}

// cursorSplit feeds stream to a fresh frameCursor in chunks cut at the
// ascending positions cuts and returns the frames it reports.
func cursorSplit(stream []byte, cuts ...int) []cursorFrame {
	var c frameCursor
	var out []cursorFrame
	prev := 0
	for _, end := range append(cuts, len(stream)) {
		for p := stream[prev:end]; len(p) > 0; {
			n, ev := c.next(p)
			switch ev {
			case cursorHeader:
				out = append(out, cursorFrame{kind: c.kind, size: c.size})
			case cursorFields:
				out[len(out)-1].count = c.count()
			}
			p = p[n:]
		}
		prev = end
	}
	return out
}

// decodedFrames decodes stream with ReadFrame up to its first error and
// returns each frame as a cursor would report it, plus the length of
// the decoded prefix.
func decodedFrames(stream []byte) ([]cursorFrame, int) {
	r := bytes.NewReader(stream)
	var out []cursorFrame
	end := 0
	for {
		t, msg, err := ReadFrame(r)
		if err != nil {
			return out, end
		}
		next := len(stream) - r.Len()
		f := cursorFrame{kind: t, size: next - end - headerSize}
		switch m := msg.(type) {
		case RoundBatch:
			f.count = m.Count
		case VoteBatch:
			f.count = m.Count
		case AggSum:
			f.count = m.Count
		case AggPlanes:
			f.count = m.Count
		}
		out = append(out, f)
		end = next
	}
}

// TestFrameScannerReassembly feeds one encoded stream through the frame
// cursor in every split position: frame boundaries, types and trial
// counts must be recovered regardless of how reads and writes chop the
// byte stream.
func TestFrameScannerReassembly(t *testing.T) {
	var buf []byte
	for _, g := range goldenFrames {
		var err error
		if buf, err = encode(buf, g.msg); err != nil {
			t.Fatal(err)
		}
	}
	want, end := decodedFrames(buf)
	if end != len(buf) || len(want) != len(goldenFrames) {
		t.Fatalf("decoded %d frames over %d of %d bytes", len(want), end, len(buf))
	}
	for split := 0; split <= len(buf); split++ {
		if got := cursorSplit(buf, split); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: cursor reported %+v, want %+v", split, got, want)
		}
	}
	for stride := 1; stride <= 9; stride++ {
		var cuts []int
		for at := stride; at < len(buf); at += stride {
			cuts = append(cuts, at)
		}
		if got := cursorSplit(buf, cuts...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte chunks: cursor reported %+v, want %+v", stride, got, want)
		}
	}
}

// TestFrameCursorStopsOnBadHeader: a header decodeHeader rejects makes
// the rest of the stream unsplittable, so the cursor reports nothing
// past it instead of guessing at boundaries.
func TestFrameCursorStopsOnBadHeader(t *testing.T) {
	stream := AppendHello(nil, Hello{Player: 1, Bits: 1})
	bad := AppendFinish(nil)
	bad[2] = Version + 1
	stream = append(append(stream, bad...), AppendFinish(nil)...)
	got := cursorSplit(stream, 3, 11)
	if want := []cursorFrame{{kind: FrameHello, size: 5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("cursor reported %+v, want %+v", got, want)
	}
}

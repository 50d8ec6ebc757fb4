package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestFrameRoundTrips(t *testing.T) {
	frames := []struct {
		typ   FrameType
		msg   any
		write func(io.Writer) error
	}{
		{FrameHello, Hello{Player: 7, Bits: 3}, func(w io.Writer) error { return WriteHello(w, Hello{Player: 7, Bits: 3}) }},
		{FrameRoundBatch, RoundBatch{Batch: 4, Count: 65, Base: 0xdeadbeefcafe, First: 1 << 40},
			func(w io.Writer) error {
				return WriteRoundBatch(w, RoundBatch{Batch: 4, Count: 65, Base: 0xdeadbeefcafe, First: 1 << 40})
			}},
		{FrameVoteBatch, VoteBatch{Player: 7, Batch: 4, Count: 1, Planes: []uint64{1}},
			func(w io.Writer) error {
				return WriteVoteBatch(w, VoteBatch{Player: 7, Batch: 4, Count: 1, Planes: []uint64{1}})
			}},
		{FrameVoteBatch, VoteBatch{Player: 7, Batch: 4, Count: 3, Planes: []uint64{0b101, 0b011, 0b110}},
			func(w io.Writer) error {
				return WriteVoteBatch(w, VoteBatch{Player: 7, Batch: 4, Count: 3, Planes: []uint64{0b101, 0b011, 0b110}})
			}},
		{FrameVerdictBatch, VerdictBatch{Batch: 4, Count: 1, Bits: []uint64{1}},
			func(w io.Writer) error {
				return WriteVerdictBatch(w, VerdictBatch{Batch: 4, Count: 1, Bits: []uint64{1}})
			}},
		{FrameVerdictBatch, VerdictBatch{Batch: 4, Count: 1, Bits: []uint64{0}},
			func(w io.Writer) error {
				return WriteVerdictBatch(w, VerdictBatch{Batch: 4, Count: 1, Bits: []uint64{0}})
			}},
		{FrameFinish, Finish{}, WriteFinish},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := f.write(&buf); err != nil {
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

// TestVoteBatchOneBitLayout pins the r = 1 encoding: one bitset plane and
// no width byte, so a 1-bit vote batch carries exactly the version-1
// VOTE_BATCH payload.
func TestVoteBatchOneBitLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVoteBatch(&buf, VoteBatch{Player: 3, Batch: 7, Count: 3, Planes: []uint64{0b101}}); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xD0, 0x7A, Version, byte(FrameVoteBatch), 0, 0, 0, 20,
		0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 3,
		0, 0, 0, 0, 0, 0, 0, 0b101}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("1-bit VOTE_BATCH = % x, want % x", buf.Bytes(), want)
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
	if err := WriteVoteBatch(io.Discard, VoteBatch{Count: 65, Planes: make([]uint64, 3)}); err == nil {
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
	// Version 1 is the retired per-trial protocol and version 2 the
	// seed-list ROUND_BATCH: an older peer fails the first frame instead
	// of being misparsed.
	for _, v := range []byte{1, 2, 99} {
		var buf bytes.Buffer
		if err := WriteFinish(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[2] = v
		if _, _, err := ReadFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: %v", v, err)
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var header [8]byte
	binary.BigEndian.PutUint16(header[0:2], Magic)
	header[2] = Version
	header[3] = byte(FrameHello)
	binary.BigEndian.PutUint32(header[4:8], MaxFrameSize+1)
	if _, _, err := ReadFrame(bytes.NewReader(header[:])); err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Errorf("oversized: %v", err)
	}
}

func TestReadFrameRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVoteBatch(&buf, VoteBatch{Player: 1, Batch: 2, Count: 1, Planes: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
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
		{FrameVoteBatch, 11}, {FrameVerdictBatch, 7},
	} {
		if _, _, err := ReadFrame(bytes.NewReader(mk(tt.t, tt.size))); err == nil {
			t.Errorf("%v with %d-byte payload accepted", tt.t, tt.size)
		}
	}
	// The retired version-1 types (ROUND, VOTE, VERDICT, VOTE_BATCH_R) are
	// unknown now, at any payload size they used to carry.
	for _, tt := range []struct {
		t    FrameType
		size int
	}{{2, 8}, {3, 12}, {4, 1}, {9, 21}, {77, 0}} {
		if _, _, err := ReadFrame(bytes.NewReader(mk(tt.t, tt.size))); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Errorf("frame type %d: err = %v, want unknown-type error", uint8(tt.t), err)
		}
	}
}

func TestReadFrameRejectsMalformedVerdictByte(t *testing.T) {
	// A verdict carries exactly one bit per trial: set padding bits above
	// the trial count, or a bitset word count disagreeing with it, are a
	// malformed frame, never extra verdicts.
	mk := func(count uint32, words ...uint64) []byte {
		var header [8]byte
		binary.BigEndian.PutUint16(header[0:2], Magic)
		header[2] = Version
		header[3] = byte(FrameVerdictBatch)
		binary.BigEndian.PutUint32(header[4:8], uint32(8+8*len(words)))
		p := binary.BigEndian.AppendUint32(header[:], 7)
		p = binary.BigEndian.AppendUint32(p, count)
		for _, w := range words {
			p = binary.BigEndian.AppendUint64(p, w)
		}
		return p
	}
	for _, frame := range [][]byte{mk(1, 2), mk(1, 0xFF), mk(63, 1<<63), mk(1, 1, 0), mk(65, 1)} {
		if _, _, err := ReadFrame(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "VERDICT_BATCH") {
			t.Errorf("verdict frame % x: err = %v, want malformed-verdict error", frame, err)
		}
	}
	// The two legal single-trial verdicts still decode.
	for b, want := range map[uint64]bool{0: false, 1: true} {
		typ, msg, err := ReadFrame(bytes.NewReader(mk(1, b)))
		if err != nil || typ != FrameVerdictBatch || (msg.(VerdictBatch).Bits[0] == 1) != want {
			t.Errorf("verdict bit %d: (%v, %v, %v)", b, typ, msg, err)
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
	var buf bytes.Buffer
	if err := WriteRoundBatch(&buf, RoundBatch{Batch: 1, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame[VoteBatch](&buf, FrameVoteBatch); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestWriteFrameRejectsHugePayload(t *testing.T) {
	if err := writeFrame(io.Discard, FrameHello, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized write accepted")
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameHello.String() != "HELLO" || FrameVerdictBatch.String() != "VERDICT_BATCH" {
		t.Error("frame names wrong")
	}
	for _, unknown := range []FrameType{2, 9, 77} {
		if got, want := unknown.String(), "FrameType("+strconv.Itoa(int(unknown))+")"; got != want {
			t.Errorf("FrameType(%d).String() = %q, want %q", uint8(unknown), got, want)
		}
	}
}

package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Protocol constants.
const (
	// Magic prefixes every frame, catching cross-protocol connections.
	Magic = uint16(0xD07A)
	// Version is the wire protocol version. Version 2 retired the
	// per-trial ROUND/VOTE/VERDICT frames and the width-byte VOTE_BATCH_R:
	// every trial rides a batch frame, a single trial being a batch of one.
	// Version 3 replaced ROUND_BATCH's per-trial seed list with a trial
	// range every player expands into its public coins itself. Version 4
	// retired the verdict downlink (VERDICT_BATCH and AGG_VERDICT): the
	// referee decides and writes nothing back, so a version-3 peer fails
	// on its first frame instead of waiting for verdicts.
	Version = uint8(4)
	// MaxFrameSize bounds the payload of HELLO and FINISH; both are tiny.
	// Batch frames have their own bound: ROUND_BATCH's fixed 24 bytes, the
	// others derived from MaxBatchTrials (see maxPayload).
	MaxFrameSize = 64
	// MaxBatchTrials bounds the trial count of one batch frame. It caps
	// the memory a malicious length prefix can make the decoder allocate
	// while still amortizing the per-frame synchronization well past the
	// point of diminishing returns.
	MaxBatchTrials = 1024
	// MaxShardPlayers bounds one aggregator's shard membership (AGG_HELLO
	// and the presence accounting of the reduced frames). It is the
	// decoder's allocation cap for membership lists, far above any shard a
	// balanced tree would produce.
	MaxShardPlayers = 1 << 17
	// MaxAggPlaneWords bounds the vote-plane words one AGG_PLANES frame
	// may carry (present players x message bits x bitset words). Opaque
	// referees at shard sizes past this cap must shard wider; the bound
	// keeps the decoder's largest allocation at 8 MiB instead of the
	// structural gigabyte worst case.
	MaxAggPlaneWords = 1 << 20
)

// FrameType enumerates the message kinds. Values are wire-stable.
type FrameType uint8

// Frame types, in round order. The batch frames (6, 7) carry the whole
// exchange: one ROUND_BATCH names a range of up to MaxBatchTrials trials
// under a batch id and each player answers with one VOTE_BATCH of r
// packed bit-planes echoing the id. The referee decides and writes
// nothing back. A single trial is a batch of one.
// Values 2, 3, 4 (the version-1 per-trial ROUND, VOTE and VERDICT), 9
// (VOTE_BATCH_R, whose r-bit planes VOTE_BATCH now carries) and 8 and 13
// (the version-3 VERDICT_BATCH and AGG_VERDICT) are retired and decode
// as unknown types; the remaining values are wire-stable.
// The aggregator frames (10..12) carry the upstream hop of the two-tier
// referee tree: AGG_HELLO announces an aggregator's shard membership,
// AGG_SUM carries a shard's bit-sliced partial rejection / value sums
// for shaped referees, and AGG_PLANES forwards the shard's packed vote
// planes verbatim for opaque referees.
const (
	FrameHello      FrameType = 1
	FrameFinish     FrameType = 5
	FrameRoundBatch FrameType = 6
	FrameVoteBatch  FrameType = 7
	FrameAggHello   FrameType = 10
	FrameAggSum     FrameType = 11
	FrameAggPlanes  FrameType = 12
)

// String implements fmt.Stringer for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameFinish:
		return "FINISH"
	case FrameRoundBatch:
		return "ROUND_BATCH"
	case FrameVoteBatch:
		return "VOTE_BATCH"
	case FrameAggHello:
		return "AGG_HELLO"
	case FrameAggSum:
		return "AGG_SUM"
	case FrameAggPlanes:
		return "AGG_PLANES"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Hello is the player's first frame.
type Hello struct {
	Player uint32
	Bits   uint8 // message bits the player's rule uses
}

// Finish tells a player the session is over.
type Finish struct{}

// RoundBatch names Count consecutive trials of one engine run,
// identified by a batch id the player echoes in its VOTE_BATCH: trial j
// of the batch is engine trial First+j under base seed Base, and every
// player derives its public coin engine.SharedSeed(Base, First+j)
// itself. The public coin is shared randomness, not communication, so
// the frame is the same 32 bytes for any Count. The last trial,
// First+Count-1, must not exceed math.MaxInt64, so the derivation's int
// trial index never wraps.
// Payload layout: batch(4) count(4) base(8) first(8), big-endian.
type RoundBatch struct {
	Batch, Count uint32
	Base, First  uint64
}

// roundBatchPayload is the fixed ROUND_BATCH payload size.
const roundBatchPayload = 24

// ErrRoundBatchCount is a ROUND_BATCH whose trial count is outside
// 1..MaxBatchTrials.
var ErrRoundBatchCount = errors.New("network: ROUND_BATCH trial count out of range")

// ErrRoundBatchRange is a ROUND_BATCH whose last trial, First+Count-1,
// exceeds math.MaxInt64: its public coins would need a trial index the
// engine cannot name.
var ErrRoundBatchRange = errors.New("network: ROUND_BATCH trial range past math.MaxInt64")

// checkRoundBatch is the one ROUND_BATCH check, shared by the encoder
// and the decoder.
func checkRoundBatch(r RoundBatch) error {
	if r.Count < 1 || r.Count > MaxBatchTrials {
		return fmt.Errorf("%w: %d trials, want 1..%d", ErrRoundBatchCount, r.Count, MaxBatchTrials)
	}
	if r.First > math.MaxInt64-uint64(r.Count-1) {
		return fmt.Errorf("%w: %d trials from trial %d", ErrRoundBatchRange, r.Count, r.First)
	}
	return nil
}

// VoteBatch carries one player's r-bit votes for every trial of a batch
// as r packed bit-planes: plane b holds bit b of every message, with
// trial j of the batch at bit j%64 (LSB first) of plane word j/64 —
// plane b occupies words [b*W, (b+1)*W) of Planes for W =
// batchWords(Count). The frame has no width field: r is the plane
// count, which the decoder derives from the payload length and requires
// to be a whole number in [1, 64]. A 1-bit vote batch is therefore a
// single bitset (1 = accept), byte-identical to the version-1 frame.
// Padding bits past Count must be zero in every plane — the decoder
// rejects frames that violate it, so a corrupted tail byte surfaces as
// a protocol error, never as silent extra votes. The referee checks r
// against the width the player announced in HELLO.
// Payload layout: player(4) batch(4) count(4) planes (8 each).
type VoteBatch struct {
	Player uint32
	Batch  uint32
	Count  uint32
	Planes []uint64
}

// Width is the message width r of the vote planes: the plane count.
func (v VoteBatch) Width() int {
	words := batchWords(int(v.Count))
	if words == 0 {
		return 0
	}
	return len(v.Planes) / words
}

// AggHello is an L1 aggregator's first frame to the root referee: the
// aggregator id, the negotiated message width (every shard member's
// HELLO must match it), the shard membership the aggregator was
// assigned, and how many of those members actually connected during
// the accept phase (the root sums Present across shards for its quorum
// check — zero is legal, a quorum-mode shard whose players all failed
// still reports). Members must be strictly ascending; the root checks
// them against its own routing table, so a mis-sharded aggregator
// fails the handshake instead of corrupting the accounting.
// Payload layout: agg(4) bits(1) present(4) count(4) ids (4 each).
type AggHello struct {
	Agg     uint32
	Bits    uint8
	Present uint32
	Members []uint32
}

// AggSum carries one shard's reduced votes for every trial of a batch
// when the referee is threshold- or sum-shaped: Planes bit-sliced
// counter planes of batchWords(Count) words each, where plane p holds
// bit p of every trial's partial count with trial j of the batch at
// bit j%64 (LSB first) of plane word j/64 — the same transposed layout
// the flat referee's word-parallel decide path ripple-carries over.
// Present is the shard's per-batch present-member count, carried
// explicitly so the root's quorum/absentee accounting composes
// per-shard instead of guessing from frame arrival. Padding bits above
// Count must be zero in every plane, enforced on encode and decode.
// Payload layout: agg(4) batch(4) count(4) bits(1) planes(1)
// present(4) sums (8 each).
type AggSum struct {
	Agg     uint32
	Batch   uint32
	Count   uint32
	Bits    uint8
	Planes  uint8
	Present uint32
	Sums    []uint64
}

// AggPlanes carries one shard's votes verbatim when the referee is
// opaque and no sound local reduction exists: a presence mask over the
// shard's AGG_HELLO membership list (bit i set = member i of that list
// voted this batch, LSB first) followed by the present members' packed
// vote planes in ascending member order, each laid out exactly like
// VoteBatch.Planes (Bits planes of batchWords(Count) words). Present
// must equal the mask's popcount, the total plane words are capped at
// MaxAggPlaneWords, and padding above Count in every plane and above
// Members in the mask must be zero — all enforced on encode and
// decode.
// Payload layout: agg(4) batch(4) count(4) bits(1) members(4)
// present(4) mask (8 each) planes (8 each).
type AggPlanes struct {
	Agg     uint32
	Batch   uint32
	Count   uint32
	Bits    uint8
	Members uint32
	Present uint32
	Mask    []uint64
	Planes  []uint64
}

// batchWords is the number of 64-bit bitset words covering count trials.
func batchWords(count int) int { return (count + 63) / 64 }

// aggMaskWords is the number of 64-bit mask words covering a shard of
// members players.
func aggMaskWords(members int) int { return (members + 63) / 64 }

// checkVoteBatch validates a vote batch: trial count in range, a plane
// run that is a whole number of 1..64 planes of batchWords(Count)
// words, and zero padding above Count in every plane.
func checkVoteBatch(v VoteBatch) error {
	count := int(v.Count)
	if count < 1 || count > MaxBatchTrials {
		return fmt.Errorf("network: VOTE_BATCH with %d trials, want 1..%d", count, MaxBatchTrials)
	}
	words := batchWords(count)
	if len(v.Planes)%words != 0 || len(v.Planes) < words || len(v.Planes) > 64*words {
		return fmt.Errorf("network: VOTE_BATCH with %d plane words for %d trials, want 1..64 planes of %d words",
			len(v.Planes), count, words)
	}
	if rem := count % 64; rem != 0 {
		for b := 0; b < len(v.Planes)/words; b++ {
			if pad := v.Planes[(b+1)*words-1] &^ (1<<rem - 1); pad != 0 {
				return fmt.Errorf("network: VOTE_BATCH with non-zero padding bits %#x above trial %d in plane %d",
					pad, count, b)
			}
		}
	}
	return nil
}

// checkAggHello validates an aggregator handshake: message width in
// range, member count within the shard bound, strictly ascending
// member ids (which also rejects duplicates), and a present count that
// cannot exceed the membership.
func checkAggHello(h AggHello) error {
	if h.Bits < 1 || h.Bits > 64 {
		return fmt.Errorf("network: AGG_HELLO with %d message bits, want 1..64", h.Bits)
	}
	if len(h.Members) < 1 || len(h.Members) > MaxShardPlayers {
		return fmt.Errorf("network: AGG_HELLO with %d members, want 1..%d", len(h.Members), MaxShardPlayers)
	}
	for i := 1; i < len(h.Members); i++ {
		if h.Members[i] <= h.Members[i-1] {
			return fmt.Errorf("network: AGG_HELLO members not strictly ascending: player %d after %d",
				h.Members[i], h.Members[i-1])
		}
	}
	if int(h.Present) > len(h.Members) {
		return fmt.Errorf("network: AGG_HELLO with %d present of %d members", h.Present, len(h.Members))
	}
	return nil
}

// checkAggSum validates a reduced sum frame: trial count, message
// width and counter plane count in range, exact counter stride, a
// present count within the shard bound, and zero padding bits above
// Count in every counter plane. Present zero is legal — every member
// of a tolerant shard may be absent for a batch.
func checkAggSum(v AggSum) error {
	if v.Count < 1 || v.Count > MaxBatchTrials {
		return fmt.Errorf("network: AGG_SUM with %d trials, want 1..%d", v.Count, MaxBatchTrials)
	}
	if v.Bits < 1 || v.Bits > 64 {
		return fmt.Errorf("network: AGG_SUM with %d message bits, want 1..64", v.Bits)
	}
	if v.Planes < 1 || v.Planes > 64 {
		return fmt.Errorf("network: AGG_SUM with %d counter planes, want 1..64", v.Planes)
	}
	if v.Present > MaxShardPlayers {
		return fmt.Errorf("network: AGG_SUM with %d present players, want at most %d", v.Present, MaxShardPlayers)
	}
	words := batchWords(int(v.Count))
	if len(v.Sums) != int(v.Planes)*words {
		return fmt.Errorf("network: AGG_SUM with %d sum words for %d trials of %d planes, want %d",
			len(v.Sums), v.Count, v.Planes, int(v.Planes)*words)
	}
	if rem := int(v.Count) % 64; rem != 0 {
		for p := 0; p < int(v.Planes); p++ {
			if pad := v.Sums[(p+1)*words-1] &^ (1<<rem - 1); pad != 0 {
				return fmt.Errorf("network: AGG_SUM with non-zero padding bits %#x above trial %d in plane %d",
					pad, v.Count, p)
			}
		}
	}
	return nil
}

// checkAggPlanes validates a forwarded plane frame: trial count,
// message width and member count in range, exact mask stride with zero
// padding above Members, a present count equal to the mask popcount,
// plane words matching present x bits x batchWords(Count) under the
// MaxAggPlaneWords cap, and zero padding above Count in every plane of
// every present member. Present zero (empty mask, no planes) is legal.
func checkAggPlanes(v AggPlanes) error {
	if v.Count < 1 || v.Count > MaxBatchTrials {
		return fmt.Errorf("network: AGG_PLANES with %d trials, want 1..%d", v.Count, MaxBatchTrials)
	}
	if v.Bits < 1 || v.Bits > 64 {
		return fmt.Errorf("network: AGG_PLANES with %d message bits, want 1..64", v.Bits)
	}
	if v.Members < 1 || v.Members > MaxShardPlayers {
		return fmt.Errorf("network: AGG_PLANES with %d members, want 1..%d", v.Members, MaxShardPlayers)
	}
	maskWords := aggMaskWords(int(v.Members))
	if len(v.Mask) != maskWords {
		return fmt.Errorf("network: AGG_PLANES with %d mask words for %d members, want %d",
			len(v.Mask), v.Members, maskWords)
	}
	if rem := int(v.Members) % 64; rem != 0 {
		if pad := v.Mask[maskWords-1] &^ (1<<rem - 1); pad != 0 {
			return fmt.Errorf("network: AGG_PLANES with non-zero mask padding bits %#x above member %d", pad, v.Members)
		}
	}
	pop := 0
	for _, w := range v.Mask {
		pop += bits.OnesCount64(w)
	}
	if int(v.Present) != pop {
		return fmt.Errorf("network: AGG_PLANES with present count %d but mask popcount %d", v.Present, pop)
	}
	words := batchWords(int(v.Count))
	stride := int(v.Bits) * words
	if pop*stride > MaxAggPlaneWords {
		return fmt.Errorf("network: AGG_PLANES with %d plane words (%d present x %d bits x %d words), want at most %d — shard wider",
			pop*stride, pop, v.Bits, words, MaxAggPlaneWords)
	}
	if len(v.Planes) != pop*stride {
		return fmt.Errorf("network: AGG_PLANES with %d plane words for %d present players of %d bits, want %d",
			len(v.Planes), pop, v.Bits, pop*stride)
	}
	if rem := int(v.Count) % 64; rem != 0 {
		for m := 0; m < pop; m++ {
			for b := 0; b < int(v.Bits); b++ {
				if pad := v.Planes[m*stride+(b+1)*words-1] &^ (1<<rem - 1); pad != 0 {
					return fmt.Errorf("network: AGG_PLANES with non-zero padding bits %#x above trial %d in plane %d of present member %d",
						pad, v.Count, b, m)
				}
			}
		}
	}
	return nil
}

// frame layout: magic(2) version(1) type(1) length(4) payload(length).
const headerSize = 8

// maxPayload is the per-type payload bound: HELLO and FINISH stay
// within MaxFrameSize, ROUND_BATCH within its fixed payload, and the
// other batch frames within what MaxBatchTrials implies.
func maxPayload(t FrameType) int {
	switch t {
	case FrameRoundBatch:
		return roundBatchPayload
	case FrameVoteBatch:
		return 12 + 8*64*batchWords(MaxBatchTrials)
	case FrameAggHello:
		return 13 + 4*MaxShardPlayers
	case FrameAggSum:
		return 18 + 8*64*batchWords(MaxBatchTrials)
	case FrameAggPlanes:
		return 21 + 8*aggMaskWords(MaxShardPlayers) + 8*MaxAggPlaneWords
	default:
		return MaxFrameSize
	}
}

// batchFields reports the payload offsets of a frame's batch id and
// trial count, the two fields every batch frame leads with; ok is false
// for HELLO, FINISH and AGG_HELLO, which carry neither.
func batchFields(t FrameType) (batch, count int, ok bool) {
	switch t {
	case FrameRoundBatch:
		return 0, 4, true
	case FrameVoteBatch, FrameAggSum, FrameAggPlanes:
		return 4, 8, true // after the player or aggregator id
	default:
		return 0, 0, false
	}
}

// decodeHeader validates one frame header — magic, version and the
// type's payload bound — and returns the frame type and payload size.
// readFrame and frameCursor share it, so the cursor splits a stream
// exactly where the decoder does.
func decodeHeader(h []byte) (FrameType, int, error) {
	if got := binary.BigEndian.Uint16(h[0:2]); got != Magic {
		return 0, 0, fmt.Errorf("network: bad magic %#x", got)
	}
	if h[2] != Version {
		return 0, 0, fmt.Errorf("network: unsupported protocol version %d", h[2])
	}
	t := FrameType(h[3])
	size := binary.BigEndian.Uint32(h[4:8])
	if limit := maxPayload(t); size > uint32(limit) {
		return 0, 0, fmt.Errorf("network: oversized %v frame of %d bytes", t, size)
	}
	return t, int(size), nil
}

// readFrame reads one frame, validating magic, version and size.
func readFrame(r io.Reader) (FrameType, []byte, error) {
	//lint:ignore dut/hotalloc the 8-byte header escapes through the io.Reader interface; one read per frame, one frame per batch on the hot gather path
	var header [headerSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, nil, err
	}
	t, size, err := decodeHeader(header[:])
	if err != nil {
		return 0, nil, err
	}
	//lint:ignore dut/hotalloc one payload buffer per received frame; the batch protocol receives one frame per batch, amortized across the batch's trials
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// appendHeader appends a frame header for a payload of size bytes. It
// first grows buf to hold the whole frame, so encoding into a buffer
// that is too short costs one allocation, not one per field.
func appendHeader(buf []byte, t FrameType, size int) []byte {
	buf = slices.Grow(buf, headerSize+size)
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, Version, byte(t))
	return binary.BigEndian.AppendUint32(buf, uint32(size))
}

// appendWords appends words big-endian, 8 bytes each.
func appendWords(buf []byte, words []uint64) []byte {
	for _, w := range words {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// Each Append* function below is the one encoding of its frame: it
// validates with the same check* the decoder runs, appends nothing on
// an error, and appends the whole frame otherwise. Callers encode into
// scratch they keep and send through writeCoalesced, so a run of
// frames costs one write and a settled sender allocates nothing.

// AppendHello appends one encoded HELLO frame to buf. HELLO has no
// check: the referee validates the announced width against its session.
func AppendHello(buf []byte, h Hello) []byte {
	buf = appendHeader(buf, FrameHello, 5)
	buf = binary.BigEndian.AppendUint32(buf, h.Player)
	return append(buf, h.Bits)
}

// AppendFinish appends one encoded FINISH frame to buf.
func AppendFinish(buf []byte) []byte {
	return appendHeader(buf, FrameFinish, 0)
}

// AppendRoundBatch appends one encoded ROUND_BATCH frame to buf; a frame
// checkRoundBatch rejects is an error and appends nothing.
func AppendRoundBatch(buf []byte, r RoundBatch) ([]byte, error) {
	if err := checkRoundBatch(r); err != nil {
		return buf, err
	}
	buf = appendHeader(buf, FrameRoundBatch, roundBatchPayload)
	buf = binary.BigEndian.AppendUint32(buf, r.Batch)
	buf = binary.BigEndian.AppendUint32(buf, r.Count)
	buf = binary.BigEndian.AppendUint64(buf, r.Base)
	return binary.BigEndian.AppendUint64(buf, r.First), nil
}

// AppendVoteBatch appends one encoded VOTE_BATCH frame to buf; planes
// that are not 1..64 whole planes of batchWords(Count) words, or that
// set padding bits above Count, are an error and append nothing, so an
// invalid batch never reaches the wire.
func AppendVoteBatch(buf []byte, v VoteBatch) ([]byte, error) {
	if err := checkVoteBatch(v); err != nil {
		return buf, err
	}
	buf = appendHeader(buf, FrameVoteBatch, 12+8*len(v.Planes))
	buf = binary.BigEndian.AppendUint32(buf, v.Player)
	buf = binary.BigEndian.AppendUint32(buf, v.Batch)
	buf = binary.BigEndian.AppendUint32(buf, v.Count)
	return appendWords(buf, v.Planes), nil
}

// AppendAggHello appends one encoded AGG_HELLO frame to buf, validated
// by checkAggHello first, so a malformed shard announcement never
// leaves the aggregator.
func AppendAggHello(buf []byte, h AggHello) ([]byte, error) {
	if err := checkAggHello(h); err != nil {
		return buf, err
	}
	buf = appendHeader(buf, FrameAggHello, 13+4*len(h.Members))
	buf = binary.BigEndian.AppendUint32(buf, h.Agg)
	buf = append(buf, h.Bits)
	buf = binary.BigEndian.AppendUint32(buf, h.Present)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(h.Members)))
	for _, id := range h.Members {
		buf = binary.BigEndian.AppendUint32(buf, id)
	}
	return buf, nil
}

// AppendAggSum appends one encoded AGG_SUM frame to buf, validated by
// checkAggSum first. The aggregator's reducer encodes its upstream
// frames into a reused buffer, keeping the hot reduce path
// allocation-free.
func AppendAggSum(buf []byte, v AggSum) ([]byte, error) {
	if err := checkAggSum(v); err != nil {
		return buf, err
	}
	buf = appendHeader(buf, FrameAggSum, 18+8*len(v.Sums))
	buf = binary.BigEndian.AppendUint32(buf, v.Agg)
	buf = binary.BigEndian.AppendUint32(buf, v.Batch)
	buf = binary.BigEndian.AppendUint32(buf, v.Count)
	buf = append(buf, v.Bits, v.Planes)
	buf = binary.BigEndian.AppendUint32(buf, v.Present)
	return appendWords(buf, v.Sums), nil
}

// AppendAggPlanes appends one encoded AGG_PLANES frame to buf,
// validated by checkAggPlanes first.
func AppendAggPlanes(buf []byte, v AggPlanes) ([]byte, error) {
	if err := checkAggPlanes(v); err != nil {
		return buf, err
	}
	buf = appendHeader(buf, FrameAggPlanes, 21+8*(len(v.Mask)+len(v.Planes)))
	buf = binary.BigEndian.AppendUint32(buf, v.Agg)
	buf = binary.BigEndian.AppendUint32(buf, v.Batch)
	buf = binary.BigEndian.AppendUint32(buf, v.Count)
	buf = append(buf, v.Bits)
	buf = binary.BigEndian.AppendUint32(buf, v.Members)
	buf = binary.BigEndian.AppendUint32(buf, v.Present)
	buf = appendWords(buf, v.Mask)
	return appendWords(buf, v.Planes), nil
}

// writeCoalesced writes a run of frames already encoded by the Append*
// functions in a single write. It is the one function that writes
// frames: living in the encoder file keeps the raw conn write inside
// the frame-discipline boundary, so every byte on a connection
// originates from a validated encoder.
func writeCoalesced(w io.Writer, run []byte) error {
	_, err := w.Write(run)
	return err
}

// payloadReader reads one frame payload's fields in wire order. Every
// read is bounds-checked: a read past the end yields zero values and
// marks the payload bad, so a decoder case reads all its fields
// unconditionally and learns once, in check, whether they fit. Runs of
// words come back as views of the payload, so every slice a decoder
// allocates is sized by bytes readFrame already read and bounded: a
// hostile count field cannot make the decoder allocate more.
type payloadReader struct {
	p   []byte
	n   int // payload size, for errors
	bad bool
}

// take consumes the next n bytes, or marks the payload bad if fewer
// remain.
func (r *payloadReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.p) {
		r.bad = true
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *payloadReader) u8() uint8 {
	if b := r.take(1); !r.bad {
		return b[0]
	}
	return 0
}

func (r *payloadReader) u32() uint32 {
	if b := r.take(4); !r.bad {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *payloadReader) u64() uint64 {
	if b := r.take(8); !r.bad {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// rest consumes the rest of the payload, which must be a whole number of
// size-byte words: the trailing run whose length the frame's check
// validates against its other fields.
func (r *payloadReader) rest(size int) []byte {
	if len(r.p)%size != 0 {
		r.bad = true
		return nil
	}
	return r.take(len(r.p))
}

// check finishes a decoder case: a payload its fields do not fill
// exactly is malformed whatever they say; otherwise err, the encoder's
// own check of the decoded frame, decides.
func (r *payloadReader) check(t FrameType, err error) error {
	if r.bad || len(r.p) != 0 {
		return fmt.Errorf("network: %v payload of %d bytes does not fit its layout", t, r.n)
	}
	return err
}

// uint32s decodes raw's big-endian uint32s into dst, which the caller
// sized to len(raw)/4.
func uint32s(dst []uint32, raw []byte) []uint32 {
	for i := range dst {
		dst[i] = binary.BigEndian.Uint32(raw[4*i:])
	}
	return dst
}

// uint64s decodes raw's big-endian uint64s into dst, which the caller
// sized to len(raw)/8.
func uint64s(dst []uint64, raw []byte) []uint64 {
	for i := range dst {
		dst[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	return dst
}

// decoded is ReadFrame's result for one decoded frame.
func decoded(t FrameType, msg any, err error) (FrameType, any, error) {
	if err != nil {
		return 0, nil, err
	}
	return t, msg, nil
}

// ReadFrame reads and decodes the next frame into one of the typed
// structs; the first return carries the type tag. Each case reads its
// fields through one payloadReader and validates them with the check*
// its encoder runs, so the decoder accepts exactly what the encoders
// can produce.
func ReadFrame(r io.Reader) (FrameType, any, error) {
	t, payload, err := readFrame(r)
	if err != nil {
		return 0, nil, err
	}
	p := payloadReader{p: payload, n: len(payload)}
	switch t {
	case FrameHello:
		m := Hello{Player: p.u32(), Bits: p.u8()}
		return decoded(t, m, p.check(t, nil))
	case FrameFinish:
		return decoded(t, Finish{}, p.check(t, nil))
	case FrameRoundBatch:
		m := RoundBatch{Batch: p.u32(), Count: p.u32(), Base: p.u64(), First: p.u64()}
		return decoded(t, m, p.check(t, checkRoundBatch(m)))
	case FrameVoteBatch:
		// No width field: the planes are the rest of the payload, and
		// checkVoteBatch requires a whole number of 1..64 of them.
		m := VoteBatch{Player: p.u32(), Batch: p.u32(), Count: p.u32()}
		planes := p.rest(8)
		m.Planes = uint64s(make([]uint64, len(planes)/8), planes)
		return decoded(t, m, p.check(t, checkVoteBatch(m)))
	case FrameAggHello:
		m := AggHello{Agg: p.u32(), Bits: p.u8(), Present: p.u32()}
		ids := p.take(4 * int(p.u32()))
		m.Members = uint32s(make([]uint32, len(ids)/4), ids)
		return decoded(t, m, p.check(t, checkAggHello(m)))
	case FrameAggSum:
		m := AggSum{Agg: p.u32(), Batch: p.u32(), Count: p.u32(), Bits: p.u8(), Planes: p.u8(), Present: p.u32()}
		sums := p.rest(8)
		m.Sums = uint64s(make([]uint64, len(sums)/8), sums)
		return decoded(t, m, p.check(t, checkAggSum(m)))
	case FrameAggPlanes:
		m := AggPlanes{Agg: p.u32(), Batch: p.u32(), Count: p.u32(), Bits: p.u8(), Members: p.u32(), Present: p.u32()}
		mask := p.take(8 * aggMaskWords(int(m.Members)))
		m.Mask = uint64s(make([]uint64, len(mask)/8), mask)
		planes := p.rest(8)
		m.Planes = uint64s(make([]uint64, len(planes)/8), planes)
		return decoded(t, m, p.check(t, checkAggPlanes(m)))
	default:
		return 0, nil, fmt.Errorf("network: unknown frame type %d", uint8(t))
	}
}

// frameCursor follows the frame structure of a byte stream fed to it in
// chunks of any size, so a transport decorator can tally, inspect and
// rewrite frames in place however reads and writes chop the stream.
// Headers decode through decodeHeader, as in readFrame; a header it
// rejects leaves the stream unsplittable, and the cursor passes every
// later byte through unreported for the receiver's decoder to reject.
type frameCursor struct {
	buf    [headerSize + 12]byte // the current frame's header and leading batch fields
	at     int                   // bytes of the current frame consumed, header included
	kind   FrameType             // the current frame's type, from its header event on
	size   int                   // its payload size, from its header event on
	fields int                   // frame offset just past its batch fields; 0 = none
	patch  int                   // frame offset of a pending XOR (see corrupt)
	mask   byte                  // the pending XOR mask; 0 = none
	lost   bool                  // a header failed to decode
}

// Cursor events: what the bytes consumed by one next call completed.
const (
	cursorBytes  = iota // nothing: a header or payload continues
	cursorHeader        // a header: kind and size are valid
	cursorFields        // a batch frame's batch id and trial count: see count
)

// next consumes the leading bytes of p up to the current frame's next
// event — the end of its header, of its batch fields, or of the frame
// — applies any pending corrupt to them, and reports how many bytes it
// consumed and which event they completed. Callers loop until p is
// spent; a frame starts at p[0] exactly when at is zero before the call.
func (c *frameCursor) next(p []byte) (int, int) {
	if c.lost || len(p) == 0 {
		return len(p), cursorBytes
	}
	stop := headerSize
	if c.at >= headerSize {
		stop = headerSize + c.size
		if c.at < c.fields {
			stop = c.fields
		}
	}
	n := min(stop-c.at, len(p))
	if c.at < len(c.buf) {
		copy(c.buf[c.at:], p[:n])
	}
	if c.mask != 0 && c.patch >= c.at && c.patch < c.at+n {
		p[c.patch-c.at] ^= c.mask
		c.mask = 0
	}
	c.at += n
	ev := cursorBytes
	switch {
	case c.at == headerSize:
		kind, size, err := decodeHeader(c.buf[:headerSize])
		if err != nil {
			c.lost = true
			return n, cursorBytes
		}
		c.kind, c.size, c.fields = kind, size, 0
		if _, count, ok := batchFields(kind); ok && count+4 <= size {
			c.fields = headerSize + count + 4
		}
		ev = cursorHeader
	case c.at == c.fields:
		ev = cursorFields
	}
	if c.at == headerSize+c.size {
		c.at, c.fields, c.mask = 0, 0, 0
	}
	return n, ev
}

// count is the current frame's trial count, valid from its
// cursorFields event on.
func (c *frameCursor) count() uint32 {
	_, off, _ := batchFields(c.kind)
	return binary.BigEndian.Uint32(c.buf[headerSize+off:])
}

// corrupt XORs mask into the current frame's payload byte at off as it
// passes through next, rewriting the stream in place. Call it at the
// frame's header event, before any payload byte has passed.
func (c *frameCursor) corrupt(off int, mask byte) {
	c.patch, c.mask = headerSize+off, mask
}

// batchIDByte is the payload offset of the low byte of the current
// batch frame's id: corrupting it breaks the id echo every receiver
// checks, while the frame's votes and sums stay intact.
func (c *frameCursor) batchIDByte() int {
	batch, _, _ := batchFields(c.kind)
	return batch + 3
}

// expectFrame reads the next frame and requires a specific type.
func expectFrame[T any](r io.Reader, want FrameType) (T, error) {
	var zero T
	t, msg, err := ReadFrame(r)
	if err != nil {
		return zero, err
	}
	if t != want {
		return zero, fmt.Errorf("network: expected %v, got %v", want, t)
	}
	typed, ok := msg.(T)
	if !ok {
		return zero, fmt.Errorf("network: frame %v decoded to unexpected type %T", t, msg)
	}
	return typed, nil
}

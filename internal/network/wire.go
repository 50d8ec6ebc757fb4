package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Protocol constants.
const (
	// Magic prefixes every frame, catching cross-protocol connections.
	Magic = uint16(0xD07A)
	// Version is the wire protocol version. Version 2 retired the
	// per-trial ROUND/VOTE/VERDICT frames and the width-byte VOTE_BATCH_R:
	// every trial rides a batch frame, a single trial being a batch of one.
	// Version 3 replaced ROUND_BATCH's per-trial seed list with a trial
	// range every player expands into its public coins itself.
	Version = uint8(3)
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
	// MaxAggShards bounds the shard count an AGG_VERDICT's present-count
	// echo vector may cover: the decoder's allocation cap for the vector,
	// far above any tree a root could usefully fan out to (the bench
	// ceiling is 32 aggregators over 100k players).
	MaxAggShards = 1 << 10
)

// FrameType enumerates the message kinds. Values are wire-stable.
type FrameType uint8

// Frame types, in round order. The batch frames (6..8) carry the whole
// exchange: one ROUND_BATCH names a range of up to MaxBatchTrials trials
// under a batch id, each player answers with one VOTE_BATCH of r packed
// bit-planes echoing the id, and the referee replies with one
// VERDICT_BATCH. A single trial is a batch of one.
// Values 2, 3, 4 (the version-1 per-trial ROUND, VOTE and VERDICT) and 9
// (VOTE_BATCH_R, whose r-bit planes VOTE_BATCH now carries) are retired
// and decode as unknown types; the remaining values are wire-stable.
// The aggregator frames (10..13) carry the two hops of the two-tier
// referee tree: AGG_HELLO announces an aggregator's shard membership,
// AGG_SUM carries a shard's bit-sliced partial rejection / value sums
// for shaped referees, AGG_PLANES forwards the shard's packed vote
// planes verbatim for opaque referees, and AGG_VERDICT is the root ->
// L1 mirror of VERDICT_BATCH: one strictly-validated frame per
// aggregator per batch, carrying the packed verdicts plus the root's
// per-shard present-count accounting for the aggregator to audit
// before it relays the verdicts to its shard.
const (
	FrameHello        FrameType = 1
	FrameFinish       FrameType = 5
	FrameRoundBatch   FrameType = 6
	FrameVoteBatch    FrameType = 7
	FrameVerdictBatch FrameType = 8
	FrameAggHello     FrameType = 10
	FrameAggSum       FrameType = 11
	FrameAggPlanes    FrameType = 12
	FrameAggVerdict   FrameType = 13
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
	case FrameVerdictBatch:
		return "VERDICT_BATCH"
	case FrameAggHello:
		return "AGG_HELLO"
	case FrameAggSum:
		return "AGG_SUM"
	case FrameAggPlanes:
		return "AGG_PLANES"
	case FrameAggVerdict:
		return "AGG_VERDICT"
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
// against the width the player announced in HELLO. Verdicts stay
// single-bit, so VERDICT_BATCH is unchanged for any r.
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

// VerdictBatch carries the referee's verdicts for every trial of a
// batch, packed exactly like a 1-bit VoteBatch plane (1 = accept).
// Payload layout: batch(4) count(4) words (8 each).
type VerdictBatch struct {
	Batch uint32
	Count uint32
	Bits  []uint64
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

// AggVerdict carries the root's verdicts for one batch down the tree:
// the batch id, trial count and packed verdict bitset (laid out exactly
// like VerdictBatch.Bits, 1 = accept) plus the root's per-shard
// present-count accounting for the batch — Present[a] is the number of
// player votes the root credited to shard a when it decided, zero for
// an absent shard. The vector is indexed by aggregator id and covers
// every shard, so the root encodes one frame per batch and queues the
// same bytes to every aggregator; each aggregator checks its own entry
// against the present count it sent upstream, so a corrupted, replayed
// or mis-accounted verdict surfaces as a protocol error at the tier
// that can still stop it instead of fanning out to the shard.
// Payload layout: batch(4) count(4) shards(4) present (4 each)
// words (8 each).
type AggVerdict struct {
	Batch   uint32
	Count   uint32
	Present []uint32
	Bits    []uint64
}

// batchWords is the number of 64-bit bitset words covering count trials.
func batchWords(count int) int { return (count + 63) / 64 }

// aggMaskWords is the number of 64-bit mask words covering a shard of
// members players.
func aggMaskWords(members int) int { return (members + 63) / 64 }

// checkBatchBits validates a packed verdict bitset against its trial
// count: a single plane with exact word count and zero padding.
func checkBatchBits(kind FrameType, count int, bits []uint64) error {
	return checkBatchPlanes(kind, count, 1, bits)
}

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
	return checkBatchPlanes(FrameVoteBatch, count, len(v.Planes)/words, v.Planes)
}

// checkBatchPlanes validates an r-bit plane set against its trial count
// and message width: exact stride (msgBits planes of batchWords(count)
// words each) and zero padding bits above count in every plane.
func checkBatchPlanes(kind FrameType, count, msgBits int, planes []uint64) error {
	if count < 1 || count > MaxBatchTrials {
		return fmt.Errorf("network: %v with %d trials, want 1..%d", kind, count, MaxBatchTrials)
	}
	if msgBits < 1 || msgBits > 64 {
		return fmt.Errorf("network: %v with %d message bits, want 1..64", kind, msgBits)
	}
	words := batchWords(count)
	if len(planes) != msgBits*words {
		return fmt.Errorf("network: %v with %d plane words for %d trials of %d bits, want %d",
			kind, len(planes), count, msgBits, msgBits*words)
	}
	if rem := count % 64; rem != 0 {
		for b := 0; b < msgBits; b++ {
			if pad := planes[(b+1)*words-1] &^ (1<<rem - 1); pad != 0 {
				return fmt.Errorf("network: %v with non-zero padding bits %#x above trial %d in plane %d",
					kind, pad, count, b)
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

// checkAggVerdict validates a downstream verdict frame: at least one
// shard (a zero-shard tree has nobody to relay to, so an empty vector
// is a malformed frame, not a degenerate legal one) within the shard
// bound, per-shard present counts within the per-shard player bound,
// and the verdict bitset validated exactly like VERDICT_BATCH (exact
// word count, zero padding above Count).
func checkAggVerdict(v AggVerdict) error {
	if len(v.Present) < 1 || len(v.Present) > MaxAggShards {
		return fmt.Errorf("network: AGG_VERDICT with %d shards, want 1..%d", len(v.Present), MaxAggShards)
	}
	for i, p := range v.Present {
		if p > MaxShardPlayers {
			return fmt.Errorf("network: AGG_VERDICT with %d present players in shard %d, want at most %d",
				p, i, MaxShardPlayers)
		}
	}
	return checkBatchBits(FrameAggVerdict, int(v.Count), v.Bits)
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
	case FrameVerdictBatch:
		return 8 + 8*batchWords(MaxBatchTrials)
	case FrameAggHello:
		return 13 + 4*MaxShardPlayers
	case FrameAggSum:
		return 18 + 8*64*batchWords(MaxBatchTrials)
	case FrameAggPlanes:
		return 21 + 8*aggMaskWords(MaxShardPlayers) + 8*MaxAggPlaneWords
	case FrameAggVerdict:
		return 12 + 4*MaxAggShards + 8*batchWords(MaxBatchTrials)
	default:
		return MaxFrameSize
	}
}

// writeFrame writes one frame.
func writeFrame(w io.Writer, t FrameType, payload []byte) error {
	if limit := maxPayload(t); len(payload) > limit {
		return fmt.Errorf("network: %v payload of %d bytes exceeds limit %d", t, len(payload), limit)
	}
	//lint:ignore dut/hotalloc one frame buffer per frame; hot batch paths send one frame per batch, amortized across the batch's trials, and the coalesced writers bypass this helper entirely
	buf := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint16(buf[0:2], Magic)
	buf[2] = Version
	buf[3] = byte(t)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(payload)))
	copy(buf[headerSize:], payload)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, validating magic, version and size.
func readFrame(r io.Reader) (FrameType, []byte, error) {
	//lint:ignore dut/hotalloc the 8-byte header escapes through the io.Reader interface; one read per frame, one frame per batch on the hot gather path
	var header [headerSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, nil, err
	}
	if got := binary.BigEndian.Uint16(header[0:2]); got != Magic {
		return 0, nil, fmt.Errorf("network: bad magic %#x", got)
	}
	if header[2] != Version {
		return 0, nil, fmt.Errorf("network: unsupported protocol version %d", header[2])
	}
	t := FrameType(header[3])
	size := binary.BigEndian.Uint32(header[4:8])
	if limit := maxPayload(t); size > uint32(limit) {
		return 0, nil, fmt.Errorf("network: oversized %v frame of %d bytes", t, size)
	}
	//lint:ignore dut/hotalloc one payload buffer per received frame; the batch protocol receives one frame per batch, amortized across the batch's trials
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return t, payload, nil
}

// WriteHello sends a HELLO frame.
func WriteHello(w io.Writer, h Hello) error {
	var p [5]byte
	binary.BigEndian.PutUint32(p[0:4], h.Player)
	p[4] = h.Bits
	return writeFrame(w, FrameHello, p[:])
}

// WriteFinish sends a FINISH frame.
func WriteFinish(w io.Writer) error {
	return writeFrame(w, FrameFinish, nil)
}

// appendHeader appends a frame header for a payload of size bytes.
func appendHeader(buf []byte, t FrameType, size int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, Version, byte(t))
	return binary.BigEndian.AppendUint32(buf, uint32(size))
}

// AppendRoundBatch appends one encoded ROUND_BATCH frame to buf; a frame
// checkRoundBatch rejects is an error and appends nothing. Each Append*
// helper is the one encoding of its frame layout: the batch session's
// slot writers encode frame runs with them and flush the runs through
// writeCoalesced, so a full window of frames costs one write instead of
// one per frame, and the matching Write* sends one frame.
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

// AppendVerdictBatch appends one encoded VERDICT_BATCH frame to buf; a
// bitset with the wrong word count or set padding bits above Count is an
// error and appends nothing.
func AppendVerdictBatch(buf []byte, v VerdictBatch) ([]byte, error) {
	if err := checkBatchBits(FrameVerdictBatch, int(v.Count), v.Bits); err != nil {
		return buf, err
	}
	buf = appendHeader(buf, FrameVerdictBatch, 8+8*len(v.Bits))
	buf = binary.BigEndian.AppendUint32(buf, v.Batch)
	buf = binary.BigEndian.AppendUint32(buf, v.Count)
	for _, word := range v.Bits {
		buf = binary.BigEndian.AppendUint64(buf, word)
	}
	return buf, nil
}

// AppendFinish appends one encoded FINISH frame to buf.
func AppendFinish(buf []byte) []byte {
	return appendHeader(buf, FrameFinish, 0)
}

// writeCoalesced flushes a run of frames already encoded by the Append*
// helpers in a single write. Living in the encoder file keeps the raw
// conn write inside the frame-discipline boundary: every byte still
// originates from a validated encoder.
func writeCoalesced(w io.Writer, run []byte) error {
	_, err := w.Write(run)
	return err
}

// WriteRoundBatch sends a ROUND_BATCH frame encoded by AppendRoundBatch.
func WriteRoundBatch(w io.Writer, r RoundBatch) error {
	frame, err := AppendRoundBatch(nil, r)
	if err != nil {
		return err
	}
	return writeCoalesced(w, frame)
}

// WriteVoteBatch sends a VOTE_BATCH frame; the planes are validated
// against Count (whole planes, 1..64 of them, zero padding in each)
// before any byte leaves, so an invalid batch never reaches the wire.
func WriteVoteBatch(w io.Writer, v VoteBatch) error {
	if err := checkVoteBatch(v); err != nil {
		return err
	}
	//lint:ignore dut/hotalloc one encode buffer per VOTE_BATCH frame; a node sends one such frame per batch covering Count trials
	p := make([]byte, 12+8*len(v.Planes))
	binary.BigEndian.PutUint32(p[0:4], v.Player)
	binary.BigEndian.PutUint32(p[4:8], v.Batch)
	binary.BigEndian.PutUint32(p[8:12], v.Count)
	for i, word := range v.Planes {
		binary.BigEndian.PutUint64(p[12+8*i:], word)
	}
	return writeFrame(w, FrameVoteBatch, p)
}

// WriteVerdictBatch sends a VERDICT_BATCH frame encoded by
// AppendVerdictBatch: an invalid bitset never reaches the wire.
func WriteVerdictBatch(w io.Writer, v VerdictBatch) error {
	frame, err := AppendVerdictBatch(nil, v)
	if err != nil {
		return err
	}
	return writeCoalesced(w, frame)
}

// WriteAggHello sends an AGG_HELLO frame, validated before any byte
// leaves the aggregator.
func WriteAggHello(w io.Writer, h AggHello) error {
	if err := checkAggHello(h); err != nil {
		return err
	}
	p := make([]byte, 13+4*len(h.Members))
	binary.BigEndian.PutUint32(p[0:4], h.Agg)
	p[4] = h.Bits
	binary.BigEndian.PutUint32(p[5:9], h.Present)
	binary.BigEndian.PutUint32(p[9:13], uint32(len(h.Members)))
	for i, id := range h.Members {
		binary.BigEndian.PutUint32(p[13+4*i:], id)
	}
	return writeFrame(w, FrameAggHello, p)
}

// WriteAggSum sends an AGG_SUM frame encoded by AppendAggSum: an
// invalid reduction never reaches the wire.
func WriteAggSum(w io.Writer, v AggSum) error {
	frame, err := AppendAggSum(nil, v)
	if err != nil {
		return err
	}
	return writeCoalesced(w, frame)
}

// WriteAggPlanes sends an AGG_PLANES frame encoded by AppendAggPlanes:
// an invalid forward never reaches the wire.
func WriteAggPlanes(w io.Writer, v AggPlanes) error {
	frame, err := AppendAggPlanes(nil, v)
	if err != nil {
		return err
	}
	return writeCoalesced(w, frame)
}

// WriteAggVerdict sends an AGG_VERDICT frame encoded by
// AppendAggVerdict: an invalid verdict never reaches the wire.
func WriteAggVerdict(w io.Writer, v AggVerdict) error {
	frame, err := AppendAggVerdict(nil, v)
	if err != nil {
		return err
	}
	return writeCoalesced(w, frame)
}

// AppendAggVerdict appends one encoded AGG_VERDICT frame to buf,
// validated by checkAggVerdict first. The root encodes each batch's
// verdict once into reused scratch and queues the same bytes to every
// aggregator slot, so the downstream fan-out costs O(aggregators)
// writes and zero allocations at the root regardless of player count.
func AppendAggVerdict(buf []byte, v AggVerdict) ([]byte, error) {
	if err := checkAggVerdict(v); err != nil {
		return buf, err
	}
	buf = appendHeader(buf, FrameAggVerdict, 12+4*len(v.Present)+8*len(v.Bits))
	buf = binary.BigEndian.AppendUint32(buf, v.Batch)
	buf = binary.BigEndian.AppendUint32(buf, v.Count)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Present)))
	for _, n := range v.Present {
		buf = binary.BigEndian.AppendUint32(buf, n)
	}
	for _, word := range v.Bits {
		buf = binary.BigEndian.AppendUint64(buf, word)
	}
	return buf, nil
}

// AppendAggSum appends one encoded AGG_SUM frame to buf, validated by
// checkAggSum first. The aggregator's reducer encodes its
// upstream frames with the Append* helpers into a reused buffer and
// flushes through writeCoalesced, keeping the hot reduce path
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
	for _, word := range v.Sums {
		buf = binary.BigEndian.AppendUint64(buf, word)
	}
	return buf, nil
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
	for _, word := range v.Mask {
		buf = binary.BigEndian.AppendUint64(buf, word)
	}
	for _, word := range v.Planes {
		buf = binary.BigEndian.AppendUint64(buf, word)
	}
	return buf, nil
}

// ReadFrame reads and decodes the next frame into one of the typed
// structs; the first return carries the type tag.
func ReadFrame(r io.Reader) (FrameType, any, error) {
	t, payload, err := readFrame(r)
	if err != nil {
		return 0, nil, err
	}
	switch t {
	case FrameHello:
		if len(payload) != 5 {
			return 0, nil, fmt.Errorf("network: HELLO payload of %d bytes", len(payload))
		}
		return t, Hello{Player: binary.BigEndian.Uint32(payload[0:4]), Bits: payload[4]}, nil
	case FrameFinish:
		if len(payload) != 0 {
			return 0, nil, fmt.Errorf("network: FINISH payload of %d bytes", len(payload))
		}
		return t, Finish{}, nil
	case FrameRoundBatch:
		if len(payload) != roundBatchPayload {
			return 0, nil, fmt.Errorf("network: ROUND_BATCH payload of %d bytes, want %d", len(payload), roundBatchPayload)
		}
		r := RoundBatch{
			Batch: binary.BigEndian.Uint32(payload[0:4]),
			Count: binary.BigEndian.Uint32(payload[4:8]),
			Base:  binary.BigEndian.Uint64(payload[8:16]),
			First: binary.BigEndian.Uint64(payload[16:24]),
		}
		if err := checkRoundBatch(r); err != nil {
			return 0, nil, err
		}
		return t, r, nil
	case FrameVoteBatch:
		if len(payload) < 12 {
			return 0, nil, fmt.Errorf("network: VOTE_BATCH payload of %d bytes", len(payload))
		}
		count := int(binary.BigEndian.Uint32(payload[8:12]))
		if count < 1 || count > MaxBatchTrials {
			return 0, nil, fmt.Errorf("network: VOTE_BATCH with %d trials, want 1..%d", count, MaxBatchTrials)
		}
		// No width field: the plane count r is whatever whole number of
		// batchWords(count)-word planes the payload holds, and must be
		// 1..64.
		planeBytes := 8 * batchWords(count)
		rest := len(payload) - 12
		if rest%planeBytes != 0 || rest < planeBytes || rest > 64*planeBytes {
			return 0, nil, fmt.Errorf("network: VOTE_BATCH payload of %d bytes for %d trials is not 1..64 planes of %d bytes",
				len(payload), count, planeBytes)
		}
		planes := make([]uint64, rest/8)
		for i := range planes {
			planes[i] = binary.BigEndian.Uint64(payload[12+8*i:])
		}
		v := VoteBatch{
			Player: binary.BigEndian.Uint32(payload[0:4]),
			Batch:  binary.BigEndian.Uint32(payload[4:8]),
			Count:  uint32(count),
			Planes: planes,
		}
		if err := checkVoteBatch(v); err != nil {
			return 0, nil, err
		}
		return t, v, nil
	case FrameVerdictBatch:
		if len(payload) < 8 {
			return 0, nil, fmt.Errorf("network: VERDICT_BATCH payload of %d bytes", len(payload))
		}
		count := int(binary.BigEndian.Uint32(payload[4:8]))
		if count < 1 || count > MaxBatchTrials {
			return 0, nil, fmt.Errorf("network: VERDICT_BATCH with %d trials, want 1..%d", count, MaxBatchTrials)
		}
		if len(payload) != 8+8*batchWords(count) {
			return 0, nil, fmt.Errorf("network: VERDICT_BATCH payload of %d bytes for %d trials, want %d",
				len(payload), count, 8+8*batchWords(count))
		}
		bits := make([]uint64, batchWords(count))
		for i := range bits {
			bits[i] = binary.BigEndian.Uint64(payload[8+8*i:])
		}
		if err := checkBatchBits(FrameVerdictBatch, count, bits); err != nil {
			return 0, nil, err
		}
		return t, VerdictBatch{
			Batch: binary.BigEndian.Uint32(payload[0:4]),
			Count: uint32(count),
			Bits:  bits,
		}, nil
	case FrameAggHello:
		if len(payload) < 13 {
			return 0, nil, fmt.Errorf("network: AGG_HELLO payload of %d bytes", len(payload))
		}
		count := int(binary.BigEndian.Uint32(payload[9:13]))
		if count < 1 || count > MaxShardPlayers {
			return 0, nil, fmt.Errorf("network: AGG_HELLO with %d members, want 1..%d", count, MaxShardPlayers)
		}
		if len(payload) != 13+4*count {
			return 0, nil, fmt.Errorf("network: AGG_HELLO payload of %d bytes for %d members, want %d",
				len(payload), count, 13+4*count)
		}
		members := make([]uint32, count)
		for i := range members {
			members[i] = binary.BigEndian.Uint32(payload[13+4*i:])
		}
		h := AggHello{
			Agg:     binary.BigEndian.Uint32(payload[0:4]),
			Bits:    payload[4],
			Present: binary.BigEndian.Uint32(payload[5:9]),
			Members: members,
		}
		if err := checkAggHello(h); err != nil {
			return 0, nil, err
		}
		return t, h, nil
	case FrameAggSum:
		if len(payload) < 18 {
			return 0, nil, fmt.Errorf("network: AGG_SUM payload of %d bytes", len(payload))
		}
		count := int(binary.BigEndian.Uint32(payload[8:12]))
		if count < 1 || count > MaxBatchTrials {
			return 0, nil, fmt.Errorf("network: AGG_SUM with %d trials, want 1..%d", count, MaxBatchTrials)
		}
		planes := int(payload[13])
		if planes < 1 || planes > 64 {
			return 0, nil, fmt.Errorf("network: AGG_SUM with %d counter planes, want 1..64", planes)
		}
		words := planes * batchWords(count)
		if len(payload) != 18+8*words {
			return 0, nil, fmt.Errorf("network: AGG_SUM payload of %d bytes for %d trials of %d planes, want %d",
				len(payload), count, planes, 18+8*words)
		}
		sums := make([]uint64, words)
		for i := range sums {
			sums[i] = binary.BigEndian.Uint64(payload[18+8*i:])
		}
		v := AggSum{
			Agg:     binary.BigEndian.Uint32(payload[0:4]),
			Batch:   binary.BigEndian.Uint32(payload[4:8]),
			Count:   uint32(count),
			Bits:    payload[12],
			Planes:  uint8(planes),
			Present: binary.BigEndian.Uint32(payload[14:18]),
			Sums:    sums,
		}
		if err := checkAggSum(v); err != nil {
			return 0, nil, err
		}
		return t, v, nil
	case FrameAggPlanes:
		if len(payload) < 21 {
			return 0, nil, fmt.Errorf("network: AGG_PLANES payload of %d bytes", len(payload))
		}
		count := int(binary.BigEndian.Uint32(payload[8:12]))
		if count < 1 || count > MaxBatchTrials {
			return 0, nil, fmt.Errorf("network: AGG_PLANES with %d trials, want 1..%d", count, MaxBatchTrials)
		}
		msgBits := int(payload[12])
		if msgBits < 1 || msgBits > 64 {
			return 0, nil, fmt.Errorf("network: AGG_PLANES with %d message bits, want 1..64", msgBits)
		}
		members := int(binary.BigEndian.Uint32(payload[13:17]))
		if members < 1 || members > MaxShardPlayers {
			return 0, nil, fmt.Errorf("network: AGG_PLANES with %d members, want 1..%d", members, MaxShardPlayers)
		}
		present := int(binary.BigEndian.Uint32(payload[17:21]))
		if present > members {
			return 0, nil, fmt.Errorf("network: AGG_PLANES with %d present of %d members", present, members)
		}
		maskWords := aggMaskWords(members)
		planeWords := present * msgBits * batchWords(count)
		if planeWords > MaxAggPlaneWords {
			return 0, nil, fmt.Errorf("network: AGG_PLANES with %d plane words, want at most %d — shard wider",
				planeWords, MaxAggPlaneWords)
		}
		if len(payload) != 21+8*(maskWords+planeWords) {
			return 0, nil, fmt.Errorf("network: AGG_PLANES payload of %d bytes for %d present members of %d bits over %d trials, want %d",
				len(payload), present, msgBits, count, 21+8*(maskWords+planeWords))
		}
		mask := make([]uint64, maskWords)
		for i := range mask {
			mask[i] = binary.BigEndian.Uint64(payload[21+8*i:])
		}
		planesBuf := make([]uint64, planeWords)
		for i := range planesBuf {
			planesBuf[i] = binary.BigEndian.Uint64(payload[21+8*maskWords+8*i:])
		}
		v := AggPlanes{
			Agg:     binary.BigEndian.Uint32(payload[0:4]),
			Batch:   binary.BigEndian.Uint32(payload[4:8]),
			Count:   uint32(count),
			Bits:    uint8(msgBits),
			Members: uint32(members),
			Present: uint32(present),
			Mask:    mask,
			Planes:  planesBuf,
		}
		if err := checkAggPlanes(v); err != nil {
			return 0, nil, err
		}
		return t, v, nil
	case FrameAggVerdict:
		if len(payload) < 12 {
			return 0, nil, fmt.Errorf("network: AGG_VERDICT payload of %d bytes", len(payload))
		}
		count := int(binary.BigEndian.Uint32(payload[4:8]))
		if count < 1 || count > MaxBatchTrials {
			return 0, nil, fmt.Errorf("network: AGG_VERDICT with %d trials, want 1..%d", count, MaxBatchTrials)
		}
		shards := int(binary.BigEndian.Uint32(payload[8:12]))
		if shards < 1 || shards > MaxAggShards {
			return 0, nil, fmt.Errorf("network: AGG_VERDICT with %d shards, want 1..%d", shards, MaxAggShards)
		}
		words := batchWords(count)
		if len(payload) != 12+4*shards+8*words {
			return 0, nil, fmt.Errorf("network: AGG_VERDICT payload of %d bytes for %d trials over %d shards, want %d",
				len(payload), count, shards, 12+4*shards+8*words)
		}
		present := make([]uint32, shards)
		for i := range present {
			present[i] = binary.BigEndian.Uint32(payload[12+4*i:])
		}
		bits := make([]uint64, words)
		for i := range bits {
			bits[i] = binary.BigEndian.Uint64(payload[12+4*shards+8*i:])
		}
		v := AggVerdict{
			Batch:   binary.BigEndian.Uint32(payload[0:4]),
			Count:   uint32(count),
			Present: present,
			Bits:    bits,
		}
		if err := checkAggVerdict(v); err != nil {
			return 0, nil, err
		}
		return t, v, nil
	default:
		return 0, nil, fmt.Errorf("network: unknown frame type %d", uint8(t))
	}
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

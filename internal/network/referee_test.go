package network

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// fakePlayer dials the listener and runs script against the connection;
// errors are ignored (the referee's verdict on the exchange is what the
// tests assert).
func fakePlayer(tr Transport, addr net.Addr, script func(conn net.Conn)) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	script(conn)
}

// fakeVote answers the next ROUND_BATCH with a VOTE_BATCH for player
// carrying the given planes, echoing the batch id and trial count.
func fakeVote(conn net.Conn, player uint32, planes ...uint64) error {
	rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
	if err != nil {
		return err
	}
	return send(conn, VoteBatch{Player: player, Batch: rb.Batch, Count: rb.Count, Planes: planes})
}

// fakeCluster is a strict in-memory cluster for scripted players.
func fakeCluster(t *testing.T, k int, rule core.LocalRule, timeout time.Duration) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{K: k, Q: 1, Rule: rule, Referee: andReferee(), Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refereeTrials runs a session of the given number of lock-step trials
// whose players are the scripts, each dialing in on its own goroutine,
// and returns once the referee and every script are done.
func refereeTrials(t *testing.T, c *Cluster, trials int, players ...func(conn net.Conn)) ([]engine.RoundResult, error) {
	t.Helper()
	l, err := c.tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, script := range players {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fakePlayer(c.tr, l.Addr(), script)
		}()
	}
	samplers := make([]dist.Sampler, trials)
	for i := range samplers {
		samplers[i] = dist.NopSampler{}
	}
	out := make([]engine.RoundResult, trials)
	err = c.runSession(context.Background(), l, nil, 7, 0, samplers, out)
	wg.Wait()
	return out, err
}

func TestRefereeRejectsDuplicatePlayerID(t *testing.T) {
	// Regression: two nodes claiming the same id used to both get slots,
	// with votes indexed by accept order.
	claimZero := func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		_ = fakeVote(conn, 0, 1)
	}
	_, err := refereeTrials(t, fakeCluster(t, 2, acceptAllRule(), time.Second), 1, claimZero, claimZero)
	if err == nil || !strings.Contains(err.Error(), "duplicate player id") {
		t.Errorf("err = %v, want duplicate-player-id error", err)
	}
}

func TestRefereeRejectsOutOfRangePlayerID(t *testing.T) {
	// Regression: an id >= k used to be accepted silently.
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		_ = send(conn, Hello{Player: 5, Bits: 1})
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v, want out-of-range error", err)
	}
}

func TestRefereeEnforcesAnnouncedBits(t *testing.T) {
	// Regression: a rule announcing 1 bit could send a wider message and
	// the referee would feed it to the decision function unchecked. The
	// vote's plane count is its width, so two planes from a player that
	// announced one bit fail the gather.
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		_ = fakeVote(conn, 0, 0, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "announced") {
		t.Errorf("err = %v, want bits-enforcement error", err)
	}
}

func TestRefereeNegotiatesMessageWidth(t *testing.T) {
	// The rule's width is pinned on the referee, so a node announcing a
	// different width in HELLO fails the handshake with a named-player,
	// named-widths error rather than a generic rejection.
	_, err := refereeTrials(t, fakeCluster(t, 1, treeTestRule{bits: 2}, time.Second), 1, func(conn net.Conn) {
		_ = send(conn, Hello{Player: 0, Bits: 7})
	})
	if err == nil {
		t.Fatal("width mismatch accepted, want handshake error")
	}
	for _, want := range []string{"player 0", "7-bit", "2-bit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to name %q", err, want)
		}
	}
}

// TestRefereeRejectsVersion3Hello: a node still speaking version 3, the
// wire with the verdict downlink, fails the referee's accept phase on
// its first frame instead of joining a session whose verdicts it would
// wait for.
func TestRefereeRejectsVersion3Hello(t *testing.T) {
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		hello := AppendHello(nil, Hello{Player: 0, Bits: 1})
		hello[2] = 3
		_ = writeCoalesced(conn, hello)
	})
	if err == nil || !strings.Contains(err.Error(), "unsupported protocol version 3") {
		t.Errorf("err = %v, want the version error", err)
	}
}

func TestRefereeAcceptsFullWidthMessages(t *testing.T) {
	// A 64-bit announcement admits any message: 64 all-ones planes.
	planes := make([]uint64, 64)
	for i := range planes {
		planes[i] = 1
	}
	_, err := refereeTrials(t, fakeCluster(t, 1, treeTestRule{bits: 64}, time.Second), 1, func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 64}); err != nil {
			return
		}
		if err := fakeVote(conn, 0, planes...); err != nil {
			return
		}
		_, _ = expectFrame[Finish](conn, FrameFinish)
	})
	if err != nil {
		t.Errorf("full-width message rejected: %v", err)
	}
}

// slowPlayer votes accept on each of rounds trials, taking 400 ms before
// each vote, then waits for FINISH and closes done.
func slowPlayer(rounds int, done chan<- struct{}) func(net.Conn) {
	return func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		for r := 0; r < rounds; r++ {
			rb, err := expectFrame[RoundBatch](conn, FrameRoundBatch)
			if err != nil {
				return
			}
			time.Sleep(400 * time.Millisecond) // slow, but within the per-frame budget
			if err := send(conn, VoteBatch{Player: 0, Batch: rb.Batch, Count: 1, Planes: []uint64{1}}); err != nil {
				return
			}
		}
		if _, err := expectFrame[Finish](conn, FrameFinish); err != nil {
			return
		}
		close(done)
	}
}

func TestRefereeSurvivesSlowRound(t *testing.T) {
	// A vote that takes most of a timeout is within budget: the round is
	// decided, and the FINISH after it goes out under a fresh deadline.
	done := make(chan struct{})
	out, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), 600*time.Millisecond), 1, slowPlayer(1, done))
	if err != nil {
		t.Fatalf("slow round failed: %v", err)
	}
	if !out[0].Verdict {
		t.Error("verdict = reject, want accept")
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Error("player never reached FINISH")
	}
}

func TestSessionSurvivesSlowRounds(t *testing.T) {
	// Same across lock-step rounds of one session: the slow votes outlast
	// one timeout together, but every frame wait is within budget, and
	// the session still ends with FINISH.
	const rounds = 2
	done := make(chan struct{})
	out, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), 600*time.Millisecond), rounds, slowPlayer(rounds, done))
	if err != nil {
		t.Fatalf("slow session round failed: %v", err)
	}
	for i, r := range out {
		if !r.Verdict {
			t.Errorf("round %d verdict = reject", i)
		}
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Error("player never reached FINISH")
	}
}

// TestNodeRequiresStagedSamplers pins that a ROUND_BATCH whose batch has
// no samplers staged fails the node instead of voting on made-up samples.
func TestNodeRequiresStagedSamplers(t *testing.T) {
	node, err := NewPlayerNode(0, 1, acceptAllRule(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	referee, nodeConn := net.Pipe()
	defer func() { _ = referee.Close() }()
	served := make(chan error, 1)
	go func() { served <- node.serve(nodeConn, stage) }()
	_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
	if err := send(referee, RoundBatch{Batch: 5, Count: 1, Base: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err == nil || !strings.Contains(err.Error(), "no samplers staged for batch 5") {
		t.Errorf("node error = %v, want the unstaged-batch error", err)
	}
}

// TestNodeDerivesCoinsFromTrialRange drives a real node from a scripted
// referee with a ROUND_BATCH that names trials 2^40 .. 2^40+64: every
// lane of its VOTE_BATCH must be the message the in-process SMP derives
// for public coin engine.SharedSeed(Base, First+j). The range covers a
// First past 32 bits and a count that is not a multiple of 64.
func TestNodeDerivesCoinsFromTrialRange(t *testing.T) {
	const (
		k, id, q, bits = 5, 3, 3, 5
		count          = 65
		base           = 0xba5e5eed
		first          = 1 << 40
	)
	rule := treeTestRule{bits: bits}
	smp, err := core.NewSMP(k, q, rule, core.SumThresholdReferee{Bits: bits, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewPlayerNode(id, q, rule, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sampler := uniformSampler(t, 16)
	samplers := make([]dist.Sampler, count)
	for j := range samplers {
		samplers[j] = sampler
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(9, samplers)
	referee, nodeConn := net.Pipe()
	defer func() { _ = referee.Close() }()
	served := make(chan error, 1)
	go func() { served <- node.serve(nodeConn, stage) }()
	_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
	if err := send(referee, RoundBatch{Batch: 9, Count: count, Base: base, First: first}); err != nil {
		t.Fatal(err)
	}
	vb, err := expectFrame[VoteBatch](referee, FrameVoteBatch)
	if err != nil {
		t.Fatal(err)
	}
	if vb.Player != id || vb.Batch != 9 || vb.Count != count || vb.Width() != bits {
		t.Fatalf("VOTE_BATCH player %d batch %d count %d width %d, want %d/9/%d/%d",
			vb.Player, vb.Batch, vb.Count, vb.Width(), id, count, bits)
	}
	words := batchWords(count)
	for j := 0; j < count; j++ {
		msgs, err := smp.RunMessagesSeeded(sampler, engine.SharedSeed(base, first+j))
		if err != nil {
			t.Fatal(err)
		}
		var got core.Message
		for b := 0; b < bits; b++ {
			got |= core.Message(vb.Planes[b*words+j/64]>>(j%64)&1) << b
		}
		if got != msgs[id] {
			t.Errorf("trial %d: node voted %#x, SMP derives %#x", first+j, got, msgs[id])
		}
	}
	if err := send(referee, Finish{}); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("node: %v", err)
	}
}

// TestNodeVoteCycleZeroAllocs guards the node's hot path: once its
// scratch is warm, answering a full ROUND_BATCH with its VOTE_BATCH —
// sampling, the rule, packing, the encode into the node's scratch and
// the write — allocates nothing. The stub conn discards writes and its
// deadlines allocate nothing, so the count is the node's own. Skipped under the race detector, whose
// instrumentation allocates.
func TestNodeVoteCycleZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const count = 256
	node, err := NewPlayerNode(3, 4, acceptAllRule(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	samplers := make([]dist.Sampler, count)
	for i := range samplers {
		samplers[i] = uniformSampler(t, 16)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(1, samplers)
	conn := &stubConn{}
	rb := RoundBatch{Batch: 1, Count: count, Base: 0x5eed}
	cycle := func() {
		if err := node.voteBatch(conn, rb, stage); err != nil {
			t.Fatal(err)
		}
		rb.First += count
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a settled vote cycle allocates %.1f per batch", n)
	}
}

// TestNodeDetectsSilentReferee: only a node's first read waits out the
// referee's accept phase, with a three-timeout budget. Once the session
// runs, a referee that goes silent fails the node within its
// two-timeout read budget, well under two and a half timeouts.
func TestNodeDetectsSilentReferee(t *testing.T) {
	const timeout = 300 * time.Millisecond
	node, err := NewPlayerNode(0, 1, acceptAllRule(), timeout)
	if err != nil {
		t.Fatal(err)
	}
	stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
	stage.put(1, []dist.Sampler{dist.NopSampler{}})
	referee, nodeConn := net.Pipe()
	defer func() { _ = referee.Close() }()
	served := make(chan error, 1)
	go func() { served <- node.serve(nodeConn, stage) }()
	_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
	if err := send(referee, RoundBatch{Batch: 1, Count: 1, Base: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame[VoteBatch](referee, FrameVoteBatch); err != nil {
		t.Fatal(err)
	}
	silent := time.Now()
	select {
	case err := <-served:
		elapsed := time.Since(silent)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("node error = %v, want a read deadline", err)
		}
		if elapsed >= 5*timeout/2 {
			t.Errorf("node noticed the silent referee after %v, want under %v", elapsed, 5*timeout/2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node never noticed the silent referee")
	}
}

// hostileFrame is one frame a tier may read from the tier above it
// that no version-4 sender writes there.
type hostileFrame struct {
	name  string
	frame []byte
	eof   bool   // the sender closes its end after frame
	want  string // in the reader's error
}

// hostileDownlink lists the frames a node or an aggregator must reject
// from the tier above: the retired verdict downlink, a version-3 frame,
// frames that only flow upward, and a ROUND_BATCH cut short by a
// closing peer.
func hostileDownlink(t *testing.T) []hostileFrame {
	t.Helper()
	enc := func(msg any) []byte {
		frame, err := encode(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	// raw is a version-4 header of type ft over payload, unchecked.
	raw := func(ft FrameType, payload ...byte) []byte {
		return append(appendHeader(nil, ft, len(payload)), payload...)
	}
	round := enc(RoundBatch{Batch: 2, Count: 1, Base: 1, First: 1})
	v3 := append([]byte(nil), round...)
	v3[2] = 3
	return []hostileFrame{
		{name: "retired VERDICT_BATCH", frame: raw(8,
			0, 0, 0, 1, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 1), want: "unknown frame type 8"},
		{name: "retired AGG_VERDICT", frame: raw(13,
			0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2,
			0, 0, 0, 0, 0, 0, 0, 1), want: "unknown frame type 13"},
		{name: "version-3 ROUND_BATCH", frame: v3, want: "unsupported protocol version 3"},
		{name: "HELLO", frame: enc(Hello{Player: 0, Bits: 1}), want: "unexpected HELLO"},
		{name: "VOTE_BATCH", frame: enc(VoteBatch{Player: 0, Batch: 1, Count: 1, Planes: []uint64{1}}), want: "unexpected VOTE_BATCH"},
		{name: "AGG_SUM", frame: enc(AggSum{Batch: 1, Count: 1, Bits: 1, Planes: 1, Present: 1, Sums: []uint64{1}}), want: "unexpected AGG_SUM"},
		{name: "truncated ROUND_BATCH", frame: round[:20], eof: true, want: io.ErrUnexpectedEOF.Error()},
	}
}

// TestNodeRejectsHostileDownlink: after voting on a batch, a node fails
// with an error naming itself and the cause on the first frame no
// version-4 referee sends it, and fails on that frame, not at its read
// deadline.
func TestNodeRejectsHostileDownlink(t *testing.T) {
	checkGoroutines(t)
	for _, tc := range hostileDownlink(t) {
		t.Run(tc.name, func(t *testing.T) {
			node, err := NewPlayerNode(0, 1, acceptAllRule(), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			stage := &samplerStage{m: make(map[uint32][]dist.Sampler)}
			stage.put(1, []dist.Sampler{dist.NopSampler{}})
			referee, nodeConn := net.Pipe()
			defer func() { _ = referee.Close() }()
			served := make(chan error, 1)
			go func() {
				served <- node.serve(nodeConn, stage)
				_ = nodeConn.Close()
			}()
			_ = referee.SetDeadline(time.Now().Add(5 * time.Second))
			if err := send(referee, RoundBatch{Batch: 1, Count: 1, Base: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := expectFrame[VoteBatch](referee, FrameVoteBatch); err != nil {
				t.Fatal(err)
			}
			// The node may stop reading mid-frame, so the write can fail.
			_ = writeCoalesced(referee, tc.frame)
			if tc.eof {
				_ = referee.Close()
			}
			select {
			case err := <-served:
				if err == nil || !strings.Contains(err.Error(), "node 0") || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("node error = %v, want one naming node 0 and %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("node still reading 5 s after the frame")
			}
		})
	}
}

// TestCounterDecideMatchesDecideVotes is the differential test of the
// shaped decide against the per-trial reference: on seeded random
// batches — k in [1, 70]; AND, OR, Majority, Threshold(T) and r-bit sum
// thresholds; random presence down to the quorum; every absentee policy;
// trial counts around the word boundaries — every trial's verdict and
// vote count from decideBatch must equal decideVotes on that trial's
// reconstructed vote slate. Each batch is decided twice: as the flat
// star, which reduces the delivered votes as one shard, and as a tree
// that reduces a random partition of them per shard and combines the
// partial sums.
func TestCounterDecideMatchesDecideVotes(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0xdec1de))
	policies := []core.AbsenteePolicy{core.AbsenteeDefault, core.AbsenteeAccept, core.AbsenteeReject, core.AbsenteeOmit}
	counts := []int{1, 2, 63, 64, 65, 130}
	widths := []int{1, 2, 3, 5, 8}
	const batches = 2048
	trials, withAbsentees := 0, 0
	for n := 0; n < batches; n++ {
		k := 1 + rng.IntN(70)
		msgBits := 1
		var referee core.Referee
		switch rng.IntN(5) {
		case 0:
			referee = core.BitReferee{Rule: core.ANDRule{}}
		case 1:
			referee = core.BitReferee{Rule: core.ORRule{}}
		case 2:
			referee = core.BitReferee{Rule: core.MajorityRule{}}
		case 3:
			referee = core.BitReferee{Rule: core.ThresholdRule{T: 1 + rng.IntN(k+1)}}
		default:
			msgBits = widths[rng.IntN(len(widths))]
			referee = core.SumThresholdReferee{Bits: msgBits, T: 1 + rng.IntN(k*(1<<msgBits-1)+1)}
		}
		minVotes := 1 + rng.IntN(k)
		c, err := NewCluster(ClusterConfig{
			K: k, Q: 1,
			Rule:      treeTestRule{bits: msgBits},
			Referee:   referee,
			MinVotes:  minVotes,
			Absentees: policies[n%len(policies)],
		})
		if err != nil {
			t.Fatal(err)
		}
		count := counts[rng.IntN(len(counts))]
		words := batchWords(count)
		received := minVotes + rng.IntN(k-minVotes+1)
		deliv := make([][]uint64, k)
		for _, p := range rng.Perm(k)[:received] {
			planes := make([]uint64, msgBits*words)
			for i := range planes {
				planes[i] = rng.Uint64()
				if rem := count % 64; rem != 0 && i%words == words-1 {
					planes[i] &= 1<<rem - 1
				}
			}
			deliv[p] = planes
		}
		trials += count
		if received < k {
			withAbsentees++
		}

		// The reference: decideVotes on every trial's slate.
		want := make([]engine.RoundResult, count)
		votes, got := make([]core.Message, k), make([]bool, k)
		for j := range want {
			for p, d := range deliv {
				votes[p], got[p] = 0, d != nil
				for b := 0; d != nil && b < msgBits; b++ {
					votes[p] |= core.Message(d[b*words+j/64]>>(j%64)&1) << b
				}
			}
			accept, recv, err := c.decideVotes(votes, got)
			if err != nil {
				t.Fatal(err)
			}
			want[j] = engine.RoundResult{Verdict: accept, Votes: recv}
		}

		flat := &batchSession{c: c}
		flat.initDecide()
		copy(flat.deliv, deliv)
		tree := &batchSession{c: c}
		tree.initDecide()
		shards := (Topology{Shards: 1 + rng.IntN(min(k, 8)), Seed: rng.Uint64()}).Partition(k)
		tree.aggs = make([]*aggregator, len(shards))
		tree.shardGot = make([]bool, len(shards))
		tree.shardSums = make([][]uint64, len(shards))
		for i, members := range shards {
			shard := make([][]uint64, len(members))
			for pos, p := range members {
				shard[pos] = deliv[p]
			}
			sums := make([]uint64, len(tree.planes)*words)
			tree.reduceShard(shard, count, make([]uint64, len(tree.planes)), sums)
			tree.shardGot[i], tree.shardSums[i] = true, sums
		}
		for _, side := range []struct {
			name string
			bs   *batchSession
		}{{"flat", flat}, {"tree", tree}} {
			if !side.bs.shapeOK && !side.bs.sumOK {
				t.Fatalf("batch %d: %T lost its shape at k=%d", n, referee, k)
			}
			out := make([]engine.RoundResult, count)
			if err := side.bs.decideBatch(count, received, out); err != nil {
				t.Fatalf("batch %d %s: %v", n, side.name, err)
			}
			for j := range out {
				if out[j].Verdict != want[j].Verdict || out[j].Votes != want[j].Votes {
					t.Fatalf("batch %d %s (%#v, k=%d, %d present, quorum %d, policy %d, %d trials): trial %d decided %v with %d votes, decideVotes %v with %d",
						n, side.name, referee, k, received, minVotes, c.absentees, count, j,
						out[j].Verdict, out[j].Votes, want[j].Verdict, want[j].Votes)
				}
			}
		}
	}
	t.Logf("%d batches, %d trials, %d batches with absentees", batches, trials, withAbsentees)
}

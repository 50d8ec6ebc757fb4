package network

import (
	"fmt"
	"net"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/engine"
)

// Default retry policy for a node's connect (dial + HELLO) phase: enough
// to ride out transient connection drops without masking a dead referee.
const (
	// DefaultDialRetries is the number of retry attempts after the first
	// failed connect.
	DefaultDialRetries = 2
	// DefaultRetryBackoff is the sleep before the first retry; it doubles
	// on every subsequent retry.
	DefaultRetryBackoff = 5 * time.Millisecond
)

// PlayerNode is one sensor/server in the network: it draws its local
// observations from the samplers its session stages for each batch and
// votes with its own instance of a core.LocalRule (core.Instance), so a
// collision rule counts into counters the node owns. Transient
// dial and HELLO failures are retried with exponential backoff (see
// SetRetryPolicy), so the faults a FaultTransport injects at connect
// time are survivable.
type PlayerNode struct {
	id      uint32
	q       int
	rule    core.LocalRule
	timeout time.Duration
	retries int
	backoff time.Duration

	// Per-trial scratch, allocated once at construction: the sample batch
	// buffer rng.SampleInto fills and the reseedable per-trial generator.
	// voteBits, the packed-vote planes of the VOTE_BATCH reply, and enc,
	// its encoded frame, grow to the largest batch once and are reused. A
	// node handles one frame at a time, so the reuse is race-free.
	buf      []int
	rng      *engine.ReusableRNG
	voteBits []uint64
	enc      []byte
}

// NewPlayerNode builds a node. timeout bounds each frame wait; zero means
// 10 seconds. The rule's Bits() must be in [1, 64] — the referee would
// reject the HELLO anyway, and failing here keeps the error local. The
// node takes the rule's per-caller instance once, here: it votes one
// message at a time for as long as its session lives, so a rule that
// keeps scratch (core.Instancer) never reaches for a pool on the node's
// vote path.
func NewPlayerNode(id uint32, q int, rule core.LocalRule, timeout time.Duration) (*PlayerNode, error) {
	if q < 0 {
		return nil, fmt.Errorf("network: node %d with %d samples", id, q)
	}
	if rule == nil {
		return nil, fmt.Errorf("network: node %d with nil rule", id)
	}
	if timeout < 0 {
		return nil, fmt.Errorf("network: negative timeout %v", timeout)
	}
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	if b := rule.Bits(); b < 1 || b > 64 {
		return nil, fmt.Errorf("network: node %d rule uses %d message bits, want 1..64", id, b)
	}
	return &PlayerNode{
		id: id, q: q, rule: core.Instance(rule), timeout: timeout,
		retries: DefaultDialRetries, backoff: DefaultRetryBackoff,
		buf: make([]int, q), rng: engine.NewReusableRNG(),
	}, nil
}

// SetRetryPolicy overrides the connect retry budget: retries is the
// number of attempts after the first (negative clamps to zero, i.e. fail
// fast), backoff the initial sleep between attempts (non-positive selects
// the default), doubled per retry.
func (p *PlayerNode) SetRetryPolicy(retries int, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	p.retries = retries
	p.backoff = backoff
}

// dialAs uses per-player dialing when the transport supports it, so
// fault-injecting transports can apply per-player plans.
func dialAs(tr Transport, addr net.Addr, player uint32) (net.Conn, error) {
	if pd, ok := tr.(PlayerDialer); ok {
		return pd.DialPlayer(addr, player)
	}
	return tr.Dial(addr)
}

// connect dials the referee and completes the HELLO, retrying transient
// failures with exponential backoff. It returns the ready connection and
// the number of retry attempts spent.
func (p *PlayerNode) connect(tr Transport, addr net.Addr) (net.Conn, int, error) {
	if tr == nil {
		return nil, 0, fmt.Errorf("network: nil transport")
	}
	backoff := p.backoff
	var lastErr error
	for attempt := 0; attempt <= p.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := dialAs(tr, addr, p.id)
		if err != nil {
			lastErr = fmt.Errorf("network: node %d dial: %w", p.id, err)
			continue
		}
		setWriteDeadline(conn, p.timeout)
		if err := writeCoalesced(conn, AppendHello(nil, Hello{Player: p.id, Bits: uint8(p.rule.Bits())})); err != nil {
			_ = conn.Close()
			lastErr = fmt.Errorf("network: node %d hello: %w", p.id, err)
			continue
		}
		return conn, attempt, nil
	}
	return nil, p.retries, fmt.Errorf("network: node %d connect failed after %d attempt(s): %w", p.id, p.retries+1, lastErr)
}

// serve is the node's frame loop over an established connection: it
// answers every ROUND_BATCH with its VOTE_BATCH and returns on FINISH.
// As in the paper's model the player never learns the verdict: nothing
// else arrives. stage supplies each batch's per-trial samplers; a batch
// with none staged is an error.
func (p *PlayerNode) serve(conn net.Conn, stage *samplerStage) error {
	fr := &frameReader{r: conn}
	for first := true; ; first = false {
		// Referee frames can lag a full referee phase behind — the accept
		// phase before the first ROUND_BATCH, a slow peer's vote before the
		// next chunk's ROUND_BATCH — so reads get readBudget: three timeouts
		// for the first frame, two after it. Each direction keeps its own
		// deadline, so a read re-arms one timer, not two.
		setReadDeadline(conn, readBudget(p.timeout, first))
		t, err := fr.read()
		if err != nil {
			return fmt.Errorf("network: node %d read: %w", p.id, err)
		}
		switch t {
		case FrameRoundBatch:
			if err := p.voteBatch(conn, fr.round, stage); err != nil {
				return err
			}
		case FrameFinish:
			return nil
		default:
			return fmt.Errorf("network: node %d got unexpected %v mid-session", p.id, t)
		}
	}
}

// voteBatch computes one vote per trial of a ROUND_BATCH and replies
// with the packed VOTE_BATCH, one bit-plane per message bit. Trial j's
// public coin is engine.SharedSeed(Base, First+j), derived here rather
// than carried on the wire, and engine.NodeRNG(coin, id) feeds the
// sampler kernel and then the rule, so lane j of the reply is the
// message every other backend derives for that trial and this player.
// The decoder bounds First+Count-1 by math.MaxInt64, so the int trial
// index never wraps.
//
//dut:hotpath per-batch node sampling and vote encode
func (p *PlayerNode) voteBatch(conn net.Conn, rb RoundBatch, stage *samplerStage) error {
	msgBits := p.rule.Bits()
	count := int(rb.Count)
	samplers, staged := stage.get(rb.Batch)
	if !staged {
		return fmt.Errorf("network: node %d has no samplers staged for batch %d", p.id, rb.Batch)
	}
	if len(samplers) != count {
		return fmt.Errorf("network: node %d staged %d samplers for batch %d of %d trials", p.id, len(samplers), rb.Batch, count)
	}
	words := batchWords(count)
	need := msgBits * words
	if cap(p.voteBits) < need {
		p.voteBits = make([]uint64, need)
	}
	voteBits := p.voteBits[:need]
	// Each 64-trial block of messages packs into one word of every plane,
	// written whole, so the padding lanes above count are zero.
	var block [64]core.Message
	for w := 0; w < words; w++ {
		run := block[:min(count-w*64, 64)]
		for i := range run {
			j := w*64 + i
			seed := engine.SharedSeed(rb.Base, int(rb.First)+j)
			rng := p.rng.SeedNode(seed, int(p.id))
			p.rng.SampleInto(samplers[j], p.buf)
			msg, err := p.rule.Message(int(p.id), p.buf, seed, rng)
			if err != nil {
				return fmt.Errorf("network: node %d rule: %w", p.id, err)
			}
			if msgBits < 64 && msg >= 1<<msgBits {
				return fmt.Errorf("network: node %d message %#x wider than the rule's %d bits", p.id, uint64(msg), msgBits)
			}
			run[i] = msg
		}
		core.PackPlaneWord(voteBits, words, w, msgBits, run)
	}
	// A fresh write budget: a large batch of sampling may have consumed
	// most of the read-phase budget.
	enc, err := AppendVoteBatch(p.enc[:0], VoteBatch{Player: p.id, Batch: rb.Batch, Count: uint32(count), Planes: voteBits})
	p.enc = enc
	if err != nil {
		return err
	}
	setWriteDeadline(conn, p.timeout)
	return writeCoalesced(conn, enc)
}

package network

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/engine"
)

func andReferee() core.BitReferee {
	return core.BitReferee{Rule: core.ANDRule{}}
}

func TestNewFaultTransportValidation(t *testing.T) {
	if _, err := NewFaultTransport(nil, FaultConfig{}); err == nil {
		t.Error("nil inner transport accepted")
	}
	bad := []FaultPlan{
		{DropDials: -1},
		{Delay: -time.Second},
		{CorruptFrame: -1},
		{CrashAtRound: -2},
	}
	for i, plan := range bad {
		cfg := FaultConfig{Plans: map[uint32]FaultPlan{0: plan}}
		if _, err := NewFaultTransport(NewMemTransport(), cfg); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestFaultTransportDropsDials(t *testing.T) {
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Plans: map[uint32]FaultPlan{3: {DropDials: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ft.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()
	// Player 3's first two dials fail, the third succeeds.
	for i := 0; i < 2; i++ {
		if _, err := ft.DialPlayer(l.Addr(), 3); err == nil {
			t.Fatalf("dial %d of player 3 succeeded, want drop", i+1)
		}
	}
	c, err := ft.DialPlayer(l.Addr(), 3)
	if err != nil {
		t.Fatalf("dial 3 of player 3: %v", err)
	}
	_ = c.Close()
	// Unplanned players are never faulted.
	c, err = ft.DialPlayer(l.Addr(), 7)
	if err != nil {
		t.Fatalf("unplanned player dial: %v", err)
	}
	_ = c.Close()
	if got := ft.Stats().DialsDropped; got != 2 {
		t.Errorf("DialsDropped = %d, want 2", got)
	}
}

func TestFaultTransportCorruptsChosenFrame(t *testing.T) {
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Seed:  42,
		Plans: map[uint32]FaultPlan{0: {CorruptFrame: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ft.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	type read struct {
		hello Hello
		vote  VoteBatch
		err   error
	}
	got := make(chan read, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			got <- read{err: err}
			return
		}
		defer func() { _ = conn.Close() }()
		hello, err := expectFrame[Hello](conn, FrameHello)
		if err != nil {
			got <- read{err: err}
			return
		}
		vote, err := expectFrame[VoteBatch](conn, FrameVoteBatch)
		got <- read{hello: hello, vote: vote, err: err}
	}()
	conn, err := ft.DialPlayer(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	if err := send(conn, VoteBatch{Player: 0, Batch: 7, Count: 1, Planes: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("referee side: %v", r.err)
	}
	// Frame 1 (HELLO) must arrive intact; frame 2 (VOTE_BATCH) must have
	// the low byte of its batch id corrupted with the high bit set, and
	// its vote bits untouched.
	if r.hello != (Hello{Player: 0, Bits: 1}) {
		t.Errorf("hello corrupted: %+v", r.hello)
	}
	if r.vote.Batch&0x80 == 0 || r.vote.Batch == 7 {
		t.Errorf("vote batch id %#x, want high bit set by corruption", r.vote.Batch)
	}
	if r.vote.Player != 0 || r.vote.Planes[0] != 1 {
		t.Errorf("vote %+v: corruption leaked past the batch id", r.vote)
	}
	if got := ft.Stats().FramesCorrupted; got != 1 {
		t.Errorf("FramesCorrupted = %d, want 1", got)
	}
}

// TestFaultTransportCorruptsFrameInCoalescedWrite: the write side
// numbers frames, not Write calls, so with HELLO and VOTE_BATCH in one
// write, CorruptFrame 2 still lands on the VOTE_BATCH's batch id.
func TestFaultTransportCorruptsFrameInCoalescedWrite(t *testing.T) {
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Seed:  42,
		Plans: map[uint32]FaultPlan{0: {CorruptFrame: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ft.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	type read struct {
		hello Hello
		vote  VoteBatch
		err   error
	}
	got := make(chan read, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			got <- read{err: err}
			return
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		hello, err := expectFrame[Hello](conn, FrameHello)
		if err != nil {
			got <- read{err: err}
			return
		}
		vote, err := expectFrame[VoteBatch](conn, FrameVoteBatch)
		got <- read{hello: hello, vote: vote, err: err}
	}()
	conn, err := ft.DialPlayer(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	run, err := AppendVoteBatch(AppendHello(nil, Hello{Player: 0, Bits: 1}),
		VoteBatch{Player: 0, Batch: 7, Count: 1, Planes: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	sent := append([]byte(nil), run...)
	if err := writeCoalesced(conn, run); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("referee side: %v", r.err)
	}
	if r.hello != (Hello{Player: 0, Bits: 1}) {
		t.Errorf("hello corrupted: %+v", r.hello)
	}
	if r.vote.Batch&0x80 == 0 || r.vote.Batch == 7 {
		t.Errorf("vote batch id %#x, want high bit set by corruption", r.vote.Batch)
	}
	if r.vote.Player != 0 || r.vote.Count != 1 || r.vote.Planes[0] != 1 {
		t.Errorf("vote %+v: corruption leaked past the batch id", r.vote)
	}
	if !bytes.Equal(run, sent) {
		t.Error("the fault layer corrupted the caller's buffer instead of a copy")
	}
	if got := ft.Stats().FramesCorrupted; got != 1 {
		t.Errorf("FramesCorrupted = %d, want 1", got)
	}
}

// stubConn is an in-memory net.Conn for driving one side of a
// connection by hand: reads replay chunks in order and then report
// io.EOF, writes are discarded, and deadlines are no-ops that allocate
// nothing.
type stubConn struct {
	net.Conn // methods the tests never call
	chunks   [][]byte
}

func (c *stubConn) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

func (c *stubConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *stubConn) Close() error                     { return nil }
func (c *stubConn) SetDeadline(time.Time) error      { return nil }
func (c *stubConn) SetReadDeadline(time.Time) error  { return nil }
func (c *stubConn) SetWriteDeadline(time.Time) error { return nil }

// TestFaultVerdictsAtEverySplit: the read side follows the stream with
// the frame cursor, so DropVerdict and CorruptVerdict hit the same
// AGG_VERDICT wherever the reads split the stream — drop delivers no
// frame from that verdict on, corrupt flips exactly the low byte of its
// batch id, with the same seeded mask at every split.
func TestFaultVerdictsAtEverySplit(t *testing.T) {
	var stream []byte
	second := 0 // where the second AGG_VERDICT starts
	for batch := uint32(0); batch < 2; batch++ {
		var err error
		if stream, err = AppendRoundBatch(stream, RoundBatch{Batch: batch, Count: 3}); err != nil {
			t.Fatal(err)
		}
		second = len(stream)
		if stream, err = AppendAggVerdict(stream, AggVerdict{Batch: batch, Count: 3, Present: []uint32{2, 1}, Bits: []uint64{0b101}}); err != nil {
			t.Fatal(err)
		}
	}
	stream = AppendFinish(stream)
	want, _ := decodedFrames(stream)

	readAll := func(plan FaultPlan, split int) ([]byte, FaultStats, error) {
		ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		fc := &faultConn{
			Conn: &stubConn{chunks: [][]byte{
				append([]byte(nil), stream[:split]...), append([]byte(nil), stream[split:]...),
			}},
			tr: ft, plan: plan, rng: engine.NodeRNG(9, -1),
		}
		var got []byte
		buf := make([]byte, 2*len(stream))
		for {
			n, err := fc.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return got, ft.Stats(), err
			}
		}
	}
	var mask byte
	for split := 0; split <= len(stream); split++ {
		got, stats, err := readAll(FaultPlan{CorruptVerdict: 2}, split)
		if !errors.Is(err, io.EOF) || len(got) != len(stream) || stats.VerdictsCorrupted != 1 {
			t.Fatalf("split %d: corrupt read %d of %d bytes, %v, %+v", split, len(got), len(stream), err, stats)
		}
		at := second + headerSize + 3 // the low byte of the batch id
		diff := got[at] ^ stream[at]
		if split == 0 {
			mask = diff
		}
		if diff&0x80 == 0 || diff != mask {
			t.Fatalf("split %d: batch id byte XORed with %#x, want %#x with the high bit set", split, diff, mask)
		}
		got[at] = stream[at]
		if !bytes.Equal(got, stream) {
			t.Fatalf("split %d: corruption leaked past the second verdict's batch id", split)
		}

		got, stats, err = readAll(FaultPlan{DropVerdict: 2}, split)
		if err == nil || errors.Is(err, io.EOF) || stats.VerdictsDropped != 1 {
			t.Fatalf("split %d: drop ended with %v, %+v", split, err, stats)
		}
		if !bytes.Equal(got, stream[:len(got)]) || len(got) >= second+headerSize {
			t.Fatalf("split %d: drop delivered %d bytes, want a prefix short of the second verdict's header", split, len(got))
		}
		if frames, _ := decodedFrames(got); !reflect.DeepEqual(frames, want[:3]) {
			t.Fatalf("split %d: drop delivered frames %+v, want %+v", split, frames, want[:3])
		}
	}
}

func TestFaultTransportCrashesAtRound(t *testing.T) {
	checkGoroutines(t)
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Plans: map[uint32]FaultPlan{0: {CrashAtRound: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ft.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer func() { _ = conn.Close() }()
		if _, err := expectFrame[Hello](conn, FrameHello); err != nil {
			done <- err
			return
		}
		if _, err := expectFrame[VoteBatch](conn, FrameVoteBatch); err != nil {
			done <- err
			return
		}
		done <- nil
	}()
	conn, err := ft.DialPlayer(l.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	vote := VoteBatch{Player: 0, Batch: 0, Count: 1, Planes: []uint64{1}}
	// Round 1's vote goes through...
	if err := send(conn, vote); err != nil {
		t.Fatalf("round-1 vote: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("referee side: %v", err)
	}
	// ...round 2's vote crashes the connection.
	vote.Batch = 1
	if err := send(conn, vote); err == nil {
		t.Error("round-2 vote succeeded, want crash")
	}
	if got := ft.Stats().Crashes; got != 1 {
		t.Errorf("Crashes = %d, want 1", got)
	}
}

func TestFaultTransportDeterministicCorruption(t *testing.T) {
	// Two transports with the same seed corrupt identically.
	ids := make([]uint32, 0, 2)
	for run := 0; run < 2; run++ {
		ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
			Seed:  7,
			Plans: map[uint32]FaultPlan{0: {CorruptFrame: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := ft.Listen()
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan VoteBatch, 1)
		go func() {
			conn, err := l.Accept()
			if err != nil {
				close(got)
				return
			}
			defer func() { _ = conn.Close() }()
			v, err := expectFrame[VoteBatch](conn, FrameVoteBatch)
			if err != nil {
				close(got)
				return
			}
			got <- v
		}()
		conn, err := ft.DialPlayer(l.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := send(conn, VoteBatch{Player: 0, Batch: 0, Count: 1, Planes: []uint64{0}}); err != nil {
			t.Fatal(err)
		}
		v, ok := <-got
		if !ok {
			t.Fatal("referee side failed")
		}
		ids = append(ids, v.Batch)
		_ = conn.Close()
		_ = l.Close()
	}
	if ids[0] != ids[1] {
		t.Errorf("same seed corrupted differently: %#x vs %#x", ids[0], ids[1])
	}
	if ids[0] == 0 {
		t.Error("corruption did not change the batch id")
	}
}

func TestNodeRetriesDroppedDials(t *testing.T) {
	// A node whose first two dials are dropped connects on the third
	// attempt and completes a strict round.
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Plans: map[uint32]FaultPlan{0: {DropDials: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K: 2, Q: 0, Rule: acceptAllRule(),
		Referee:   andReferee(),
		Transport: ft,
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	accept, stats, err := c.RunStats(context.Background(), uniformSampler(t, 4), testRand(21))
	if err != nil {
		t.Fatal(err)
	}
	if !accept {
		t.Error("accept-all cluster rejected")
	}
	if stats.Retries != 2 {
		t.Errorf("Retries = %d, want 2", stats.Retries)
	}
	if stats.Votes != 2 || stats.Stragglers != 0 {
		t.Errorf("stats = %+v, want 2 votes, 0 stragglers", stats)
	}
}

func TestNodeRetryBudgetExhausted(t *testing.T) {
	// More drops than the retry budget: in strict mode the round fails.
	ft, err := NewFaultTransport(NewMemTransport(), FaultConfig{
		Plans: map[uint32]FaultPlan{0: {DropDials: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		K: 1, Q: 0, Rule: acceptAllRule(),
		Referee:   andReferee(),
		Transport: ft,
		Timeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(uniformSampler(t, 4), testRand(22)); err == nil {
		t.Error("unreachable referee reported success")
	}
}

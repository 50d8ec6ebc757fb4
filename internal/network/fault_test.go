package network

import (
	"context"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
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
	if err := WriteHello(conn, Hello{Player: 0, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteVoteBatch(conn, VoteBatch{Player: 0, Batch: 7, Count: 1, Planes: []uint64{1}}); err != nil {
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

func TestFaultTransportCrashesAtRound(t *testing.T) {
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
	if err := WriteHello(conn, Hello{Player: 0, Bits: 1}); err != nil {
		t.Fatal(err)
	}
	vote := VoteBatch{Player: 0, Batch: 0, Count: 1, Planes: []uint64{1}}
	// Round 1's vote goes through...
	if err := WriteVoteBatch(conn, vote); err != nil {
		t.Fatalf("round-1 vote: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("referee side: %v", err)
	}
	// ...round 2's vote crashes the connection.
	vote.Batch = 1
	if err := WriteVoteBatch(conn, vote); err == nil {
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
		if err := WriteVoteBatch(conn, VoteBatch{Player: 0, Batch: 0, Count: 1, Planes: []uint64{0}}); err != nil {
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

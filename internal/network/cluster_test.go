package network

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
)

func testRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed|1))
}

func acceptAllRule() core.LocalRule {
	return core.RuleFunc(func(int, []int, uint64, *rand.Rand) (core.Message, error) {
		return core.Accept, nil
	})
}

func uniformSampler(t testing.TB, n int) dist.Sampler {
	t.Helper()
	u, err := dist.Uniform(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(u)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewClusterValidation(t *testing.T) {
	ref := core.BitReferee{Rule: core.ANDRule{}}
	rule := acceptAllRule()
	bad := []ClusterConfig{
		{K: 0, Q: 1, Rule: rule, Referee: ref},
		{K: 1, Q: -1, Rule: rule, Referee: ref},
		{K: 1, Q: 1, Referee: ref},
		{K: 1, Q: 1, Rule: rule},
		{K: 1, Q: 1, Rule: rule, Referee: ref, Timeout: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestClusterRoundOverMemTransport(t *testing.T) {
	// Players accept iff their first sample is even; with the AND rule the
	// verdict is the conjunction.
	rule := core.RuleFunc(func(_ int, samples []int, _ uint64, _ *rand.Rand) (core.Message, error) {
		if samples[0]%2 == 0 {
			return core.Accept, nil
		}
		return core.Reject, nil
	})
	c, err := NewCluster(ClusterConfig{
		K: 8, Q: 1, Rule: rule, Referee: core.BitReferee{Rule: core.ANDRule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	evens, err := dist.FromWeights([]float64{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := dist.NewAliasSampler(evens)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Run(s, testRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("all-even input rejected under AND")
	}
	odds, err := dist.FromWeights([]float64{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := dist.NewAliasSampler(odds)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = c.Run(s2, testRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("all-odd input accepted under AND")
	}
}

func TestClusterRoundOverTCP(t *testing.T) {
	rule := acceptAllRule()
	c, err := NewCluster(ClusterConfig{
		K: 4, Q: 2, Rule: rule,
		Referee:   core.BitReferee{Rule: core.ANDRule{}},
		Transport: TCPTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Run(uniformSampler(t, 8), testRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("accept-all cluster rejected over TCP")
	}
}

func TestClusterSharedSeedReachesAllNodes(t *testing.T) {
	// Each node votes a function of the shared seed; if the seeds differ,
	// the XOR-style referee sees disagreement.
	rule := core.RuleFunc(func(_ int, _ []int, shared uint64, _ *rand.Rand) (core.Message, error) {
		return core.Message(shared & 1), nil
	})
	agree := core.FuncRule{F: func(bits []bool) bool {
		for _, b := range bits {
			if b != bits[0] {
				return false
			}
		}
		return true
	}, Label: "all-equal"}
	c, err := NewCluster(ClusterConfig{
		K: 16, Q: 0, Rule: rule, Referee: core.BitReferee{Rule: agree},
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		ok, err := c.Run(uniformSampler(t, 4), testRand(uint64(10+trial)))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("nodes saw different shared seeds")
		}
	}
}

func TestClusterMatchesInProcessSMP(t *testing.T) {
	// The networked cluster and the in-process SMP runner implement the
	// same protocol, and core.BackendFor gives both the engine's public
	// coins, so they accept exactly the same trials.
	const (
		n   = 256
		k   = 8
		eps = 0.5
	)
	q := core.RecommendedThresholdSamples(n, k, eps)
	smp, err := core.NewThresholdTester(core.ThresholdTesterConfig{N: n, K: k, Q: q, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{
		K: k, Q: q,
		Rule:    smp.Local(),
		Referee: core.BitReferee{Rule: core.ThresholdRule{T: core.DefaultThresholdT(k)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	far, err := dist.PairedBump(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	src, err := engine.FromDist(far)
	if err != nil {
		t.Fatal(err)
	}
	accepts := func(p core.Protocol) int {
		t.Helper()
		b, err := core.BackendFor(p)
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(b, engine.Options{Seed: 20, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Estimate(context.Background(), src, 200)
		if closeErr := e.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Estimate.Successes
	}
	if networked, inProc := accepts(cluster), accepts(smp); networked != inProc {
		t.Errorf("networked accepted %d of 200 trials, in-process %d", networked, inProc)
	}
}

// verdictString renders verdicts as a string of 1 (accept) and 0
// (reject).
func verdictString(verdicts []bool) string {
	b := make([]byte, len(verdicts))
	for i, v := range verdicts {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

// TestClusterVerdictStreamGolden pins the public verdict stream for a
// fixed rng, on the flat star and the tree: a 64-round session, one
// engine.Run on one worker from base seed rng.Uint64(), then 16 Run
// calls drawing from one rng. The literals were recorded before a
// multi-round session became one engine call; a change to how a Cluster
// derives its coins shows here.
func TestClusterVerdictStreamGolden(t *testing.T) {
	const (
		wantMany = "1010110101101000110110110011110011100110000001101101100001111001"
		wantRuns = "1100101110101010"
	)
	for _, shards := range []int{0, poolShards} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			c := poolCluster(t, poolConfig(NewMemTransport(), shards, 10*time.Second))
			s := uniformSampler(t, 16)
			results, err := engine.Run(context.Background(), testBackend(t, c), engine.Fixed(s), 64,
				engine.Options{Workers: 1, Seed: testRand(2024).Uint64()})
			if err != nil {
				t.Fatal(err)
			}
			if got := verdictString(poolVerdicts(results)); got != wantMany {
				t.Errorf("session verdicts\n got %s\nwant %s", got, wantMany)
			}
			rng := testRand(7)
			runs := make([]bool, 16)
			for i := range runs {
				if runs[i], err = c.Run(s, rng); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			if got := verdictString(runs); got != wantRuns {
				t.Errorf("Run verdicts\n got %s\nwant %s", got, wantRuns)
			}
		})
	}
}

func TestClusterContextCancellation(t *testing.T) {
	// A rule that blocks forever: cancelling the engine call must abort
	// the round.
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	rule := core.RuleFunc(func(int, []int, uint64, *rand.Rand) (core.Message, error) {
		<-block
		return core.Accept, nil
	})
	c, err := NewCluster(ClusterConfig{
		K: 2, Q: 0, Rule: rule,
		Referee: core.BitReferee{Rule: core.ANDRule{}},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runSession(ctx, c, uniformSampler(t, 4), testRand(5), 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled round reported success")
		}
	case <-time.After(3 * time.Second):
		t.Error("cancellation did not abort the round")
	}
}

func TestClusterRunValidation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		K: 1, Q: 1, Rule: acceptAllRule(), Referee: core.BitReferee{Rule: core.ANDRule{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(nil, testRand(0)); err == nil {
		t.Error("nil sampler accepted")
	}
	if _, err := c.Run(uniformSampler(t, 2), nil); err == nil {
		t.Error("nil rng accepted")
	}
	if c.Players() != 1 || c.MaxSamplesPerPlayer() != 1 {
		t.Error("accessors wrong")
	}
}

func TestMemTransportDialUnknown(t *testing.T) {
	m := NewMemTransport()
	if _, err := m.Dial(memAddr("nope")); err == nil {
		t.Error("dial to unknown listener succeeded")
	}
}

func TestMemTransportClosedListener(t *testing.T) {
	m := NewMemTransport()
	l, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Accept(); err == nil {
		t.Error("accept on closed listener succeeded")
	}
	if _, err := m.Dial(addr); err == nil {
		t.Error("dial to closed listener succeeded")
	}
	// Double close is safe.
	if err := l.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestRefereeServerValidation(t *testing.T) {
	c := fakeCluster(t, 1, acceptAllRule(), time.Second)
	if _, err := openBatchSession(context.Background(), c, nil, nil); err == nil {
		t.Error("nil listener accepted")
	}
}

func TestPlayerNodeValidation(t *testing.T) {
	if _, err := NewPlayerNode(0, -1, acceptAllRule(), 0); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := NewPlayerNode(0, 1, nil, 0); err == nil {
		t.Error("nil rule accepted")
	}
	node, err := NewPlayerNode(0, 1, acceptAllRule(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := node.connect(nil, memAddr("x")); err == nil {
		t.Error("nil transport accepted")
	}
	if _, _, err := node.connect(NewMemTransport(), memAddr("x")); err == nil {
		t.Error("dial to nowhere succeeded")
	}
}

func TestRefereeRejectsMisbehavingNode(t *testing.T) {
	// A node claiming a different player id in its VOTE_BATCH must abort
	// the trial.
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		if err := send(conn, Hello{Player: 0, Bits: 1}); err != nil {
			return
		}
		_ = fakeVote(conn, 99, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "claims player 99") {
		t.Errorf("err = %v, want mismatched-vote error", err)
	}
}

func TestRefereeRejectsBadBits(t *testing.T) {
	_, err := refereeTrials(t, fakeCluster(t, 1, acceptAllRule(), time.Second), 1, func(conn net.Conn) {
		_ = send(conn, Hello{Player: 0, Bits: 0})
	})
	if err == nil {
		t.Error("zero-bit hello accepted")
	}
}

// countingTransport counts Dial calls, to prove no node goroutine ever
// touched the network.
type countingTransport struct {
	Transport
	mu    sync.Mutex
	dials int
}

func (c *countingTransport) Dial(addr net.Addr) (net.Conn, error) {
	c.mu.Lock()
	c.dials++
	c.mu.Unlock()
	return c.Transport.Dial(addr)
}

// zeroBitRule is constructible but invalid: Bits() = 0 makes
// NewPlayerNode fail.
type zeroBitRule struct{}

func (zeroBitRule) Message(int, []int, uint64, *rand.Rand) (core.Message, error) {
	return core.Accept, nil
}

func (zeroBitRule) Bits() int { return 0 }

func TestClusterBuildsAllNodesBeforeSpawning(t *testing.T) {
	// Regression: node construction used to be interleaved with goroutine
	// spawning, so a construction failure left earlier nodes running
	// against a live listener. Now a bad rule must fail the round before
	// any node dials.
	ct := &countingTransport{Transport: NewMemTransport()}
	c, err := NewCluster(ClusterConfig{
		K: 4, Q: 1, Rule: zeroBitRule{},
		Referee:   core.BitReferee{Rule: core.ANDRule{}},
		Transport: ct,
		Timeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(uniformSampler(t, 4), testRand(40)); err == nil {
		t.Fatal("cluster with a zero-bit rule ran")
	}
	if _, err := runSession(context.Background(), c, uniformSampler(t, 4), testRand(41), 2); err == nil {
		t.Fatal("session with a zero-bit rule ran")
	}
	ct.mu.Lock()
	dials := ct.dials
	ct.mu.Unlock()
	if dials != 0 {
		t.Errorf("%d dial(s) happened before construction failed, want 0", dials)
	}
}

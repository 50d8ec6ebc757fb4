// Package network runs the paper's simultaneous-message-passing model as a
// real message-passing system: a referee server and k player nodes
// exchanging length-prefixed frames over a Transport (buffered in-memory
// connections for tests and simulations, TCP loopback for the
// deployment-shaped demo).
//
// A trial follows the model exactly, and every entry point runs it the
// same way: Cluster.Run is an engine call on a cluster backend
// (NewBackend), as is every multi-trial run, and the backend runs trials
// on batch sessions (batch.go) in which a single trial is a batch of
// one:
//
//  1. Every player connects and sends HELLO with its player id and
//     message width.
//  2. The referee sends ROUND_BATCH naming the batch's trials: a base
//     seed, a first trial and a count. Each player derives every trial's
//     public coin, engine.SharedSeed(base, trial), itself, so the shared
//     randomness costs the wire 32 bytes per batch whatever its size.
//  3. Each player draws its q samples per trial locally, evaluates its
//     core.LocalRule and sends one VOTE_BATCH: its r-bit messages for the
//     whole batch as r bit-planes.
//  4. After collecting all k votes the referee applies its core.Referee
//     decision function to every trial and outputs the verdicts. As in
//     the model, nothing is written back: the players never learn them.
//  5. Steps 2-4 repeat, up to a window of batches in flight, until FINISH
//     ends the session.
//
// The engine backend keeps its sessions between calls: a session that
// has quiesced healthy when its worker retires — every queued frame
// written, every relayed batch reduced, every slot live — parks, and the
// next call takes it instead of dialing k players again. An idle session
// closes after one timeout, and the backend's Close closes the rest
// (backend.go).
//
// With Topology.Shards > 1 a tier of aggregators sits between the players
// and the root (aggregator.go); players see the same frames either way.
// Cluster wires the pieces together and implements core.Protocol, so a
// networked deployment can be dropped into the same experiment harness as
// the in-process simulator (that equivalence is itself covered by tests).
//
// # Frame codec
//
// wire.go is the only code that knows the frame format. Each frame type
// has one encoder, Append<Name>, which validates with the frame's check*
// function and appends nothing on an error; every sender encodes into
// scratch it keeps and writes through writeCoalesced, the one function
// that puts frames on a connection. frameReader is the one decoder: its
// read decodes each type through one bounds-checked payload reader and
// validates with the same check*, so the decoder accepts exactly what
// the encoders produce. Each connection reads through one long-lived
// frameReader, whose decoded slices are views of its scratch, valid
// until its next read; ReadFrame is a fresh reader's read, so its results
// own their memory. The transport decorators (CountingTransport,
// FaultTransport) follow their byte streams with frameCursor, which
// shares the reader's header decode and takes batch-id and trial-count
// positions from wire.go, so they split any stream into frames however
// reads and writes chop it.
//
// # Frame I/O
//
// A settled session allocates nothing per frame. MemTransport's
// connection buffers up to 64 KiB per direction, so a write copies and
// returns; its errors are net.Pipe's. Each direction's deadline owns one
// timer: a deadline moved earlier re-arms it in place, and one moved
// later — each frame's fresh budget — is only stored, the timer
// re-arming itself for the rest of the wait when it fires early. A
// frame's budget costs one clock read: setReadDeadline and
// setWriteDeadline hand the in-memory connection the instant and its
// distance together. Every
// referee-side slot has a writer goroutine draining its frame queue and
// one long-lived reader goroutine that serves the gather's per-batch
// requests, so a batch starts no goroutine. Vote planes move a word at a
// time: a node packs each 64-trial block of messages into one word of
// every plane (core.PackPlaneWord), and an opaque referee's decide
// unpacks one word per present player into 64 trials' slates
// (core.UnpackPlaneWord).
//
// A node votes with a rule instance of its own: NewPlayerNode takes
// core.Instance(rule) once, so a collision rule over a domain of at
// most 256 counts into counters the node owns for the life of its
// session, with no sync.Pool on the vote path; over a wider domain the
// node keeps the pool, so its memory does not grow with n. The SMP and
// CONGEST backends keep the shared rule value, whose pooled statistic
// serves their workers, because their per-call scratch does not outlive
// an engine call. A warm handoff between calls reuses
// the session's own quiesce and eviction timers.
//
// # Wire validation
//
// The referee enforces the protocol, not just the frame format. A HELLO
// must announce between 1 and 64 message bits — the width the referee's
// rule decides over — and a player id in [0, k); a second connection
// claiming an id already registered is a duplicate and rejected. A
// VOTE_BATCH must carry the id of the connection it arrives on, echo the
// batch id and trial count of the ROUND_BATCH it answers, and carry as
// many bit-planes as the player announced bits at HELLO — a 1-bit rule
// cannot smuggle a wide message past the decision function. On the tree
// the root checks every AGG_SUM and AGG_PLANES the same way: the
// aggregator id of the connection, the batch id, trial count and width,
// and a present count within the shard. On the frame layer, set padding
// bits above a batch's trial count are a malformed frame, never extra
// votes, and no length prefix can make the decoder allocate past the
// type's Max* bound.
//
// # Straggler tolerance
//
// By default the referee is strict — all k votes are required, exactly
// the paper's model, and any failure aborts the round.
// ClusterConfig.MinVotes relaxes it to a quorum: the accept phase is
// bounded by one timeout and fails unless at least MinVotes players
// connect in it, a round succeeds once at least MinVotes valid
// votes are in, and players that crashed, timed out, never connected or
// violated the protocol become stragglers instead of errors. Absent
// votes enter the decision per a core.AbsenteePolicy — counted as
// accepts, counted as rejects, or omitted — with the default deferring
// to the decision rule's own advice (a ThresholdRule counts absentees as
// accepts, since a silent sensor cannot push the rejection count over
// the threshold). A player that fails stays absent for the rest of the
// session. Every round reports what happened in an engine.RoundResult:
// votes received, stragglers and node-side connect retries.
//
// Node-side, PlayerNode retries a failed dial or HELLO with exponential
// backoff (SetRetryPolicy), so transient connection drops are survivable
// without referee involvement.
//
// # Fault injection
//
// FaultTransport decorates any Transport with deterministic, seeded
// faults applied per player or aggregator id: dropped dial attempts,
// per-frame write delays, payload corruption of a chosen frame and
// connection crashes at a chosen round. Faults count frames, not Write
// calls. It is the chaos harness for everything above — every
// injected fault must surface as a validated protocol error or a
// tolerated straggler, never as a wrong verdict — and its FaultStats
// report what was actually injected.
package network

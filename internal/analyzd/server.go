// Package analyzd is the Hawkeye analyzer as a network service: switches'
// CPU pollers (or, here, the simulation harness standing in for them)
// push binary telemetry reports over TCP; operators ask for a diagnosis
// of a victim flow and get the provenance verdict back. The simulator
// runs the same provenance/diagnosis code in-process for the evaluation;
// this service is the deployment face of the analyzer — one process per
// fleet, fabric sessions carry their topology in the handshake, and
// every completed diagnosis also flows into the shared fleet store
// (internal/fleetstore), where operator sessions query and tail the
// clustered incident view.
//
// The server is supervised: it moves through a lifecycle state machine
// (starting → replaying → serving → draining → stopped), recovers its
// fleet store from snapshot + WAL when given a data directory, sheds
// load in tiers under ingest pressure (subscriptions first, then
// queries, never diagnosis ingest), and drains gracefully on Close —
// flushing the WAL and pushing a terminal frame to live subscribers.
package analyzd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/fleetstore/watermark"
	"hawkeye/internal/host"
	"hawkeye/internal/provenance"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// Options configures ListenOpts. The zero value is a sensible
// in-memory server.
type Options struct {
	// Fleet sizes the fleet store (zero value = DefaultConfig).
	Fleet fleetstore.Config
	// Rollup sizes the live rollup summarizer riding the fleet store's
	// admission stream (zero value = rollup.DefaultConfig).
	Rollup rollup.Config
	// DataDir, when non-empty, makes the fleet store durable: Open
	// replays the snapshot + WAL under this directory before the server
	// starts serving, and every admitted diagnosis is logged.
	DataDir string
	// PipeDepth sizes the ingest queue (0 = 1024).
	PipeDepth int
	// ManualPipeline builds a worker-less pipeline whose queue only
	// drains at query time — tests use it to hold the load at an exact
	// fill fraction.
	ManualPipeline bool
	// RetryAfterMs is the delay hint in throttle replies (0 = 50).
	RetryAfterMs int64
	// ReadTimeout / WriteTimeout bound each frame read and write on a
	// session; zero disables (operator sessions legitimately idle between
	// queries, so the default is off and the daemon flag opts in).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxStrikes is the per-session decode-error budget: a session whose
	// frames keep failing decode or admission validation is quarantined —
	// told why with a MsgError and dropped (0 = default 8, <0 = never).
	MaxStrikes int
	// Shard names this instance on a cluster's consistent-hash ring
	// (reported in MsgShardInfoReply). Empty for unclustered servers.
	Shard string
	// BumpEpoch increments the shard's persisted fencing epoch during
	// Open, past any fence marker — the promotion path. A promoted
	// follower opened with this set always supersedes the primary whose
	// epoch it mirrored.
	BumpEpoch bool
	// SemiSync, when positive, makes writer-routed admissions
	// (MsgWriteRecord) wait up to this long for a follower to ack the
	// record's sequence before the WriteAck goes out — so an acked
	// record survives losing the primary. On timeout the write is
	// answered with an error (admitted but unacked); the writer resends
	// and per-fabric dedup makes the resend idempotent. Zero acks on
	// local durability alone.
	SemiSync time.Duration
}

// DefaultMaxStrikes is the per-session decode-error budget when Options
// leaves MaxStrikes zero.
const DefaultMaxStrikes = 8

const (
	// pipeWorkers drain the ingest queue into the fleet store.
	pipeWorkers = 4
	// replBuffer bounds each replication tap's live channel: a follower
	// that falls this many records behind is dropped and must re-sync
	// from its own durable watermark.
	replBuffer = 1024
)

// Server accepts analyzer sessions.
type Server struct {
	lis net.Listener

	// fleet is the shared diagnosis history; pipe is its ingest front;
	// adm is the tiered load shedder in front of the sheddable verbs;
	// roll summarizes the admission stream into windowed rollups.
	fleet *fleetstore.Store
	pipe  *fleetstore.Pipeline
	adm   *admission
	roll  *rollup.Summarizer

	// state is the lifecycle phase (State values).
	state atomic.Int32

	// mu guards the connection map and closed, which Close sets when
	// its drain begins; the counters below are atomics so hot-path
	// accounting never contends with accept/close.
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// acceptWG tracks the accept loop, wg the session handlers, fwdWG
	// the stream forwarders (spawn) — Close drains them in that order so
	// no goroutine touches a structure torn down before it exits.
	acceptWG sync.WaitGroup
	wg       sync.WaitGroup
	fwdWG    sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	readTimeout  time.Duration
	writeTimeout time.Duration
	maxStrikes   int

	// Cluster identity and replication health: shard names this instance
	// on the ring; repls tracks live replication streams (guarded by mu)
	// so drain can detach them; followerSeq is the highest watermark any
	// follower has acked — what semi-sync writes and the handoff drain
	// block on, woken by each MsgReplAck and by a replica detaching.
	shard       string
	repls       map[*fleetstore.ReplicaSync]struct{}
	followerSeq watermark.Watermark
	// followerEpoch is the fencing epoch the follower last acked having
	// mirrored durably, which the handoff drain also waits for; semiSync
	// bounds the per-write follower wait; handoff marks a graceful drain
	// (ingest refused, reads and replication still served while the
	// follower catches up).
	followerEpoch watermark.Watermark
	semiSync      time.Duration
	handoff       atomic.Bool

	sessions    atomic.Uint64
	reports     atomic.Uint64
	hostReports atomic.Uint64
	diagnoses   atomic.Uint64
	// Hostile-input accounting: frames that failed decode, reports that
	// failed admission validation, values sanitization clamped, and
	// sessions dropped for exhausting their strike budget.
	decodeErrors        atomic.Uint64
	rejectedReports     atomic.Uint64
	rejectedHostReports atomic.Uint64
	clampedValues       atomic.Uint64
	quarantined         atomic.Uint64
}

// Stats is a snapshot of server activity.
type Stats struct {
	Sessions int
	Reports  int
	// HostReports counts admitted host-agent counter snapshots.
	HostReports int
	Diagnoses   int
	// Fleet store counters: records admitted, records shed at the
	// ingest queue, retention-ring evictions, incidents ever opened,
	// incidents currently open, and subscription events lost to slow
	// subscribers.
	Ingested      uint64
	Dropped       uint64
	Evicted       uint64
	Incidents     uint64
	OpenIncidents int
	EventsDropped uint64
	// Shed tier counters: requests refused with a throttle reply.
	// Subscriptions shed first, queries only near saturation; there is
	// deliberately no ShedIngest — diagnosis ingest is never refused.
	ShedSubscriptions uint64
	ShedQueries       uint64
	// WALErrors counts records that failed to reach the log (kept in
	// memory regardless); zero on in-memory servers.
	WALErrors uint64
	// Replayed counts records recovered from the WAL at startup.
	Replayed int
	// Hostile-input counters. DecodeErrors are frames that failed binary
	// decode; RejectedReports failed semantic admission against the
	// session's own handshake topology; ClampedValues are implausible
	// magnitudes sanitization pulled back; QuarantinedSessions exhausted
	// their strike budget and were dropped.
	DecodeErrors        uint64
	RejectedReports     uint64
	RejectedHostReports uint64
	ClampedValues       uint64
	QuarantinedSessions uint64
	// Rollup summarizer counters: windows currently open / already
	// closed, accuracy-losing sketch evictions, accounted bytes in use,
	// rollup events lost to slow subscribers, and rollup subscriptions
	// refused under load.
	RollupWindowsOpen   int
	RollupWindowsClosed uint64
	RollupEvictions     uint64
	RollupBytes         int
	RollupEventsDropped uint64
	ShedRollups         uint64
}

// ListenOpts starts a server on addr (e.g. "127.0.0.1:0"); the zero
// Options give a default in-memory fleet store. With a DataDir it
// recovers the fleet store (state "replaying") before accepting
// sessions, so a client never observes a partially recovered store.
func ListenOpts(addr string, o Options) (*Server, error) {
	s := &Server{
		adm:          newAdmission(o.RetryAfterMs),
		conns:        make(map[net.Conn]struct{}),
		readTimeout:  o.ReadTimeout,
		writeTimeout: o.WriteTimeout,
		maxStrikes:   o.MaxStrikes,
		shard:        o.Shard,
		repls:        make(map[*fleetstore.ReplicaSync]struct{}),
		semiSync:     o.SemiSync,
	}
	if s.maxStrikes == 0 {
		s.maxStrikes = DefaultMaxStrikes
	}
	s.state.Store(int32(StateStarting))

	cfg := o.Fleet
	if cfg == (fleetstore.Config{}) {
		cfg = fleetstore.DefaultConfig()
	}
	// The summarizer observes the store's admission stream, so WAL
	// replay rebuilds the rollup windows alongside the incidents.
	s.roll = rollup.New(o.Rollup)
	cfg.Observer = s.roll
	cfg.BumpEpoch = o.BumpEpoch
	var st *fleetstore.Store
	if o.DataDir != "" {
		s.state.Store(int32(StateReplaying))
		var err error
		st, err = fleetstore.Open(o.DataDir, cfg)
		if err != nil {
			return nil, err
		}
	} else {
		st = fleetstore.New(cfg)
	}

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("analyzd: listen: %w", err)
	}
	s.lis = lis
	s.fleet = st
	// A waiter on the follower's ack must not outlive the follower: wake
	// it when a replication stream leaves (the follower died, was dropped
	// as too slow, or Close detached it for the drain).
	st.OnReplicaDetach(func() {
		s.followerSeq.Wake()
		s.followerEpoch.Wake()
	})
	if o.ManualPipeline {
		s.pipe = fleetstore.NewPipelineManual(st, o.PipeDepth)
	} else {
		s.pipe = fleetstore.NewPipeline(st, o.PipeDepth, pipeWorkers)
	}
	s.state.Store(int32(StateServing))
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Fleet exposes the server's fleet store (in-process consumers).
func (s *Server) Fleet() *fleetstore.Store { return s.fleet }

// State returns the lifecycle phase.
func (s *Server) State() State { return State(s.state.Load()) }

// Rollups exposes the server's summarizer (in-process consumers).
func (s *Server) Rollups() *rollup.Summarizer { return s.roll }

// Stats returns activity counters.
func (s *Server) Stats() Stats {
	fc := s.fleet.CountersSnapshot()
	rs := s.roll.Stats()
	return Stats{
		Sessions:          int(s.sessions.Load()),
		Reports:           int(s.reports.Load()),
		HostReports:       int(s.hostReports.Load()),
		Diagnoses:         int(s.diagnoses.Load()),
		Ingested:          fc.Ingested,
		Dropped:           s.pipe.Dropped(),
		Evicted:           fc.Evicted,
		Incidents:         fc.Incidents,
		OpenIncidents:     fc.OpenIncidents,
		EventsDropped:     fc.EventsDropped,
		ShedSubscriptions: s.adm.shed[tierSubscriptions].Load(),
		ShedQueries:       s.adm.shed[tierQueries].Load(),
		WALErrors:         fc.WALErrors,
		Replayed:          s.fleet.ReplayedRecords(),

		DecodeErrors:        s.decodeErrors.Load(),
		RejectedReports:     s.rejectedReports.Load(),
		RejectedHostReports: s.rejectedHostReports.Load(),
		ClampedValues:       s.clampedValues.Load(),
		QuarantinedSessions: s.quarantined.Load(),

		RollupWindowsOpen:   rs.WindowsOpen,
		RollupWindowsClosed: rs.WindowsClosed,
		RollupEvictions:     rs.Evictions,
		RollupBytes:         rs.BytesInUse,
		RollupEventsDropped: rs.EventsDropped,
		ShedRollups:         s.adm.shed[tierRollups].Load(),
	}
}

// health is the wire view of Stats plus the lifecycle state.
func (s *Server) health() wire.Health {
	st := s.Stats()
	return wire.Health{
		State:             s.State().String(),
		Durable:           s.fleet.Durable(),
		Load:              s.pipe.Load(),
		Sessions:          st.Sessions,
		Diagnoses:         st.Diagnoses,
		Ingested:          st.Ingested,
		Dropped:           st.Dropped,
		OpenIncidents:     st.OpenIncidents,
		ShedSubscriptions: st.ShedSubscriptions,
		ShedQueries:       st.ShedQueries,
		WALErrors:         st.WALErrors,

		RollupWindowsOpen:   st.RollupWindowsOpen,
		RollupWindowsClosed: st.RollupWindowsClosed,
		RollupEvictions:     st.RollupEvictions,
		RollupBytes:         st.RollupBytes,
		ShedRollups:         st.ShedRollups,
	}
}

// drainDeadline bounds the terminal-frame write to a stuck subscriber
// so one dead client cannot stall the whole drain.
const drainDeadline = 2 * time.Second

// Close drains the server: stop accepting, tell live subscribers
// goodbye with a terminal frame, close every session, wait for the
// handlers, then flush and close the ingest pipeline and the fleet
// store (checkpointing a durable one). Safe to call from any number of
// goroutines; every call returns the first call's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.state.Store(int32(StateDraining))
		// 1. Stop accepting and wait for the accept goroutine: after
		// this, the connection map only shrinks.
		err := s.lis.Close()
		s.acceptWG.Wait()
		// 2. Close both hubs (incident and rollup subscriber streams):
		// forwarders see their event channel end, push the terminal
		// shutdown frame and exit. Every live connection gets a write
		// deadline first, so a subscriber that stopped reading cannot
		// wedge a forwarder mid-event and stall the drain. The
		// summarizer itself keeps folding until the ingest flush below.
		s.fleet.Hub().Close()
		s.roll.Hub().Close()
		// Detach replication taps: their forwarders see Done close, tell
		// the follower goodbye and exit — the follower re-syncs from its
		// durable watermark against whichever shard is promoted. Marking
		// the server closed here stops new forwarders (spawn), so the
		// wait below covers every one.
		s.mu.Lock()
		s.closed = true
		for r := range s.repls {
			r.Close()
		}
		s.mu.Unlock()
		deadline := time.Now().Add(drainDeadline)
		s.mu.Lock()
		for c := range s.conns {
			_ = c.SetWriteDeadline(deadline)
		}
		s.mu.Unlock()
		s.fwdWG.Wait()
		// 3. Tear down the sessions and wait for their handlers.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		// 4. Flush: drain the ingest queue into the store, then close
		// the store (fsyncs the WAL and writes a final snapshot) and
		// finalize the rollup windows so exit-summary counters cover
		// the flushed tail.
		s.pipe.Close()
		s.roll.Close()
		if cerr := s.fleet.Close(); err == nil {
			err = cerr
		}
		s.state.Store(int32(StateStopped))
		s.closeErr = err
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.sessions.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// session is one connection's analyzer state.
type session struct {
	conn net.Conn
	// writeMu serializes frames from the request/reply loop with
	// asynchronously pushed incident events.
	writeMu sync.Mutex
	// writeTimeout bounds each frame write (zero = none).
	writeTimeout time.Duration

	// fabric names this session in the fleet store.
	fabric string
	// topo is nil for operator sessions (query/subscribe only).
	topo    *topo.Topology
	epochNS int64
	// validator admits reports against the handshake-declared topology;
	// lim bounds plausible magnitudes for sanitization. Both nil/zero on
	// operator sessions.
	validator *wire.Validator
	lim       telemetry.Limits
	// strikes counts decode/admission failures toward quarantine. adm
	// carries the session's admission tallies into every verdict, so a
	// verdict says "switch 3 was heard from and disbelieved" instead of
	// "switch 3 was silent".
	strikes int
	adm     core.Admission
	// reports keeps the freshest report per switch; hostReports the
	// freshest host-agent counter snapshot per host.
	reports     map[topo.NodeID]*telemetry.Report
	hostReports map[topo.NodeID]*telemetry.HostReport
	// assessor keeps the graph of the last report set diagnosed, so
	// complaints between two report pushes share one build.
	assessor core.Assessor
	// sub is the live incident subscription, once MsgSubscribe arrived;
	// rsub the live rollup subscription (MsgSubscribeRollups).
	sub  *fleetstore.Sub[fleetstore.Event]
	rsub *fleetstore.Sub[rollup.Event]
	// repl is the replication stream, once MsgReplicate turned this
	// session into a follower feed.
	repl *fleetstore.ReplicaSync
	// verb is the registration of the frame being served, so a handler's
	// bad payload gets its verb's policy (badPayload).
	verb *verb
}

func (sess *session) write(t wire.MsgType, payload []byte) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	if sess.writeTimeout > 0 {
		_ = sess.conn.SetWriteDeadline(time.Now().Add(sess.writeTimeout))
		defer sess.conn.SetWriteDeadline(time.Time{})
	}
	return wire.WriteFrame(sess.conn, t, payload)
}

func (sess *session) writeJSON(t wire.MsgType, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("analyzd: encode %T: %w", v, err)
	}
	return sess.write(t, data)
}

func (sess *session) sendErr(msg string) { _ = sess.write(wire.MsgError, []byte(msg)) }

func (s *Server) handle(conn net.Conn) {
	sess := &session{conn: conn, writeTimeout: s.writeTimeout}
	// readFrame applies the per-frame read deadline: a peer that stops
	// mid-frame (or never sends one) is cut loose instead of pinning a
	// handler goroutine forever.
	readFrame := func() (wire.MsgType, []byte, error) {
		// Subscribed (and replicating) sessions idle by design — their
		// traffic flows the other way — so the per-frame deadline only
		// polices sessions that owe us frames.
		if s.readTimeout > 0 && sess.sub == nil && sess.rsub == nil && sess.repl == nil {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		return wire.ReadFrame(conn)
	}

	// Handshake first: nothing else is meaningful without it.
	t, payload, err := readFrame()
	if err != nil {
		return
	}
	if t != wire.MsgHello {
		sess.sendErr("expected hello")
		return
	}
	hello, err := wire.ParseHello(payload)
	if err != nil {
		sess.sendErr(err.Error())
		return
	}
	sess.fabric = hello.Fabric
	if sess.fabric == "" {
		sess.fabric = "default"
	}
	// An empty topology marks an operator session: it may query and
	// subscribe but carries no fabric of its own.
	if len(hello.Topo) > 0 && string(hello.Topo) != "null" {
		if hello.EpochNS <= 0 {
			sess.sendErr("non-positive telemetry epoch")
			return
		}
		tp, err := topo.ParseSpecJSON(hello.Topo)
		if err != nil {
			sess.sendErr(fmt.Sprintf("bad topology: %v", err))
			return
		}
		sess.topo = tp
		sess.epochNS = hello.EpochNS
		sess.reports = make(map[topo.NodeID]*telemetry.Report)
		sess.hostReports = make(map[topo.NodeID]*telemetry.HostReport)
		sess.validator = wire.NewValidator(tp)
		sess.lim = telemetry.LimitsFor(tp.LinkBandwidth, hello.EpochNS)
	}
	if err := sess.write(wire.MsgHelloOK, nil); err != nil {
		return
	}
	defer func() {
		if sess.sub != nil {
			s.fleet.Hub().Unsubscribe(sess.sub)
		}
		if sess.rsub != nil {
			s.roll.Hub().Unsubscribe(sess.rsub)
		}
		if sess.repl != nil {
			sess.repl.Close()
			s.mu.Lock()
			delete(s.repls, sess.repl)
			s.mu.Unlock()
		}
	}()

	for {
		t, payload, err := readFrame()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				sess.sendErr(err.Error())
			}
			return
		}
		if !s.serve(sess, t, payload) {
			return
		}
	}
}

// strike charges one decode/admission failure against the session's
// budget. Within budget the session survives — and, crucially, gets no
// MsgError: report pushes have no reply slot, so an unsolicited error
// frame would be misread as the answer to the session's next request.
// Budget exhausted, the session is quarantined: told why, counted, and
// dropped.
func (s *Server) strike(sess *session) bool {
	sess.strikes++
	if s.maxStrikes > 0 && sess.strikes >= s.maxStrikes {
		s.quarantined.Add(1)
		_ = sess.write(wire.MsgError, []byte(fmt.Sprintf(
			"session quarantined: %d malformed or rejected frames", sess.strikes)))
		return false
	}
	return true
}

// verb is the one registration of a client→server message type.
type verb struct {
	// fabricOnly, when set, makes the verb need a fabric session (one
	// whose handshake carried a topology); an operator session sending
	// it is told "operator session cannot <fabricOnly>" and dropped.
	fabricOnly string
	// tier is the admission tier that sheds the verb under ingest
	// pressure.
	tier tier
	// push verbs have no reply slot: an unsolicited frame back would be
	// misread as the answer to the session's next request. The rest are
	// request verbs, and are answered.
	push bool
	// payload names a request verb's body in its bad-payload answer,
	// "bad <payload>: <error>".
	payload string
	// handle serves one admitted frame; false ends the session.
	handle func(*Server, *session, []byte) bool
}

// verbs registers every verb a client may send after the handshake,
// indexed by message type. Unregistered types, server→client ones
// included, are refused with "unexpected message type N".
var verbs = [...]verb{
	wire.MsgReport:     {fabricOnly: "push reports", push: true, handle: (*Server).serveReport},
	wire.MsgHostReport: {fabricOnly: "push host reports", push: true, handle: (*Server).serveHostReport},
	// Diagnosis ingest is never shed: a refused diagnosis loses the
	// complaint and its provenance evidence; the tiers absorb overload
	// first.
	wire.MsgDiagnose:       {fabricOnly: "diagnose", payload: "diagnose request", handle: (*Server).serveDiagnose},
	wire.MsgQueryIncidents: {tier: tierQueries, payload: "incident query", handle: (*Server).serveIncidentQuery},
	wire.MsgSubscribe:      {tier: tierSubscriptions, payload: "subscribe request", handle: (*Server).serveSubscribe},
	// Rollup queries shed with incident queries: both are operator
	// reads against settled state.
	wire.MsgQueryRollups:     {tier: tierQueries, payload: "rollup query", handle: (*Server).serveRollupQuery},
	wire.MsgSubscribeRollups: {tier: tierRollups, payload: "rollup subscribe request", handle: (*Server).serveRollupSubscribe},
	wire.MsgHealth:           {handle: (*Server).serveHealth},
	wire.MsgReplicate:        {payload: "replicate request", handle: (*Server).serveReplicate},
	wire.MsgReplAck:          {push: true, handle: (*Server).serveReplAck},
	wire.MsgShardInfo:        {handle: (*Server).serveShardInfo},
	wire.MsgWriteRecord:      {payload: "write request", handle: (*Server).serveWrite},
	wire.MsgEpoch:            {payload: "epoch announce", handle: (*Server).serveEpochAnnounce},
	wire.MsgQueryRecords:     {payload: "record query", handle: (*Server).serveRecordQuery},
	wire.MsgCutover:          {payload: "cutover request", handle: (*Server).serveCutover},
}

// serve dispatches one request frame through the verb table; false
// ends the session. The session-kind gate and the admission tier are
// applied here, the same way for every verb.
func (s *Server) serve(sess *session, t wire.MsgType, payload []byte) bool {
	if int(t) >= len(verbs) || verbs[t].handle == nil {
		sess.sendErr(fmt.Sprintf("unexpected message type %d", t))
		return false
	}
	v := &verbs[t]
	if v.fabricOnly != "" && sess.topo == nil {
		sess.sendErr("operator session cannot " + v.fabricOnly)
		return false
	}
	if v.tier != tierNone && !s.adm.admit(v.tier, s.pipe.Load()) {
		// Shed with a backpressure reply; the session stays alive — the
		// client backs off and retries.
		return sess.writeJSON(wire.MsgThrottle, wire.Throttle{
			Tier:         tierNames[v.tier],
			RetryAfterMs: s.adm.retryAfterMs,
		}) == nil
	}
	sess.verb = v
	return v.handle(s, sess, payload)
}

// badPayload is the policy for a frame whose payload fails decode, and
// the verb's reply slot decides it. Either way it counts as a decode
// error. A push verb strikes silently; a request verb's client is
// waiting for an answer, so it is told "bad <payload>: <err>" and the
// session ends.
func (s *Server) badPayload(sess *session, err error) bool {
	s.decodeErrors.Add(1)
	if sess.verb.push {
		return s.strike(sess)
	}
	sess.sendErr(fmt.Sprintf("bad %s: %v", sess.verb.payload, err))
	return false
}

// serveReport admits one switch report: validated against the
// handshake topology, clamped to line-rate limits, and kept as the
// switch's freshest.
func (s *Server) serveReport(sess *session, payload []byte) bool {
	rep := &telemetry.Report{}
	if err := rep.UnmarshalBinary(payload); err != nil {
		return s.badPayload(sess, err)
	}
	n, err := sess.adm.AdmitReport(sess.validator, rep, sess.lim)
	if err != nil {
		s.rejectedReports.Add(1)
		return s.strike(sess)
	}
	s.clampedValues.Add(uint64(n))
	sess.reports[rep.Switch] = rep
	s.reports.Add(1)
	return true
}

// serveHostReport is serveReport for host-agent counter snapshots.
func (s *Server) serveHostReport(sess *session, payload []byte) bool {
	hr := &telemetry.HostReport{}
	if err := hr.UnmarshalBinary(payload); err != nil {
		return s.badPayload(sess, err)
	}
	n, err := sess.adm.AdmitHostReport(sess.validator, hr, telemetry.HostLimitsFor(sess.topo.LinkBandwidth))
	if err != nil {
		s.rejectedHostReports.Add(1)
		return s.strike(sess)
	}
	s.clampedValues.Add(uint64(n))
	sess.hostReports[hr.Host] = hr
	s.hostReports.Add(1)
	return true
}

func (s *Server) serveDiagnose(sess *session, payload []byte) bool {
	// A fenced shard stops acking ingest on every path, not just the
	// writer-routed one.
	if s.fenced() {
		_ = sess.writeJSON(wire.MsgFence, s.fenceInfo())
		return false
	}
	victim, atNS, path, err := wire.DecodeDiagnoseRequest(payload)
	if err == nil {
		err = sess.validator.CheckPath(path)
	}
	if err != nil {
		return s.badPayload(sess, err)
	}
	reply := s.diagnose(sess, victim, atNS, path)
	// Counted before the reply goes out, so a client holding its verdict
	// never reads a count that misses it.
	s.diagnoses.Add(1)
	return sess.writeJSON(wire.MsgDiagnosis, reply) == nil
}

func (s *Server) serveIncidentQuery(sess *session, payload []byte) bool {
	var wq wire.IncidentQuery
	if err := json.Unmarshal(payload, &wq); err != nil {
		return s.badPayload(sess, err)
	}
	q, err := queryFromWire(wq)
	if err != nil {
		sess.sendErr(err.Error())
		return false
	}
	// Read-your-writes: settle the ingest queue before answering.
	s.pipe.Drain()
	incs := s.fleet.Incidents(q)
	out := make([]wire.FleetIncident, 0, len(incs))
	for i := range incs {
		out = append(out, incidentToWire(&incs[i]))
	}
	return sess.writeJSON(wire.MsgIncidentMatches, out) == nil
}

func (s *Server) serveSubscribe(sess *session, payload []byte) bool {
	var req wire.SubscribeRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return s.badPayload(sess, err)
	}
	f, err := filterFromWire(req)
	if err != nil {
		sess.sendErr(err.Error())
		return false
	}
	if sess.sub != nil {
		sess.sendErr("already subscribed")
		return false
	}
	sess.sub = s.fleet.Subscribe(f, 0)
	return s.spawn(func() { forward(s, sess, sess.sub.Events(), wire.MsgIncidentEvent, eventToWire) })
}

func (s *Server) serveRollupQuery(sess *session, payload []byte) bool {
	var wq wire.RollupQuery
	if err := json.Unmarshal(payload, &wq); err != nil {
		return s.badPayload(sess, err)
	}
	q, err := rollupQueryFromWire(wq)
	if err != nil {
		sess.sendErr(err.Error())
		return false
	}
	// Read-your-writes: settle the ingest queue before answering.
	s.pipe.Drain()
	res := s.roll.Query(q)
	return sess.writeJSON(wire.MsgRollupList, rollupResultToWire(res)) == nil
}

func (s *Server) serveRollupSubscribe(sess *session, payload []byte) bool {
	var req wire.RollupSubscribeRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return s.badPayload(sess, err)
	}
	if sess.rsub != nil {
		sess.sendErr("already subscribed to rollups")
		return false
	}
	sess.rsub = s.roll.Subscribe(req.ClosedOnly, 0)
	return s.spawn(func() { forward(s, sess, sess.rsub.Events(), wire.MsgRollupEvent, rollupEventToWire) })
}

// serveHealth is answered in every lifecycle state and on every session
// kind: it is how supervisors watch the drain.
func (s *Server) serveHealth(sess *session, _ []byte) bool {
	return sess.writeJSON(wire.MsgHealthReply, s.health()) == nil
}

func (s *Server) serveReplicate(sess *session, payload []byte) bool {
	var req wire.ReplicateRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return s.badPayload(sess, err)
	}
	if sess.repl != nil {
		sess.sendErr("already replicating")
		return false
	}
	// A follower carrying a higher mirrored epoch means a promotion
	// happened while this primary was away: demote durably and refuse
	// with the typed fence so the follower looks elsewhere.
	if req.Epoch > s.fleet.Epoch() {
		_ = s.fleet.NoteFence(req.Epoch)
		_ = sess.writeJSON(wire.MsgFence, wire.FenceInfo{
			Shard: s.shard, Epoch: s.fleet.Epoch(), Observed: req.Epoch, Fenced: true,
		})
		return false
	}
	r, err := s.fleet.SyncReplica(req.FromSeq, replBuffer)
	if err != nil {
		sess.sendErr(fmt.Sprintf("replicate: %v", err))
		return false
	}
	// Announce our epoch ahead of the catch-up so the follower
	// mirrors it durably before acking anything on this stream.
	if err := sess.writeJSON(wire.MsgEpoch, wire.EpochAnnounce{Shard: s.shard, Epoch: s.fleet.Epoch()}); err != nil {
		r.Close()
		return false
	}
	// Catch-up inline, in order, before the live forwarder starts:
	// the tap was registered under the same cut, so the follower
	// sees exactly the admission sequence.
	if r.Snapshot != nil {
		if err := sess.write(wire.MsgReplSnapshot, wire.EncodeReplSnapshot(r.SnapshotSeq, r.Snapshot)); err != nil {
			r.Close()
			return false
		}
	}
	for _, e := range r.Backlog {
		if err := sess.write(wire.MsgReplRecord, wire.EncodeReplRecord(e.Seq, e.Payload)); err != nil {
			r.Close()
			return false
		}
	}
	sess.repl = r
	s.mu.Lock()
	s.repls[r] = struct{}{}
	s.mu.Unlock()
	return s.spawn(func() { s.forwardRepl(sess) })
}

func (s *Server) serveReplAck(sess *session, payload []byte) bool {
	var ack wire.ReplAck
	if err := json.Unmarshal(payload, &ack); err != nil {
		return s.badPayload(sess, err)
	}
	s.followerSeq.Advance(ack.Seq)
	s.followerEpoch.Advance(ack.Epoch)
	return true
}

func (s *Server) serveShardInfo(sess *session, _ []byte) bool {
	return sess.writeJSON(wire.MsgShardInfoReply, s.shardInfo()) == nil
}

// spawn starts a stream forwarder that Close waits for, and reports
// false (nothing started; the caller ends the session) once Close has
// begun its drain. s.mu orders the two: every fwdWG.Add happens before
// Close's fwdWG.Wait, or not at all.
func (s *Server) spawn(forwarder func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.fwdWG.Add(1)
	go func() {
		defer s.fwdWG.Done()
		forwarder()
	}()
	return true
}

// forward acks one subscription — incident events or rollup windows —
// and streams it to the session's connection as mt frames. It exits
// when the subscription closes (session teardown or server drain) or
// the connection dies. The ack goes out here, not from the handler, so
// every acked stream is one Close waits for and ends with the terminal
// frame.
func forward[E, W any](s *Server, sess *session, events <-chan E, mt wire.MsgType, toWire func(*E) W) {
	if err := sess.write(wire.MsgSubscribeOK, nil); err != nil {
		sess.conn.Close()
		return
	}
	var ev E // one variable for the whole stream: &ev escapes into toWire
	for ev = range events {
		if err := sess.writeJSON(mt, toWire(&ev)); err != nil {
			sess.conn.Close() // unblock the read loop; it unsubscribes
			return
		}
	}
	s.goodbye(sess)
}

// goodbye pushes the terminal shutdown frame to a stream that ended
// because the server is draining, so the client learns the difference
// between "server going away" and "connection lost". The write is
// bounded: a wedged subscriber must not stall Close.
func (s *Server) goodbye(sess *session) {
	if s.State() != StateDraining {
		return
	}
	_ = sess.conn.SetWriteDeadline(time.Now().Add(drainDeadline))
	_ = sess.write(wire.MsgShutdown, nil)
	_ = sess.conn.SetWriteDeadline(time.Time{})
}

// forwardRepl streams the replication tap to the follower. It exits
// when the tap dies (slow follower, or drain detaching it) or the
// connection does; either way the follower reconnects and re-syncs
// from its own durable watermark, so nothing is lost — only re-sent.
func (s *Server) forwardRepl(sess *session) {
	r := sess.repl
	for {
		select {
		case e := <-r.Live:
			if e.Epoch != 0 {
				// Cutover epoch bump: announce so the follower mirrors it
				// durably and future acks carry it.
				if err := sess.writeJSON(wire.MsgEpoch, wire.EpochAnnounce{Shard: s.shard, Epoch: e.Epoch}); err != nil {
					r.Close()
					sess.conn.Close()
					return
				}
				continue
			}
			mt := wire.MsgReplRecord
			if e.Snapshot {
				mt = wire.MsgReplSnapshot
			}
			if err := sess.write(mt, wire.EncodeReplRecord(e.Seq, e.Payload)); err != nil {
				r.Close()
				sess.conn.Close() // unblock the read loop; it detaches
				return
			}
		case <-r.Done:
			s.goodbye(sess)
			sess.conn.Close()
			return
		}
	}
}

// shardInfo is the wire view of this instance's cluster identity.
func (s *Server) shardInfo() wire.ShardInfo {
	seq := s.fleet.Seq()
	fseq := s.followerSeq.Load()
	info := wire.ShardInfo{
		Shard:           s.shard,
		Role:            "primary",
		Seq:             seq,
		FollowerSeq:     fseq,
		LastSnapshotSeq: s.fleet.LastSnapshotSeq(),
		Replicas:        s.fleet.Replicas(),
		Epoch:           s.fleet.Epoch(),
		FollowerEpoch:   s.followerEpoch.Load(),
		Fenced:          s.fleet.FencedBy() != 0,
	}
	if info.Replicas > 0 && seq > fseq {
		info.Lag = seq - fseq
	}
	return info
}

// diagnose assesses the session's evidence for one complaint and files
// the verdict with the fleet store.
func (s *Server) diagnose(sess *session, victim packetFiveTuple, atNS int64, path []topo.NodeID) wire.Diagnosis {
	ev := core.Evidence{
		Topo:      sess.topo,
		Prov:      provenance.DefaultConfig(sess.topo.LinkBandwidth, sess.epochNS),
		Diag:      diagnosis.DefaultConfig(),
		Victim:    victim,
		Path:      path,
		Admission: sess.adm,
	}
	for _, rep := range sess.reports {
		ev.Reports = append(ev.Reports, rep)
	}
	for _, hr := range sess.hostReports {
		ev.Hosts = append(ev.Hosts, hr)
	}
	g, d := sess.assessor.Assess(ev)
	res := &core.Result{
		Trigger:   host.Trigger{Victim: victim, At: sim.Time(atNS)},
		Diagnosis: d,
	}
	// Feed the fleet store; a full queue sheds the record (counted)
	// rather than stalling this session. The pod label rides along so
	// rollups can key their hierarchy without re-deriving topology.
	rec := fleetstore.NewRecord(sess.fabric, res)
	if n := int(rec.Node); n >= 0 && n < len(sess.topo.Nodes) {
		rec.Pod = topo.PodLabel(sess.topo.Nodes[n].Name)
	}
	s.pipe.Offer(rec)
	cause := d.PrimaryCause()
	reply := wire.Diagnosis{
		Type:        d.Type.String(),
		CauseKind:   cause.Kind.String(),
		InitialNode: int(cause.Port.Node),
		InitialPort: cause.Port.Port,
		Rendered:    d.String() + g.String(),
		Switches:    len(ev.Reports),
		Confidence:  d.Confidence.String(),
		Score:       d.ConfidenceScore,
		Missing:     d.Missing,
	}
	for _, f := range cause.Flows {
		reply.Culprits = append(reply.Culprits, f.String())
	}
	return reply
}

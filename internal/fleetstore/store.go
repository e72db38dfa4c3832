// Package fleetstore is the analyzer's fleet-wide diagnosis memory: a
// sharded, lock-striped store of completed diagnoses from every fabric
// session, a bounded ingest pipeline that absorbs complaint storms
// without blocking the sessions producing them, semantic clustering of
// correlated complaints into operator-facing incidents, and a
// subscription hub that streams incident lifecycle events (opened /
// grew / resolved) to live operator connections. analyzd feeds it;
// operators query and tail it.
package fleetstore

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore/wal"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Record is one diagnosis as the fleet store keeps it: the attributes
// incident clustering and operator queries need, detached from the
// session that produced it.
type Record struct {
	// Fabric names the reporting fabric (one analyzer serves many).
	Fabric string
	// Seq is the store-assigned admission number (global arrival order).
	Seq uint64
	// At is the complaint's trigger time on the fabric clock.
	At sim.Time
	// Victim is the complaining flow, rendered.
	Victim string
	// Type is the diagnosed anomaly class.
	Type diagnosis.AnomalyType
	// Cause is the primary root-cause kind.
	Cause diagnosis.CauseKind
	// Node/Port locate the initial congestion point.
	Node topo.NodeID
	Port int
	// Culprits are the root-cause flows, rendered.
	Culprits []string
	// Loop is the deadlock cycle, when one was found.
	Loop []topo.PortRef
	// Pod names the congestion point's pod tier ("pod2"), empty when
	// the topology has none. Rollups key their hierarchy on it.
	Pod string
	// Confidence/Score grade the evidence behind the verdict.
	Confidence diagnosis.Confidence
	Score      float64
	// StallNS is the victim's offending RTT sample in ns (zero for
	// timeout-triggered complaints).
	StallNS int64
	// OriginSeq is the writer-assigned per-fabric idempotency sequence
	// (0 = not writer-routed). The store tracks the per-fabric high
	// watermark across admissions, WAL replay and snapshot restore, so
	// a resend after a lost ack is refused as a duplicate even across a
	// crash or a failover.
	OriginSeq uint64
	// Ctrl marks a control record in the WAL stream ("purge" or
	// "adopt"): applied to store state on admission and replay, never
	// retained as data and never observed by rollups. Empty for real
	// records.
	Ctrl string
}

// NewRecord projects a completed diagnosis into a store record.
func NewRecord(fabric string, r *core.Result) Record {
	d := r.Diagnosis
	cause := d.PrimaryCause()
	rec := Record{
		Fabric:     fabric,
		At:         r.Trigger.At,
		Victim:     r.Trigger.Victim.String(),
		Type:       d.Type,
		Cause:      cause.Kind,
		Node:       cause.Port.Node,
		Port:       cause.Port.Port,
		Loop:       d.Loop,
		Confidence: d.Confidence,
		Score:      d.ConfidenceScore,
		StallNS:    int64(r.Trigger.RTT),
	}
	for _, f := range cause.Flows {
		rec.Culprits = append(rec.Culprits, f.String())
	}
	return rec
}

// Config sizes the store.
type Config struct {
	// Shards is the lock-stripe count, rounded up to a power of two.
	Shards int
	// ShardCapacity bounds each shard's retention ring; the oldest
	// record is overwritten (and counted evicted) on overflow.
	ShardCapacity int
	// Window is the incident join window: a complaint extends an open
	// incident when its trigger falls within Window of the incident's
	// span.
	Window sim.Time
	// ResolvedKeep bounds how many resolved incidents are retained for
	// queries after they close.
	ResolvedKeep int

	// The fields below only matter to durable stores (Open); New
	// ignores them.

	// SnapshotEvery checkpoints the store every this many admitted
	// records (default 4096); segments the checkpoint covers are
	// compacted away.
	SnapshotEvery int
	// SegmentBytes rolls WAL segments at this size (default 1 MiB).
	SegmentBytes int64
	// ReadOnly opens for inspection: replay without repairing the log,
	// and no WAL appends or snapshots afterwards.
	ReadOnly bool
	// BumpEpoch increments the shard's persisted fencing epoch during
	// Open, past any fence marker — the promotion path: a follower
	// promoting into a primary must claim an epoch strictly above the
	// one it mirrored from the old primary.
	BumpEpoch bool

	// Observer, when set, sees every admitted record (live Adds and WAL
	// replay alike, in admission order) and every watermark advance —
	// the hook the rollup summarizer rides. Calls run on the admitting
	// goroutine and must not block.
	Observer RecordObserver
}

// RecordObserver taps the store's admission stream. Implementations
// must be safe for concurrent calls (admissions are) and fast — the
// store invokes them synchronously.
type RecordObserver interface {
	// ObserveRecord sees one admitted record after sequence stamping.
	// The pointer is only valid for the duration of the call.
	ObserveRecord(*Record)
	// AdvanceWatermark reports the store's watermark, the highest
	// trigger time admitted: every admission that moves it calls this
	// inside the admission gate, and a rebuild calls it after
	// re-observing. Concurrent admissions may deliver watermarks out of
	// order; one at or below a watermark already seen changes nothing.
	AdvanceWatermark(sim.Time)
	// ResetObserver discards all derived state; the store follows with
	// a full re-observation in trigger-time order. Reshard cutovers and
	// snapshot restores need it: migrated records carry old trigger
	// times that a live observer would drop as late.
	ResetObserver()
}

// DefaultConfig returns sizes suitable for tests and examples; a
// production deployment scales Shards/ShardCapacity with fleet size.
func DefaultConfig() Config {
	return Config{
		Shards:        16,
		ShardCapacity: 4096,
		Window:        2 * sim.Millisecond,
		ResolvedKeep:  1024,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	if c.ShardCapacity <= 0 {
		c.ShardCapacity = d.ShardCapacity
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.ResolvedKeep <= 0 {
		c.ResolvedKeep = d.ResolvedKeep
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	return c
}

// entry is one retained record plus the incident it folded into, so
// eviction can withdraw the membership.
type entry struct {
	rec Record
	inc uint64
}

// shard is one lock stripe: a fixed-capacity ring of records in
// admission order, oldest overwritten first.
type shard struct {
	mu   sync.Mutex
	ring []entry
	next int // ring slot the next record lands in once full
}

func (sh *shard) add(e entry, capacity int) (old entry, evicted bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.ring) < capacity {
		sh.ring = append(sh.ring, e)
		return entry{}, false
	}
	old = sh.ring[sh.next]
	sh.ring[sh.next] = e
	sh.next = (sh.next + 1) % capacity
	return old, true
}

// snapshot appends the shard's records matching q to out.
func (sh *shard) snapshot(q Query, out []Record) []Record {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range sh.ring {
		if q.matches(&sh.ring[i].rec) {
			out = append(out, sh.ring[i].rec)
		}
	}
	return out
}

// export appends every retained entry to out (checkpointing).
func (sh *shard) export(out []entry) []entry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append(out, sh.ring...)
}

// Store holds the fleet's diagnosis history. Stores built with New are
// purely in-memory; Open adds crash durability: every admitted record
// is group-committed to a write-ahead log before insertion, the full
// state is checkpointed periodically, and reopening the same directory
// replays snapshot + log back to the pre-crash state.
type Store struct {
	cfg    Config
	shards []shard
	mask   uint64

	seq      atomic.Uint64
	ingested atomic.Uint64
	evicted  atomic.Uint64
	// lastAt is the watermark: the highest trigger time admitted. Only
	// insert advances it and only restore sets it.
	lastAt atomic.Int64

	cl  *clusterer
	hub *Hub[Event]

	// Durability state; log == nil for in-memory and read-only stores.
	dir string
	log *wal.Log
	// gate serializes checkpoints (writers) against admissions
	// (readers) so a snapshot is a consistent cut at one seq.
	gate      sync.RWMutex
	snapMu    sync.Mutex
	closeOnce sync.Once
	closeErr  error
	aborted   atomic.Bool

	recovery    wal.RecoveryStats
	replayed    int
	walErrors   atomic.Uint64
	snapshots   atomic.Uint64
	lastSnapSeq atomic.Uint64

	// repl fans admitted WAL payloads out to attached followers.
	repl replState

	// Fencing epoch + writer-dedup + reshard ownership state (route.go).
	epoch    atomic.Uint64
	fencedBy atomic.Uint64
	epochMu  sync.Mutex
	// originMu guards originHigh (per-fabric writer idempotency
	// watermarks), movedOut (fabrics resharded away) and frozen
	// (fabrics sealed mid-cutover).
	originMu   sync.Mutex
	originHigh map[string]uint64
	movedOut   map[string]struct{}
	frozen     map[string]struct{}
	purged     atomic.Uint64
}

// New builds a store. cfg zero-values fall back to DefaultConfig.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	st := &Store{
		cfg:        cfg,
		shards:     make([]shard, n),
		mask:       uint64(n - 1),
		hub:        NewHub[Event](64),
		originHigh: make(map[string]uint64),
		movedOut:   make(map[string]struct{}),
		frozen:     make(map[string]struct{}),
	}
	st.cl = newClusterer(cfg.Window, cfg.ResolvedKeep, st.hub.Publish)
	// In-memory stores live and die in one process: epoch 1, never
	// persisted. Durable stores override this from disk in Open.
	st.epoch.Store(1)
	return st
}

// Open builds a durable store backed by dir: it loads the newest intact
// snapshot, replays WAL entries past it through insert (truncating a
// torn tail instead of failing), and leaves the log open for appends.
// Replay runs the admissions in WAL (sequence) order, so when the
// pre-crash store admitted one record at a time every sweep it ran runs
// again at the same point. Concurrent admissions share the gate: one
// may stamp its sequence before another yet observe or sweep after it,
// and replay can then group or resolve their incidents differently. A
// directory that has never held a store starts empty. The recovery
// contract: every record whose Add returned before the crash
// is present after Open, exactly once, and incident IDs never repeat
// across the restart.
func Open(dir string, cfg Config) (*Store, error) {
	st := New(cfg)
	cfg = st.cfg // defaults applied
	st.dir = dir

	if err := st.loadEpochState(); err != nil {
		return nil, err
	}

	snapSeq, payload, ok, err := wal.LoadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if ok {
		if err := st.restore(payload); err != nil {
			return nil, err
		}
		st.lastSnapSeq.Store(snapSeq)
	}
	walOpts := wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		ReadOnly:     cfg.ReadOnly,
	}
	log, stats, err := wal.Open(walDir(dir), walOpts, func(seq uint64, payload []byte) error {
		if seq <= snapSeq {
			return nil // the snapshot already owns this entry
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		rec.Seq = seq
		if seq > st.seq.Load() {
			st.seq.Store(seq)
		}
		st.insert(rec)
		st.ingested.Add(1)
		st.replayed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.recovery = stats
	if last := log.LastSeq(); last > st.seq.Load() {
		st.seq.Store(last)
	}
	if !cfg.ReadOnly {
		st.log = log
	}
	return st, nil
}

// Hub exposes the store's incident-event hub.
func (st *Store) Hub() *Hub[Event] { return st.hub }

// shardBucket spaces single-fabric storms across stripes: the shard is
// picked from the fabric hash XOR a coarse (~1 ms) time bucket, so one
// fabric's burst does not serialize on one lock while queries can still
// scan all stripes cheaply.
const shardBucketShift = 20

func (st *Store) shardFor(fabric string, at sim.Time) *shard {
	h := fnv.New64a()
	h.Write([]byte(fabric))
	idx := (h.Sum64() ^ (uint64(at) >> shardBucketShift)) & st.mask
	return &st.shards[idx]
}

// Add admits one record synchronously: stamps its sequence number,
// logs it to the WAL when the store is durable (group-committed — when
// Add returns, the record survives a crash), folds it into the incident
// clusters, publishes any resulting lifecycle events, and inserts it
// into its shard ring. Safe for concurrent use. Returns the stamped
// record. A WAL write failure degrades the store to in-memory for that
// record (counted in Counters.WALErrors) rather than shedding a
// diagnosis.
func (st *Store) Add(rec Record) Record {
	st.gate.RLock()
	rec, n := st.addLocked(rec)
	st.gate.RUnlock()
	st.maybeCheckpoint(n)
	return rec
}

// addLocked is Add's core, run under gate.RLock — shared with AddUnique
// so the dedup/freeze decision and the admission happen under one gate
// hold.
func (st *Store) addLocked(rec Record) (Record, uint64) {
	if err := st.logLocked(&rec); err != nil {
		st.walErrors.Add(1)
	}
	st.insert(rec)
	return rec, st.ingested.Add(1)
}

// logLocked stamps rec's sequence number and, on a durable store,
// appends it to the WAL and streams it to followers. Callers hold the
// admission gate. Followers mirror the primary's log: only what reached
// disk here is streamed, byte-identical, under the same gate that
// orders SyncReplica's cut.
func (st *Store) logLocked(rec *Record) error {
	rec.Seq = st.seq.Add(1)
	if st.log == nil {
		return nil
	}
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if err := st.log.Append(rec.Seq, payload); err != nil {
		return err
	}
	if st.repl.count.Load() != 0 {
		st.repl.publish(ReplEntry{Seq: rec.Seq, Payload: payload})
	}
	return nil
}

func (st *Store) maybeCheckpoint(n uint64) {
	if st.log != nil && n%uint64(st.cfg.SnapshotEvery) == 0 {
		st.Checkpoint()
	}
}

// insert is the admission step every door runs — Add, AddUnique, the
// reshard tombstones, WAL replay — so replay is exactly re-running the
// admissions. It folds a stamped record into cluster and ring state,
// advances the watermark, and sweeps incidents and observer panes when
// the watermark moved. A late record (one behind the watermark) joins
// or opens an incident like any other and is resolved by the next
// admission that moves the watermark, so related late records — a
// reshard copy, a lagging fabric — still cluster together. Control
// records (reshard purge/adopt tombstones) apply their state
// transition instead, which is what makes a purge durable and
// replicable with no extra machinery. Live callers hold the admission
// gate, so a checkpoint never cuts between an admission and its sweep;
// Open replays before any concurrency exists.
func (st *Store) insert(rec Record) {
	if rec.Ctrl != "" {
		st.applyCtrl(&rec)
		return
	}
	st.noteOrigin(&rec)
	if st.cfg.Observer != nil {
		st.cfg.Observer.ObserveRecord(&rec)
	}
	st.retain(entry{rec: rec, inc: st.cl.observe(rec)})
	if wm, moved := st.advance(rec.At); moved {
		st.cl.sweep(wm)
		if st.cfg.Observer != nil {
			st.cfg.Observer.AdvanceWatermark(wm)
		}
	}
}

// retain lands an entry in its shard ring, withdrawing the incident
// membership of the record it overwrites.
func (st *Store) retain(e entry) {
	if old, evicted := st.shardFor(e.rec.Fabric, e.rec.At).add(e, st.cfg.ShardCapacity); evicted {
		st.evicted.Add(1)
		st.cl.evict(old.inc, &old.rec)
	}
}

// advance raises the watermark to at, never backwards, and returns the
// watermark and whether this call moved it.
func (st *Store) advance(at sim.Time) (sim.Time, bool) {
	for {
		cur := st.lastAt.Load()
		if int64(at) <= cur {
			return sim.Time(cur), false
		}
		if st.lastAt.CompareAndSwap(cur, int64(at)) {
			return at, true
		}
	}
}

// Query filters records and incidents. Zero values mean "any":
// Fabric == "", Types == nil, Node < 0 (use AnyNode), To == 0.
type Query struct {
	Fabric string
	Types  []diagnosis.AnomalyType
	Node   topo.NodeID
	From   sim.Time
	To     sim.Time
	Limit  int
}

// AnyNode is the Node wildcard.
const AnyNode topo.NodeID = -1

func (q *Query) matches(rec *Record) bool {
	if q.Fabric != "" && rec.Fabric != q.Fabric {
		return false
	}
	if q.Node >= 0 && rec.Node != q.Node {
		return false
	}
	if rec.At < q.From || (q.To > 0 && rec.At > q.To) {
		return false
	}
	if len(q.Types) == 0 {
		return true
	}
	for _, t := range q.Types {
		if rec.Type == t {
			return true
		}
	}
	return false
}

// Records returns matching records ordered by trigger time (sequence
// number breaks ties), truncated to q.Limit when positive.
func (st *Store) Records(q Query) []Record {
	var out []Record
	for i := range st.shards {
		out = st.shards[i].snapshot(q, out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// Incidents returns the clustered incidents (open and retained
// resolved) matching q, ordered by first trigger time.
func (st *Store) Incidents(q Query) []Incident { return st.cl.incidents(q) }

// Counters is a snapshot of store activity.
type Counters struct {
	// Ingested counts records admitted to the store.
	Ingested uint64
	// Evicted counts retention-ring overwrites.
	Evicted uint64
	// Incidents counts every incident ever opened.
	Incidents uint64
	// OpenIncidents counts incidents not yet resolved.
	OpenIncidents int
	// EventsDropped counts subscription events lost to slow subscribers.
	EventsDropped uint64
	// WALErrors counts records that could not be made durable and were
	// kept in memory only.
	WALErrors uint64
	// Snapshots counts checkpoints written this session.
	Snapshots uint64
}

// CountersSnapshot returns the store's activity counters.
func (st *Store) CountersSnapshot() Counters {
	return Counters{
		Ingested:      st.ingested.Load(),
		Evicted:       st.evicted.Load(),
		Incidents:     st.cl.opened.Load(),
		OpenIncidents: st.cl.openCount(),
		EventsDropped: st.hub.Dropped(),
		WALErrors:     st.walErrors.Load(),
		Snapshots:     st.snapshots.Load(),
	}
}

// Durable reports whether the store writes a WAL.
func (st *Store) Durable() bool { return st.log != nil }

// Recovery reports what the last Open replayed and repaired; zero for
// in-memory stores.
func (st *Store) Recovery() wal.RecoveryStats { return st.recovery }

// ReplayedRecords counts WAL entries re-admitted by Open (beyond the
// snapshot).
func (st *Store) ReplayedRecords() int { return st.replayed }

// Checkpoint writes a snapshot of the full store state (a consistent
// cut: admissions pause for the serialization) and compacts WAL
// segments the snapshot covers. No-op for in-memory stores. Durable
// stores checkpoint automatically every Config.SnapshotEvery records;
// this is the manual handle (shutdown, operator request).
func (st *Store) Checkpoint() error {
	if st.log == nil {
		return nil
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	st.gate.Lock()
	seq := st.seq.Load()
	payload, err := st.exportState()
	if err == nil && st.repl.count.Load() != 0 {
		// Ship the checkpoint to followers too (under the gate, so it
		// slots into the stream exactly at its covered seq): a follower
		// that persists it can compact its own log, keeping promotion
		// replay bounded the same way the primary's is.
		st.repl.publish(ReplEntry{Seq: seq, Payload: payload, Snapshot: true})
	}
	st.gate.Unlock()
	if err != nil {
		return err
	}
	if err := wal.WriteSnapshot(st.dir, seq, payload); err != nil {
		return err
	}
	st.snapshots.Add(1)
	st.lastSnapSeq.Store(seq)
	_, err = st.log.Compact(seq)
	return err
}

// Close flushes a final checkpoint and closes the WAL. Idempotent; nil
// for in-memory stores. After an Abort, Close is a no-op — the crash
// already happened.
func (st *Store) Close() error {
	st.closeOnce.Do(func() {
		if st.log == nil || st.aborted.Load() {
			return
		}
		err := st.Checkpoint()
		if cerr := st.log.Close(); err == nil {
			err = cerr
		}
		st.closeErr = err
	})
	return st.closeErr
}

// Abort simulates a crash for harnesses: WAL file handles drop with no
// flush, no final checkpoint is written, and the store refuses further
// durability work. Acknowledged records are already on disk.
func (st *Store) Abort() {
	st.aborted.Store(true)
	if st.log != nil {
		st.log.Abort()
	}
}

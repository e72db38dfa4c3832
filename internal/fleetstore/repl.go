package fleetstore

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Replication: a durable store can stream its admission log to
// followers. The contract mirrors the WAL's own: every entry a
// follower receives is byte-identical to what the primary appended, so
// the follower's log replays through the same decoder, and promotion
// is nothing more than fleetstore.Open on the follower's directory.
//
// A tap is registered under the admission gate's write lock together
// with the catch-up cut (snapshot or WAL backlog), so no record can
// fall between catch-up and live stream and none is delivered twice.
// Taps are bounded and lossless-or-dead: a follower that cannot keep
// up is dropped (its Done channel closes) and must re-attach with its
// new durable watermark rather than silently miss entries.

// ReplEntry is one replication stream element: a WAL record payload,
// or — when Snapshot is set — a full store snapshot covering Seq, or —
// when Epoch is non-zero — a fencing-epoch announce the follower must
// mirror durably before acking anything past it.
type ReplEntry struct {
	Seq      uint64
	Payload  []byte
	Snapshot bool
	Epoch    uint64
}

type replTap struct {
	ch   chan ReplEntry
	quit chan struct{}
}

// replState is the Store's replication side, zero-valued until the
// first SyncReplica.
type replState struct {
	mu    sync.Mutex
	taps  map[*replTap]struct{}
	count atomic.Int32
	drops atomic.Uint64
	// onDetach, when set, runs after a tap leaves (dropped or detached),
	// outside mu and with count already lowered.
	onDetach func()
}

// publish fans one entry to every tap. Callers hold the admission gate
// (shared for records, exclusive for snapshots), which is what orders
// the stream. Sends never block: a full tap means a stalled follower,
// and stalling every admission for it would invert the design — the
// tap is dropped instead.
func (rs *replState) publish(e ReplEntry) {
	dropped := false
	rs.mu.Lock()
	for tp := range rs.taps {
		select {
		case tp.ch <- e:
		default:
			delete(rs.taps, tp)
			rs.count.Add(-1)
			rs.drops.Add(1)
			close(tp.quit)
			dropped = true
		}
	}
	hook := rs.onDetach
	rs.mu.Unlock()
	if dropped && hook != nil {
		hook()
	}
}

func (rs *replState) detach(tp *replTap) {
	rs.mu.Lock()
	_, ok := rs.taps[tp]
	if ok {
		delete(rs.taps, tp)
		rs.count.Add(-1)
		close(tp.quit)
	}
	hook := rs.onDetach
	rs.mu.Unlock()
	if ok && hook != nil {
		hook()
	}
}

func (rs *replState) attach(tp *replTap) {
	rs.mu.Lock()
	if rs.taps == nil {
		rs.taps = make(map[*replTap]struct{})
	}
	rs.taps[tp] = struct{}{}
	rs.count.Add(1)
	rs.mu.Unlock()
}

// ErrNotDurable reports replication attempted on an in-memory store.
var ErrNotDurable = errors.New("fleetstore: replication requires a durable store")

// ReplicaSync is an attached replication stream plus the catch-up a
// follower needs to reach the cut it was attached at: either Snapshot
// (covering SnapshotSeq) or Backlog (WAL entries after the follower's
// own watermark), never both non-trivially — the snapshot path is the
// fallback when compaction has moved the requested range out of the
// log.
type ReplicaSync struct {
	// Seq is the primary's admission sequence at the cut; every entry
	// at or below it is in Snapshot/Backlog, every one above arrives on
	// Live.
	Seq uint64
	// Snapshot, when non-nil, is a full store snapshot covering
	// SnapshotSeq (the same payload wal.WriteSnapshot persists).
	SnapshotSeq uint64
	Snapshot    []byte
	// Backlog is the WAL delta after the follower's watermark, in seq
	// order, when the log could serve it contiguously.
	Backlog []ReplEntry
	// Live streams admissions after Seq, plus periodic snapshots from
	// checkpoints. Closed never; watch Done for the tap's death.
	Live <-chan ReplEntry
	// Done closes when the tap is dropped (slow follower) or detached.
	Done <-chan struct{}

	st  *Store
	tap *replTap
}

// Close detaches the stream.
func (r *ReplicaSync) Close() {
	if r.st != nil {
		r.st.repl.detach(r.tap)
	}
}

// SyncReplica attaches a replication stream for a follower whose own
// log reaches fromSeq (0 for an empty follower). The tap registration
// and the catch-up cut happen under the admission gate's write lock —
// the same consistent-cut discipline Checkpoint uses — so the returned
// catch-up plus the live stream is exactly the admission sequence with
// nothing lost and nothing duplicated. buffer bounds the live channel
// (<=0 means 1024).
func (st *Store) SyncReplica(fromSeq uint64, buffer int) (*ReplicaSync, error) {
	if st.log == nil {
		return nil, ErrNotDurable
	}
	if buffer <= 0 {
		buffer = 1024
	}
	st.gate.Lock()
	defer st.gate.Unlock()
	seq := st.seq.Load()
	r := &ReplicaSync{Seq: seq, st: st}
	if fromSeq < seq {
		if first := st.log.FirstSeq(); first != 0 && first <= fromSeq+1 {
			_, err := st.log.IterateFrom(fromSeq, func(s uint64, p []byte) error {
				cp := make([]byte, len(p))
				copy(cp, p)
				r.Backlog = append(r.Backlog, ReplEntry{Seq: s, Payload: cp})
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			// The range starts before the log's first retained entry:
			// compaction owns that history now, so ship state instead.
			payload, err := st.exportState()
			if err != nil {
				return nil, err
			}
			r.Snapshot = payload
			r.SnapshotSeq = seq
		}
	}
	tp := &replTap{ch: make(chan ReplEntry, buffer), quit: make(chan struct{})}
	st.repl.attach(tp)
	r.Live = tp.ch
	r.Done = tp.quit
	r.tap = tp
	return r, nil
}

// Replicas counts attached replication streams.
func (st *Store) Replicas() int { return int(st.repl.count.Load()) }

// OnReplicaDetach registers fn to run whenever a replication stream
// leaves — closed by its owner or dropped for falling behind — after
// Replicas reflects it. It is how a semi-sync waiter learns its
// follower is gone instead of polling Replicas. One hook; fn must not
// block.
func (st *Store) OnReplicaDetach(fn func()) {
	st.repl.mu.Lock()
	st.repl.onDetach = fn
	st.repl.mu.Unlock()
}

// ReplDrops counts taps dropped for falling behind.
func (st *Store) ReplDrops() uint64 { return st.repl.drops.Load() }

// Seq returns the store's current admission sequence.
func (st *Store) Seq() uint64 { return st.seq.Load() }

// LastSnapshotSeq returns the sequence covered by the newest snapshot
// this store has written or loaded (0 when none).
func (st *Store) LastSnapshotSeq() uint64 { return st.lastSnapSeq.Load() }

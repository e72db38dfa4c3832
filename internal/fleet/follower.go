package fleet

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/fleetstore/wal"
	"hawkeye/internal/fleetstore/watermark"
	"hawkeye/internal/wire"
)

// A Follower is a shard's warm standby: it holds a replication session
// against the primary analyzer and mirrors every admitted record into
// its own write-ahead log — the byte-identical payloads the primary
// logged, under the primary's sequence numbers — plus every shipped
// snapshot. Its directory is laid out exactly like a durable fleet
// store's, so promotion is nothing new: stop the stream and
// fleetstore.Open the directory, replaying through the same snapshot +
// WAL recovery path every crash-restart test already proves.
//
// The stream is admission-validated (wire.ReplValidator): a frame with
// a replayed sequence number, an unparseable record or out-of-bounds
// fields tears the session, and the follower re-syncs from its own
// durable watermark. Records can arrive slightly out of sequence order
// — the primary's concurrent admissions publish in completion order —
// so the follower keeps a bounded reorder window and only acknowledges
// the highest CONTIGUOUS durable sequence. That contiguity is what
// makes the ack a real barrier: when AckedSeq reports s, every record
// the primary admitted at or below s survives this follower's crash
// and the primary's.

// FollowerConfig shapes a follower. Addr and Dir are required.
type FollowerConfig struct {
	// Addr is the primary analyzer's address.
	Addr string
	// Dir is the follower's durable directory (fleet-store layout:
	// snapshots at the root, WAL segments under wal/).
	Dir string
	// Reorder bounds the out-of-order admission window (0 = 256). More
	// than this many durable records waiting on a sequence gap tears
	// the session; the re-sync either fills the gap or ships a snapshot
	// past it.
	Reorder int
	// AckEvery sends the durable watermark upstream after this many
	// admitted records (0 = 1: every advance). Snapshots always ack.
	AckEvery int
	// ReconnectDelay paces redials after a torn session (0 = 50ms),
	// doubling up to MaxReconnectDelay (0 = 1s).
	ReconnectDelay    time.Duration
	MaxReconnectDelay time.Duration
	// DialTimeout bounds each dial (0 = 2s).
	DialTimeout time.Duration
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.Reorder <= 0 {
		c.Reorder = 256
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 1
	}
	if c.ReconnectDelay <= 0 {
		c.ReconnectDelay = 50 * time.Millisecond
	}
	if c.MaxReconnectDelay <= 0 {
		c.MaxReconnectDelay = time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	return c
}

// Follower is a running replication sink. Safe for concurrent use of
// the accessors; Stop and Promote serialize themselves.
type Follower struct {
	cfg FollowerConfig
	log *wal.Log

	// mu guards conn and pending against Stop and the accessors.
	mu      sync.Mutex
	conn    net.Conn
	pending map[uint64]bool // durable seqs above the contiguous watermark
	stopped bool

	// acked and epoch are what callers wait on; Stop wakes both so no
	// waiter outlives the stream that could have advanced them.
	acked watermark.Watermark // highest contiguous durable seq
	epoch watermark.Watermark // primary's fencing epoch, mirrored durably

	snapSeq atomic.Uint64 // newest shipped snapshot
	records atomic.Uint64 // records admitted (not skipped duplicates)
	snaps   atomic.Uint64 // snapshots shipped
	resyncs atomic.Uint64 // sessions torn and re-established
	rejects atomic.Uint64 // frames the validator refused

	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
}

// StartFollower opens (or reopens) the follower's durable directory,
// rebuilds its watermark from what is already on disk, and starts the
// replication loop: dial the primary, stream, and on any failure back
// off and re-sync from the durable watermark until Stop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" || cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: follower needs Addr and Dir")
	}
	snapSeq, _, ok, err := wal.LoadSnapshot(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: follower snapshot: %w", err)
	}
	if !ok {
		snapSeq = 0
	}
	// Collect the durable sequence set to rebuild the contiguous
	// watermark; payloads are not needed, the WAL is the state.
	seen := make(map[uint64]bool)
	// Append's return doubling as the durability barrier is what the ack
	// watermark is built on; the single stream goroutine is always a lone
	// appender, so each record costs exactly one inline fsync.
	log, _, err := wal.Open(filepath.Join(cfg.Dir, "wal"), wal.Options{},
		func(seq uint64, payload []byte) error {
			if seq > snapSeq {
				seen[seq] = true
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("fleet: follower wal: %w", err)
	}
	f := &Follower{
		cfg:     cfg,
		log:     log,
		pending: make(map[uint64]bool),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// The mirrored fencing epoch survives restarts with the WAL: a
	// promotion from this directory must exceed the primary's epoch even
	// if the follower process bounced in between.
	epoch, err := wal.LoadEpoch(cfg.Dir)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("fleet: follower epoch: %w", err)
	}
	f.epoch.Advance(epoch)
	w := snapSeq
	for seen[w+1] {
		w++
		delete(seen, w)
	}
	for seq := range seen {
		f.pending[seq] = true
	}
	f.acked.Advance(w)
	f.snapSeq.Store(snapSeq)
	go f.run()
	return f, nil
}

// AckedSeq is the highest contiguous durable sequence — the semi-sync
// barrier: every admission at or below it survives primary loss.
func (f *Follower) AckedSeq() uint64 { return f.acked.Load() }

// SnapshotSeq is the newest shipped snapshot's covered sequence.
func (f *Follower) SnapshotSeq() uint64 { return f.snapSeq.Load() }

// Epoch is the primary's fencing epoch as durably mirrored here; a
// promotion from this directory bumps strictly past it.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// Records counts admissions mirrored into the local WAL this session.
func (f *Follower) Records() uint64 { return f.records.Load() }

// Snapshots counts snapshots shipped and persisted.
func (f *Follower) Snapshots() uint64 { return f.snaps.Load() }

// Resyncs counts torn-and-reestablished replication sessions.
func (f *Follower) Resyncs() uint64 { return f.resyncs.Load() }

// Rejects counts frames the replication validator refused.
func (f *Follower) Rejects() uint64 { return f.rejects.Load() }

// Connected reports whether a replication session is currently
// established — the signal an auto-promotion watchdog keys off.
func (f *Follower) Connected() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.conn != nil
}

// Pending is the reorder window's current depth.
func (f *Follower) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// WaitForSeq blocks until the durable watermark reaches seq or the
// timeout passes — the acknowledgement barrier a semi-sync writer (or
// a test) waits on. A stopped follower's watermark can no longer move,
// so Stop ends the wait at once with an error that says so.
func (f *Follower) WaitForSeq(seq uint64, timeout time.Duration) error {
	return f.wait(&f.acked, "watermark", seq, timeout)
}

// waitEpoch is WaitForSeq for the mirrored fencing epoch: it blocks
// until the follower has durably mirrored epoch — the precondition for
// a promotion bump from this directory to supersede the primary.
func (f *Follower) waitEpoch(epoch uint64, timeout time.Duration) error {
	return f.wait(&f.epoch, "mirrored epoch", epoch, timeout)
}

func (f *Follower) wait(w *watermark.Watermark, what string, target uint64, timeout time.Duration) error {
	if w.Wait(target, time.Now().Add(timeout), f.quitting) {
		return nil
	}
	if f.quitting() {
		return fmt.Errorf("fleet: follower stopped with %s %d short of %d", what, w.Load(), target)
	}
	return fmt.Errorf("fleet: follower %s %d short of %d after %s", what, w.Load(), target, timeout)
}

// quitting reports whether Stop has been called.
func (f *Follower) quitting() bool {
	select {
	case <-f.quit:
		return true
	default:
		return false
	}
}

// Stop tears the replication session and closes the local WAL. The
// directory is left ready for Promote (or a later StartFollower).
// Idempotent.
func (f *Follower) Stop() error {
	f.quitOnce.Do(func() { close(f.quit) })
	f.acked.Wake()
	f.epoch.Wake()
	f.mu.Lock()
	f.stopped = true
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	<-f.done
	return f.log.Close()
}

// Promote stops replication and opens the mirrored directory as a
// full fleet store — the failover moment. The returned store holds
// every acknowledged admission; the caller serves it as the shard's
// new primary (typically via analyzd.ListenOpts with DataDir set to
// the follower's directory).
func (f *Follower) Promote(cfg fleetstore.Config) (*fleetstore.Store, error) {
	if err := f.Stop(); err != nil {
		return nil, fmt.Errorf("fleet: promote: close wal: %w", err)
	}
	// Fencing: the promoted store's epoch strictly exceeds the mirrored
	// primary's, so the old primary demotes itself on first contact.
	cfg.BumpEpoch = true
	return fleetstore.Open(f.cfg.Dir, cfg)
}

// run is the supervision loop: stream until torn, back off, re-sync.
func (f *Follower) run() {
	defer close(f.done)
	// The fleet's one backoff schedule, unjittered: a shard has a single
	// follower, so there is no herd to spread.
	backoff := analyzd.RetryConfig{BaseBackoff: f.cfg.ReconnectDelay, MaxBackoff: f.cfg.MaxReconnectDelay}
	for attempt := 0; ; attempt++ {
		if f.quitting() {
			return
		}
		err := f.stream()
		if err == nil {
			return // Stop
		}
		f.resyncs.Add(1)
		select {
		case <-f.quit:
			return
		case <-time.After(backoff.Delay(nil, attempt)):
		}
	}
}

// errFollowerStopped distinguishes Stop-induced teardown inside stream.
var errFollowerStopped = errors.New("fleet: follower stopped")

// stream runs one replication session: operator handshake, a
// MsgReplicate from the durable watermark, then the validated frame
// loop. Returns nil only when Stop ended the session.
func (f *Follower) stream() error {
	conn, err := net.DialTimeout("tcp", f.cfg.Addr, f.cfg.DialTimeout)
	if err != nil {
		return err
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		conn.Close()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		conn.Close()
		f.mu.Lock()
		if f.conn == conn {
			f.conn = nil
		}
		f.mu.Unlock()
	}()

	fail := func(err error) error {
		if f.quitting() {
			return nil
		}
		return err
	}

	if err := wire.WriteJSON(conn, wire.MsgHello, wire.Hello{Version: wire.ProtocolVersion}); err != nil {
		return fail(err)
	}
	mt, payload, err := wire.ReadFrame(conn)
	if err != nil {
		return fail(err)
	}
	if mt != wire.MsgHelloOK {
		return fail(fmt.Errorf("fleet: handshake reply type %d: %s", mt, payload))
	}

	from := f.acked.Load()
	// The request carries our mirrored epoch: a primary that sees a
	// higher epoch than its own learns it was superseded and demotes
	// itself instead of serving a stale stream.
	if err := wire.WriteJSON(conn, wire.MsgReplicate, wire.ReplicateRequest{FromSeq: from, Epoch: f.epoch.Load()}); err != nil {
		return fail(err)
	}
	v := wire.NewReplValidator(from)
	sinceAck := 0
	for {
		mt, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return fail(err)
		}
		switch {
		case mt == wire.MsgReplRecord:
			seq, body, err := v.CheckRecord(payload)
			if err != nil {
				f.rejects.Add(1)
				return fail(fmt.Errorf("fleet: replication record refused: %w", err))
			}
			advanced, err := f.admit(seq, body)
			if err != nil {
				return fail(err)
			}
			v.Commit(f.acked.Load())
			if advanced {
				if sinceAck++; sinceAck >= f.cfg.AckEvery {
					sinceAck = 0
					if err := wire.WriteJSON(conn, wire.MsgReplAck, wire.ReplAck{Seq: f.acked.Load(), Epoch: f.epoch.Load()}); err != nil {
						return fail(err)
					}
				}
			}
		case mt == wire.MsgReplSnapshot:
			seq, body, err := wire.DecodeReplSnapshot(payload)
			if err != nil {
				f.rejects.Add(1)
				return fail(fmt.Errorf("fleet: replication snapshot refused: %w", err))
			}
			if err := f.admitSnapshot(seq, body); err != nil {
				return fail(err)
			}
			v.Commit(f.acked.Load())
			sinceAck = 0
			if err := wire.WriteJSON(conn, wire.MsgReplAck, wire.ReplAck{Seq: f.acked.Load(), Epoch: f.epoch.Load()}); err != nil {
				return fail(err)
			}
		case mt == wire.MsgEpoch:
			// The primary's epoch announce (stream start, promotion or
			// cutover bump): mirror it durably before acking anything past
			// it, so Promote from this directory always supersedes it.
			ea, err := wire.ParseEpochAnnounce(payload)
			if err != nil {
				f.rejects.Add(1)
				return fail(fmt.Errorf("fleet: epoch announce refused: %w", err))
			}
			if ea.Epoch > f.epoch.Load() {
				if err := wal.WriteEpoch(f.cfg.Dir, ea.Epoch); err != nil {
					return fail(fmt.Errorf("fleet: mirror epoch: %w", err))
				}
				f.epoch.Advance(ea.Epoch)
			}
			if err := wire.WriteJSON(conn, wire.MsgReplAck, wire.ReplAck{Seq: f.acked.Load(), Epoch: f.epoch.Load()}); err != nil {
				return fail(err)
			}
		case mt == wire.MsgFence:
			// The primary refused us as fenced (it observed a higher epoch
			// than it holds — typically because our own mirrored epoch
			// outranks it). Tear and retry; the operator repoints us at the
			// real primary.
			return fail(fmt.Errorf("fleet: primary fenced: %s", payload))
		case mt == wire.MsgShutdown:
			// The primary is draining; re-sync against whoever answers
			// at this address next (a restart, or a promoted peer the
			// operator repointed us at).
			return fail(fmt.Errorf("fleet: primary draining"))
		case mt == wire.MsgError:
			return fail(fmt.Errorf("fleet: primary refused replication: %s", payload))
		case !wire.Known(mt):
			continue // forward compatibility: skip frames a newer primary adds
		default:
			return fail(fmt.Errorf("fleet: unexpected frame type %d on replication stream", mt))
		}
	}
}

// admit makes one record durable and advances the contiguous
// watermark. Duplicates (a re-sync overlaps the reorder window) are
// skipped without re-appending. Reports whether the watermark moved.
func (f *Follower) admit(seq uint64, payload []byte) (bool, error) {
	f.mu.Lock()
	if seq <= f.acked.Load() || f.pending[seq] {
		f.mu.Unlock()
		return false, nil // already durable here
	}
	f.mu.Unlock()

	// Append outside mu: the WAL serializes itself, and Stop must not
	// wait behind an fsync.
	if err := f.log.Append(seq, payload); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return false, errFollowerStopped
		}
		return false, fmt.Errorf("fleet: follower append: %w", err)
	}
	f.records.Add(1)

	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending[seq] = true
	w := f.acked.Load()
	advanced := false
	for f.pending[w+1] {
		w++
		delete(f.pending, w)
		advanced = true
	}
	f.acked.Advance(w)
	if len(f.pending) > f.cfg.Reorder {
		// A gap stalled the window past its bound — likely a record the
		// primary admitted but never durably logged (WAL error). Tear
		// and re-sync: the primary answers from its WAL (the gap is
		// absent there too, so the stream is contiguous again) or ships
		// a snapshot past it.
		return advanced, fmt.Errorf("fleet: reorder window overflow at %d pending (watermark %d)",
			len(f.pending), w)
	}
	return advanced, nil
}

// admitSnapshot persists a shipped snapshot and jumps the watermark to
// its covered sequence: a snapshot at seq subsumes every admission at
// or below it.
func (f *Follower) admitSnapshot(seq uint64, payload []byte) error {
	if seq < f.acked.Load() {
		return nil // older than what the WAL already covers
	}
	if err := wal.WriteSnapshot(f.cfg.Dir, seq, payload); err != nil {
		return fmt.Errorf("fleet: follower snapshot: %w", err)
	}
	f.snaps.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if seq > f.snapSeq.Load() {
		f.snapSeq.Store(seq)
	}
	f.acked.Advance(seq)
	for s := range f.pending {
		if s <= seq {
			delete(f.pending, s)
		}
	}
	// The watermark may now continue through records that arrived ahead
	// of the snapshot.
	w := f.acked.Load()
	for f.pending[w+1] {
		w++
		delete(f.pending, w)
	}
	f.acked.Advance(w)
	return nil
}

package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/sim"
	"hawkeye/internal/wire"
)

// Writer is the fleet tier's resilient ingest router: it assigns every
// record a per-fabric idempotency sequence, routes it to the fabric's
// ring owner, and survives the fleet's failure modes by construction —
//
//   - transport failure: redial with capped backoff + jitter and
//     resend. The resend carries the same idempotency sequence, so the
//     receiving store admits it exactly once even when the first
//     attempt's ack was the thing that got lost.
//   - failover: a promoted follower answers at a new address (Update
//     repoints the shard); a revived stale primary refuses with a
//     typed fencing error and the writer re-routes instead of
//     retrying into a dead shard's ghost.
//   - reshard: an in-flight plan (SetReshard) overrides routing per
//     fabric — frozen fabrics hold, migrated fabrics go to the new
//     owner, a moved-fabric refusal from the old owner re-resolves.
//
// Write is synchronous: when it returns nil the record is acked by the
// current owner under the shard's durability contract (semi-sync when
// the shard runs with a follower). One Writer per ingest pipeline;
// Write serializes per Writer.
type WriterConfig struct {
	// Specs is the shard set (names must match the ring's).
	Specs []ShardSpec
	// Seed shapes the routing ring (of DefaultVnodes per shard); it
	// must match the cluster's.
	Seed uint64
	// Retry shapes dial/redial backoff (zero = analyzd defaults).
	Retry analyzd.RetryConfig
	// MaxAttempts bounds one Write's routing attempts, re-resolution
	// included (0 = 16).
	MaxAttempts int
	// FreezeWait bounds the hold on a frozen (mid-cutover) fabric per
	// attempt (0 = 2s).
	FreezeWait time.Duration
}

// Writer routes fabric ingest to ring owners. See WriterConfig.
type Writer struct {
	cfg  WriterConfig
	pool *shardPool
	rng  *sim.Rand

	mu      sync.Mutex
	ring    *Ring
	nextSeq map[string]uint64 // per-fabric idempotency sequence
	reshard *ReshardState

	// Writes counts acked records; Duplicates acks that hit the dedup
	// watermark (a resend whose first attempt landed); Reroutes
	// fencing/moved refusals that forced re-resolution; Redials
	// reconnects — dials to a shard after its first session was lost.
	Writes     atomic.Uint64
	Duplicates atomic.Uint64
	Reroutes   atomic.Uint64
	Redials    atomic.Uint64
}

// NewWriter builds a writer over the shard set.
func NewWriter(cfg WriterConfig) (*Writer, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 16
	}
	if cfg.FreezeWait <= 0 {
		cfg.FreezeWait = 2 * time.Second
	}
	if cfg.Retry.MaxAttempts == 0 && cfg.Retry.BaseBackoff == 0 {
		cfg.Retry = analyzd.DefaultRetryConfig()
	}
	w := &Writer{
		cfg:     cfg,
		rng:     sim.NewRand(cfg.Seed ^ 0x57121E57121E5712),
		nextSeq: make(map[string]uint64),
	}
	var err error
	if w.pool, err = newShardPool("writer", cfg.Specs, cfg.Retry, &w.Redials); err != nil {
		return nil, err
	}
	if w.ring, err = NewRing(w.pool.names(), DefaultVnodes, cfg.Seed); err != nil {
		return nil, err
	}
	return w, nil
}

// Update repoints one shard at a new primary address (failover) and
// drops any cached session to the old one.
func (w *Writer) Update(spec ShardSpec) error { return w.pool.update(spec) }

// SetReshard points routing at an in-flight reshard plan; Write
// consults it per fabric until FinishReshard.
func (w *Writer) SetReshard(rs *ReshardState) {
	w.mu.Lock()
	w.reshard = rs
	w.mu.Unlock()
}

// FinishReshard adopts the migrated ring and clears the plan.
func (w *Writer) FinishReshard() {
	w.mu.Lock()
	if w.reshard != nil {
		w.ring = w.reshard.NextRing()
		w.reshard = nil
	}
	w.mu.Unlock()
}

// Close drops every cached shard session.
func (w *Writer) Close() { w.pool.close() }

// owner resolves the fabric's current shard, honoring an in-flight
// reshard.
func (w *Writer) owner(fabric string) (string, *ReshardState) {
	w.mu.Lock()
	rs := w.reshard
	ring := w.ring
	w.mu.Unlock()
	if rs != nil {
		return rs.Owner(fabric), rs
	}
	return ring.Owner(fabric), nil
}

// NextOriginSeq reserves the fabric's next idempotency sequence. Write
// calls it itself; harnesses that need to know a record's sequence
// before writing can reserve and use WriteSeq.
func (w *Writer) NextOriginSeq(fabric string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nextSeq[fabric]++
	return w.nextSeq[fabric]
}

// Write routes one record to its fabric's owner and blocks until acked
// (or attempts exhaust). The returned ack reports the owner's epoch
// and whether dedup classified the record as a resend duplicate.
func (w *Writer) Write(fabric string, rec fleetstore.Record) (*wire.WriteAck, error) {
	return w.WriteSeq(fabric, w.NextOriginSeq(fabric), rec)
}

// WriteSeq is Write with an explicit idempotency sequence (reserved
// via NextOriginSeq). Re-invoking with the same sequence is safe: the
// receiving store admits it at most once.
func (w *Writer) WriteSeq(fabric string, originSeq uint64, rec fleetstore.Record) (*wire.WriteAck, error) {
	rec.Fabric = fabric
	rec.OriginSeq = originSeq
	rec.Ctrl = ""
	body, err := json.Marshal(&rec)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode record: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt < w.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(w.cfg.Retry.Delay(w.rng, attempt-1))
		}
		shard, rs := w.owner(fabric)
		if rs != nil && rs.Frozen(fabric) {
			// Mid-cutover hold: when the fabric thaws, ownership may have
			// changed — resolve again.
			if !rs.WaitThaw(fabric, w.cfg.FreezeWait) {
				lastErr = fmt.Errorf("fleet: fabric %q frozen past %s", fabric, w.cfg.FreezeWait)
				continue
			}
			shard, _ = w.owner(fabric)
		}
		var ack *wire.WriteAck
		err := w.pool.do(shard, func(c *analyzd.Client) (err error) {
			ack, err = c.WriteRecord(wire.WriteRequest{
				Fabric:    fabric,
				OriginSeq: originSeq,
				Epoch:     w.pool.epochOf(shard),
				Record:    body,
			})
			return err
		})
		if err == nil {
			w.pool.noteEpoch(shard, ack.Epoch)
			w.Writes.Add(1)
			if ack.Duplicate {
				w.Duplicates.Add(1)
			}
			return ack, nil
		}
		lastErr = err
		var fe *analyzd.FenceError
		if errors.As(err, &fe) {
			// Typed refusal: the shard is superseded (a promotion we have
			// not heard about yet) or no longer owns the fabric (reshard).
			// The session is already dropped; re-resolve — Update/SetReshard
			// from the control plane lands between attempts.
			w.Reroutes.Add(1)
			w.pool.noteEpoch(shard, max(fe.Info.Epoch, fe.Info.Observed))
		}
	}
	return nil, fmt.Errorf("fleet: write %s/%d: %w", fabric, originSeq, lastErr)
}

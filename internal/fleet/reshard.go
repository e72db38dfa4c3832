package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/fleetstore/watermark"
	"hawkeye/internal/wire"
)

// Online reshard: execute a Plan(old, next) against live shards with
// no acked-record loss and no ingest outage beyond a per-fabric
// freeze. The executor runs each move through a small state machine —
//
//	pending → frozen → (copy, release, adopt) → done
//
// — and the ReshardState it mutates is shared with every Writer and
// Frontdoor, so routing follows the migration fabric by fabric: writes
// to a frozen fabric wait, writes and queries to a done fabric go to
// the new owner, and everything else keeps flowing to the old one.

// Move phases. A fabric not in the plan is implicitly done (its owner
// never changes).
const (
	movePending int32 = iota
	moveFrozen
	moveDone
)

// ReshardState is the shared, concurrently-read view of an in-flight
// reshard. Build it from the plan, hand it to the writers and front
// doors (SetReshard), run ExecuteReshard, then swap rings
// (FinishReshard).
type ReshardState struct {
	old  *Ring
	next *Ring

	mu    sync.RWMutex
	phase map[string]int32 // by fabric, for planned moves only
	moves []Move
	// changes counts phase transitions; a held writer blocks on the next
	// one instead of re-reading phase on a clock.
	changes watermark.Watermark
}

// NewReshardState captures a plan against the ring pair it came from.
func NewReshardState(old, next *Ring, moves []Move) *ReshardState {
	rs := &ReshardState{
		old:   old,
		next:  next,
		phase: make(map[string]int32, len(moves)),
		moves: append([]Move(nil), moves...),
	}
	for _, m := range moves {
		rs.phase[m.Fabric] = movePending
	}
	return rs
}

// Moves returns the plan.
func (rs *ReshardState) Moves() []Move { return append([]Move(nil), rs.moves...) }

// NextRing returns the ring the reshard is migrating toward.
func (rs *ReshardState) NextRing() *Ring { return rs.next }

// Owner resolves a fabric mid-migration: the old owner until the
// fabric's cutover completes, the new owner after.
func (rs *ReshardState) Owner(fabric string) string {
	rs.mu.RLock()
	phase, planned := rs.phase[fabric]
	rs.mu.RUnlock()
	if planned && phase == moveDone {
		return rs.next.Owner(fabric)
	}
	return rs.old.Owner(fabric)
}

// Frozen reports whether the fabric is mid-cutover: writers must hold
// their write until it thaws (done).
func (rs *ReshardState) Frozen(fabric string) bool {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.phase[fabric] == moveFrozen
}

// Done reports whether every planned move has completed.
func (rs *ReshardState) Done() bool {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	for _, p := range rs.phase {
		if p != moveDone {
			return false
		}
	}
	return true
}

func (rs *ReshardState) setPhase(fabric string, p int32) {
	rs.mu.Lock()
	rs.phase[fabric] = p
	rs.changes.Advance(rs.changes.Load() + 1)
	rs.mu.Unlock()
}

// MoveReport is one fabric's migration outcome.
type MoveReport struct {
	Move Move
	// Copied counts records shipped to the new owner; Duplicates the
	// copies the new owner's dedup refused (an executor retry overlapped
	// an earlier successful copy); Purged the records the old owner
	// dropped at release.
	Copied     int
	Duplicates int
	Purged     int
	// FromEpoch/ToEpoch are the shards' epochs after their cutover
	// bumps.
	FromEpoch uint64
	ToEpoch   uint64
}

// ReshardReport is the executor's summary.
type ReshardReport struct {
	Moves []MoveReport
}

// Executor runs reshard plans against live shards over the analyzer
// protocol.
type Executor struct {
	pool *shardPool
}

// NewExecutor builds an executor over the cluster's current primary
// addresses.
func NewExecutor(specs []ShardSpec, retry analyzd.RetryConfig) (*Executor, error) {
	pool, err := newShardPool("executor", specs, retry, nil)
	if err != nil {
		return nil, err
	}
	return &Executor{pool: pool}, nil
}

// Update repoints one shard at a new primary (mid-reshard failover).
// A shard the executor was not built over is ignored: no move can
// name it.
func (ex *Executor) Update(spec ShardSpec) { _ = ex.pool.update(spec) }

// Close drops every cached shard session.
func (ex *Executor) Close() { ex.pool.close() }

// Execute runs every move in the plan, mutating rs as it goes. Moves
// run sequentially — a reshard is a maintenance operation; bounding it
// to one frozen fabric at a time keeps the ingest impact local. On
// error the current fabric is left frozen (writes hold rather than
// land on the wrong owner) and the error reports which move died.
func (ex *Executor) Execute(rs *ReshardState) (*ReshardReport, error) {
	report := &ReshardReport{}
	for _, m := range rs.Moves() {
		mr, err := ex.executeMove(rs, m)
		if err != nil {
			return report, fmt.Errorf("fleet: reshard %s (%s -> %s): %w", m.Fabric, m.From, m.To, err)
		}
		report.Moves = append(report.Moves, *mr)
	}
	return report, nil
}

// executeMove is one fabric's drain → copy → cutover:
//
//  1. freeze: writers hold new writes for the fabric, so the record
//     set at the old owner is final.
//  2. copy: dump the fabric from the old owner and replay it into the
//     new one as writer-routed records — idempotency sequences ride
//     along, so a retried copy dedups instead of duplicating.
//  3. release: the old owner purges the fabric behind a durable
//     tombstone and bumps its epoch.
//  4. adopt: the new owner activates the fabric (tombstone + rollup
//     rebuild) and bumps its epoch.
//  5. done: writers and front doors route the fabric to the new owner
//     and thaw.
func (ex *Executor) executeMove(rs *ReshardState, m Move) (*MoveReport, error) {
	mr := &MoveReport{Move: m}
	rs.setPhase(m.Fabric, moveFrozen)

	from, err := ex.pool.client(m.From)
	if err != nil {
		return mr, fmt.Errorf("dial old owner: %w", err)
	}
	// Seal the fabric at the old owner before dumping: client-side
	// freeze (rs) only stops writers that have this plan; the server-
	// side seal is the barrier that makes the dump final against writes
	// already in flight.
	if _, err := from.Cutover(m.Fabric, wire.CutoverFreeze); err != nil {
		ex.pool.drop(m.From)
		return mr, fmt.Errorf("freeze: %w", err)
	}
	dump, err := from.QueryRecords(m.Fabric, 0)
	if err != nil {
		ex.pool.drop(m.From)
		return mr, fmt.Errorf("dump: %w", err)
	}

	// Decode for the idempotency sequence, then ship in OriginSeq order:
	// the receiving watermark admits only ascending sequences, so an
	// out-of-order copy would be refused as a duplicate. Records that
	// were never writer-routed (OriginSeq 0) have no dedup key and ship
	// first, as plain admissions.
	type copyRec struct {
		raw       json.RawMessage
		originSeq uint64
	}
	recs := make([]copyRec, 0, len(dump))
	for _, raw := range dump {
		var rec fleetstore.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return mr, fmt.Errorf("decode dumped record: %w", err)
		}
		recs = append(recs, copyRec{raw: raw, originSeq: rec.OriginSeq})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].originSeq < recs[j].originSeq })

	to, err := ex.pool.client(m.To)
	if err != nil {
		return mr, fmt.Errorf("dial new owner: %w", err)
	}
	for _, cr := range recs {
		ack, err := to.WriteRecord(wire.WriteRequest{
			Fabric:    m.Fabric,
			OriginSeq: cr.originSeq,
			Record:    cr.raw,
		})
		if err != nil {
			ex.pool.drop(m.To)
			return mr, fmt.Errorf("copy: %w", err)
		}
		if ack.Duplicate {
			mr.Duplicates++
		} else {
			mr.Copied++
		}
	}

	rel, err := from.Cutover(m.Fabric, wire.CutoverRelease)
	if err != nil {
		ex.pool.drop(m.From)
		return mr, fmt.Errorf("release: %w", err)
	}
	mr.Purged = rel.Purged
	mr.FromEpoch = rel.Epoch

	adopt, err := to.Cutover(m.Fabric, wire.CutoverAdopt)
	if err != nil {
		ex.pool.drop(m.To)
		return mr, fmt.Errorf("adopt: %w", err)
	}
	mr.ToEpoch = adopt.Epoch

	rs.setPhase(m.Fabric, moveDone)
	return mr, nil
}

// WaitThaw blocks until the fabric is no longer frozen or the timeout
// passes — the hold a writer applies mid-cutover.
func (rs *ReshardState) WaitThaw(fabric string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		seen := rs.changes.Load()
		if !rs.Frozen(fabric) {
			return true
		}
		if !rs.changes.Wait(seen+1, deadline, nil) {
			return false
		}
	}
}

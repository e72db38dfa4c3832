package fleetstore

import (
	"fmt"

	"hawkeye/internal/fleetstore/wal"
	"hawkeye/internal/sim"
)

// This file is the store's side of fleet routing: the fencing epoch a
// shard carries across promotions and reshard cutovers, the per-fabric
// writer-idempotency watermark that makes routed resends safe, and the
// purge/adopt control records that move a fabric between shards
// durably. Everything here rides the existing WAL and snapshot paths —
// an epoch is a small CRC'd side file, a purge is a tombstone record
// that replays through insert like any admission, so followers and
// crash recovery inherit reshard state for free.

// Control record kinds (Record.Ctrl).
const (
	ctrlPurge = "purge"
	ctrlAdopt = "adopt"
)

// loadEpochState initializes the epoch and fence marker from the store
// directory during Open. A directory that has never held an epoch
// claims 1; Config.BumpEpoch (the promotion path) increments past both
// the mirrored epoch and any fence marker, so a promoted follower
// always supersedes the primary it mirrored.
func (st *Store) loadEpochState() error {
	e, err := wal.LoadEpoch(st.dir)
	if err != nil {
		return err
	}
	f, err := wal.LoadFence(st.dir)
	if err != nil {
		return err
	}
	switch {
	case st.cfg.BumpEpoch:
		if f > e {
			e = f
		}
		e++
		if !st.cfg.ReadOnly {
			if err := wal.WriteEpoch(st.dir, e); err != nil {
				return err
			}
			if err := wal.ClearFence(st.dir); err != nil {
				return err
			}
		}
		f = 0
	case e == 0:
		e = 1
		if !st.cfg.ReadOnly {
			if err := wal.WriteEpoch(st.dir, e); err != nil {
				return err
			}
		}
	}
	st.epoch.Store(e)
	st.fencedBy.Store(f)
	return nil
}

// Epoch returns the shard's current fencing epoch.
func (st *Store) Epoch() uint64 { return st.epoch.Load() }

// FencedBy returns the higher epoch this shard has observed for
// itself, 0 when it has never been superseded.
func (st *Store) FencedBy() uint64 { return st.fencedBy.Load() }

// NoteFence durably records that a higher epoch exists for this shard,
// so the demotion survives a restart. Epochs at or below the current
// one (or an already-noted fence) are no-ops.
func (st *Store) NoteFence(epoch uint64) error {
	st.epochMu.Lock()
	defer st.epochMu.Unlock()
	if epoch <= st.epoch.Load() || epoch <= st.fencedBy.Load() {
		return nil
	}
	if st.dir != "" && !st.cfg.ReadOnly {
		if err := wal.WriteFence(st.dir, epoch); err != nil {
			return err
		}
	}
	st.fencedBy.Store(epoch)
	return nil
}

// BumpEpoch increments the epoch past any fence marker and persists
// it, clearing the fence — the cutover path (promotion bumps happen in
// Open via Config.BumpEpoch). Returns the new epoch.
func (st *Store) BumpEpoch() (uint64, error) {
	st.epochMu.Lock()
	defer st.epochMu.Unlock()
	e := st.epoch.Load()
	if f := st.fencedBy.Load(); f > e {
		e = f
	}
	e++
	if st.dir != "" && !st.cfg.ReadOnly {
		if err := wal.WriteEpoch(st.dir, e); err != nil {
			return 0, err
		}
		if err := wal.ClearFence(st.dir); err != nil {
			return 0, err
		}
	}
	st.epoch.Store(e)
	st.fencedBy.Store(0)
	return e, nil
}

// AnnounceEpoch pushes an epoch announce through the replication taps
// so attached followers mirror a cutover bump durably.
func (st *Store) AnnounceEpoch(epoch uint64) {
	if st.log == nil || st.repl.count.Load() == 0 {
		return
	}
	st.gate.RLock()
	st.repl.publish(ReplEntry{Epoch: epoch})
	st.gate.RUnlock()
}

// noteOrigin raises the fabric's writer-idempotency watermark. Called
// on every insert (live, replay and restore paths), so the watermark
// is derivable after any recovery.
func (st *Store) noteOrigin(rec *Record) {
	if rec.OriginSeq == 0 {
		return
	}
	st.originMu.Lock()
	if rec.OriginSeq > st.originHigh[rec.Fabric] {
		st.originHigh[rec.Fabric] = rec.OriginSeq
	}
	st.originMu.Unlock()
}

// OriginWatermark returns the highest writer-idempotency sequence
// admitted for the fabric.
func (st *Store) OriginWatermark(fabric string) uint64 {
	st.originMu.Lock()
	defer st.originMu.Unlock()
	return st.originHigh[fabric]
}

// AdmitOutcome classifies one routed admission attempt.
type AdmitOutcome int

const (
	// Admitted: the record is in the store (and WAL, when durable).
	Admitted AdmitOutcome = iota
	// AdmitDuplicate: the record's OriginSeq is at or below the
	// fabric's watermark — a resend whose original landed.
	AdmitDuplicate
	// AdmitFrozen: the fabric is sealed mid-cutover or already released
	// to another shard; the writer must hold and re-resolve ownership.
	AdmitFrozen
)

// AddUnique admits a writer-routed record exactly once: a record whose
// OriginSeq is at or below the fabric's admitted watermark is refused
// as a duplicate without touching the store. The ownership check
// (frozen or moved out), the watermark reservation and the admission
// all happen under one admission-gate hold, so a record racing
// FreezeFabric or PurgeFabric either lands before the seal (and is
// visible to the cutover dump) or is refused — never both, never
// neither. Records without an OriginSeq have no dedup key and admit
// unconditionally (at-least-once).
func (st *Store) AddUnique(rec Record) (Record, AdmitOutcome) {
	st.gate.RLock()
	st.originMu.Lock()
	_, sealed := st.frozen[rec.Fabric]
	if _, moved := st.movedOut[rec.Fabric]; sealed || moved {
		st.originMu.Unlock()
		st.gate.RUnlock()
		return Record{}, AdmitFrozen
	}
	if rec.OriginSeq != 0 {
		if rec.OriginSeq <= st.originHigh[rec.Fabric] {
			st.originMu.Unlock()
			st.gate.RUnlock()
			return Record{}, AdmitDuplicate
		}
		st.originHigh[rec.Fabric] = rec.OriginSeq
	}
	st.originMu.Unlock()
	rec, n := st.addLocked(rec)
	st.gate.RUnlock()
	st.maybeCheckpoint(n)
	return rec, Admitted
}

// FreezeFabric seals a fabric against routed admission — the freeze
// cutover op. Taking the gate's write lock makes the seal a barrier:
// every admission in flight completes before it, every one after sees
// the seal. The seal is process-local (not logged); a purge or an
// explicit ThawFabric clears it.
func (st *Store) FreezeFabric(fabric string) {
	st.gate.Lock()
	st.originMu.Lock()
	st.frozen[fabric] = struct{}{}
	st.originMu.Unlock()
	st.gate.Unlock()
}

// ThawFabric lifts a seal without a cutover — the abort path.
func (st *Store) ThawFabric(fabric string) {
	st.originMu.Lock()
	delete(st.frozen, fabric)
	st.originMu.Unlock()
}

// FabricFrozen reports whether the fabric is sealed mid-cutover.
func (st *Store) FabricFrozen(fabric string) bool {
	st.originMu.Lock()
	defer st.originMu.Unlock()
	_, ok := st.frozen[fabric]
	return ok
}

// Purged counts records dropped by reshard releases.
func (st *Store) Purged() uint64 { return st.purged.Load() }

// PurgeFabric executes the release side of a reshard cutover: a
// durable tombstone is appended (and replicated), every retained
// record of the fabric is dropped with its incident memberships
// withdrawn, future writes for the fabric are marked moved-out, and
// the observer is rebuilt from the survivors. Returns the number of
// records dropped.
func (st *Store) PurgeFabric(fabric string) (int, error) {
	before := st.purged.Load()
	if err := st.appendCtrl(fabric, ctrlPurge); err != nil {
		return 0, err
	}
	return int(st.purged.Load() - before), nil
}

// AdoptFabric executes the adopt side of a reshard cutover on the new
// owner: a durable tombstone clears any stale moved-out marker and the
// observer is rebuilt so copied records (whose trigger times predate
// the live watermark) land in their proper rollup panes.
func (st *Store) AdoptFabric(fabric string) error {
	return st.appendCtrl(fabric, ctrlAdopt)
}

// appendCtrl admits one control record under the admission gate's
// write lock — the same consistent-cut discipline Checkpoint uses, so
// the tombstone lands at an exact point in the admission order on
// every replica. Unlike a data record, a tombstone that cannot be made
// durable fails the cutover instead of degrading to memory.
func (st *Store) appendCtrl(fabric, kind string) error {
	st.gate.Lock()
	defer st.gate.Unlock()
	rec := Record{Fabric: fabric, Ctrl: kind}
	if err := st.logLocked(&rec); err != nil {
		return fmt.Errorf("fleetstore: %s tombstone: %w", kind, err)
	}
	st.insert(rec)
	st.ingested.Add(1)
	return nil
}

// applyCtrl applies one control record's state transition for insert,
// on the live path (appendCtrl) and in WAL replay alike, which is what
// makes a purge crash-safe: a follower promoting after the cutover
// replays the tombstone and drops the fabric exactly as the primary
// did.
func (st *Store) applyCtrl(rec *Record) {
	switch rec.Ctrl {
	case ctrlPurge:
		n := st.applyPurge(rec.Fabric)
		st.purged.Add(uint64(n))
		st.originMu.Lock()
		st.movedOut[rec.Fabric] = struct{}{}
		// The release supersedes any freeze: moved-out refusals take
		// over from here.
		delete(st.frozen, rec.Fabric)
		st.originMu.Unlock()
		st.rebuildObserver()
	case ctrlAdopt:
		st.originMu.Lock()
		delete(st.movedOut, rec.Fabric)
		st.originMu.Unlock()
		st.rebuildObserver()
	}
}

// applyPurge drops the fabric's retained records from every ring,
// withdrawing their incident memberships, and returns how many were
// dropped. Ring admission order is preserved for the survivors so
// later eviction still runs oldest-first.
func (st *Store) applyPurge(fabric string) int {
	var dropped []entry
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		if len(sh.ring) == 0 {
			sh.mu.Unlock()
			continue
		}
		ordered := sh.ring
		if len(sh.ring) == st.cfg.ShardCapacity && sh.next != 0 {
			// A full ring stores oldest at next; rotate back to
			// admission order before filtering.
			ordered = make([]entry, 0, len(sh.ring))
			ordered = append(ordered, sh.ring[sh.next:]...)
			ordered = append(ordered, sh.ring[:sh.next]...)
		}
		kept := make([]entry, 0, len(ordered))
		for _, e := range ordered {
			if e.rec.Fabric == fabric {
				dropped = append(dropped, e)
			} else {
				kept = append(kept, e)
			}
		}
		sh.ring = kept
		sh.next = 0
		sh.mu.Unlock()
	}
	for i := range dropped {
		st.cl.evict(dropped[i].inc, &dropped[i].rec)
	}
	return len(dropped)
}

// rebuildObserver resets the observer and re-feeds it the full
// retained record set in trigger-time order (ties by seq — the same
// order a fresh recovery observes), then re-advances the watermark.
// Trigger-time order matters: copied or surviving records must never
// arrive behind a pane the rebuild has already closed.
func (st *Store) rebuildObserver() {
	obs := st.cfg.Observer
	if obs == nil {
		return
	}
	obs.ResetObserver()
	recs := st.Records(Query{Node: AnyNode})
	for i := range recs {
		obs.ObserveRecord(&recs[i])
	}
	if wm := st.lastAt.Load(); wm > 0 {
		obs.AdvanceWatermark(sim.Time(wm))
	}
}

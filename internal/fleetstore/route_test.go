package fleetstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/sim"
)

func routedRec(fabric string, at sim.Time, victim string, originSeq uint64) Record {
	r := rec(fabric, at, victim, diagnosis.TypePFCContention, 1)
	r.OriginSeq = originSeq
	return r
}

// TestAddUniqueDedupsByOriginSeq is the store-level proof behind the
// writer's exactly-once claim: a resend carrying an already-admitted
// idempotency sequence is refused without touching the store.
func TestAddUniqueDedupsByOriginSeq(t *testing.T) {
	st := New(Config{})
	got, outcome := st.AddUnique(routedRec("pod-a", 100, "v1", 1))
	if outcome != Admitted || got.Seq == 0 {
		t.Fatalf("first admission: outcome=%v seq=%d", outcome, got.Seq)
	}
	if _, outcome := st.AddUnique(routedRec("pod-a", 150, "v1-resend", 1)); outcome != AdmitDuplicate {
		t.Fatalf("resend admitted: outcome=%v", outcome)
	}
	// A lower sequence is also a duplicate: the watermark is a high-water
	// mark, not a set.
	if _, outcome := st.AddUnique(routedRec("pod-a", 160, "v0-late", 0)); outcome != Admitted {
		t.Fatal("OriginSeq 0 must bypass dedup (at-least-once path)")
	}
	if _, outcome := st.AddUnique(routedRec("pod-a", 170, "v2", 2)); outcome != Admitted {
		t.Fatal("next sequence refused")
	}
	if _, outcome := st.AddUnique(routedRec("pod-b", 180, "w1", 1)); outcome != Admitted {
		t.Fatal("watermarks must be per-fabric")
	}
	recs := st.Records(Query{Node: AnyNode})
	if len(recs) != 4 {
		t.Fatalf("%d records retained, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Victim == "v1-resend" {
			t.Fatal("refused duplicate was retained")
		}
	}
	if wm := st.OriginWatermark("pod-a"); wm != 2 {
		t.Fatalf("pod-a watermark %d, want 2", wm)
	}
}

// TestAddUniqueWatermarkSurvivesReopen proves dedup holds across a
// restart on both recovery paths: pure WAL replay and snapshot +
// delta. Without a persisted (or rederived) watermark, a resend after
// recovery would be admitted twice.
func TestAddUniqueWatermarkSurvivesReopen(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "replay"
		if checkpoint {
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, durableCfg())
			if err != nil {
				t.Fatal(err)
			}
			if _, outcome := st.AddUnique(routedRec("pod-a", 100, "v1", 7)); outcome != Admitted {
				t.Fatal("admission refused")
			}
			if checkpoint {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()

			st2, err := Open(dir, durableCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if wm := st2.OriginWatermark("pod-a"); wm != 7 {
				t.Fatalf("recovered watermark %d, want 7", wm)
			}
			if _, outcome := st2.AddUnique(routedRec("pod-a", 200, "v1-resend", 7)); outcome != AdmitDuplicate {
				t.Fatalf("post-recovery resend: outcome=%v", outcome)
			}
			if got := st2.Records(Query{Node: AnyNode}); len(got) != 1 {
				t.Fatalf("%d records after recovery, want 1", len(got))
			}
		})
	}
}

// TestAddUniqueConcurrentResends hammers one sequence from many
// goroutines: exactly one admission may win.
func TestAddUniqueConcurrentResends(t *testing.T) {
	st := New(Config{})
	const workers = 16
	var wg sync.WaitGroup
	admitted := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := uint64(1); seq <= 64; seq++ {
				if _, outcome := st.AddUnique(routedRec("pod-a", sim.Time(seq*100), fmt.Sprintf("v%d", seq), seq)); outcome == Admitted {
					admitted[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range admitted {
		total += n
	}
	if total != 64 {
		t.Fatalf("%d admissions for 64 sequences", total)
	}
	if got := len(st.Records(Query{Node: AnyNode})); got != 64 {
		t.Fatalf("%d records retained, want 64", got)
	}
}

// TestFreezeFabricSealsAdmission: a frozen fabric refuses routed
// admission (the mid-cutover hold), other fabrics keep flowing, and a
// thaw or purge lifts the seal.
func TestFreezeFabricSealsAdmission(t *testing.T) {
	st := New(Config{})
	st.FreezeFabric("pod-a")
	if !st.FabricFrozen("pod-a") {
		t.Fatal("freeze not visible")
	}
	if _, outcome := st.AddUnique(routedRec("pod-a", 100, "v1", 1)); outcome != AdmitFrozen {
		t.Fatalf("frozen fabric admitted: outcome=%v", outcome)
	}
	if _, outcome := st.AddUnique(routedRec("pod-b", 110, "w1", 1)); outcome != Admitted {
		t.Fatal("freeze leaked to another fabric")
	}
	st.ThawFabric("pod-a")
	if _, outcome := st.AddUnique(routedRec("pod-a", 120, "v1", 1)); outcome != Admitted {
		t.Fatal("thawed fabric still refused")
	}
	// A refused admission must not burn the idempotency sequence.
	st.FreezeFabric("pod-c")
	if _, outcome := st.AddUnique(routedRec("pod-c", 130, "c1", 1)); outcome != AdmitFrozen {
		t.Fatal("frozen fabric admitted")
	}
	st.ThawFabric("pod-c")
	if _, outcome := st.AddUnique(routedRec("pod-c", 140, "c1", 1)); outcome != Admitted {
		t.Fatal("frozen refusal burned the sequence")
	}
	// The purge path clears the seal too (release supersedes freeze).
	st.FreezeFabric("pod-b")
	if _, err := st.PurgeFabric("pod-b"); err != nil {
		t.Fatal(err)
	}
	if st.FabricFrozen("pod-b") {
		t.Fatal("purge left the fabric frozen")
	}
	if _, outcome := st.AddUnique(routedRec("pod-b", 150, "w2", 2)); outcome != AdmitFrozen {
		t.Fatalf("purged fabric not refused: outcome=%v", outcome)
	}
}

// TestAddUniqueRefusesReleasedFabric: a release clears the freeze, and
// the moved-out marker refuses in the same gate hold — so a routed
// write with a fresh OriginSeq for a fabric this store has released is
// never admitted, live or after a restart, and does not burn its
// sequence for the owner that adopts the fabric back.
func TestAddUniqueRefusesReleasedFabric(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome := st.AddUnique(routedRec("pod-a", 100, "a1", 1)); outcome != Admitted {
		t.Fatalf("first write: outcome=%v", outcome)
	}
	st.FreezeFabric("pod-a")
	if _, err := st.PurgeFabric("pod-a"); err != nil {
		t.Fatal(err)
	}
	if _, outcome := st.AddUnique(routedRec("pod-a", 200, "a2", 2)); outcome != AdmitFrozen {
		t.Fatalf("write to a released fabric: outcome=%v, want AdmitFrozen", outcome)
	}
	if got := st.Records(Query{Fabric: "pod-a", Node: AnyNode}); len(got) != 0 {
		t.Fatalf("released fabric holds %d records", len(got))
	}
	st.Abort()

	st2, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, outcome := st2.AddUnique(routedRec("pod-a", 300, "a2", 2)); outcome != AdmitFrozen {
		t.Fatalf("write to a released fabric after restart: outcome=%v, want AdmitFrozen", outcome)
	}
	if err := st2.AdoptFabric("pod-a"); err != nil {
		t.Fatal(err)
	}
	if _, outcome := st2.AddUnique(routedRec("pod-a", 400, "a2", 2)); outcome != Admitted {
		t.Fatalf("write after adopt: outcome=%v, want Admitted", outcome)
	}
}

// TestPurgeAdoptReplay: the reshard tombstones are WAL records — a
// store that crashes after a cutover replays them and recovers the
// exact post-cutover state (purged fabric gone, moved-out marker set,
// adopt clearing both).
func TestPurgeAdoptReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	st.Add(rec("pod-a", 100, "a1", diagnosis.TypePFCContention, 1))
	st.Add(rec("pod-a", 200, "a2", diagnosis.TypePFCStorm, 1))
	st.Add(rec("pod-b", 300, "b1", diagnosis.TypePFCContention, 2))
	purged, err := st.PurgeFabric("pod-a")
	if err != nil {
		t.Fatal(err)
	}
	if purged != 2 {
		t.Fatalf("purged %d, want 2", purged)
	}
	if got := st.Records(Query{Fabric: "pod-a", Node: AnyNode}); len(got) != 0 {
		t.Fatalf("purged fabric still holds %d records", len(got))
	}
	st.Close()

	st2, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Records(Query{Node: AnyNode}); len(got) != 1 || got[0].Victim != "b1" {
		t.Fatalf("replayed purge: records %v", got)
	}
	if _, outcome := st2.AddUnique(routedRec("pod-a", 350, "a9", 1)); outcome != AdmitFrozen {
		t.Fatalf("replayed store lost the moved-out marker: outcome=%v", outcome)
	}
	// Adopt clears the marker — and that survives replay too.
	if err := st2.AdoptFabric("pod-a"); err != nil {
		t.Fatal(err)
	}
	if _, outcome := st2.AddUnique(routedRec("pod-a", 400, "a3", 1)); outcome != Admitted {
		t.Fatalf("adopt left the moved-out marker: outcome=%v", outcome)
	}
	st2.Close()

	st3, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got := st3.Records(Query{Fabric: "pod-a", Node: AnyNode}); len(got) != 1 || got[0].Victim != "a3" {
		t.Fatalf("post-adopt fabric records %v", got)
	}
	if _, outcome := st3.AddUnique(routedRec("pod-a", 500, "a4", 2)); outcome != Admitted {
		t.Fatalf("replayed adopt lost: outcome=%v", outcome)
	}
}

// TestEpochLifecycle: epoch 1 claimed on first open, persisted across
// reopen, bumped by Config.BumpEpoch (promotion) and BumpEpoch
// (cutover), and a fence marker outlives a restart so a demoted shard
// can never ack after a crash.
func TestEpochLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e := st.Epoch(); e != 1 {
		t.Fatalf("fresh store epoch %d, want 1", e)
	}
	if e, err := st.BumpEpoch(); err != nil || e != 2 {
		t.Fatalf("cutover bump: epoch=%d err=%v", e, err)
	}
	st.Close()

	// Plain reopen: epoch sticks.
	st, err = Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if e := st.Epoch(); e != 2 {
		t.Fatalf("reopened epoch %d, want 2", e)
	}
	// Fencing: a higher observed epoch demotes durably.
	if err := st.NoteFence(7); err != nil {
		t.Fatal(err)
	}
	if f := st.FencedBy(); f != 7 {
		t.Fatalf("FencedBy %d, want 7", f)
	}
	// Lower or equal announces never regress the fence.
	if err := st.NoteFence(5); err != nil {
		t.Fatal(err)
	}
	if f := st.FencedBy(); f != 7 {
		t.Fatalf("fence regressed to %d", f)
	}
	st.Close()

	// The fence survives a crash-restart…
	st, err = Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if f := st.FencedBy(); f != 7 {
		t.Fatalf("restarted FencedBy %d, want 7", f)
	}
	st.Close()

	// …and a promotion bump jumps past it and clears it.
	cfg := durableCfg()
	cfg.BumpEpoch = true
	st, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if e := st.Epoch(); e != 8 {
		t.Fatalf("promoted epoch %d, want 8 (past the fence)", e)
	}
	if f := st.FencedBy(); f != 0 {
		t.Fatalf("promotion left fence %d", f)
	}
}

// TestEpochFileCorruptionIsError: a corrupted epoch file must fail the
// open loudly — silently claiming epoch 0/1 would let a stale primary
// shed its fence.
func TestEpochFileCorruptionIsError(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if err := corruptEpochFile(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, durableCfg()); err == nil {
		t.Fatal("open succeeded over a corrupted epoch file")
	} else if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("error does not name the epoch file: %v", err)
	}
}

// corruptEpochFile flips a payload byte in the store's epoch file so
// the CRC no longer matches.
func corruptEpochFile(dir string) error {
	path := filepath.Join(dir, "epoch")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)-1] ^= 0xFF
	return os.WriteFile(path, data, 0o644)
}

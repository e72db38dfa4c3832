package fleet

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/fleetstore"
)

func testRetry(seed uint64) analyzd.RetryConfig {
	return analyzd.RetryConfig{
		MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond, JitterFrac: 0.2, Seed: seed,
	}
}

// promotedShard opens dir once to claim epoch 1, then serves it with a
// promotion bump — a server whose epoch strictly exceeds a fresh
// sibling's, without needing a replication chain.
func promotedShard(t *testing.T, dir, shard string) *analyzd.Server {
	t.Helper()
	st, err := fleetstore.Open(dir, killLoopStoreCfg())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{
		DataDir:   dir,
		Shard:     shard,
		Fleet:     killLoopStoreCfg(),
		Rollup:    killLoopRollupCfg(),
		BumpEpoch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestWriterWriteAndResendDedup: the writer's idempotent resend
// contract end to end — a re-invocation with the same reserved
// sequence is acked as a duplicate and the store admits once.
func TestWriterWriteAndResendDedup(t *testing.T) {
	dir := t.TempDir()
	srv := testShard(t, filepath.Join(dir, "s0"), "s0")
	defer srv.Close()

	w, err := NewWriter(WriterConfig{
		Specs: []ShardSpec{{Name: "s0", Addr: srv.Addr()}},
		Seed:  1, Retry: testRetry(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	seq := w.NextOriginSeq("fabA")
	ack, err := w.WriteSeq("fabA", seq, testRec("fabA", 0))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Duplicate {
		t.Fatal("first write acked as duplicate")
	}
	if ack.Epoch == 0 {
		t.Fatal("ack carries no epoch")
	}
	// The resend path: same sequence, positive ack, no second admission.
	ack2, err := w.WriteSeq("fabA", seq, testRec("fabA", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !ack2.Duplicate {
		t.Fatal("resend not classified as duplicate")
	}
	if got := srv.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode}); len(got) != 1 {
		t.Fatalf("store admitted %d records, want 1", len(got))
	}
	if w.Duplicates.Load() != 1 {
		t.Fatalf("writer counted %d duplicates, want 1", w.Duplicates.Load())
	}
}

// TestWriterSurvivesFailover: ingest across a primary kill +
// promotion. The writer keeps the same idempotency stream; after
// Update repoints the shard, every record before and after the kill is
// present exactly once on the promoted store.
func TestWriterSurvivesFailover(t *testing.T) {
	dir := t.TempDir()
	srv := testShard(t, filepath.Join(dir, "gen0"), "s0")
	defer func() { srv.Close() }()

	fl, err := StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: filepath.Join(dir, "gen1")})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()

	w, err := NewWriter(WriterConfig{
		Specs: []ShardSpec{{Name: "s0", Addr: srv.Addr()}},
		Seed:  2, Retry: testRetry(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 10; i++ {
		if _, err := w.Write("fabA", testRec("fabA", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.WaitForSeq(srv.Fleet().Seq(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := w.Redials.Load(); n != 0 {
		t.Fatalf("healthy writes counted %d redials: the first dial is not one", n)
	}

	// Kill, promote the follower's directory, repoint the writer.
	srv.Fleet().Abort()
	srv.Close()
	if err := fl.Stop(); err != nil {
		t.Fatal(err)
	}
	srv2, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{
		DataDir: filepath.Join(dir, "gen1"), Shard: "s0",
		Fleet: killLoopStoreCfg(), Rollup: killLoopRollupCfg(), BumpEpoch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = srv2
	if err := w.Update(ShardSpec{Name: "s0", Addr: srv2.Addr()}); err != nil {
		t.Fatal(err)
	}

	for i := 10; i < 20; i++ {
		if _, err := w.Write("fabA", testRec("fabA", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.Redials.Load(); n < 1 {
		t.Fatalf("writer counted %d redials across a failover, want >= 1", n)
	}
	recs := srv2.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode})
	if len(recs) != 20 {
		t.Fatalf("promoted store has %d records, want 20", len(recs))
	}
	seen := make(map[string]bool)
	for _, r := range recs {
		if seen[r.Victim] {
			t.Fatalf("victim %s admitted twice across the failover", r.Victim)
		}
		seen[r.Victim] = true
	}
}

// TestWriterReroutesOnFence: a writer stuck on a fenced (superseded)
// primary must surface the typed error, and once Update repoints the
// shard mid-retry it must land the write on the live primary — the
// self-healing loop.
func TestWriterReroutesOnFence(t *testing.T) {
	dir := t.TempDir()
	stale := testShard(t, filepath.Join(dir, "stale"), "s0")
	defer stale.Close()
	promoted := promotedShard(t, filepath.Join(dir, "promoted"), "s0")
	defer promoted.Close()
	if se, pe := stale.Fleet().Epoch(), promoted.Fleet().Epoch(); se >= pe {
		t.Fatalf("test setup: stale epoch %d not behind promoted %d", se, pe)
	}

	// Fence the stale primary the way the cluster would: announce the
	// promoted epoch.
	c, err := analyzd.DialOperatorRetry(stale.Addr(), testRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.AnnounceEpoch("s0", promoted.Fleet().Epoch())
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fenced {
		t.Fatal("announce did not fence the stale primary")
	}

	w, err := NewWriter(WriterConfig{
		Specs: []ShardSpec{{Name: "s0", Addr: stale.Addr()}},
		Seed:  3, Retry: testRetry(3), MaxAttempts: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Repoint the shard while the write is retrying against the fence.
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = w.Update(ShardSpec{Name: "s0", Addr: promoted.Addr()})
	}()
	ack, err := w.Write("fabA", testRec("fabA", 0))
	if err != nil {
		t.Fatalf("write never healed: %v", err)
	}
	if ack.Epoch != promoted.Fleet().Epoch() {
		t.Fatalf("ack epoch %d, want promoted %d", ack.Epoch, promoted.Fleet().Epoch())
	}
	if w.Reroutes.Load() == 0 {
		t.Fatal("no fence reroutes counted")
	}
	if got := promoted.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode}); len(got) != 1 {
		t.Fatalf("promoted store has %d records, want 1", len(got))
	}
	if got := stale.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode}); len(got) != 0 {
		t.Fatalf("fenced store admitted %d records", len(got))
	}

	// With nowhere to heal to, the typed error surfaces to the caller.
	w2, err := NewWriter(WriterConfig{
		Specs: []ShardSpec{{Name: "s0", Addr: stale.Addr()}},
		Seed:  4, Retry: testRetry(4), MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.Write("fabB", testRec("fabB", 1)); !errors.Is(err, analyzd.ErrFenced) {
		t.Fatalf("exhausted write error %v, want ErrFenced", err)
	}
}

// TestMalformedWriteIsAnswered: a request verb whose payload fails
// validation is answered with an error and the session ends, so the
// caller gets an error instead of waiting forever on a reply that a
// silent strike never sends.
func TestMalformedWriteIsAnswered(t *testing.T) {
	srv := testShard(t, filepath.Join(t.TempDir(), "s0"), "s0")
	defer srv.Close()

	const attempts = 3
	w, err := NewWriter(WriterConfig{
		Specs: []ShardSpec{{Name: "s0", Addr: srv.Addr()}},
		Seed:  5, Retry: testRetry(5), MaxAttempts: attempts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := testRec("fabA", 0)
	rec.Culprits = make([]string, 257) // one past the wire bound
	_, err = w.Write("fabA", rec)
	if err == nil || !strings.Contains(err.Error(), "bad write request: ") || !strings.Contains(err.Error(), "257 culprit flows") {
		t.Fatalf("out-of-bounds write: err = %v, want the server's bad write request answer", err)
	}
	if got := srv.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode}); len(got) != 0 {
		t.Fatalf("store admitted %d out-of-bounds records", len(got))
	}

	c, err := analyzd.DialOperatorRetry(srv.Addr(), testRetry(6))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AnnounceEpoch("", 1); err == nil || !strings.Contains(err.Error(), "bad epoch announce: ") {
		t.Fatalf("announce without a shard: err = %v, want the server's bad epoch announce answer", err)
	}
	if n := srv.Stats().DecodeErrors; n != attempts+1 {
		t.Fatalf("DecodeErrors = %d, want %d", n, attempts+1)
	}
}

// TestExecutorMovesFabricLive: one reshard move against two live
// shards — freeze, copy, release, adopt — with the writer and front
// door following the migration: records land exactly once on the new
// owner, the old owner refuses the fabric, epochs bump on both sides.
func TestExecutorMovesFabricLive(t *testing.T) {
	dir := t.TempDir()
	s0 := testShard(t, filepath.Join(dir, "s0"), "s0")
	defer s0.Close()
	s1 := testShard(t, filepath.Join(dir, "s1"), "s1")
	defer s1.Close()
	specs := []ShardSpec{{Name: "s0", Addr: s0.Addr()}, {Name: "s1", Addr: s1.Addr()}}
	srvs := map[string]*analyzd.Server{"s0": s0, "s1": s1}
	names := []string{"s0", "s1"}
	fabrics := []string{"fab00", "fab01", "fab02", "fab03", "fab04", "fab05"}

	oldRing, err := NewRing(names, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	nextRing, moves := replanRing(names, fabrics, oldRing, 7)
	if len(moves) == 0 {
		t.Fatal("no reshard plan found")
	}

	w, err := NewWriter(WriterConfig{Specs: specs, Seed: 7, Retry: testRetry(7)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fd, err := NewFrontdoor(specs, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	perFabric := 5
	for _, f := range fabrics {
		for i := 0; i < perFabric; i++ {
			if _, err := w.Write(f, testRec(f, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	epochsBefore := map[string]uint64{"s0": s0.Fleet().Epoch(), "s1": s1.Fleet().Epoch()}

	rs := NewReshardState(oldRing, nextRing, moves)
	w.SetReshard(rs)
	fd.SetReshard(rs)
	ex, err := NewExecutor(specs, testRetry(7))
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	report, err := ex.Execute(rs)
	if err != nil {
		t.Fatalf("reshard: %v", err)
	}
	if !rs.Done() {
		t.Fatal("executor returned with moves pending")
	}
	w.FinishReshard()
	fd.FinishReshard()

	for _, mr := range report.Moves {
		if mr.Copied != perFabric {
			t.Fatalf("move %s copied %d, want %d", mr.Move.Fabric, mr.Copied, perFabric)
		}
		if mr.Purged != perFabric {
			t.Fatalf("move %s purged %d, want %d", mr.Move.Fabric, mr.Purged, perFabric)
		}
		if mr.FromEpoch <= epochsBefore[mr.Move.From] {
			t.Fatalf("move %s: release did not bump %s's epoch", mr.Move.Fabric, mr.Move.From)
		}
		if mr.ToEpoch <= epochsBefore[mr.Move.To] {
			t.Fatalf("move %s: adopt did not bump %s's epoch", mr.Move.Fabric, mr.Move.To)
		}
	}

	// Every fabric's records live exactly once on the NEXT ring's owner;
	// the old owner holds none of a moved fabric and refuses its writes.
	for _, f := range fabrics {
		owner := nextRing.Owner(f)
		got := srvs[owner].Fleet().Records(fleetstore.Query{Fabric: f, Node: fleetstore.AnyNode})
		if len(got) != perFabric {
			t.Fatalf("fabric %s: owner %s holds %d records, want %d", f, owner, len(got), perFabric)
		}
	}
	for _, m := range moves {
		if got := srvs[m.From].Fleet().Records(fleetstore.Query{Fabric: m.Fabric, Node: fleetstore.AnyNode}); len(got) != 0 {
			t.Fatalf("moved fabric %s still has %d records at %s", m.Fabric, len(got), m.From)
		}
		probe := testRec(m.Fabric, perFabric)
		probe.OriginSeq = 1 << 40
		if _, outcome := srvs[m.From].Fleet().AddUnique(probe); outcome != fleetstore.AdmitFrozen {
			t.Fatalf("moved fabric %s not refused at %s: outcome=%v", m.Fabric, m.From, outcome)
		}
	}

	// Post-migration ingest follows the new ring.
	moved := moves[0].Fabric
	if _, err := w.Write(moved, testRec(moved, perFabric)); err != nil {
		t.Fatal(err)
	}
	got := srvs[nextRing.Owner(moved)].Fleet().Records(fleetstore.Query{Fabric: moved, Node: fleetstore.AnyNode})
	if len(got) != perFabric+1 {
		t.Fatalf("post-migration write landed wrong: owner holds %d", len(got))
	}
	if spec := fd.Owner(moved); spec.Name != nextRing.Owner(moved) {
		t.Fatalf("front door routes %s to %s, ring says %s", moved, spec.Name, nextRing.Owner(moved))
	}
}

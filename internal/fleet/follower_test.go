package fleet

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/fleetstore/wal"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func testRec(fabric string, i int) fleetstore.Record {
	return fleetstore.Record{
		Fabric:  fabric,
		At:      sim.Time(i+1) * 50 * sim.Microsecond,
		Victim:  fmt.Sprintf("v%04d", i),
		Type:    diagnosis.TypePFCStorm,
		Node:    topo.NodeID(i % 3),
		Port:    i % 2,
		Score:   0.5,
		StallNS: int64(1000 + i),
	}
}

func testShard(t *testing.T, dir, shard string) *analyzd.Server {
	t.Helper()
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{
		DataDir: dir,
		Shard:   shard,
		Fleet:   killLoopStoreCfg(),
		Rollup:  killLoopRollupCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// A follower that joins after the primary checkpointed and compacted
// must bootstrap from the shipped snapshot plus the WAL delta, and a
// promotion from its directory must recover exactly the primary's
// records.
func TestFollowerSnapshotBootstrapAndPromotion(t *testing.T) {
	dir := t.TempDir()
	srv := testShard(t, filepath.Join(dir, "primary"), "s0")
	defer srv.Close()

	var last uint64
	for i := 0; i < 20; i++ {
		last = srv.Fleet().Add(testRec("fabA", i)).Seq
	}
	// Checkpoint + compact: the WAL no longer reaches back to seq 0, so
	// a fresh follower cannot catch up by backlog alone.
	if err := srv.Fleet().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		last = srv.Fleet().Add(testRec("fabA", i)).Seq
	}

	fl, err := StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: filepath.Join(dir, "follower")})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	if err := fl.WaitForSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if fl.Snapshots() == 0 {
		t.Fatal("follower caught up without the snapshot the compacted WAL requires")
	}
	if fl.SnapshotSeq() == 0 {
		t.Fatal("snapshot applied but SnapshotSeq not recorded")
	}

	// Live records keep streaming past the bootstrap.
	last = srv.Fleet().Add(testRec("fabA", 30)).Seq
	if err := fl.WaitForSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash the primary, promote the follower, and check exactly-once.
	srv.Fleet().Abort()
	srv.Close()
	st, err := fl.Promote(killLoopStoreCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := st.Records(fleetstore.Query{Node: fleetstore.AnyNode})
	if len(recs) != 31 {
		t.Fatalf("promoted store has %d records, want 31", len(recs))
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.Victim] {
			t.Fatalf("victim %s recovered twice", r.Victim)
		}
		seen[r.Victim] = true
	}
	if st.Seq() != last {
		t.Fatalf("promoted store at seq %d, want %d", st.Seq(), last)
	}
}

// A primary restart severs the replication session; the follower must
// re-sync from its durable watermark and the overlap re-sent by the
// backlog must not duplicate anything.
func TestFollowerReconnectWithoutDuplicates(t *testing.T) {
	dir := t.TempDir()
	primaryDir := filepath.Join(dir, "primary")
	srv := testShard(t, primaryDir, "s0")
	addr := srv.Addr()

	var last uint64
	for i := 0; i < 12; i++ {
		last = srv.Fleet().Add(testRec("fabB", i)).Seq
	}

	fl, err := StartFollower(FollowerConfig{Addr: addr, Dir: filepath.Join(dir, "follower")})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	if err := fl.WaitForSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Clean restart of the primary on the same address: the follower's
	// session dies and its reconnect loop must re-establish replication.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := analyzd.ListenOpts(addr, analyzd.Options{
		DataDir: primaryDir,
		Shard:   "s0",
		Fleet:   killLoopStoreCfg(),
		Rollup:  killLoopRollupCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	for i := 12; i < 24; i++ {
		last = srv2.Fleet().Add(testRec("fabB", i)).Seq
	}
	if err := fl.WaitForSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if fl.Resyncs() == 0 {
		t.Fatal("follower never re-synced across the primary restart")
	}

	srv2.Fleet().Abort()
	srv2.Close()
	st, err := fl.Promote(killLoopStoreCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := st.Records(fleetstore.Query{Node: fleetstore.AnyNode})
	if len(recs) != 24 {
		t.Fatalf("promoted store has %d records, want 24", len(recs))
	}
	count := make(map[string]int, len(recs))
	for _, r := range recs {
		count[r.Victim]++
	}
	for v, n := range count {
		if n != 1 {
			t.Fatalf("victim %s recovered %d times after re-sync", v, n)
		}
	}
}

// TestDoubleFailoverChain: a promoted follower immediately gains a new
// follower, which must re-sync from the snapshot-bootstrapped
// watermark — and survive a second promotion with no duplicate or
// missing record and a strictly increasing epoch at every hop.
func TestDoubleFailoverChain(t *testing.T) {
	dir := t.TempDir()
	gen := func(i int) string { return filepath.Join(dir, fmt.Sprintf("gen%d", i)) }
	promote := func(genDir string) *analyzd.Server {
		t.Helper()
		srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{
			DataDir: genDir, Shard: "s0",
			Fleet: killLoopStoreCfg(), Rollup: killLoopRollupCfg(), BumpEpoch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	srv := testShard(t, gen(0), "s0")
	defer func() { srv.Close() }()
	epoch0 := srv.Fleet().Epoch()

	fl, err := StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: gen(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { fl.Stop() }()

	var last uint64
	for i := 0; i < 15; i++ {
		last = srv.Fleet().Add(testRec("fabC", i)).Seq
	}
	if err := fl.WaitForSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// First failover.
	srv.Fleet().Abort()
	srv.Close()
	if err := fl.Stop(); err != nil {
		t.Fatal(err)
	}
	srv = promote(gen(1))
	epoch1 := srv.Fleet().Epoch()
	if epoch1 <= epoch0 {
		t.Fatalf("first promotion epoch %d not past %d", epoch1, epoch0)
	}
	// Checkpoint + compact so the chained follower cannot catch up by
	// backlog alone: it must bootstrap from the promoted store's
	// snapshot, then track the delta.
	if err := srv.Fleet().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 25; i++ {
		last = srv.Fleet().Add(testRec("fabC", i)).Seq
	}
	fl, err = StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: gen(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.WaitForSeq(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if fl.Snapshots() == 0 {
		t.Fatal("chained follower caught up without the snapshot the compacted WAL requires")
	}

	// Second failover, from the chained follower's directory.
	srv.Fleet().Abort()
	srv.Close()
	if err := fl.Stop(); err != nil {
		t.Fatal(err)
	}
	srv = promote(gen(2))
	epoch2 := srv.Fleet().Epoch()
	if epoch2 <= epoch1 {
		t.Fatalf("second promotion epoch %d not past %d", epoch2, epoch1)
	}
	recs := srv.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode})
	if len(recs) != 25 {
		t.Fatalf("double-promoted store has %d records, want 25", len(recs))
	}
	count := make(map[string]int, len(recs))
	for _, r := range recs {
		count[r.Victim]++
	}
	for v, n := range count {
		if n != 1 {
			t.Fatalf("victim %s recovered %d times across the chain", v, n)
		}
	}
	if srv.Fleet().Seq() != last {
		t.Fatalf("double-promoted store at seq %d, want %d", srv.Fleet().Seq(), last)
	}
}

// A stopped follower's watermarks can no longer move, so Stop must end
// every wait on them at once — with an hour's timeout, only the wake-up
// can return these — and say why. A live wait that merely runs out of
// time keeps its old error text.
func TestFollowerStopWakesWaiters(t *testing.T) {
	dir := t.TempDir()
	srv := testShard(t, filepath.Join(dir, "primary"), "s0")
	defer srv.Close()
	fl, err := StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: filepath.Join(dir, "follower")})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	if err := fl.waitEpoch(srv.Fleet().Epoch(), time.Hour); err != nil {
		t.Fatalf("epoch mirror: %v", err)
	}

	err = fl.WaitForSeq(5, time.Millisecond)
	if want := "fleet: follower watermark 0 short of 5 after 1ms"; err == nil || err.Error() != want {
		t.Fatalf("timed-out WaitForSeq: %v, want %q", err, want)
	}

	seqErr, epochErr := make(chan error), make(chan error)
	go func() { seqErr <- fl.WaitForSeq(5, time.Hour) }()
	go func() { epochErr <- fl.waitEpoch(srv.Fleet().Epoch()+1, time.Hour) }()
	if err := fl.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := <-seqErr; err == nil || err.Error() != "fleet: follower stopped with watermark 0 short of 5" {
		t.Fatalf("WaitForSeq across Stop: %v", err)
	}
	if err := <-epochErr; err == nil || !strings.Contains(err.Error(), "follower stopped with mirrored epoch") {
		t.Fatalf("waitEpoch across Stop: %v", err)
	}
}

// More than reorderWindow durable records held behind a sequence gap
// tear the session with the overflow error, and the acknowledged
// watermark stays below the gap: no record past a missing one is ever
// acked.
func TestFollowerReorderWindowOverflow(t *testing.T) {
	log, _, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	f := &Follower{log: log, pending: make(map[uint64]bool)}
	const gap = 5 // never admitted
	for seq := uint64(1); seq < gap; seq++ {
		if _, err := f.admit(seq, []byte("rec")); err != nil {
			t.Fatalf("admit %d: %v", seq, err)
		}
	}
	seq := uint64(gap)
	for err == nil && seq < gap+2*reorderWindow {
		seq++
		_, err = f.admit(seq, []byte("rec"))
	}
	if err == nil || !strings.Contains(err.Error(), "reorder window overflow") {
		t.Fatalf("no overflow after %d records past the gap: %v", seq-gap, err)
	}
	if past := int(seq - gap); past != reorderWindow+1 || f.Pending() != past {
		t.Fatalf("overflow at %d records past the gap (%d pending), want %d", past, f.Pending(), reorderWindow+1)
	}
	if got := f.AckedSeq(); got != gap-1 {
		t.Fatalf("acked watermark %d, want %d: below the gap at %d", got, gap-1, gap)
	}
}

// WaitThaw returns on the phase change itself, ignores changes to
// other fabrics, and keeps its timeout contract.
func TestWaitThawWakesOnPhaseChange(t *testing.T) {
	ring, err := NewRing([]string{"a", "b"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewReshardState(ring, ring, []Move{{Fabric: "f", From: "a", To: "b"}, {Fabric: "g", From: "a", To: "b"}})
	if !rs.WaitThaw("f", 0) {
		t.Fatal("WaitThaw on a fabric that is not frozen = false")
	}
	rs.setPhase("f", moveFrozen)
	if rs.WaitThaw("f", time.Millisecond) {
		t.Fatal("WaitThaw on a frozen fabric = true after its timeout")
	}
	thawed := make(chan bool)
	go func() { thawed <- rs.WaitThaw("f", time.Hour) }()
	rs.setPhase("g", moveFrozen) // someone else's move: f stays frozen
	rs.setPhase("f", moveDone)
	if !<-thawed {
		t.Fatal("WaitThaw = false after the fabric thawed")
	}
}

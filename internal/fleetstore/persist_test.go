package fleetstore

import (
	"fmt"
	"testing"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/sim"
)

// durableCfg is the durability config tests use: store defaults.
func durableCfg() Config {
	return Config{}
}

func TestOpenEmptyDirStartsEmpty(t *testing.T) {
	st, err := Open(t.TempDir(), durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Durable() {
		t.Fatal("Open returned a non-durable store")
	}
	if got := st.Records(Query{Node: AnyNode}); len(got) != 0 {
		t.Fatalf("fresh store has %d records", len(got))
	}
}

// TestOpenReplaysWALWithoutSnapshot crashes before the first checkpoint:
// everything comes back from the log alone, with seq and incident IDs
// intact and continuing.
func TestOpenReplaysWALWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		st.Add(rec("pod-a", sim.Time(100+i*10), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	st.Abort() // crash: no checkpoint, no clean close

	st2, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.ReplayedRecords() != 10 {
		t.Fatalf("replayed %d records, want 10", st2.ReplayedRecords())
	}
	recs := st2.Records(Query{Node: AnyNode})
	if len(recs) != 10 {
		t.Fatalf("%d records after reopen, want 10", len(recs))
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d after replay", r.Seq)
		}
		seen[r.Seq] = true
	}
	// The single storm incident survives as one incident, and the seq
	// counter continues past the replayed records.
	incs := st2.Incidents(Query{Node: AnyNode})
	if len(incs) != 1 || incs[0].Complaints != 10 {
		t.Fatalf("incidents after reopen: %+v", incs)
	}
	added := st2.Add(rec("pod-a", 500, "v-new", diagnosis.TypePFCStorm, 5))
	if added.Seq != 11 {
		t.Fatalf("post-replay seq = %d, want 11", added.Seq)
	}
}

// TestOpenSnapshotPlusWALDelta checkpoints mid-stream, adds more, then
// crashes: recovery is snapshot + log tail, and WAL segments the
// snapshot covers are compacted.
func TestOpenSnapshotPlusWALDelta(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg()
	cfg.SegmentBytes = 512 // force several segments
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st.Add(rec("pod-a", sim.Time(100+i*10), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		st.Add(rec("pod-b", sim.Time(100+i*10), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	st.Abort()

	st2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.ReplayedRecords() != 4 {
		t.Fatalf("replayed %d WAL records past the snapshot, want 4", st2.ReplayedRecords())
	}
	recs := st2.Records(Query{Node: AnyNode})
	if len(recs) != 12 {
		t.Fatalf("%d records after reopen, want 12", len(recs))
	}
	incs := st2.Incidents(Query{Node: AnyNode})
	if len(incs) != 1 || incs[0].Complaints != 12 {
		t.Fatalf("incidents after snapshot+delta reopen: %+v", incs)
	}
	if len(incs[0].Fabrics) != 2 {
		t.Fatalf("fabrics = %v, want both pods", incs[0].Fabrics)
	}
}

// TestReopenResolvedIncidentsStayResolved: an incident swept resolved
// before the crash must come back resolved (the reopened store sweeps
// to the recovered watermark), and its ID must not be reused.
func TestReopenResolvedIncidentsStayResolved(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg()
	cfg.Window = 50
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5))
	st.Add(rec("pod-a", 120, "v2", diagnosis.TypePFCStorm, 5))
	// A much later record moves the watermark past 120+50 and the sweep
	// resolves the first incident.
	st.Add(rec("pod-a", 1000, "v3", diagnosis.TypePFCStorm, 5))
	st.Sweep(1000)
	st.Abort()

	st2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	incs := st2.Incidents(Query{Node: AnyNode})
	if len(incs) != 2 {
		t.Fatalf("%d incidents after reopen, want 2: %+v", len(incs), incs)
	}
	if !incs[0].Resolved || incs[0].Complaints != 2 {
		t.Fatalf("first incident not restored resolved: %+v", incs[0])
	}
	if incs[1].Resolved {
		t.Fatalf("second incident wrongly resolved: %+v", incs[1])
	}
	if incs[0].ID == incs[1].ID {
		t.Fatalf("duplicate incident ID %d after reopen", incs[0].ID)
	}
	// New incidents continue the ID sequence, never reusing.
	st2.Add(rec("pod-a", 5000, "v4", diagnosis.TypePFCContention, 9))
	for _, inc := range st2.Incidents(Query{Node: AnyNode}) {
		if inc.Type == diagnosis.TypePFCContention && (inc.ID == incs[0].ID || inc.ID == incs[1].ID) {
			t.Fatalf("incident ID %d reused after reopen", inc.ID)
		}
	}
}

// TestEvictionWithdrawsClusterMembership is the retention-ring fix: an
// evicted record leaves its open incident (complaints and distinct sets
// shrink), so neither live queries nor a replayed store resurrect it.
func TestEvictionWithdrawsClusterMembership(t *testing.T) {
	st := New(Config{Shards: 1, ShardCapacity: 4, Window: sim.Time(1 << 40)})
	for i := 0; i < 6; i++ {
		st.Add(rec("pod-a", sim.Time(100+i), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	c := st.CountersSnapshot()
	if c.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", c.Evicted)
	}
	incs := st.Incidents(Query{Node: AnyNode})
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want 1", len(incs))
	}
	if incs[0].Complaints != 4 {
		t.Fatalf("complaints = %d after eviction, want 4 (membership not withdrawn)", incs[0].Complaints)
	}
	if len(incs[0].Victims) != 4 {
		t.Fatalf("victims = %v after eviction, want the 4 retained", incs[0].Victims)
	}
	for _, v := range incs[0].Victims {
		if v == "v0" || v == "v1" {
			t.Fatalf("evicted victim %s still in incident", v)
		}
	}
}

// TestReplayMatchesEvictedState: pre-crash evictions must not
// resurrect on replay — the replayed store re-runs the same admissions
// and lands on the same retained set and the same cluster membership.
func TestReplayMatchesEvictedState(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg()
	cfg.Shards = 1
	cfg.ShardCapacity = 4
	cfg.Window = sim.Time(1 << 40)
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		st.Add(rec("pod-a", sim.Time(100+i), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	before := st.Incidents(Query{Node: AnyNode})
	beforeRecs := st.Records(Query{Node: AnyNode})
	st.Abort()

	st2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	after := st2.Incidents(Query{Node: AnyNode})
	afterRecs := st2.Records(Query{Node: AnyNode})
	if len(afterRecs) != len(beforeRecs) {
		t.Fatalf("retained %d records after replay, want %d", len(afterRecs), len(beforeRecs))
	}
	for i := range afterRecs {
		if afterRecs[i].Seq != beforeRecs[i].Seq || afterRecs[i].Victim != beforeRecs[i].Victim {
			t.Fatalf("record %d diverged: %+v vs %+v", i, afterRecs[i], beforeRecs[i])
		}
	}
	if len(after) != len(before) || after[0].Complaints != before[0].Complaints {
		t.Fatalf("cluster state diverged: %+v vs %+v", after, before)
	}
	if len(after[0].Victims) != len(before[0].Victims) {
		t.Fatalf("victims resurrected: %v vs %v", after[0].Victims, before[0].Victims)
	}
}

// TestCheckpointCompactsSegments: after a checkpoint, covered segments
// disappear and a reopen replays only the tail.
func TestCheckpointCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg()
	cfg.SegmentBytes = 256
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		st.Add(rec("pod-a", sim.Time(100+i*10), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c := st.CountersSnapshot()
	if c.Snapshots == 0 {
		t.Fatal("no snapshot recorded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.ReplayedRecords() != 0 {
		t.Fatalf("replayed %d records after clean close, want 0 (snapshot covers all)", st2.ReplayedRecords())
	}
	if got := st2.Records(Query{Node: AnyNode}); len(got) != 20 {
		t.Fatalf("%d records after clean reopen, want 20", len(got))
	}
}

// TestSnapshotEveryTriggersAutomatically: admissions past the threshold
// checkpoint without an explicit call.
func TestSnapshotEveryTriggersAutomatically(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg()
	cfg.SnapshotEvery = 5
	st, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 11; i++ {
		st.Add(rec("pod-a", sim.Time(100+i*10), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	if c := st.CountersSnapshot(); c.Snapshots < 2 {
		t.Fatalf("snapshots = %d after 11 adds with SnapshotEvery=5, want >= 2", c.Snapshots)
	}
}

// TestOpenReadOnlyLeavesDirUntouched: inspection must not repair,
// append or snapshot.
func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		st.Add(rec("pod-a", sim.Time(100+i*10), fmt.Sprintf("v%d", i), diagnosis.TypePFCStorm, 5))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ro := durableCfg()
	ro.ReadOnly = true
	st2, err := Open(dir, ro)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Durable() {
		t.Fatal("read-only store claims durability")
	}
	if got := st2.Records(Query{Node: AnyNode}); len(got) != 5 {
		t.Fatalf("read-only open sees %d records, want 5", len(got))
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInMemoryStoreLifecycleNoops: New stores close cleanly and report
// no durability.
func TestInMemoryStoreLifecycleNoops(t *testing.T) {
	st := New(Config{})
	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5))
	if st.Durable() {
		t.Fatal("in-memory store claims durability")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

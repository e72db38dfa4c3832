package fleet

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// The seeded cluster trials (TestKillLoop, TestReshardLoop) share this
// scaffold: a three-shard cluster whose every shard is a durable
// primary with a caught-up TCP follower, one seeded record stream, the
// checkpoint and kill-and-promote steps, and the exactly-once and
// front-door oracles both loops end on. All randomness forks from one
// seed, so a failing trial replays exactly.

const (
	trialShards  = 3
	trialFabrics = 9
	// trialAckTimeout bounds every catch-up wait and the writer's freeze
	// hold. It only bounds a failure.
	trialAckTimeout = 20 * time.Second
)

// killLoopStoreCfg sizes shard stores: synchronous WAL (Add's return
// is the durability barrier), retention far above a trial's volume
// (eviction is legitimate forgetting and would blunt the exactly-once
// check), snapshots only when the trial ships one deliberately.
func killLoopStoreCfg() fleetstore.Config {
	return fleetstore.Config{
		Window:        2 * sim.Millisecond,
		Shards:        4,
		ShardCapacity: 1 << 14,
		ResolvedKeep:  1 << 14,
		SnapshotEvery: 1 << 30,
		SegmentBytes:  2048,
	}
}

// killLoopRollupCfg sizes summarizers so a trial's sketches are exact:
// TopK above the worst-case per-pane key cardinality and enough
// quantile buckets that nothing collapses — making "merged equals
// single-store" an equality check, not a tolerance check.
func killLoopRollupCfg() rollup.Config {
	return rollup.Config{
		Pane:         sim.Millisecond,
		MaxPanes:     256,
		MaxOpenPanes: 16,
		TopK:         64,
		Gamma:        1.05,
		MaxBuckets:   512,
		MaxPaneBytes: 1 << 20,
		UpdateEvery:  1 << 20,
	}
}

// liveShard is one shard's current primary and follower. The primary
// serves dir/<shard>/gen-(gen-1) and the follower mirrors it into
// gen-<gen>; a promotion serves the follower's directory.
type liveShard struct {
	srv *analyzd.Server
	fl  *Follower
	gen int
}

// trial is one seeded cluster trial.
type trial struct {
	t        *testing.T
	dir      string
	semiSync time.Duration
	names    []string
	shards   map[string]*liveShard
	// ring is the cluster's current layout: the exactly-once oracle
	// expects each acked victim on its fabric's owner.
	ring *Ring

	rngBatch, rngKill *sim.Rand
	recs              recordStream
	rounds, round     int

	// acked holds every acked record in ack order, its Seq the acked
	// seq (0 = any seq); reference observes every acked record, the
	// single-store ground truth the front door's merged rollups must
	// equal.
	acked     []fleetstore.Record
	reference *rollup.Summarizer
	failovers int
	// snapshots and resyncs total the counters of stopped followers.
	snapshots, resyncs uint64
}

// newTrial brings up trialShards primaries with caught-up followers,
// all closed when t ends. salt separates the loops' random streams;
// semiSync is each primary's per-write follower-ack bound (0 = none).
func newTrial(t *testing.T, seed, salt uint64, semiSync time.Duration) *trial {
	t.Helper()
	root := sim.NewRand(seed ^ salt)
	tr := &trial{
		t: t, dir: t.TempDir(), semiSync: semiSync,
		shards:    make(map[string]*liveShard, trialShards),
		reference: rollup.New(killLoopRollupCfg()),
	}
	tr.rngBatch = root.Fork()
	tr.recs.rng = root.Fork()
	tr.rngKill = root.Fork()
	tr.rounds = 2 + tr.rngBatch.Intn(3)

	tr.names = make([]string, trialShards)
	for i := range tr.names {
		tr.names[i] = fmt.Sprintf("shard-%d", i)
	}
	ring, err := NewRing(tr.names, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr.ring = ring

	t.Cleanup(func() {
		for _, sh := range tr.shards {
			if sh.fl != nil {
				sh.fl.Stop()
			}
			sh.srv.Close()
		}
	})
	for _, name := range tr.names {
		tr.shards[name] = &liveShard{srv: tr.startPrimary(name, 0, false)}
		tr.attachFollower(name)
	}
	return tr
}

// fatalf fails the trial, naming the round (or "final" after the last).
func (tr *trial) fatalf(format string, args ...any) {
	tr.t.Helper()
	stage := "final"
	if tr.round < tr.rounds {
		stage = fmt.Sprintf("round %d", tr.round)
	}
	tr.t.Fatalf(stage+": "+format, args...)
}

func (tr *trial) shardDir(name string, gen int) string {
	return filepath.Join(tr.dir, name, fmt.Sprintf("gen-%03d", gen))
}

// startPrimary serves name's gen directory; promote bumps its epoch.
func (tr *trial) startPrimary(name string, gen int, promote bool) *analyzd.Server {
	tr.t.Helper()
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{
		DataDir:   tr.shardDir(name, gen),
		Shard:     name,
		Fleet:     killLoopStoreCfg(),
		Rollup:    killLoopRollupCfg(),
		BumpEpoch: promote,
		SemiSync:  tr.semiSync,
	})
	if err != nil {
		tr.fatalf("start %s gen %d: %v", name, gen, err)
	}
	return srv
}

// attachFollower starts a fresh follower of name's primary in the next
// generation directory and waits for full catch-up — sequence and
// epoch, since a shard holding no records makes the sequence wait
// vacuous before the stream's epoch announce lands.
func (tr *trial) attachFollower(name string) {
	tr.t.Helper()
	sh := tr.shards[name]
	sh.gen++
	fl, err := StartFollower(FollowerConfig{Addr: sh.srv.Addr(), Dir: tr.shardDir(name, sh.gen)})
	if err != nil {
		tr.fatalf("follower %s: %v", name, err)
	}
	sh.fl = fl
	if err := fl.WaitForSeq(sh.srv.Fleet().Seq(), trialAckTimeout); err != nil {
		tr.fatalf("follower %s catch-up: %v", name, err)
	}
	if err := fl.waitEpoch(sh.srv.Fleet().Epoch(), trialAckTimeout); err != nil {
		tr.fatalf("follower %s: %v", name, err)
	}
}

// maybeCheckpoint checkpoints a seed-chosen primary in half the
// rounds: the snapshot ships to its follower mid-stream, so a later
// promotion recovers through snapshot + delta instead of pure replay.
func (tr *trial) maybeCheckpoint() {
	tr.t.Helper()
	if tr.rngKill.Intn(2) != 0 {
		return
	}
	name := tr.names[tr.rngKill.Intn(len(tr.names))]
	if err := tr.shards[name].srv.Fleet().Checkpoint(); err != nil {
		tr.fatalf("checkpoint %s: %v", name, err)
	}
}

// killAndPromote kills a seed-chosen primary — no flush, no goodbye —
// and serves its follower's directory as the new primary with an epoch
// bump. It returns the shard, which has no follower until the caller
// attaches one.
func (tr *trial) killAndPromote() string {
	tr.t.Helper()
	name := tr.names[tr.rngKill.Intn(len(tr.names))]
	sh := tr.shards[name]
	sh.srv.Fleet().Abort()
	sh.srv.Close()
	if err := sh.fl.Stop(); err != nil {
		tr.fatalf("stop follower %s: %v", name, err)
	}
	tr.snapshots += sh.fl.Snapshots()
	tr.resyncs += sh.fl.Resyncs()
	sh.fl = nil
	sh.srv = tr.startPrimary(name, sh.gen, true)
	tr.failovers++
	return name
}

// specs lists every shard's current primary.
func (tr *trial) specs() []ShardSpec {
	specs := make([]ShardSpec, len(tr.names))
	for i, name := range tr.names {
		specs[i] = ShardSpec{Name: name, Addr: tr.shards[name].srv.Addr()}
	}
	return specs
}

// ack records rec as acknowledged with rec.Seq (0 = any seq).
func (tr *trial) ack(rec *fleetstore.Record) {
	tr.acked = append(tr.acked, *rec)
	tr.reference.ObserveRecord(rec)
}

// checkAcked runs the exactly-once oracle on name's primary: it holds
// every acked victim whose fabric it owns under the current ring. It
// also runs the watermark oracle: no incident is left open past its
// join window.
func (tr *trial) checkAcked(name string) {
	tr.t.Helper()
	want := make(map[string]uint64)
	for _, rec := range tr.acked {
		if tr.ring.Owner(rec.Fabric) == name {
			want[rec.Victim] = rec.Seq
		}
	}
	st := tr.shards[name].srv.Fleet()
	if err := checkRecords(st, want); err != nil {
		tr.fatalf("shard %s: %v", name, err)
	}
	if err := checkSwept(st, killLoopStoreCfg().Window); err != nil {
		tr.fatalf("shard %s: %v", name, err)
	}
}

// checkIncidents requires name's primary to hold the incidents an
// in-memory store reaches from the records acked to it, in ack order:
// the same IDs, members, spans and resolutions, however many crashes
// and promotions the shard has been through.
func (tr *trial) checkIncidents(name string) {
	tr.t.Helper()
	ref := fleetstore.New(killLoopStoreCfg())
	for _, rec := range tr.acked {
		if tr.ring.Owner(rec.Fabric) == name {
			ref.Add(rec)
		}
	}
	if got, want := incidentLines(tr.shards[name].srv.Fleet()), incidentLines(ref); !slices.Equal(got, want) {
		tr.fatalf("shard %s incidents differ from the in-memory reference:\n got %v\nwant %v", name, got, want)
	}
}

// incidentLines renders st's incidents, open and resolved, one line
// each in the store's order.
func incidentLines(st *fleetstore.Store) []string {
	incs := st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode})
	out := make([]string, len(incs))
	for i, inc := range incs {
		out[i] = fmt.Sprintf("#%d %v..%v %v resolved=%v", inc.ID, inc.First, inc.Last, inc.Victims, inc.Resolved)
	}
	return out
}

// checkSwept is the watermark oracle: every admission that moves the
// watermark sweeps at it, so no open incident's join window lies wholly
// below the highest trigger time st holds. It holds when st's last
// admission moved the watermark: a trial's writes come in trigger-time
// order, so each does, and only a reshard copy lands behind it.
func checkSwept(st *fleetstore.Store, window sim.Time) error {
	recs := st.Records(fleetstore.Query{Node: fleetstore.AnyNode})
	if len(recs) == 0 {
		return nil
	}
	wm := recs[len(recs)-1].At
	for _, inc := range st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode}) {
		if !inc.Resolved && inc.Last+window < wm {
			return fmt.Errorf("incident #%d still open, last trigger %v, window passed at watermark %v", inc.ID, inc.Last, wm)
		}
	}
	return nil
}

// checkFrontdoor queries fd cluster-wide: merged incidents come out in
// first-seen order and merged rollup windows equal the reference. It
// returns the window count.
func (tr *trial) checkFrontdoor(fd *Frontdoor) int {
	tr.t.Helper()
	incs, shardErrs, err := fd.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil || len(shardErrs) != 0 {
		tr.fatalf("cluster incidents: err=%v shardErrs=%v", err, shardErrs)
	}
	for i := 1; i < len(incs); i++ {
		if incs[i-1].FirstNS > incs[i].FirstNS {
			tr.fatalf("merged incidents out of order at %d", i)
		}
	}
	res, shardErrs, err := fd.QueryRollups(wire.RollupQuery{})
	if err != nil || len(shardErrs) != 0 {
		tr.fatalf("cluster rollups: err=%v shardErrs=%v", err, shardErrs)
	}
	if err := compareRollups(res.Windows, tr.reference.Query(rollup.QueryOpts{}).Panes); err != nil {
		tr.fatalf("%v", err)
	}
	return len(res.Windows)
}

// recordStream is the trials' seeded record source: a unique victim
// per record (the exactly-once tracer) on one of trialFabrics fabrics,
// trigger times 20-80us apart, seed-chosen clustering attributes.
type recordStream struct {
	rng *sim.Rand
	at  sim.Time
	n   int
}

var (
	streamTypes  = []diagnosis.AnomalyType{diagnosis.TypeNormalContention, diagnosis.TypePFCContention, diagnosis.TypePFCStorm}
	streamScores = []float64{0.25, 0.5, 0.75, 0.95}
)

func (s *recordStream) next() fleetstore.Record {
	fabric := fmt.Sprintf("fab%02d", s.rng.Intn(trialFabrics))
	s.at += sim.Time(20+s.rng.Intn(60)) * sim.Microsecond
	rec := fleetstore.Record{
		Fabric:  fabric,
		At:      s.at,
		Victim:  fmt.Sprintf("v%06d", s.n),
		Type:    streamTypes[s.rng.Intn(len(streamTypes))],
		Node:    topo.NodeID(s.rng.Intn(3)),
		Port:    s.rng.Intn(2),
		Score:   streamScores[s.rng.Intn(len(streamScores))],
		StallNS: int64(1 + s.rng.Intn(1_000_000)),
	}
	s.n++
	return rec
}

// checkRecords is the exactly-once oracle: st holds each victim in want
// once, with its acked seq (0 = any seq), and nothing else.
func checkRecords(st *fleetstore.Store, want map[string]uint64) error {
	recs := st.Records(fleetstore.Query{Node: fleetstore.AnyNode})
	count := make(map[string]int, len(recs))
	for i := range recs {
		rec := &recs[i]
		count[rec.Victim]++
		seq, ok := want[rec.Victim]
		if !ok {
			return fmt.Errorf("record %q not acked for this shard (leaked by a failover or the reshard)", rec.Victim)
		}
		if seq != 0 && rec.Seq != seq {
			return fmt.Errorf("record %q recovered with seq %d, acked as %d", rec.Victim, rec.Seq, seq)
		}
		if count[rec.Victim] > 1 {
			return fmt.Errorf("record %q present %d times", rec.Victim, count[rec.Victim])
		}
	}
	if len(count) != len(want) {
		var missing []string
		for v := range want {
			if count[v] == 0 {
				missing = append(missing, v)
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("lost %d acked records (e.g. %q)", len(missing), missing[:min(3, len(missing))])
	}
	return nil
}

// compareRollups checks merged cluster windows against the reference
// summarizer's panes: same spans, exact counts and attribute maps,
// exact quantile renders, exact heavy hitters (the trials size sketches
// above the key cardinality, so merging loses nothing).
func compareRollups(merged []wire.RollupSummary, ref []rollup.Summary) error {
	refByStart := make(map[int64]*rollup.Summary, len(ref))
	for i := range ref {
		refByStart[int64(ref[i].Start)] = &ref[i]
	}
	if len(merged) != len(ref) {
		return fmt.Errorf("merged %d rollup windows, reference has %d", len(merged), len(ref))
	}
	for i := range merged {
		mw := &merged[i]
		rw := refByStart[mw.StartNS]
		if rw == nil {
			return fmt.Errorf("merged window at %d not in reference", mw.StartNS)
		}
		if mw.EndNS != int64(rw.End) {
			return fmt.Errorf("window at %d: span end %d vs reference %d", mw.StartNS, mw.EndNS, int64(rw.End))
		}
		if mw.Records != rw.Records {
			return fmt.Errorf("window at %d: %d records vs reference %d", mw.StartNS, mw.Records, rw.Records)
		}
		if err := equalCounts("type", mw.ByType, rw.ByType); err != nil {
			return fmt.Errorf("window at %d: %w", mw.StartNS, err)
		}
		if err := equalCounts("cause", mw.ByCause, rw.ByCause); err != nil {
			return fmt.Errorf("window at %d: %w", mw.StartNS, err)
		}
		if err := equalQuantiles("stall", mw.StallNS, rw.StallNS); err != nil {
			return fmt.Errorf("window at %d: %w", mw.StartNS, err)
		}
		if err := equalQuantiles("score", mw.Score, rw.Score); err != nil {
			return fmt.Errorf("window at %d: %w", mw.StartNS, err)
		}
		for _, level := range rollup.Levels {
			want := make(map[string]uint64, len(rw.TopLevels[level]))
			for _, h := range rw.TopLevels[level] {
				want[h.Key] = h.Count
			}
			got := make(map[string]uint64, len(mw.Top[level]))
			for _, h := range mw.Top[level] {
				got[h.Key] = h.Count
			}
			if err := equalCounts("level "+level, got, want); err != nil {
				return fmt.Errorf("window at %d: %w", mw.StartNS, err)
			}
		}
	}
	return nil
}

func equalCounts(what string, got, want map[string]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s counts differ: %v vs reference %v", what, got, want)
	}
	for k, n := range want {
		if got[k] != n {
			return fmt.Errorf("%s[%s] = %d vs reference %d", what, k, got[k], n)
		}
	}
	return nil
}

func equalQuantiles(what string, got wire.RollupQuantiles, want rollup.Quantiles) error {
	if got.Count != want.Count {
		return fmt.Errorf("%s count %d vs reference %d", what, got.Count, want.Count)
	}
	for _, pair := range [][2]float64{{got.P50, want.P50}, {got.P90, want.P90}, {got.P99, want.P99}, {got.Max, want.Max}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9*math.Max(1, math.Abs(pair[1])) {
			return fmt.Errorf("%s quantiles %+v vs reference %+v", what, got, want)
		}
	}
	return nil
}

package fleet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// Seeded kill-loop over a sharded cluster: the fleet tier's
// counterpart of chaos.CrashRestart. One trial stands up N shards —
// each a durable analyzer primary with a live TCP follower — routes a
// seed-chosen record stream across them by the consistent-hash ring,
// acknowledges each record only after its shard's follower holds it
// durably (the semi-sync barrier), then kills a seed-chosen primary
// each round and promotes its follower. The contract checked every
// failover and at the end:
//
//   - no acknowledged record is lost or duplicated across a promotion;
//   - routing is deterministic: an independently built ring agrees on
//     every fabric's owner;
//   - the cluster still answers with shards down, and the front door's
//     cross-shard rollup merge is identical to a single reference
//     summarizer that observed every record (counts and quantiles
//     exactly, heavy hitters exactly because the trial sizes its
//     sketches above the key cardinality).
//
// All randomness comes from forked streams of one seed, so a failing
// trial replays exactly.

// KillLoopConfig shapes a trial. Zero values are seed-chosen or sane
// defaults.
type KillLoopConfig struct {
	// Shards is the cluster width (0 = 3).
	Shards int
	// Rounds is the number of batch+failover cycles (0 = seed-chosen 2..4).
	Rounds int
	// MaxBatch bounds records admitted per round (0 = 48).
	MaxBatch int
	// Fabrics is the distinct fabric-name count routed across the ring
	// (0 = 9).
	Fabrics int
	// AckTimeout bounds each semi-sync wait, including a fresh
	// follower's full catch-up (0 = 15s).
	AckTimeout time.Duration
}

// KillLoopReport summarizes one trial.
type KillLoopReport struct {
	Shards, Rounds int
	// Acked counts records whose follower acknowledgement returned —
	// the set the failover contract protects.
	Acked int
	// Failovers counts follower promotions.
	Failovers int
	// Snapshots counts snapshots shipped to followers mid-stream.
	Snapshots uint64
	// Resyncs counts replication sessions torn and re-established.
	Resyncs uint64
	// MergedWindows counts rollup windows the front door merged and
	// verified against the reference summarizer.
	MergedWindows int
}

func (r KillLoopReport) String() string {
	return fmt.Sprintf("killloop: shards=%d rounds=%d acked=%d failovers=%d snapshots=%d resyncs=%d windows=%d",
		r.Shards, r.Rounds, r.Acked, r.Failovers, r.Snapshots, r.Resyncs, r.MergedWindows)
}

// liveShard is one shard's current primary + follower pair.
type liveShard struct {
	name string
	srv  *analyzd.Server
	fl   *Follower
	gen  int // follower directory generation
	// acked is the per-shard exactly-once ledger: victim -> seq.
	acked map[string]uint64
}

// killLoopStoreCfg sizes shard stores: synchronous WAL (Add's return
// is the durability barrier), retention far above the trial's volume
// (eviction is legitimate forgetting and would blunt the exactly-once
// check), snapshots only when the trial ships one deliberately.
func killLoopStoreCfg() fleetstore.Config {
	return fleetstore.Config{
		Shards:        4,
		ShardCapacity: 1 << 14,
		ResolvedKeep:  1 << 14,
		SnapshotEvery: 1 << 30,
		SegmentBytes:  2048,
	}
}

// killLoopRollupCfg sizes summarizers so the trial's sketches are
// exact: TopK above the worst-case per-pane key cardinality and enough
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

// KillLoop runs one seeded trial in dir. It returns an error
// describing the first contract violation.
func KillLoop(dir string, seed uint64, cfg KillLoopConfig) (KillLoopReport, error) {
	root := sim.NewRand(seed ^ 0xF1EE7F1EE7F1EE75)
	rngBatch := root.Fork()
	rngRec := root.Fork()
	rngKill := root.Fork()

	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2 + rngBatch.Intn(3)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 48
	}
	if cfg.Fabrics <= 0 {
		cfg.Fabrics = 9
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 15 * time.Second
	}

	rep := KillLoopReport{Shards: cfg.Shards, Rounds: cfg.Rounds}

	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	ring, err := NewRing(names, 0, seed)
	if err != nil {
		return rep, err
	}
	// An independently built ring must agree on every owner — the
	// routing-determinism contract (a second process routes with its
	// own ring, built only from the membership and the seed).
	checkRing, err := NewRing(append([]string(nil), names...), 0, seed)
	if err != nil {
		return rep, err
	}

	shards := make(map[string]*liveShard, cfg.Shards)
	defer func() {
		for _, sh := range shards {
			if sh.fl != nil {
				sh.fl.Stop()
			}
			if sh.srv != nil {
				sh.srv.Close()
			}
		}
	}()

	primaryDir := func(name string, gen int) string {
		return filepath.Join(dir, name, fmt.Sprintf("gen-%03d", gen))
	}
	startPrimary := func(name string, gen int, promote bool) (*analyzd.Server, error) {
		return analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{
			DataDir:   primaryDir(name, gen),
			Shard:     name,
			Fleet:     killLoopStoreCfg(),
			Rollup:    killLoopRollupCfg(),
			BumpEpoch: promote,
		})
	}
	for _, name := range names {
		srv, err := startPrimary(name, 0, false)
		if err != nil {
			return rep, fmt.Errorf("shard %s: %w", name, err)
		}
		fl, err := StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: primaryDir(name, 1)})
		if err != nil {
			srv.Close()
			return rep, fmt.Errorf("shard %s follower: %w", name, err)
		}
		shards[name] = &liveShard{name: name, srv: srv, fl: fl, gen: 1, acked: make(map[string]uint64)}
	}

	// The reference summarizer observes every record the cluster admits
	// — the single-store ground truth the merged rollups must equal.
	reference := rollup.New(killLoopRollupCfg())

	var at sim.Time
	recIdx := 0
	scores := []float64{0.25, 0.5, 0.75, 0.95}
	types := []diagnosis.AnomalyType{
		diagnosis.TypeNormalContention,
		diagnosis.TypePFCContention,
		diagnosis.TypePFCStorm,
	}

	for round := 0; round < cfg.Rounds; round++ {
		batch := 1 + rngBatch.Intn(cfg.MaxBatch)
		maxSeq := make(map[string]uint64, cfg.Shards)
		for i := 0; i < batch; i++ {
			fabric := fmt.Sprintf("fab%02d", rngRec.Intn(cfg.Fabrics))
			owner := ring.Owner(fabric)
			if got := checkRing.Owner(fabric); got != owner {
				return rep, fmt.Errorf("round %d: rings disagree on %s: %s vs %s", round, fabric, owner, got)
			}
			at += sim.Time(20+rngRec.Intn(60)) * sim.Microsecond
			rec := fleetstore.Record{
				Fabric:  fabric,
				At:      at,
				Victim:  fmt.Sprintf("v%06d", recIdx),
				Type:    types[rngRec.Intn(len(types))],
				Node:    topo.NodeID(rngRec.Intn(3)),
				Port:    rngRec.Intn(2),
				Score:   scores[rngRec.Intn(len(scores))],
				StallNS: int64(1 + rngRec.Intn(1_000_000)),
			}
			recIdx++
			sh := shards[owner]
			got := sh.srv.Fleet().Add(rec)
			reference.ObserveRecord(&got)
			sh.acked[rec.Victim] = got.Seq
			if got.Seq > maxSeq[owner] {
				maxSeq[owner] = got.Seq
			}
		}
		// Semi-sync barrier: the follower's watermark is contiguous, so
		// reaching the shard's max sequence acknowledges the whole batch.
		for name, seq := range maxSeq {
			if err := shards[name].fl.WaitForSeq(seq, cfg.AckTimeout); err != nil {
				return rep, fmt.Errorf("round %d: %w", round, err)
			}
		}
		rep.Acked += batch

		// Occasionally checkpoint a surviving primary: the snapshot
		// ships to its follower mid-stream and the next promotion
		// recovers through snapshot + delta instead of pure replay.
		if rngKill.Intn(2) == 0 {
			name := names[rngKill.Intn(len(names))]
			if err := shards[name].srv.Fleet().Checkpoint(); err != nil {
				return rep, fmt.Errorf("round %d: checkpoint %s: %w", round, name, err)
			}
		}

		// Kill one seed-chosen primary — no flush, no goodbye — and
		// promote its follower into a new primary.
		name := names[rngKill.Intn(len(names))]
		sh := shards[name]
		sh.srv.Fleet().Abort()
		sh.srv.Close()
		if err := sh.fl.Stop(); err != nil {
			return rep, fmt.Errorf("round %d: stop follower %s: %w", round, name, err)
		}
		rep.Snapshots += sh.fl.Snapshots()
		rep.Resyncs += sh.fl.Resyncs()
		srv, err := startPrimary(name, sh.gen, true)
		if err != nil {
			return rep, fmt.Errorf("round %d: promote %s: %w", round, name, err)
		}
		rep.Failovers++
		// The promoted store must hold exactly the acknowledged set.
		if err := checkAckedSet(srv.Fleet(), sh.acked); err != nil {
			srv.Close()
			return rep, fmt.Errorf("round %d: shard %s after failover: %w", round, name, err)
		}
		sh.gen++
		fl, err := StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: primaryDir(name, sh.gen)})
		if err != nil {
			srv.Close()
			return rep, fmt.Errorf("round %d: new follower %s: %w", round, name, err)
		}
		sh.srv, sh.fl = srv, fl
	}

	// Final: every shard holds exactly its acknowledged set.
	for _, name := range names {
		if err := checkAckedSet(shards[name].srv.Fleet(), shards[name].acked); err != nil {
			return rep, fmt.Errorf("final: shard %s: %w", name, err)
		}
	}

	for _, name := range names {
		rep.Snapshots += shards[name].fl.Snapshots()
		rep.Resyncs += shards[name].fl.Resyncs()
	}

	// Front door across the survivors: merged incidents in
	// deterministic order, merged rollups equal to the reference.
	specs := make([]ShardSpec, 0, cfg.Shards)
	for _, name := range names {
		specs = append(specs, ShardSpec{Name: name, Addr: shards[name].srv.Addr()})
	}
	fd, err := NewFrontdoor(specs, 0, seed)
	if err != nil {
		return rep, err
	}
	defer fd.Close()

	incs, shardErrs, err := fd.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil {
		return rep, fmt.Errorf("final: cluster incidents: %w", err)
	}
	if len(shardErrs) != 0 {
		return rep, fmt.Errorf("final: cluster incidents: shard errors %v", shardErrs)
	}
	for i := 1; i < len(incs); i++ {
		if incs[i-1].FirstNS > incs[i].FirstNS {
			return rep, fmt.Errorf("final: merged incidents out of order at %d", i)
		}
	}

	res, shardErrs, err := fd.QueryRollups(wire.RollupQuery{})
	if err != nil {
		return rep, fmt.Errorf("final: cluster rollups: %w", err)
	}
	if len(shardErrs) != 0 {
		return rep, fmt.Errorf("final: cluster rollups: shard errors %v", shardErrs)
	}
	refPanes := reference.Query(rollup.QueryOpts{}).Panes
	if err := compareRollups(res.Windows, refPanes); err != nil {
		return rep, fmt.Errorf("final: %w", err)
	}
	rep.MergedWindows = len(res.Windows)
	return rep, nil
}

// checkAckedSet verifies the exactly-once contract on one shard: each
// acknowledged record present once with its acked sequence, nothing
// unacknowledged leaked in.
func checkAckedSet(st *fleetstore.Store, acked map[string]uint64) error {
	recs := st.Records(fleetstore.Query{Node: fleetstore.AnyNode})
	count := make(map[string]int, len(recs))
	for i := range recs {
		rec := &recs[i]
		count[rec.Victim]++
		wantSeq, ok := acked[rec.Victim]
		if !ok {
			return fmt.Errorf("unacknowledged record %q survived the failover", rec.Victim)
		}
		if rec.Seq != wantSeq {
			return fmt.Errorf("record %q recovered with seq %d, acked as %d", rec.Victim, rec.Seq, wantSeq)
		}
	}
	if len(count) != len(acked) {
		var missing []string
		for v := range acked {
			if count[v] == 0 {
				missing = append(missing, v)
			}
		}
		sort.Strings(missing)
		if len(missing) > 3 {
			missing = missing[:3]
		}
		return fmt.Errorf("lost %d acknowledged records (e.g. %q)", len(acked)-len(count), missing)
	}
	for v, n := range count {
		if n != 1 {
			return fmt.Errorf("record %q present %d times", v, n)
		}
	}
	return nil
}

// compareRollups checks the merged cluster windows against the
// reference summarizer's panes: same spans, exact counts and attribute
// maps, exact quantile renders, exact heavy hitters (the trial sizes
// sketches above the key cardinality, so merging loses nothing).
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
			if len(got) != len(want) {
				return fmt.Errorf("window at %d level %s: %d hitters vs reference %d",
					mw.StartNS, level, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					return fmt.Errorf("window at %d level %s: key %s count %d vs reference %d",
						mw.StartNS, level, k, got[k], n)
				}
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

// cleanTrialDir resets a kill-loop directory between seeds.
func cleanTrialDir(dir string) error {
	return os.RemoveAll(dir)
}

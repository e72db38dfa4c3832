package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// Seeded partition + reshard chaos loop: KillLoop's harder sibling.
// Where KillLoop drives stores directly and only kills primaries, this
// trial pushes every record through the resilient writer router over
// TCP, and each round
//
//  1. ingests a batch via fleet.Writer (semi-sync acks: a record is
//     acked only after the shard's follower holds it durably);
//  2. once per trial, runs a live reshard mid-batch — the executor
//     freezes, copies, and cuts each planned fabric over to a new ring
//     while the writer keeps ingesting around it;
//  3. kills a seed-chosen primary, promotes its follower (epoch bump),
//     and repoints the writer and front door;
//  4. revives the dead primary from its old directory behind a
//     "partition" (a listener nobody routes to) and probes it: one
//     epoch announce must demote it, and every subsequent write must be
//     refused with the typed fencing error — zero post-fence acks;
//  5. attaches a fresh follower to the promoted primary and waits for
//     full catch-up (sequence and epoch) before the next kill.
//
// The final contract: every shard holds exactly the acked victims its
// FINAL ring position owns (exactly-once across failovers and the
// reshard), merged front-door rollups equal a single reference
// summarizer that observed every acked record, and merged incidents
// come out ordered. All randomness forks from one seed.

// ReshardLoopConfig shapes a trial. Zero values are seed-chosen or
// sane defaults.
type ReshardLoopConfig struct {
	// Shards is the cluster width (0 = 3).
	Shards int
	// Rounds is the number of batch+failover cycles (0 = seed-chosen
	// 2..4). The reshard runs in round Rounds/2.
	Rounds int
	// MaxBatch bounds records ingested per round (0 = 32).
	MaxBatch int
	// Fabrics is the distinct fabric-name count routed across the ring
	// (0 = 9).
	Fabrics int
	// AckTimeout bounds each catch-up wait and the writer's freeze hold
	// (0 = 20s).
	AckTimeout time.Duration
	// SemiSync is the per-write follower-ack bound (0 = 10s).
	SemiSync time.Duration
}

// ReshardLoopReport summarizes one trial.
type ReshardLoopReport struct {
	Shards, Rounds int
	// Acked counts writer-acked records — the exactly-once set.
	Acked int
	// Duplicates counts acks the dedup watermark classified as resends.
	Duplicates int
	// Failovers counts follower promotions; StaleFenced the write
	// refusals collected from revived stale primaries.
	Failovers   int
	StaleFenced int
	// Moves/Copied count the reshard's fabric migrations and shipped
	// records.
	Moves  int
	Copied int
	// Reroutes counts writer re-resolutions after fencing/moved
	// refusals.
	Reroutes uint64
	// MergedWindows counts rollup windows verified against the
	// reference.
	MergedWindows int
}

func (r ReshardLoopReport) String() string {
	return fmt.Sprintf("reshardloop: shards=%d rounds=%d acked=%d dup=%d failovers=%d fenced=%d moves=%d copied=%d reroutes=%d windows=%d",
		r.Shards, r.Rounds, r.Acked, r.Duplicates, r.Failovers, r.StaleFenced, r.Moves, r.Copied, r.Reroutes, r.MergedWindows)
}

// ReshardLoop runs one seeded trial in dir. It returns an error
// describing the first contract violation.
func ReshardLoop(dir string, seed uint64, cfg ReshardLoopConfig) (ReshardLoopReport, error) {
	root := sim.NewRand(seed ^ 0x5E5A4DD00F157EE7)
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
		cfg.MaxBatch = 32
	}
	if cfg.Fabrics <= 0 {
		cfg.Fabrics = 9
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 20 * time.Second
	}
	if cfg.SemiSync <= 0 {
		cfg.SemiSync = 10 * time.Second
	}

	rep := ReshardLoopReport{Shards: cfg.Shards, Rounds: cfg.Rounds}

	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	fabNames := make([]string, cfg.Fabrics)
	for i := range fabNames {
		fabNames[i] = fmt.Sprintf("fab%02d", i)
	}
	oldRing, err := NewRing(names, 0, seed)
	if err != nil {
		return rep, err
	}

	retry := analyzd.RetryConfig{
		MaxAttempts: 5, BaseBackoff: 2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond, JitterFrac: 0.2, Seed: seed,
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
			SemiSync:  cfg.SemiSync,
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
		shards[name] = &liveShard{name: name, srv: srv, fl: fl, gen: 1}
		// The epoch too, not just the sequence: a shard holding no records
		// makes WaitForSeq vacuous before the stream's epoch announce lands.
		if err := fl.waitEpoch(srv.Fleet().Epoch(), cfg.AckTimeout); err != nil {
			return rep, fmt.Errorf("shard %s: %w", name, err)
		}
	}

	specs := make([]ShardSpec, cfg.Shards)
	for i, name := range names {
		specs[i] = ShardSpec{Name: name, Addr: shards[name].srv.Addr()}
	}
	writer, err := NewWriter(WriterConfig{
		Specs: specs, Seed: seed, Retry: retry,
		MaxAttempts: 24, FreezeWait: cfg.AckTimeout,
	})
	if err != nil {
		return rep, err
	}
	defer writer.Close()
	fd, err := NewFrontdoor(specs, 0, seed)
	if err != nil {
		return rep, err
	}
	defer fd.Close()

	// The reference summarizer observes every writer-acked record in
	// trigger-time order — the single-store ground truth the merged
	// cluster rollups must equal, no matter how many promotions and
	// migrations the records lived through.
	reference := rollup.New(killLoopRollupCfg())

	ackedByFabric := make(map[string]map[string]struct{}, cfg.Fabrics)
	var at sim.Time
	recIdx := 0
	scores := []float64{0.25, 0.5, 0.75, 0.95}
	types := []diagnosis.AnomalyType{
		diagnosis.TypeNormalContention,
		diagnosis.TypePFCContention,
		diagnosis.TypePFCStorm,
	}
	makeRec := func(fabric string) fleetstore.Record {
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
		return rec
	}
	writeOne := func() error {
		fabric := fabNames[rngRec.Intn(cfg.Fabrics)]
		rec := makeRec(fabric)
		ack, err := writer.Write(fabric, rec)
		if err != nil {
			return fmt.Errorf("write %s/%s: %w", fabric, rec.Victim, err)
		}
		if ack.Duplicate {
			rep.Duplicates++
		}
		reference.ObserveRecord(&rec)
		set := ackedByFabric[fabric]
		if set == nil {
			set = make(map[string]struct{})
			ackedByFabric[fabric] = set
		}
		set[rec.Victim] = struct{}{}
		rep.Acked++
		return nil
	}

	reshardRound := cfg.Rounds / 2
	var nextRing *Ring // non-nil once the reshard has landed

	for round := 0; round < cfg.Rounds; round++ {
		batch := 1 + rngBatch.Intn(cfg.MaxBatch)
		inBatch := func(n int) error {
			for i := 0; i < n; i++ {
				if err := writeOne(); err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
			}
			return nil
		}
		if round != reshardRound || nextRing != nil {
			if err := inBatch(batch); err != nil {
				return rep, err
			}
		} else {
			// Live reshard, concurrent with ingest: write half the batch,
			// start the executor, keep writing while it migrates. Writes to
			// a frozen fabric hold until its cutover; everything else keeps
			// flowing — the ingest-continuity claim under test.
			if err := inBatch(batch / 2); err != nil {
				return rep, err
			}
			nr, moves := replanRing(names, fabNames, oldRing, seed)
			if len(moves) == 0 {
				return rep, fmt.Errorf("round %d: no reshard plan found", round)
			}
			rs := NewReshardState(oldRing, nr, moves)
			writer.SetReshard(rs)
			fd.SetReshard(rs)
			curSpecs := make([]ShardSpec, 0, cfg.Shards)
			for _, name := range names {
				curSpecs = append(curSpecs, ShardSpec{Name: name, Addr: shards[name].srv.Addr()})
			}
			ex, err := NewExecutor(curSpecs, retry)
			if err != nil {
				return rep, err
			}
			type exDone struct {
				rep *ReshardReport
				err error
			}
			done := make(chan exDone, 1)
			go func() {
				r, err := ex.Execute(rs)
				done <- exDone{r, err}
			}()
			ingestErr := inBatch(batch - batch/2)
			res := <-done
			ex.Close()
			if ingestErr != nil {
				return rep, ingestErr
			}
			if res.err != nil {
				return rep, fmt.Errorf("round %d: %w", round, res.err)
			}
			if !rs.Done() {
				return rep, fmt.Errorf("round %d: reshard reported success with moves pending", round)
			}
			writer.FinishReshard()
			fd.FinishReshard()
			nextRing = nr
			rep.Moves = len(moves)
			for _, mr := range res.rep.Moves {
				rep.Copied += mr.Copied
			}
			// Front-door routing must already follow the migrated ring: a
			// fabric-scoped query for a moved fabric answers without shard
			// errors.
			if _, errs, err := fd.QueryIncidents(wire.IncidentQuery{Fabric: moves[0].Fabric, Node: -1}); err != nil || len(errs) != 0 {
				return rep, fmt.Errorf("round %d: post-reshard query on %s: err=%v shardErrs=%v",
					round, moves[0].Fabric, err, errs)
			}
		}

		// Occasionally checkpoint a survivor so later promotions recover
		// through snapshot + delta instead of pure replay.
		if rngKill.Intn(2) == 0 {
			name := names[rngKill.Intn(len(names))]
			if err := shards[name].srv.Fleet().Checkpoint(); err != nil {
				return rep, fmt.Errorf("round %d: checkpoint %s: %w", round, name, err)
			}
		}

		// Kill one primary — no flush, no goodbye — and promote its
		// follower with an epoch bump.
		name := names[rngKill.Intn(len(names))]
		sh := shards[name]
		staleGen := sh.gen - 1
		sh.srv.Fleet().Abort()
		sh.srv.Close()
		if err := sh.fl.Stop(); err != nil {
			return rep, fmt.Errorf("round %d: stop follower %s: %w", round, name, err)
		}
		srv, err := startPrimary(name, sh.gen, true)
		if err != nil {
			return rep, fmt.Errorf("round %d: promote %s: %w", round, name, err)
		}
		rep.Failovers++
		spec := ShardSpec{Name: name, Addr: srv.Addr()}
		if err := writer.Update(spec); err != nil {
			srv.Close()
			return rep, err
		}
		if err := fd.Update(spec); err != nil {
			srv.Close()
			return rep, err
		}
		sh.srv = srv
		sh.fl = nil

		// Revive the dead primary from its old directory behind a
		// partition: a fresh listener the writer and front door never
		// learn about. One epoch announce must demote it; after that,
		// zero acks, ever.
		if err := probeStalePrimary(name, primaryDir(name, staleGen), srv.Fleet().Epoch(), retry, &rep, func(gen int) (*analyzd.Server, error) {
			return startPrimary(name, gen, false)
		}, staleGen); err != nil {
			return rep, fmt.Errorf("round %d: %w", round, err)
		}

		// Fresh follower, full catch-up — sequence and epoch — before
		// anything else can die.
		sh.gen++
		fl, err := StartFollower(FollowerConfig{Addr: srv.Addr(), Dir: primaryDir(name, sh.gen)})
		if err != nil {
			return rep, fmt.Errorf("round %d: new follower %s: %w", round, name, err)
		}
		sh.fl = fl
		if err := fl.WaitForSeq(srv.Fleet().Seq(), cfg.AckTimeout); err != nil {
			return rep, fmt.Errorf("round %d: follower catch-up %s: %w", round, name, err)
		}
		if err := fl.waitEpoch(srv.Fleet().Epoch(), cfg.AckTimeout); err != nil {
			return rep, fmt.Errorf("round %d: shard %s: %w", round, name, err)
		}
	}

	// Final: every shard holds exactly the acked victims its final ring
	// position owns — exactly once, across every promotion and the
	// migration.
	finalRing := oldRing
	if nextRing != nil {
		finalRing = nextRing
	}
	expected := make(map[string]map[string]struct{}, cfg.Shards)
	for _, name := range names {
		expected[name] = make(map[string]struct{})
	}
	for fabric, victims := range ackedByFabric {
		owner := finalRing.Owner(fabric)
		for v := range victims {
			expected[owner][v] = struct{}{}
		}
	}
	for _, name := range names {
		if err := checkVictimSet(shards[name].srv.Fleet(), expected[name]); err != nil {
			return rep, fmt.Errorf("final: shard %s: %w", name, err)
		}
	}

	// Cluster health: nobody fenced, every follower's mirrored epoch
	// agrees with its primary — in the primary's own view, which trails
	// the follower's by the ack in flight, so wait for that ack first.
	for _, name := range names {
		if seq, ok := shards[name].srv.WaitFollower(cfg.AckTimeout); !ok {
			return rep, fmt.Errorf("final: shard %s: follower ack stuck at %d", name, seq)
		}
	}
	for _, st := range fd.Health() {
		if st.Err != nil {
			return rep, fmt.Errorf("final: health %s: %w", st.Spec.Name, st.Err)
		}
		if st.Info.Fenced {
			return rep, fmt.Errorf("final: shard %s fenced", st.Spec.Name)
		}
		if st.Info.Replicas > 0 && st.Info.FollowerEpoch != st.Info.Epoch {
			return rep, fmt.Errorf("final: shard %s epoch %d, follower mirrored %d",
				st.Spec.Name, st.Info.Epoch, st.Info.FollowerEpoch)
		}
	}

	// Merged incidents ordered; merged rollups equal the reference.
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
	if err := compareRollups(res.Windows, reference.Query(rollup.QueryOpts{}).Panes); err != nil {
		return rep, fmt.Errorf("final: %w", err)
	}
	rep.MergedWindows = len(res.Windows)
	rep.Reroutes = writer.Reroutes.Load()
	return rep, nil
}

// replanRing searches nearby layout seeds for a next ring whose plan
// against the current one actually moves fabrics. Same membership,
// different layout — a rebalance, the smallest honest reshard.
func replanRing(names, fabrics []string, old *Ring, seed uint64) (*Ring, []Move) {
	for bump := uint64(1); bump <= 16; bump++ {
		nr, err := NewRing(append([]string(nil), names...), 0, seed+bump)
		if err != nil {
			continue
		}
		if moves := Plan(old, nr, fabrics); len(moves) > 0 {
			return nr, moves
		}
	}
	return nil, nil
}

// probeStalePrimary revives a killed primary from its old directory on
// a fresh listener and verifies the fencing contract: its recovered
// epoch is behind the promoted one, a single epoch announce demotes it
// durably, and every write after that is refused with the typed
// fencing error — the zero-post-fence-acks invariant.
func probeStalePrimary(name, dir string, promotedEpoch uint64, retry analyzd.RetryConfig,
	rep *ReshardLoopReport, start func(gen int) (*analyzd.Server, error), staleGen int) error {
	stale, err := start(staleGen)
	if err != nil {
		return fmt.Errorf("revive stale %s: %w", name, err)
	}
	defer stale.Close()
	if se := stale.Fleet().Epoch(); se >= promotedEpoch {
		return fmt.Errorf("stale %s revived with epoch %d, promotion only reached %d", name, se, promotedEpoch)
	}
	probe, err := analyzd.DialOperatorRetry(stale.Addr(), retry)
	if err != nil {
		return fmt.Errorf("dial stale %s: %w", name, err)
	}
	defer probe.Close()
	info, err := probe.AnnounceEpoch(name, promotedEpoch)
	if err != nil {
		return fmt.Errorf("announce to stale %s: %w", name, err)
	}
	if !info.Fenced || info.Observed != promotedEpoch {
		return fmt.Errorf("stale %s not demoted by announce: %+v", name, *info)
	}
	before := len(stale.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode}))
	for i := 0; i < 2; i++ {
		rec := fleetstore.Record{Fabric: "fence-probe", Victim: fmt.Sprintf("stale-%d", i)}
		body, err := json.Marshal(&rec)
		if err != nil {
			return err
		}
		_, werr := probe.WriteRecord(wire.WriteRequest{
			Fabric: "fence-probe", OriginSeq: uint64(i + 1), Record: body,
		})
		if werr == nil {
			return fmt.Errorf("stale %s acked write %d after fencing", name, i)
		}
		if !errors.Is(werr, analyzd.ErrFenced) {
			return fmt.Errorf("stale %s refused write %d without the typed fencing error: %v", name, i, werr)
		}
		rep.StaleFenced++
	}
	if after := len(stale.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode})); after != before {
		return fmt.Errorf("stale %s store grew %d -> %d records post-fence", name, before, after)
	}
	return nil
}

// checkVictimSet verifies one shard holds exactly the expected acked
// victims, each once.
func checkVictimSet(st *fleetstore.Store, want map[string]struct{}) error {
	recs := st.Records(fleetstore.Query{Node: fleetstore.AnyNode})
	count := make(map[string]int, len(recs))
	for i := range recs {
		count[recs[i].Victim]++
	}
	for v, n := range count {
		if n != 1 {
			return fmt.Errorf("record %q present %d times", v, n)
		}
		if _, ok := want[v]; !ok {
			return fmt.Errorf("record %q not acked for this shard (leaked by a failover or the reshard)", v)
		}
	}
	if len(count) != len(want) {
		missing := 0
		var example string
		for v := range want {
			if count[v] == 0 {
				missing++
				if example == "" {
					example = v
				}
			}
		}
		return fmt.Errorf("lost %d acked records (e.g. %q)", missing, example)
	}
	return nil
}

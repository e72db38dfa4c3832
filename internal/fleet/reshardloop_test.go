package fleet

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"testing"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/wire"
)

// -fleet.reshard.seeds widens the partition+reshard sweep; CI's
// reshard-smoke job runs 20 under -race, the default keeps
// `go test ./...` quick.
var reshardSeeds = flag.Int("fleet.reshard.seeds", 2, "partition+reshard trials to run")

const (
	// reshardMaxBatch bounds the records ingested per round.
	reshardMaxBatch = 32
	// reshardSemiSync is each primary's per-write follower-ack bound.
	reshardSemiSync = 10 * time.Second
)

// TestReshardLoop is the epoch-fencing acceptance gate: a cluster
// ingesting through the resilient writer survives primary kills,
// follower promotions, revived stale primaries behind a partition, and
// one live reshard per trial — with every acked record exactly once on
// its final owner, zero post-fence acks from stale primaries, and
// front-door rollup merges identical to a single reference summarizer.
func TestReshardLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("partition+reshard trials are not short")
	}
	for seed := 0; seed < *reshardSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) { reshardLoop(t, uint64(seed)) })
	}
}

// reshardLoop runs one seeded trial: the kill loop's harder sibling.
// Every record goes through the resilient writer over TCP, and each
// round
//
//  1. ingests a batch via the Writer (semi-sync acks: a record is acked
//     only after the shard's follower holds it durably);
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
// final ring position owns (exactly-once across failovers and the
// reshard), merged front-door rollups equal a single reference
// summarizer that observed every acked record, and merged incidents
// come out ordered.
func reshardLoop(t *testing.T, seed uint64) {
	tr := newTrial(t, seed, 0x5E5A4DD00F157EE7, reshardSemiSync)
	fabrics := make([]string, trialFabrics)
	for i := range fabrics {
		fabrics[i] = fmt.Sprintf("fab%02d", i)
	}
	retry := testRetry(seed)
	writer, err := NewWriter(WriterConfig{
		Specs: tr.specs(), Seed: seed, Retry: retry,
		MaxAttempts: 24, FreezeWait: trialAckTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	fd, err := NewFrontdoor(tr.specs(), 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	// write ingests n records; the reference observes each writer-acked
	// one in trigger-time order, however many promotions and migrations
	// it then lives through.
	var dups, fenced, moves, copied int
	write := func(n int) error {
		for i := 0; i < n; i++ {
			rec := tr.recs.next()
			ack, err := writer.Write(rec.Fabric, rec)
			if err != nil {
				return fmt.Errorf("write %s/%s: %w", rec.Fabric, rec.Victim, err)
			}
			if ack.Duplicate {
				dups++
			}
			tr.ack(&rec)
		}
		return nil
	}

	for ; tr.round < tr.rounds; tr.round++ {
		batch := 1 + tr.rngBatch.Intn(reshardMaxBatch)
		if tr.round != tr.rounds/2 {
			if err := write(batch); err != nil {
				tr.fatalf("%v", err)
			}
		} else {
			// Live reshard, concurrent with ingest: write half the batch,
			// start the executor, keep writing while it migrates. Writes to
			// a frozen fabric hold until its cutover; everything else keeps
			// flowing — the ingest-continuity claim under test.
			if err := write(batch / 2); err != nil {
				tr.fatalf("%v", err)
			}
			nr, plan := replanRing(tr.names, fabrics, tr.ring, seed)
			if len(plan) == 0 {
				tr.fatalf("no reshard plan found")
			}
			rs := NewReshardState(tr.ring, nr, plan)
			writer.SetReshard(rs)
			fd.SetReshard(rs)
			ex, err := NewExecutor(tr.specs(), retry)
			if err != nil {
				tr.fatalf("%v", err)
			}
			var rep *ReshardReport
			done := make(chan error, 1)
			go func() {
				var err error
				rep, err = ex.Execute(rs)
				done <- err
			}()
			ingestErr := write(batch - batch/2)
			exErr := <-done
			ex.Close()
			if ingestErr != nil {
				tr.fatalf("%v", ingestErr)
			}
			if exErr != nil {
				tr.fatalf("%v", exErr)
			}
			if !rs.Done() {
				tr.fatalf("reshard reported success with moves pending")
			}
			writer.FinishReshard()
			fd.FinishReshard()
			tr.ring = nr
			moves = len(plan)
			for _, mr := range rep.Moves {
				copied += mr.Copied
			}
			// Front-door routing must already follow the migrated ring: a
			// fabric-scoped query for a moved fabric answers without shard
			// errors.
			if _, errs, err := fd.QueryIncidents(wire.IncidentQuery{Fabric: plan[0].Fabric, Node: -1}); err != nil || len(errs) != 0 {
				tr.fatalf("post-reshard query on %s: err=%v shardErrs=%v", plan[0].Fabric, err, errs)
			}
		}

		tr.maybeCheckpoint()
		name := tr.killAndPromote()
		spec := ShardSpec{Name: name, Addr: tr.shards[name].srv.Addr()}
		if err := writer.Update(spec); err != nil {
			tr.fatalf("%v", err)
		}
		if err := fd.Update(spec); err != nil {
			tr.fatalf("%v", err)
		}
		fenced += tr.probeStale(name, retry)
		tr.attachFollower(name)
	}

	// One closing write per shard moves its watermark past the reshard
	// copies, which landed behind it, so checkAcked's watermark oracle
	// covers every incident. Then every shard holds exactly the acked
	// victims its final ring position owns — exactly once, across every
	// promotion and the migration.
	for _, name := range tr.names {
		rec := tr.recs.next()
		rec.Fabric = fabricOwnedBy(tr.ring, name)
		if _, err := writer.Write(rec.Fabric, rec); err != nil {
			tr.fatalf("closing write to %s: %v", name, err)
		}
		tr.ack(&rec)
	}
	for _, name := range tr.names {
		tr.checkAcked(name)
	}
	// Cluster health: nobody fenced, every follower's mirrored epoch
	// agrees with its primary — in the primary's own view, which trails
	// the follower's by the ack in flight, so wait for that ack first.
	for _, name := range tr.names {
		if seq, ok := tr.shards[name].srv.WaitFollower(trialAckTimeout); !ok {
			tr.fatalf("shard %s: follower ack stuck at %d", name, seq)
		}
	}
	for _, st := range fd.Health() {
		if st.Err != nil {
			tr.fatalf("health %s: %v", st.Spec.Name, st.Err)
		}
		if st.Info.Fenced {
			tr.fatalf("shard %s fenced", st.Spec.Name)
		}
		if st.Info.Replicas > 0 && st.Info.FollowerEpoch != st.Info.Epoch {
			tr.fatalf("shard %s epoch %d, follower mirrored %d", st.Spec.Name, st.Info.Epoch, st.Info.FollowerEpoch)
		}
	}
	windows := tr.checkFrontdoor(fd)

	rep := fmt.Sprintf("reshardloop: shards=%d rounds=%d acked=%d dup=%d failovers=%d fenced=%d moves=%d copied=%d reroutes=%d windows=%d",
		trialShards, tr.rounds, len(tr.acked), dups, tr.failovers, fenced, moves, copied, writer.Reroutes.Load(), windows)
	if tr.failovers != tr.rounds {
		t.Fatalf("%d failovers over %d rounds: %s", tr.failovers, tr.rounds, rep)
	}
	// Every round fences its revived stale primary twice; the trial
	// always runs exactly one reshard that moves at least one fabric.
	if fenced != 2*tr.rounds {
		t.Fatalf("%d fence refusals over %d rounds: %s", fenced, tr.rounds, rep)
	}
	if moves == 0 {
		t.Fatalf("reshard moved nothing: %s", rep)
	}
	if len(tr.acked) == 0 || windows == 0 {
		t.Fatalf("degenerate trial: %s", rep)
	}
	t.Log(rep)
}

// fabricOwnedBy returns a fabric name that ring places on shard.
func fabricOwnedBy(ring *Ring, shard string) string {
	for i := 0; ; i++ {
		if f := fmt.Sprintf("close%02d", i); ring.Owner(f) == shard {
			return f
		}
	}
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

// probeStale revives name's killed primary from its old directory on a
// fresh listener and verifies the fencing contract: its recovered epoch
// is behind the promoted one, a single epoch announce demotes it
// durably, and every write after that is refused with the typed fencing
// error — the zero-post-fence-acks invariant. It returns the refusals.
func (tr *trial) probeStale(name string, retry analyzd.RetryConfig) int {
	tr.t.Helper()
	promoted := tr.shards[name]
	promotedEpoch := promoted.srv.Fleet().Epoch()
	stale := tr.startPrimary(name, promoted.gen-1, false)
	defer stale.Close()
	if se := stale.Fleet().Epoch(); se >= promotedEpoch {
		tr.fatalf("stale %s revived with epoch %d, promotion only reached %d", name, se, promotedEpoch)
	}
	probe, err := analyzd.DialOperatorRetry(stale.Addr(), retry)
	if err != nil {
		tr.fatalf("dial stale %s: %v", name, err)
	}
	defer probe.Close()
	info, err := probe.AnnounceEpoch(name, promotedEpoch)
	if err != nil {
		tr.fatalf("announce to stale %s: %v", name, err)
	}
	if !info.Fenced || info.Observed != promotedEpoch {
		tr.fatalf("stale %s not demoted by announce: %+v", name, *info)
	}
	before := len(stale.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode}))
	refused := 0
	for i := 0; i < 2; i++ {
		rec := fleetstore.Record{Fabric: "fence-probe", Victim: fmt.Sprintf("stale-%d", i)}
		body, err := json.Marshal(&rec)
		if err != nil {
			tr.fatalf("%v", err)
		}
		_, werr := probe.WriteRecord(wire.WriteRequest{
			Fabric: "fence-probe", OriginSeq: uint64(i + 1), Record: body,
		})
		if werr == nil {
			tr.fatalf("stale %s acked write %d after fencing", name, i)
		}
		if !errors.Is(werr, analyzd.ErrFenced) {
			tr.fatalf("stale %s refused write %d without the typed fencing error: %v", name, i, werr)
		}
		refused++
	}
	if after := len(stale.Fleet().Records(fleetstore.Query{Node: fleetstore.AnyNode})); after != before {
		tr.fatalf("stale %s store grew %d -> %d records post-fence", name, before, after)
	}
	return refused
}

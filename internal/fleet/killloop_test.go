package fleet

import (
	"flag"
	"fmt"
	"testing"
)

// -fleet.seeds widens the kill-loop sweep; CI's cluster-smoke job runs
// 20 under -race, the default keeps `go test ./...` quick.
var fleetSeeds = flag.Int("fleet.seeds", 3, "kill-loop trials to run")

// killMaxBatch bounds the records admitted per kill-loop round.
const killMaxBatch = 48

// TestKillLoop is the fleet tier's acceptance gate: a 3-shard cluster
// survives a seeded primary-kill/follower-promotion loop with no
// acknowledged record lost, deterministic routing, and front-door
// rollup merges identical to a single reference summarizer.
func TestKillLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-loop trials are not short")
	}
	for seed := 0; seed < *fleetSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) { killLoop(t, uint64(seed)) })
	}
}

// killLoop runs one seeded trial. Records go straight into the owning
// shard's store, and each is acknowledged only once the shard's
// follower holds it durably (the semi-sync barrier). Each round then
// kills a seed-chosen primary and promotes its follower. The contract,
// checked every failover and at the end:
//
//   - no acknowledged record is lost or duplicated across a promotion;
//   - a promoted shard's open and resolved incidents equal those of an
//     in-memory store fed the shard's acked records in ack order, and
//     none is left open past its join window;
//   - routing is deterministic: an independently built ring agrees on
//     every fabric's owner;
//   - the front door's cross-shard rollup merge is identical to a
//     single reference summarizer that observed every record (counts
//     and quantiles exactly, heavy hitters exactly because the trial
//     sizes its sketches above the key cardinality).
func killLoop(t *testing.T, seed uint64) {
	tr := newTrial(t, seed, 0xF1EE7F1EE7F1EE75, 0)
	// A second process routes with its own ring, built only from the
	// membership and the seed.
	checkRing, err := NewRing(append([]string(nil), tr.names...), 0, seed)
	if err != nil {
		t.Fatal(err)
	}

	for ; tr.round < tr.rounds; tr.round++ {
		batch := 1 + tr.rngBatch.Intn(killMaxBatch)
		maxSeq := make(map[string]uint64, trialShards)
		for i := 0; i < batch; i++ {
			rec := tr.recs.next()
			owner := tr.ring.Owner(rec.Fabric)
			if got := checkRing.Owner(rec.Fabric); got != owner {
				tr.fatalf("rings disagree on %s: %s vs %s", rec.Fabric, owner, got)
			}
			got := tr.shards[owner].srv.Fleet().Add(rec)
			tr.ack(&got)
			maxSeq[owner] = max(maxSeq[owner], got.Seq)
		}
		// Semi-sync barrier: the follower's watermark is contiguous, so
		// reaching the shard's max sequence acknowledges the whole batch.
		for name, seq := range maxSeq {
			if err := tr.shards[name].fl.WaitForSeq(seq, trialAckTimeout); err != nil {
				tr.fatalf("%v", err)
			}
		}

		tr.maybeCheckpoint()
		name := tr.killAndPromote()
		// The promoted store must hold exactly the acknowledged set, and
		// the incidents those records make in ack order.
		tr.checkAcked(name)
		tr.checkIncidents(name)
		tr.attachFollower(name)
	}

	for _, name := range tr.names {
		tr.checkAcked(name)
	}
	fd, err := NewFrontdoor(tr.specs(), 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	windows := tr.checkFrontdoor(fd)

	snapshots, resyncs := tr.snapshots, tr.resyncs
	for _, sh := range tr.shards {
		snapshots += sh.fl.Snapshots()
		resyncs += sh.fl.Resyncs()
	}
	rep := fmt.Sprintf("killloop: shards=%d rounds=%d acked=%d failovers=%d snapshots=%d resyncs=%d windows=%d",
		trialShards, tr.rounds, len(tr.acked), tr.failovers, snapshots, resyncs, windows)
	if tr.failovers != tr.rounds {
		t.Fatalf("%d failovers over %d rounds: %s", tr.failovers, tr.rounds, rep)
	}
	if len(tr.acked) == 0 || windows == 0 {
		t.Fatalf("degenerate trial: %s", rep)
	}
	t.Log(rep)
}

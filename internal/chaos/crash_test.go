package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// -crash.seeds widens the sweep for the recovery-smoke CI job; the
// default keeps `go test ./...` quick.
var crashSeeds = flag.Int("crash.seeds", 4, "crash-restart trial seeds to sweep")

// TestCrashRestartRecovery sweeps seeded crash-restart trials over the
// durable fleet store: every acknowledged record survives every crash
// exactly once, incident IDs never repeat across restarts, torn WAL
// tails are truncated, and replay stays bounded.
func TestCrashRestartRecovery(t *testing.T) {
	for seed := 0; seed < *crashSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := crashRestart(t.TempDir(), uint64(seed), crashConfig{})
			if err != nil {
				t.Fatalf("seed %d: %v (%s)", seed, err, rep)
			}
			if rep.Acked == 0 || rep.Replayed == 0 {
				t.Fatalf("seed %d: degenerate trial %s", seed, rep)
			}
			if rep.MaxReplay > crashReplayBound {
				t.Fatalf("seed %d: replay unbounded: %s", seed, rep)
			}
			t.Log(rep)
		})
	}
}

// TestCrashRestartCleanShutdown pins a three-round trial whose torn
// tails are at most one byte, the smallest partial frame: recovery must
// truncate it as surely as a long tear and keep every acked record.
func TestCrashRestartCleanShutdown(t *testing.T) {
	rep, err := crashRestart(t.TempDir(), 99, crashConfig{rounds: 3, maxTear: 1})
	if err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	if rep.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", rep.Rounds)
	}
}

// Crash-restart harness for the durable fleet store: the process-death
// counterpart of the telemetry fault engine. One trial runs several
// crash cycles over one data directory — admit a seed-chosen batch of
// diagnosis records with synchronous WAL acknowledgement, kill the
// store with no flush, smear seed-chosen torn garbage over the WAL
// tail (the half-written record a real power cut leaves), reopen, and
// check the recovery contract: every acknowledged record is present
// exactly once, incident IDs never repeat across restarts, and replay
// time stays bounded. All randomness comes from forked streams of one
// seed, so a failing trial replays exactly.

const (
	// crashMaxBatch bounds the records admitted per round.
	crashMaxBatch = 60
	// crashReplayBound fails the trial if any reopen takes longer.
	crashReplayBound = 5 * time.Second
)

// crashConfig shapes a trial. Zero values are seed-chosen.
type crashConfig struct {
	// rounds is the number of crash cycles (0 = seed-chosen 2..4).
	rounds int
	// maxTear bounds the garbage appended to the WAL tail after each
	// crash, in bytes (0 = 96; one in four crashes is left clean).
	maxTear int
}

// crashReport summarizes one trial.
type crashReport struct {
	Rounds int
	// Acked counts records whose Add returned before a crash — the set
	// the recovery contract protects.
	Acked int
	// Replayed counts WAL entries re-admitted across all reopens.
	Replayed int
	// TornBytes counts tail garbage injected and truncated away.
	TornBytes int
	// Incidents is the distinct incident-ID count at the end.
	Incidents int
	// MaxReplay is the slowest reopen.
	MaxReplay time.Duration
}

func (r crashReport) String() string {
	return fmt.Sprintf("crash: rounds=%d acked=%d replayed=%d torn=%dB incidents=%d maxReplay=%s",
		r.Rounds, r.Acked, r.Replayed, r.TornBytes, r.Incidents, r.MaxReplay)
}

// crashRestart runs one seeded crash-restart trial in dir (which must
// be empty or a previous trial's directory — every round reopens it).
// It returns an error describing the first recovery-contract violation.
func crashRestart(dir string, seed uint64, cfg crashConfig) (crashReport, error) {
	root := sim.NewRand(seed ^ 0xC4A5C4A5C4A5C4A5)
	rngBatch := root.Fork()
	rngRec := root.Fork()
	rngTear := root.Fork()

	rounds := cfg.rounds
	if rounds <= 0 {
		rounds = 2 + rngBatch.Intn(3)
	}
	maxTear := cfg.maxTear
	if maxTear <= 0 {
		maxTear = 96
	}

	// Small segments and frequent checkpoints so a trial exercises
	// segment rollover, compaction and snapshot+delta recovery, not
	// just single-segment replay. Synchronous appends make Add's
	// return the acknowledgement barrier. The ring must outlast the
	// trial: eviction is legitimate forgetting, which would make the
	// exactly-once check vacuous.
	storeCfg := fleetstore.Config{
		Shards:        4,
		ShardCapacity: 4096,
		ResolvedKeep:  4096,
		SnapshotEvery: 16 + rngBatch.Intn(48),
		SegmentBytes:  4096,
	}

	var rep crashReport
	rep.Rounds = rounds
	acked := make(map[string]uint64) // victim key -> seq
	var maxSeq uint64
	seenIDs := make(map[uint64]bool)
	recIdx := 0

	for round := 0; round < rounds; round++ {
		start := time.Now()
		st, err := fleetstore.Open(dir, storeCfg)
		if err != nil {
			return rep, fmt.Errorf("round %d: open: %w", round, err)
		}
		elapsed := time.Since(start)
		if elapsed > rep.MaxReplay {
			rep.MaxReplay = elapsed
		}
		if elapsed > crashReplayBound {
			st.Abort()
			return rep, fmt.Errorf("round %d: replay took %s, bound %s", round, elapsed, crashReplayBound)
		}
		rep.Replayed += st.ReplayedRecords()

		// The recovered store must hold exactly the acknowledged set.
		if err := checkAcked(st, acked); err != nil {
			st.Abort()
			return rep, fmt.Errorf("round %d: %w", round, err)
		}
		// Incident IDs present now must never collide with a fresh ID
		// later; remember everything recovered so far.
		for _, inc := range st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode}) {
			seenIDs[inc.ID] = true
		}

		// Admit this round's batch. Every Add that returns is acked:
		// the synchronous WAL made it durable.
		batch := 1 + rngBatch.Intn(crashMaxBatch)
		for i := 0; i < batch; i++ {
			rec := randomRecord(rngRec, recIdx)
			recIdx++
			got := st.Add(rec)
			if got.Seq <= maxSeq {
				st.Abort()
				return rep, fmt.Errorf("round %d: seq %d did not advance past %d across restart",
					round, got.Seq, maxSeq)
			}
			maxSeq = got.Seq
			acked[rec.Victim] = got.Seq
			rep.Acked++
		}

		// Crash: no flush, no final checkpoint — then tear the tail.
		st.Abort()
		if rngTear.Intn(4) != 0 {
			n, err := tearWALTail(dir, rngTear, maxTear)
			if err != nil {
				return rep, fmt.Errorf("round %d: tear: %w", round, err)
			}
			rep.TornBytes += n
		}
	}

	// Final reopen: the full acked set survived every crash, and new
	// incident IDs never reused a recovered one.
	start := time.Now()
	st, err := fleetstore.Open(dir, storeCfg)
	if err != nil {
		return rep, fmt.Errorf("final open: %w", err)
	}
	defer st.Close()
	if elapsed := time.Since(start); elapsed > rep.MaxReplay {
		rep.MaxReplay = elapsed
	}
	rep.Replayed += st.ReplayedRecords()
	if err := checkAcked(st, acked); err != nil {
		return rep, fmt.Errorf("final: %w", err)
	}
	incs := st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode})
	final := make(map[uint64]bool, len(incs))
	for _, inc := range incs {
		if final[inc.ID] {
			return rep, fmt.Errorf("final: duplicate incident ID %d", inc.ID)
		}
		final[inc.ID] = true
	}
	rep.Incidents = len(final)
	// A fresh admission must mint an ID beyond everything ever seen.
	probe := st.Add(randomRecord(rngRec, recIdx))
	if probe.Seq <= maxSeq {
		return rep, fmt.Errorf("final: probe seq %d did not advance past %d", probe.Seq, maxSeq)
	}
	for _, inc := range st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode}) {
		if !final[inc.ID] && seenIDs[inc.ID] {
			return rep, fmt.Errorf("final: new incident reused recovered ID %d", inc.ID)
		}
	}
	return rep, nil
}

// checkAcked verifies the exactly-once recovery contract: each
// acknowledged record is in the store once, with its admitted sequence
// number, and nothing unacknowledged leaked in.
func checkAcked(st *fleetstore.Store, acked map[string]uint64) error {
	recs := st.Records(fleetstore.Query{Node: fleetstore.AnyNode})
	count := make(map[string]int, len(recs))
	for i := range recs {
		rec := &recs[i]
		count[rec.Victim]++
		wantSeq, ok := acked[rec.Victim]
		if !ok {
			return fmt.Errorf("unacknowledged record %q survived the crash", rec.Victim)
		}
		if rec.Seq != wantSeq {
			return fmt.Errorf("record %q recovered with seq %d, acked as %d", rec.Victim, rec.Seq, wantSeq)
		}
	}
	if len(count) != len(acked) {
		missing := make([]string, 0)
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
			return fmt.Errorf("record %q recovered %d times", v, n)
		}
	}
	return nil
}

// randomRecord builds a diagnosis record with a unique victim key (the
// exactly-once tracer) and seed-chosen clustering attributes, so trials
// exercise incident joins, growth and multi-incident recovery.
func randomRecord(rng *sim.Rand, idx int) fleetstore.Record {
	types := []diagnosis.AnomalyType{
		diagnosis.TypeNormalContention,
		diagnosis.TypePFCContention,
		diagnosis.TypePFCStorm,
	}
	rec := fleetstore.Record{
		Fabric: fmt.Sprintf("pod-%c", 'a'+rune(rng.Intn(3))),
		At:     sim.Time(idx+1) * 50 * sim.Microsecond,
		Victim: fmt.Sprintf("v%06d", idx),
		Type:   types[rng.Intn(len(types))],
		Node:   topo.NodeID(rng.Intn(6)),
		Port:   rng.Intn(8),
	}
	if rng.Intn(3) == 0 {
		rec.Culprits = []string{fmt.Sprintf("flow-%d", rng.Intn(16))}
	}
	return rec
}

// tearWALTail appends up to maxTear garbage bytes to the last WAL
// segment — the torn half-record an interrupted write leaves. Recovery
// must truncate it and keep everything acknowledged before it.
func tearWALTail(dir string, rng *sim.Rand, maxTear int) (int, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	n := 1 + rng.Intn(maxTear)
	garbage := make([]byte, n)
	for i := range garbage {
		garbage[i] = byte(rng.Uint64())
	}
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(garbage); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}

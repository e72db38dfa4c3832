package fleetstore_test

import (
	"fmt"
	"reflect"
	"testing"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// TestAdmissionDoorsAgree feeds one seeded record stream through every
// way a record enters a store — the ingest pipeline, Add, AddUnique,
// WAL replay, and snapshot restore plus replay — and requires the same
// incidents (ID, members, resolution) and the same rollup panes (start,
// record count, closure) from each. The stream runs in trigger order
// except for one record delivered out of order inside the join window
// (and inside a pane that is still open) and one gap past the window.
func TestAdmissionDoorsAgree(t *testing.T) {
	recs := doorStream(1)
	if recs[90].At >= recs[89].At || recs[60].At-recs[59].At < 3*doorWindow {
		t.Fatal("stream lost its out-of-order record or its gap")
	}
	doors := []struct {
		name string
		run  func(t *testing.T, recs []fleetstore.Record) doorView
	}{
		{"pipeline", func(t *testing.T, recs []fleetstore.Record) doorView {
			st, sum := newDoorStore()
			p := fleetstore.NewPipeline(st, len(recs), 1)
			defer p.Close()
			for _, rec := range recs {
				if !p.Offer(rec) {
					t.Fatal("pipeline dropped a record")
				}
			}
			p.Drain()
			return viewOf(st, sum)
		}},
		{"add", func(t *testing.T, recs []fleetstore.Record) doorView {
			st, sum := newDoorStore()
			for _, rec := range recs {
				st.Add(rec)
			}
			return viewOf(st, sum)
		}},
		{"add-unique", func(t *testing.T, recs []fleetstore.Record) doorView {
			st, sum := newDoorStore()
			for _, rec := range recs {
				if _, outcome := st.AddUnique(rec); outcome != fleetstore.Admitted {
					t.Fatalf("record %s refused: outcome=%v", rec.Victim, outcome)
				}
			}
			return viewOf(st, sum)
		}},
		{"wal-replay", func(t *testing.T, recs []fleetstore.Record) doorView {
			return reopened(t, recs, -1)
		}},
		{"snapshot-restore", func(t *testing.T, recs []fleetstore.Record) doorView {
			return reopened(t, recs, len(recs)/2)
		}},
	}
	var want doorView
	for i, d := range doors {
		got := d.run(t, recs)
		if i == 0 {
			want = got
			if err := want.nonVacuous(); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			continue
		}
		if !reflect.DeepEqual(got.Incidents, want.Incidents) {
			t.Errorf("%s incidents differ from %s:\n got %+v\nwant %+v", d.name, doors[0].name, got.Incidents, want.Incidents)
		}
		if !reflect.DeepEqual(got.Panes, want.Panes) {
			t.Errorf("%s panes differ from %s:\n got %+v\nwant %+v", d.name, doors[0].name, got.Panes, want.Panes)
		}
	}
}

const (
	doorPane   = 2 * sim.Millisecond
	doorWindow = 2 * sim.Millisecond
)

func newDoorStore() (*fleetstore.Store, *rollup.Summarizer) {
	sum := rollup.New(rollup.Config{Pane: doorPane})
	return fleetstore.New(doorStoreCfg(sum)), sum
}

func doorStoreCfg(sum *rollup.Summarizer) fleetstore.Config {
	return fleetstore.Config{Window: doorWindow, Observer: sum}
}

// reopened admits recs into a durable store with Add, checkpointing
// after the first checkpointAt records (never when negative), crashes
// it, and reopens the directory with a fresh observer.
func reopened(t *testing.T, recs []fleetstore.Record, checkpointAt int) doorView {
	dir := t.TempDir()
	st, err := fleetstore.Open(dir, doorStoreCfg(rollup.New(rollup.Config{Pane: doorPane})))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i == checkpointAt {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		st.Add(rec)
	}
	st.Abort()
	sum := rollup.New(rollup.Config{Pane: doorPane})
	st2, err := fleetstore.Open(dir, doorStoreCfg(sum))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if checkpointAt >= 0 && st2.ReplayedRecords() != len(recs)-checkpointAt {
		t.Fatalf("replayed %d records past the snapshot, want %d", st2.ReplayedRecords(), len(recs)-checkpointAt)
	}
	return viewOf(st2, sum)
}

// doorStream is 120 records 20-200us apart over three fabrics, three
// anomaly classes and three anchor nodes, with a 3x-window gap before
// record 60, and record 90 delivered 150us behind the watermark, in the
// same pane as the watermark.
func doorStream(seed uint64) []fleetstore.Record {
	rng := sim.NewRand(seed)
	types := []diagnosis.AnomalyType{diagnosis.TypePFCContention, diagnosis.TypePFCStorm, diagnosis.TypeNormalContention}
	recs := make([]fleetstore.Record, 120)
	var at, wm sim.Time
	for i := range recs {
		at += sim.Time(20+rng.Intn(180)) * sim.Microsecond
		if i == 60 {
			at += 3 * doorWindow
		}
		recAt := at
		if i == 90 {
			recAt = max(wm-150*sim.Microsecond, wm/doorPane*doorPane)
			at = wm
		}
		wm = max(wm, recAt)
		recs[i] = fleetstore.Record{
			Fabric:    fmt.Sprintf("fab%d", rng.Intn(3)),
			At:        recAt,
			Victim:    fmt.Sprintf("v%03d", i),
			Type:      types[rng.Intn(len(types))],
			Node:      topo.NodeID(rng.Intn(3)),
			Score:     0.5,
			StallNS:   int64(1 + rng.Intn(1_000_000)),
			OriginSeq: uint64(i + 1),
		}
	}
	return recs
}

type doorIncident struct {
	ID         uint64
	Victims    []string
	Complaints int
	Resolved   bool
}

type doorPaneView struct {
	Start   sim.Time
	Records uint64
	Closed  bool
}

type doorView struct {
	Incidents []doorIncident
	Panes     []doorPaneView
}

func viewOf(st *fleetstore.Store, sum *rollup.Summarizer) doorView {
	var v doorView
	for _, inc := range st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode}) {
		v.Incidents = append(v.Incidents, doorIncident{ID: inc.ID, Victims: inc.Victims, Complaints: inc.Complaints, Resolved: inc.Resolved})
	}
	for _, p := range sum.Query(rollup.QueryOpts{}).Panes {
		v.Panes = append(v.Panes, doorPaneView{Start: p.Start, Records: p.Records, Closed: p.Closed})
	}
	return v
}

// nonVacuous requires the reference view to exercise both sides of
// each rule: resolved and open incidents, closed and open panes.
func (v doorView) nonVacuous() error {
	var resolved, closed int
	for _, inc := range v.Incidents {
		if inc.Resolved {
			resolved++
		}
	}
	for _, p := range v.Panes {
		if p.Closed {
			closed++
		}
	}
	if resolved == 0 || resolved == len(v.Incidents) || closed == 0 || closed == len(v.Panes) {
		return fmt.Errorf("degenerate stream: %d of %d incidents resolved, %d of %d panes closed",
			resolved, len(v.Incidents), closed, len(v.Panes))
	}
	return nil
}

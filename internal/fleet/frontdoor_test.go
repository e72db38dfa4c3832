package fleet

import (
	"encoding/json"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hawkeye/internal/rollup"
	"hawkeye/internal/wire"
)

// Two shards answering a fleet-wide query: incidents merge in
// first-seen order, rollup windows and the sliding view merge to
// exactly what one summarizer observing every record would have said,
// and the sketch payloads stay opt-in. Once one shard's sliding span
// differs, the merged view is omitted rather than blended.
func TestFrontdoorMergeMatchesReference(t *testing.T) {
	dir := t.TempDir()
	a := testShard(t, filepath.Join(dir, "a"), "shard-a")
	defer a.Close()
	b := testShard(t, filepath.Join(dir, "b"), "shard-b")
	defer b.Close()

	reference := rollup.New(killLoopRollupCfg())
	// Interleave fabrics across both shards over a shared time range so
	// every rollup pane has contributions from both: 58 records 50us
	// apart fill panes 0-2 (1ms each) on each shard.
	for i := 0; i < 58; i++ {
		rec := testRec("fabA", i)
		if i%2 == 1 {
			rec.Fabric = "fabB"
		}
		var got = rec
		if i%2 == 0 {
			got = a.Fleet().Add(rec)
		} else {
			got = b.Fleet().Add(rec)
		}
		reference.ObserveRecord(&got)
	}

	fd, err := NewFrontdoor([]ShardSpec{
		{Name: "shard-a", Addr: a.Addr()},
		{Name: "shard-b", Addr: b.Addr()},
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	incs, shardErrs, err := fd.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil || len(shardErrs) != 0 {
		t.Fatalf("incidents: err=%v shardErrs=%v", err, shardErrs)
	}
	if len(incs) == 0 {
		t.Fatal("no incidents merged")
	}
	for i := 1; i < len(incs); i++ {
		if incs[i-1].FirstNS > incs[i].FirstNS {
			t.Fatalf("merged incidents out of order at %d", i)
		}
	}

	const sliding = 2
	res, shardErrs, err := fd.QueryRollups(wire.RollupQuery{Sliding: sliding})
	if err != nil || len(shardErrs) != 0 {
		t.Fatalf("rollups: err=%v shardErrs=%v", err, shardErrs)
	}
	ref := reference.Query(rollup.QueryOpts{Sliding: sliding})
	if err := compareRollups(res.Windows, ref.Panes); err != nil {
		t.Fatal(err)
	}
	if res.Sliding == nil {
		t.Fatal("shards agreeing on the sliding span returned no merged view")
	}
	if err := compareRollups([]wire.RollupSummary{*res.Sliding}, []rollup.Summary{*ref.Sliding}); err != nil {
		t.Fatalf("sliding: %v", err)
	}
	for _, w := range res.Windows {
		if w.Sketches != nil {
			t.Fatal("sketch state leaked into a query that did not ask for it")
		}
	}
	res, _, err = fd.QueryRollups(wire.RollupQuery{IncludeSketches: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Windows {
		if len(w.Sketches) == 0 {
			t.Fatal("IncludeSketches returned a window without sketch state")
		}
	}

	// Shard b alone reaches pane 3: its last two panes are 2-3, shard
	// a's are 1-2.
	b.Fleet().Add(testRec("fabB", 69))
	res, _, err = fd.QueryRollups(wire.RollupQuery{Sliding: sliding})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sliding != nil {
		t.Fatalf("sliding views over different spans merged into %d..%d", res.Sliding.StartNS, res.Sliding.EndNS)
	}
}

// A sliding view the shards agree on but cannot merge fails the query,
// as a window merge error does: dropping it would answer with a result
// that silently lacks the view the query asked for.
func TestFrontdoorSlidingMergeErrorFailsQuery(t *testing.T) {
	// Both shards report the same sliding span and no windows; the
	// view's sketch state does not decode.
	bad := wire.RollupResult{Sliding: &wire.RollupSummary{
		StartNS: 0, EndNS: 2e6, Records: 1, Sketches: json.RawMessage(`[]`),
	}}
	fd, err := NewFrontdoor([]ShardSpec{
		{Name: "shard-a", Addr: fakeRollupShard(t, bad)},
		{Name: "shard-b", Addr: fakeRollupShard(t, bad)},
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	res, shardErrs, err := fd.QueryRollups(wire.RollupQuery{Sliding: 2})
	if len(shardErrs) != 0 {
		t.Fatalf("shard errors %v: both shards answered", shardErrs)
	}
	if err == nil {
		t.Fatalf("sliding merge error dropped: query answered %+v", res)
	}
	if !strings.Contains(err.Error(), "sliding") {
		t.Fatalf("error %q does not name the sliding view", err)
	}
}

// fakeRollupShard serves the operator handshake and answers every
// rollup query with res, so a test controls exactly what a shard
// replies. It returns the listen address.
func fakeRollupShard(t *testing.T, res wire.RollupResult) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup runs after the test's deferred fd.Close has closed the
	// clients, so every connection goroutine has returned or will.
	var wg sync.WaitGroup
	t.Cleanup(func() {
		lis.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					mt, _, err := wire.ReadFrame(conn)
					if err != nil {
						return
					}
					switch mt {
					case wire.MsgHello:
						err = wire.WriteFrame(conn, wire.MsgHelloOK, nil)
					case wire.MsgQueryRollups:
						err = wire.WriteJSON(conn, wire.MsgRollupList, res)
					default:
						err = wire.WriteFrame(conn, wire.MsgError, []byte("fake shard: unsupported request"))
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// A dead shard degrades a fleet-wide query to partial results with the
// failure reported per shard; health rows mark it unreachable instead
// of failing the probe.
func TestFrontdoorPartialResultsWithShardDown(t *testing.T) {
	dir := t.TempDir()
	a := testShard(t, filepath.Join(dir, "a"), "shard-a")
	defer a.Close()
	b := testShard(t, filepath.Join(dir, "b"), "shard-b")

	for i := 0; i < 6; i++ {
		a.Fleet().Add(testRec("fabA", i))
	}
	for i := 6; i < 12; i++ {
		b.Fleet().Add(testRec("fabB", i))
	}

	fd, err := NewFrontdoor([]ShardSpec{
		{Name: "shard-a", Addr: a.Addr()},
		{Name: "shard-b", Addr: b.Addr()},
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	// Healthy cluster first, so the front door has cached sessions that
	// must be invalidated when the shard dies.
	if _, errs, err := fd.QueryIncidents(wire.IncidentQuery{Node: -1}); err != nil || len(errs) != 0 {
		t.Fatalf("healthy query: err=%v errs=%v", err, errs)
	}

	b.Fleet().Abort()
	b.Close()

	incs, shardErrs, err := fd.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil {
		t.Fatalf("partial query failed outright: %v", err)
	}
	if len(shardErrs) != 1 || shardErrs[0].Shard != "shard-b" {
		t.Fatalf("shard errors = %v, want one for shard-b", shardErrs)
	}
	if len(incs) == 0 {
		t.Fatal("surviving shard's incidents missing from partial result")
	}

	rows := fd.Health()
	if len(rows) != 2 {
		t.Fatalf("health rows = %d, want 2", len(rows))
	}
	for _, row := range rows {
		switch row.Spec.Name {
		case "shard-a":
			if row.Err != nil || row.Health == nil || row.Info == nil {
				t.Fatalf("healthy shard row: %+v", row)
			}
			if row.Info.Shard != "shard-a" {
				t.Fatalf("shard identity %q, want shard-a", row.Info.Shard)
			}
		case "shard-b":
			if row.Err == nil {
				t.Fatal("dead shard reported healthy")
			}
		}
	}
}

// Fabric-scoped requests route to the ring owner alone.
func TestFrontdoorFabricScopedRouting(t *testing.T) {
	dir := t.TempDir()
	a := testShard(t, filepath.Join(dir, "a"), "shard-a")
	defer a.Close()
	b := testShard(t, filepath.Join(dir, "b"), "shard-b")
	defer b.Close()

	fd, err := NewFrontdoor([]ShardSpec{
		{Name: "shard-a", Addr: a.Addr()},
		{Name: "shard-b", Addr: b.Addr()},
	}, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	// Route records the way a writer would, then ask the front door for
	// one fabric: only the owner's records can answer.
	owner := fd.Owner("fabX")
	var ownerSrv = a
	if owner.Name == "shard-b" {
		ownerSrv = b
	}
	for i := 0; i < 5; i++ {
		ownerSrv.Fleet().Add(testRec("fabX", i))
	}
	incs, shardErrs, err := fd.QueryIncidents(wire.IncidentQuery{Fabric: "fabX", Node: -1})
	if err != nil || len(shardErrs) != 0 {
		t.Fatalf("scoped query: err=%v errs=%v", err, shardErrs)
	}
	if len(incs) == 0 {
		t.Fatal("owner shard returned no incidents for its fabric")
	}
}

// A cluster-wide tail merges incident events from every shard,
// annotated with their source.
func TestFrontdoorSubscribe(t *testing.T) {
	dir := t.TempDir()
	a := testShard(t, filepath.Join(dir, "a"), "shard-a")
	defer a.Close()
	b := testShard(t, filepath.Join(dir, "b"), "shard-b")
	defer b.Close()

	fd, err := NewFrontdoor([]ShardSpec{
		{Name: "shard-a", Addr: a.Addr()},
		{Name: "shard-b", Addr: b.Addr()},
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()

	tail, shardErrs, err := fd.Subscribe(wire.SubscribeRequest{Node: -1}, 16)
	if err != nil || len(shardErrs) != 0 {
		t.Fatalf("subscribe: err=%v errs=%v", err, shardErrs)
	}
	defer tail.Close()

	a.Fleet().Add(testRec("fabA", 0))
	b.Fleet().Add(testRec("fabB", 1))

	got := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(got) < 2 {
		select {
		case ev, ok := <-tail.Events():
			if !ok {
				t.Fatalf("tail closed early; saw %v", got)
			}
			got[ev.Shard] = true
		case <-deadline:
			t.Fatalf("timed out; saw %v", got)
		}
	}
	if !got["shard-a"] || !got["shard-b"] {
		t.Fatalf("events from %v, want both shards", got)
	}
}

// Rollup example: three fabrics, one summarized view. The same fleet
// scenario as examples/fleet — two pods suffering an incast, a third a
// PFC storm — but instead of drinking the raw incident firehose, the
// operator tails the analyzer's bounded-memory rollup summaries. The
// example counts both streams side by side and asserts the compression
// the rollups exist to provide: at least 10x fewer rollup events than
// raw incident events. It then drills back down — from the hottest
// switch in the summary to the constituent incidents in the store — to
// show the summary is a lens, not a lossy dead end. Exits non-zero if
// either property fails.
//
//	go run ./examples/rollup
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/core"
	"hawkeye/internal/experiments"
	"hawkeye/internal/rollup"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

func main() {
	// Wide panes and sparse progress updates: the trials replay a few
	// milliseconds of fabric time, so one pane holds the whole storm
	// and the event stream stays quiet while the store churns.
	rcfg := rollup.DefaultConfig()
	rcfg.Pane = 10 * 1000 * 1000 // 10ms of fabric time
	rcfg.UpdateEvery = 256
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{Rollup: rcfg})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("analyzer service on %s\n", srv.Addr())

	// Two operator tails, side by side: the raw incident firehose and
	// the rollup summary stream. Both just count; the point is the
	// ratio between them.
	var rawEvents, rollupEvents atomic.Uint64
	var tails sync.WaitGroup

	raw, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer raw.Close()
	if err := raw.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		log.Fatal(err)
	}
	tails.Add(1)
	go func() {
		defer tails.Done()
		for {
			if _, err := raw.NextEvent(); err != nil {
				return // server closed
			}
			rawEvents.Add(1)
		}
	}()

	sum, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer sum.Close()
	if err := sum.SubscribeRollups(wire.RollupSubscribeRequest{}); err != nil {
		log.Fatal(err)
	}
	tails.Add(1)
	go func() {
		defer tails.Done()
		for {
			ev, err := sum.NextRollup()
			if err != nil {
				return
			}
			rollupEvents.Add(1)
			fmt.Printf("  rollup [%s] %d record(s): %s\n",
				strings.ToUpper(ev.Kind), ev.Summary.Records, ev.Summary.Headline)
		}
	}()

	fabrics := []struct {
		name     string
		scenario string
	}{
		{"pod-a", workload.NameIncast},
		{"pod-b", workload.NameIncast},
		{"pod-c", workload.NameStorm},
	}
	var wg sync.WaitGroup
	for _, f := range fabrics {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := driveFabric(srv.Addr(), f.name, f.scenario); err != nil {
				log.Printf("%s: %v", f.name, err)
			}
		}()
	}
	wg.Wait()

	// Query the summarized view. QueryRollups drains the ingest
	// pipeline first, so this reads everything the fabrics filed.
	q, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()
	res, err := q.QueryRollups(wire.RollupQuery{Sliding: 8})
	if err != nil {
		log.Fatal(err)
	}
	if res.Sliding == nil {
		fmt.Fprintln(os.Stderr, "FAIL: no rollup windows after three fabrics reported")
		os.Exit(1)
	}
	view := res.Sliding
	fmt.Printf("\nsummarized view (%d window(s) merged): %s\n", len(res.Windows), view.Headline)
	fmt.Printf("  %d record(s); types: %v\n", view.Records, view.ByType)
	for _, level := range []string{"fabric", "switch"} {
		for _, h := range view.Top[level] {
			fmt.Printf("  top %-6s %s = %d (±%d)\n", level, h.Key, h.Count, h.Err)
		}
	}
	fmt.Printf("  sketch state: %d bytes, %d evictions\n", view.Bytes, view.Evictions)

	// Drill down: the hottest switch key encodes the node ID
	// (fabric/pod/N<id>), and the store can answer for it directly.
	if len(view.Top["switch"]) == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: summarized view has no switch heavy hitters")
		os.Exit(1)
	}
	hot := view.Top["switch"][0].Key
	node, err := nodeFromKey(hot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
		os.Exit(1)
	}
	incs, err := q.QueryIncidents(wire.IncidentQuery{Node: node})
	if err != nil {
		log.Fatal(err)
	}
	if len(incs) == 0 {
		fmt.Fprintf(os.Stderr, "FAIL: drill-down from %s (node %d) found no incidents\n", hot, node)
		os.Exit(1)
	}
	fmt.Printf("\ndrill-down %s -> node %d -> %d incident(s):\n", hot, node, len(incs))
	for _, inc := range incs {
		fmt.Printf("  #%d %s\n", inc.ID, inc.Summary)
	}

	// Let the forwarders deliver what the drained pipeline published,
	// then cut both tails and compare volumes.
	time.Sleep(200 * time.Millisecond)
	raw.Close()
	sum.Close()
	tails.Wait()

	rawN, sumN := rawEvents.Load(), rollupEvents.Load()
	fmt.Printf("\nstream volume: %d raw incident events vs %d rollup events\n", rawN, sumN)
	if sumN == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: rollup tail saw no events")
		os.Exit(1)
	}
	if rawN < 10*sumN {
		fmt.Fprintf(os.Stderr, "FAIL: want raw >= 10x rollup volume, got %dx\n", rawN/sumN)
		os.Exit(1)
	}
	fmt.Printf("OK: rollup stream is %dx quieter than the incident firehose\n", rawN/sumN)
}

// nodeFromKey recovers the node ID from a switch-level rollup key,
// which ends in "/N<id>".
func nodeFromKey(key string) (int, error) {
	i := strings.LastIndexByte(key, '/')
	if i < 0 || i+2 > len(key) || key[i+1] != 'N' {
		return 0, fmt.Errorf("malformed switch key %q", key)
	}
	node, err := strconv.Atoi(key[i+2:])
	if err != nil {
		return 0, fmt.Errorf("malformed switch key %q: %v", key, err)
	}
	return node, nil
}

// driveFabric simulates one fabric's anomaly and replays it into the
// analyzer under the given fleet name, exactly as examples/fleet does.
func driveFabric(addr, name, scenario string) error {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(scenario, 1))
	if err != nil {
		return err
	}
	c, err := analyzd.DialFabric(addr, name, tr.Cl.Topo, int64(tr.Sys.Cfg.Telemetry.EpochSize()))
	if err != nil {
		return err
	}
	defer c.Close()
	for _, rep := range tr.View.Traced {
		if err := c.SendReport(rep); err != nil {
			return err
		}
	}
	if res := tr.Score.Result; res != nil {
		for _, hr := range tr.Sys.Sessions()[res.Trigger.DiagID].HostReports {
			if err := c.SendHostReport(hr); err != nil {
				return err
			}
		}
	}
	complaints := 0
	for _, r := range tr.Results {
		if !tr.GT.Victims[r.Trigger.Victim] || r.Trigger.At < tr.GT.AnomalyAt {
			continue
		}
		path := core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, r.Trigger.Victim)
		if _, err := c.DiagnoseAt(r.Trigger.Victim, int64(r.Trigger.At), path...); err != nil {
			return err
		}
		complaints++
	}
	fmt.Printf("%s: %s — %d telemetry reports, %d complaints filed\n",
		name, scenario, len(tr.View.Traced), complaints)
	return nil
}

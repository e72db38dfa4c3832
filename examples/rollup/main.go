// Rollup example: three fabrics, one summarized view. The same fleet
// scenario as examples/fleet — two pods suffering an incast, a third a
// PFC storm — but instead of drinking the raw incident firehose, the
// operator tails the analyzer's bounded-memory rollup summaries. The
// example counts both streams side by side and asserts the compression
// the rollups exist to provide: at least 10x fewer rollup events than
// raw incident events. It then drills back down — from the hottest
// switch in the summary to the constituent incidents in the store — to
// show the summary is a lens, not a lossy dead end. It returns an error
// if either property fails.
//
//	go run ./examples/rollup
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/core"
	"hawkeye/internal/experiments"
	"hawkeye/internal/rollup"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Wide panes and sparse progress updates: the trials replay a few
	// milliseconds of fabric time, so one pane holds the whole storm
	// and the event stream stays quiet while the store churns.
	rcfg := rollup.DefaultConfig()
	rcfg.Pane = 10 * 1000 * 1000 // 10ms of fabric time
	rcfg.UpdateEvery = 256
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{Rollup: rcfg})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "analyzer service on %s\n", srv.Addr())

	// Two operator tails, side by side: the raw incident firehose and
	// the rollup summary stream. The raw tail just counts, the rollup
	// tail keeps its events' one-liners; the point is the ratio between
	// them. Both are read only after tails.Wait.
	var rawN int
	var rollupLines []string
	var tails sync.WaitGroup

	raw, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		return err
	}
	defer raw.Close()
	if err := raw.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		return err
	}
	tails.Add(1)
	go func() {
		defer tails.Done()
		for {
			if _, err := raw.NextEvent(); err != nil {
				return // server closed
			}
			rawN++
		}
	}()

	sum, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		return err
	}
	defer sum.Close()
	if err := sum.SubscribeRollups(wire.RollupSubscribeRequest{}); err != nil {
		return err
	}
	tails.Add(1)
	go func() {
		defer tails.Done()
		for {
			ev, err := sum.NextRollup()
			if err != nil {
				return
			}
			rollupLines = append(rollupLines, fmt.Sprintf("  rollup [%s] %d record(s): %s",
				strings.ToUpper(ev.Kind), ev.Summary.Records, ev.Summary.Headline))
		}
	}()

	fabrics := []*fabric{
		{name: "pod-a", scenario: workload.NameIncast},
		{name: "pod-b", scenario: workload.NameIncast},
		{name: "pod-c", scenario: workload.NameStorm},
	}
	var wg sync.WaitGroup
	for _, f := range fabrics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.err = f.drive(srv.Addr())
		}()
	}
	wg.Wait()
	for _, f := range fabrics {
		if f.err != nil {
			return fmt.Errorf("%s: %w", f.name, f.err)
		}
		fmt.Fprintf(w, "%s: %s — %d telemetry reports, %d complaints filed\n",
			f.name, f.scenario, f.reports, f.complaints)
	}

	// Query the summarized view. QueryRollups drains the ingest
	// pipeline first, so this reads everything the fabrics filed.
	q, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		return err
	}
	defer q.Close()
	res, err := q.QueryRollups(wire.RollupQuery{Sliding: 8})
	if err != nil {
		return err
	}
	if res.Sliding == nil {
		return errors.New("no rollup windows after three fabrics reported")
	}
	view := res.Sliding
	fmt.Fprintf(w, "\nsummarized view (%d window(s) merged): %s\n", len(res.Windows), view.Headline)
	fmt.Fprintf(w, "  %d record(s); types: %v\n", view.Records, view.ByType)
	for _, level := range []string{"fabric", "switch"} {
		for _, h := range view.Top[level] {
			fmt.Fprintf(w, "  top %-6s %s = %d (±%d)\n", level, h.Key, h.Count, h.Err)
		}
	}
	fmt.Fprintf(w, "  sketch state: %d bytes, %d evictions\n", view.Bytes, view.Evictions)

	// Drill down: the hottest switch key encodes the node ID
	// (fabric/pod/N<id>), and the store can answer for it directly.
	if len(view.Top["switch"]) == 0 {
		return errors.New("summarized view has no switch heavy hitters")
	}
	hot := view.Top["switch"][0].Key
	var node int
	if _, err := fmt.Sscanf(hot[strings.LastIndexByte(hot, '/')+1:], "N%d", &node); err != nil {
		return fmt.Errorf("malformed switch key %q: %v", hot, err)
	}
	incs, err := q.QueryIncidents(wire.IncidentQuery{Node: node})
	if err != nil {
		return err
	}
	if len(incs) == 0 {
		return fmt.Errorf("drill-down from %s (node %d) found no incidents", hot, node)
	}
	fmt.Fprintf(w, "\ndrill-down %s -> node %d -> %d incident(s):\n", hot, node, len(incs))
	for _, inc := range incs {
		fmt.Fprintf(w, "  #%d %s\n", inc.ID, inc.Summary)
	}

	// Let the forwarders deliver what the drained pipeline published,
	// then cut both tails and compare volumes.
	time.Sleep(200 * time.Millisecond)
	raw.Close()
	sum.Close()
	tails.Wait()

	fmt.Fprintln(w, "\nrollup events seen by the summary tail:")
	for _, line := range rollupLines {
		fmt.Fprintln(w, line)
	}
	sumN := len(rollupLines)
	fmt.Fprintf(w, "\nstream volume: %d raw incident events vs %d rollup events\n", rawN, sumN)
	if sumN == 0 {
		return errors.New("rollup tail saw no events")
	}
	if rawN < 10*sumN {
		return fmt.Errorf("want raw >= 10x rollup volume, got %dx", rawN/sumN)
	}
	fmt.Fprintf(w, "OK: rollup stream is %dx quieter than the incident firehose\n", rawN/sumN)
	return nil
}

// fabric is one simulated fabric and what it filed with the analyzer.
type fabric struct {
	name, scenario      string
	reports, complaints int
	err                 error
}

// drive simulates the fabric's anomaly and replays it into the analyzer
// under the fabric's name, exactly as examples/fleet does.
func (f *fabric) drive(addr string) error {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(f.scenario, 1))
	if err != nil {
		return err
	}
	f.reports = len(tr.View.Traced)
	c, err := analyzd.DialFabric(addr, f.name, tr.Cl.Topo, int64(tr.Sys.Cfg.Telemetry.EpochSize()))
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
	for _, r := range tr.Results {
		if !tr.GT.Victims[r.Trigger.Victim] || r.Trigger.At < tr.GT.AnomalyAt {
			continue
		}
		path := core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, r.Trigger.Victim)
		if _, err := c.DiagnoseAt(r.Trigger.Victim, int64(r.Trigger.At), path...); err != nil {
			return err
		}
		f.complaints++
	}
	return nil
}

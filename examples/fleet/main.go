// Fleet example: one analyzer serving a whole fleet. Several simulated
// fabrics run different anomalies concurrently, stream their telemetry
// to a single analyzer service, and file victim complaints; the
// analyzer's fleet store clusters the complaint storm into a handful of
// semantic incidents. An operator connection tails the incident
// lifecycle live while the fabrics report, then queries the final
// clustered view. It returns an error unless every fabric's anomaly
// type appears in that view with fewer incidents than complaints.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"sync"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/core"
	"hawkeye/internal/experiments"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "analyzer service on %s\n", srv.Addr())

	// The operator tails the fleet before any fabric reports.
	tail, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		return err
	}
	defer tail.Close()
	if err := tail.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		return err
	}
	events := make(chan *wire.IncidentEvent, 64)
	go func() {
		defer close(events)
		for {
			ev, err := tail.NextEvent()
			if err != nil {
				return // server closed
			}
			events <- ev
		}
	}()

	// Three fabrics, two distinct anomalies: two pods suffer an incast
	// (their complaints should merge into one fleet incident), a third
	// suffers a PFC storm.
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
	complaints := 0
	for _, f := range fabrics {
		if f.err != nil {
			return fmt.Errorf("%s: %w", f.name, f.err)
		}
		fmt.Fprintf(w, "%s: %s — %d telemetry reports, %d complaints filed\n",
			f.name, f.scenario, f.reports, f.complaints)
		complaints += f.complaints
	}

	// Print what the tail has received so far, without waiting for more.
	fmt.Fprintln(w, "\nlive incident events seen by the operator tail:")
	if len(events) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for len(events) > 0 {
		ev := <-events
		fmt.Fprintf(w, "  [%s] %s\n", strings.ToUpper(ev.Kind), ev.Incident.Summary)
	}

	// The final clustered view, over the wire.
	q, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		return err
	}
	defer q.Close()
	incs, err := q.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfleet store: %d clustered incident(s)\n", len(incs))
	for _, inc := range incs {
		fmt.Fprintf(w, "  #%d %s\n", inc.ID, inc.Summary)
		fmt.Fprintf(w, "      fabrics: %s\n", strings.Join(inc.Fabrics, ", "))
		for k, vals := range inc.Varying {
			fmt.Fprintf(w, "      varying %s: %d values\n", k, len(vals))
		}
	}

	st := srv.Stats()
	fmt.Fprintf(w, "\nserver: %d sessions, %d reports, %d diagnoses; fleet: %d ingested, %d dropped, %d incidents\n",
		st.Sessions, st.Reports, st.Diagnoses, st.Ingested, st.Dropped, st.Incidents)

	for _, f := range fabrics {
		if !slices.ContainsFunc(incs, func(inc wire.FleetIncident) bool {
			return inc.Type == f.anomaly && slices.Contains(inc.Fabrics, f.name)
		}) {
			return fmt.Errorf("no %s incident from %s in the final query", f.anomaly, f.name)
		}
	}
	if len(incs) >= complaints {
		return fmt.Errorf("%d incidents from %d complaints: the store did not cluster", len(incs), complaints)
	}
	return nil
}

// fabric is one simulated fabric and what it filed with the analyzer.
type fabric struct {
	name, scenario      string
	anomaly             string // the ground-truth anomaly type
	reports, complaints int
	err                 error
}

// drive simulates the fabric's anomaly and replays it into the analyzer
// under the fabric's name: the scored complaint's switch and host-agent
// reports first, then every ground-truth victim complaint from the
// anomaly window, each declaring its victim's path.
func (f *fabric) drive(addr string) error {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(f.scenario, 1))
	if err != nil {
		return err
	}
	f.anomaly, f.reports = tr.GT.Type.String(), len(tr.View.Traced)
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

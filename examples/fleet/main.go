// Fleet example: one analyzer serving a whole fleet. Several simulated
// fabrics run different anomalies concurrently, stream their telemetry
// to a single analyzer service, and file victim complaints; the
// analyzer's fleet store clusters the complaint storm into a handful of
// semantic incidents. An operator connection tails the incident
// lifecycle live while the fabrics report, then queries the final
// clustered view.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/core"
	"hawkeye/internal/experiments"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

func main() {
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("analyzer service on %s\n", srv.Addr())

	// The operator tails the fleet before any fabric reports.
	tail, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer tail.Close()
	if err := tail.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		log.Fatal(err)
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

	fmt.Println("\nlive incident events seen by the operator tail:")
	drained := 0
drain:
	for {
		select {
		case ev := <-events:
			if ev == nil {
				break drain
			}
			fmt.Printf("  [%s] %s\n", strings.ToUpper(ev.Kind), ev.Incident.Summary)
			drained++
		default:
			break drain
		}
	}
	if drained == 0 {
		fmt.Println("  (none)")
	}

	// The final clustered view, over the wire.
	q, err := analyzd.DialOperator(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()
	incs, err := q.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfleet store: %d clustered incident(s)\n", len(incs))
	for _, inc := range incs {
		fmt.Printf("  #%d %s\n", inc.ID, inc.Summary)
		fmt.Printf("      fabrics: %s\n", strings.Join(inc.Fabrics, ", "))
		for k, vals := range inc.Varying {
			fmt.Printf("      varying %s: %d values\n", k, len(vals))
		}
	}

	st := srv.Stats()
	fmt.Printf("\nserver: %d sessions, %d reports, %d diagnoses; fleet: %d ingested, %d dropped, %d incidents\n",
		st.Sessions, st.Reports, st.Diagnoses, st.Ingested, st.Dropped, st.Incidents)
}

// driveFabric simulates one fabric's anomaly and replays it into the
// analyzer under the given fleet name: the scored complaint's switch and
// host-agent reports first, then every ground-truth victim complaint from
// the anomaly window, each declaring its victim's path.
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

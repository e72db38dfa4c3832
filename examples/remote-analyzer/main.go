// Remote-analyzer example: the deployment split the paper describes —
// telemetry is produced in the fabric, but the provenance analysis runs
// in a central analyzer service. This example simulates an incast,
// starts the analyzer as a real TCP service, streams the collected
// switch and host-agent reports to it, and prints the remote verdict.
//
//	go run ./examples/remote-analyzer
package main

import (
	"fmt"
	"log"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/core"
	"hawkeye/internal/experiments"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

func main() {
	// Produce telemetry: one simulated incast trace with Hawkeye installed.
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		log.Fatal(err)
	}
	if tr.Score.Result == nil {
		log.Fatal("no complaint was scored")
	}
	scored := tr.Score.Result.Trigger
	fmt.Printf("simulated incast: %d telemetry reports collected for victim %v\n",
		len(tr.View.Traced), scored.Victim)

	// The analyzer side: a TCP service, topology learned at handshake.
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("analyzer service on %s\n\n", srv.Addr())

	client, err := analyzd.Dial(srv.Addr(), tr.Cl.Topo, int64(tr.Sys.Cfg.Telemetry.EpochSize()))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	// The scored complaint's evidence: the switch reports its polling
	// collected and the host agents' counter snapshots. Each complaint
	// declares the path its victim took, which the analyzer then expects
	// reports from.
	for _, rep := range tr.View.Traced {
		if err := client.SendReport(rep); err != nil {
			log.Fatal(err)
		}
	}
	for _, hr := range tr.Sys.Sessions()[scored.DiagID].HostReports {
		if err := client.SendHostReport(hr); err != nil {
			log.Fatal(err)
		}
	}

	verdict, err := client.DiagnoseAt(scored.Victim, int64(scored.At), core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, scored.Victim)...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote verdict: %s (cause %s at N%d.P%d, %d reports used)\n",
		verdict.Type, verdict.CauseKind, verdict.InitialNode, verdict.InitialPort, verdict.Switches)
	for _, c := range verdict.Culprits {
		fmt.Printf("  culprit: %s\n", c)
	}

	// Replay the other complaints of the same event, then ask the
	// server's fleet store for its clustered incidents. The query drains
	// the ingest queue first, so it sees every verdict filed above.
	for _, r := range tr.Results {
		if r != tr.Score.Result && tr.GT.Victims[r.Trigger.Victim] && r.Trigger.At >= tr.GT.AnomalyAt {
			path := core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, r.Trigger.Victim)
			if _, err := client.DiagnoseAt(r.Trigger.Victim, int64(r.Trigger.At), path...); err != nil {
				log.Fatal(err)
			}
		}
	}
	incs, err := client.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver-side incident grouping: %d incident(s)\n", len(incs))
	for _, inc := range incs {
		fmt.Printf("  %s\n", inc.Summary)
	}

	fmt.Printf("\nlocal verdict for comparison: %v\n", tr.Score.Result.Diagnosis.Type)
	fmt.Printf("scored against ground truth: correct=%v (%s)\n", tr.Score.Correct, tr.Score.Reason)
}

// Remote-analyzer example: the deployment split the paper describes —
// telemetry is produced in the fabric, but the provenance analysis runs
// in a central analyzer service. This example simulates an incast,
// starts the analyzer as a real TCP service, streams the collected
// switch and host-agent reports to it, and prints the remote verdict.
// It returns an error unless the remote verdict's type matches the
// in-process one and the server's fleet store groups the replayed
// complaints into at least one incident.
//
//	go run ./examples/remote-analyzer
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

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
	// Produce telemetry: one simulated incast trace with Hawkeye installed.
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		return err
	}
	if tr.Score.Result == nil {
		return errors.New("no complaint was scored")
	}
	scored := tr.Score.Result.Trigger
	fmt.Fprintf(w, "simulated incast: %d telemetry reports collected for victim %v\n",
		len(tr.View.Traced), scored.Victim)

	// The analyzer side: a TCP service, topology learned at handshake.
	srv, err := analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "analyzer service on %s\n\n", srv.Addr())

	client, err := analyzd.Dial(srv.Addr(), tr.Cl.Topo, int64(tr.Sys.Cfg.Telemetry.EpochSize()))
	if err != nil {
		return err
	}
	defer client.Close()
	// The scored complaint's evidence: the switch reports its polling
	// collected and the host agents' counter snapshots. Each complaint
	// declares the path its victim took, which the analyzer then expects
	// reports from.
	for _, rep := range tr.View.Traced {
		if err := client.SendReport(rep); err != nil {
			return err
		}
	}
	for _, hr := range tr.Sys.Sessions()[scored.DiagID].HostReports {
		if err := client.SendHostReport(hr); err != nil {
			return err
		}
	}

	verdict, err := client.DiagnoseAt(scored.Victim, int64(scored.At), core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, scored.Victim)...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "remote verdict: %s (cause %s at N%d.P%d, %d reports used)\n",
		verdict.Type, verdict.CauseKind, verdict.InitialNode, verdict.InitialPort, verdict.Switches)
	for _, c := range verdict.Culprits {
		fmt.Fprintf(w, "  culprit: %s\n", c)
	}

	// Replay the other complaints of the same event, then ask the
	// server's fleet store for its clustered incidents. The query drains
	// the ingest queue first, so it sees every verdict filed above.
	for _, r := range tr.Results {
		if r != tr.Score.Result && tr.GT.Victims[r.Trigger.Victim] && r.Trigger.At >= tr.GT.AnomalyAt {
			path := core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, r.Trigger.Victim)
			if _, err := client.DiagnoseAt(r.Trigger.Victim, int64(r.Trigger.At), path...); err != nil {
				return err
			}
		}
	}
	incs, err := client.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nserver-side incident grouping: %d incident(s)\n", len(incs))
	for _, inc := range incs {
		fmt.Fprintf(w, "  %s\n", inc.Summary)
	}

	local := tr.Score.Result.Diagnosis.Type
	fmt.Fprintf(w, "\nlocal verdict for comparison: %v\n", local)
	fmt.Fprintf(w, "scored against ground truth: correct=%v (%s)\n", tr.Score.Correct, tr.Score.Reason)
	if verdict.Type != local.String() {
		return fmt.Errorf("remote verdict %s, local verdict %v", verdict.Type, local)
	}
	if len(incs) == 0 {
		return errors.New("the fleet store grouped no incidents")
	}
	return nil
}

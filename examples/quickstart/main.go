// Quickstart: build the evaluation fabric, install Hawkeye, inject a
// micro-burst incast, and print the diagnosis.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hawkeye/internal/cluster"
	"hawkeye/internal/core"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. A fat-tree K=4 fabric: 20 switches, 16 hosts, 100 Gbps links
	//    (the paper's NS-3 setup).
	ft, err := topo.NewFatTree(4)
	if err != nil {
		return err
	}
	routing := topo.ComputeRouting(ft.Topology)
	cl := cluster.New(ft.Topology, routing, cluster.DefaultConfig())

	// 2. Install Hawkeye: PFC-aware telemetry and polling logic on every
	//    switch, detection agents on every host.
	cfg := core.DefaultConfig()
	cfg.Collect.BaseLatency = 200 * sim.Microsecond // keep the demo short
	cfg.Collect.PerEpochLatency = 50 * sim.Microsecond
	sys, err := core.Install(cl, cfg)
	if err != nil {
		return err
	}

	// 3. Traffic: a victim flow, plus a synchronized incast into the
	//    victim's neighbour that will PFC-pause the victim's path.
	target := ft.PodHosts[2][0]
	sibling := ft.PodHosts[2][1]
	victim := cl.StartFlowRate(ft.PodHosts[0][0], sibling, 20_000_000, 0, 20e9)
	cl.StartFlowRate(ft.PodHosts[0][1], target, 20_000_000, 0, 20e9)
	for _, src := range []topo.NodeID{sibling, ft.PodHosts[2][2], ft.PodHosts[2][3]} {
		cl.StartFlow(src, target, 1_000_000, 400*sim.Microsecond)
	}

	// 4. Run and diagnose.
	cl.Run(10 * sim.Millisecond)
	results := sys.DiagnoseAll()

	fmt.Fprintf(w, "victim flow: %v\n", victim.Tuple)
	fmt.Fprintf(w, "detection events: %d\n\n", len(sys.Triggers()))
	for _, r := range results {
		if r.Trigger.Victim != victim.Tuple {
			continue
		}
		fmt.Fprintf(w, "diagnosis triggered at %v (%s):\n", r.Trigger.At, r.Trigger.Reason)
		fmt.Fprint(w, r.Diagnosis.String())
		fmt.Fprintf(w, "\ntelemetry: %d switches, %d bytes collected\n",
			len(r.Switches), r.ReportBytes)
		return nil
	}
	fmt.Fprintln(w, "victim never complained — try a heavier incast")
	return nil
}

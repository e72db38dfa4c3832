// Hostside example: the three host-side anomaly pathologies and the
// host-vs-network attribution the host-agent counter channel buys.
//
// A slow receiver, a cache-thrashing NIC and a pause-storming NIC all
// look identical from the fabric: a host-facing port under sustained
// PFC with innocent traffic behind it. The host agent's registers —
// RX-buffer occupancy, drain rate, pause counters, processing-latency
// proxy — are what tell the three apart, and what tell all three apart
// from a network-caused storm. The example runs each pathology twice:
// once with host agents on (exact attribution) and once with the
// channel disabled, showing the degraded-mode contract — the verdict
// loses confidence and says which host evidence is missing instead of
// confidently blaming the network.
//
//	go run ./examples/hostside
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hawkeye/internal/experiments"
	"hawkeye/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	for _, name := range workload.HostScenarios() {
		fmt.Fprintf(w, "== %s ==\n", name)
		for _, degraded := range []bool{false, true} {
			cfg := experiments.DefaultTrialConfig(name, 2)
			cfg.DisableHostAgents = degraded
			tr, err := experiments.RunTrial(cfg)
			if err != nil {
				return err
			}
			arm := "host agents ON "
			if degraded {
				arm = "host agents OFF"
			}
			r := tr.Score.Result
			if r == nil {
				fmt.Fprintf(w, "%s: no diagnosis scored\n", arm)
				continue
			}
			d := r.Diagnosis
			cause := d.PrimaryCause()
			fmt.Fprintf(w, "%s: %v / %v, confidence %v (%.2f), correct=%v\n",
				arm, d.Type, cause.Kind, d.Confidence, d.ConfidenceScore, tr.Score.Correct)
			for _, m := range d.Missing {
				fmt.Fprintf(w, "    missing: %s\n", m)
			}
		}
		fmt.Fprintln(w)
	}

	// The mixed evaluation: host and network anomalies interleaved, host
	// agents on. The attribution row is the headline — host-caused
	// anomalies pinned on the right host with the right pathology.
	eval, err := experiments.NewRunner(0).RunHostEval(3)
	if err != nil {
		return err
	}
	fmt.Fprint(w, eval.Table())
	return nil
}

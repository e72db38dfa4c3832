// ECMP-imbalance example: the load-imbalance anomaly the paper's §2
// motivates. Nothing is misconfigured — all switches hash identically
// (the textbook polarization cause), so three parity-aligned elephants
// pile onto ONE core uplink while its equal-cost sibling idles. PFC
// spreads the hot uplink's backpressure; Hawkeye diagnoses the
// contention AND refines the cause to "ecmp-imbalance" because the
// culprits had an alternative path and converged anyway.
//
//	go run ./examples/imbalance
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hawkeye/internal/experiments"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	score, err := experiments.RunECMPImbalance(1)
	if err != nil {
		return err
	}
	if score.Result == nil {
		fmt.Fprintln(w, "no complaint scored")
		return nil
	}
	r := score.Result
	fmt.Fprintf(w, "victim complaint: %v at %v (%s)\n\n", r.Trigger.Victim, r.Trigger.At, r.Trigger.Reason)
	fmt.Fprint(w, r.Diagnosis.String())
	fmt.Fprintf(w, "\ncause refinement (§3.5.2): %v\n", r.Detail)
	fmt.Fprintln(w, "-> the contributing flows had an equal-cost sibling uplink and")
	fmt.Fprintln(w, "   polarized anyway: rebalance the hashing, don't blame the traffic.")
	fmt.Fprintf(w, "\nscored against ground truth: correct=%v (%s)\n", score.Correct, score.Reason)
	return nil
}

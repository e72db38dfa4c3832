// Chaos example: the same incast-backpressure scenario as
// examples/incast, but with deterministic fault injection turned on —
// telemetry epochs lost, causality meters corrupted, report batches
// dropped between switch CPU and analyzer. The point of the exercise:
// the diagnosis degrades *honestly*. As the fault rate climbs, the
// confidence grade falls and the missing-evidence report says what was
// lost; it never stays high-confidence on a starved graph.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"

	"hawkeye/internal/chaos"
	"hawkeye/internal/experiments"
	"hawkeye/internal/workload"
)

func main() {
	// One trial with a concrete schedule, to show the degraded report.
	sched, err := chaos.ParseSchedule(
		"tel-loss=0.4,meter-corrupt=0.1,collect-drop=0.2,collect-lag=300us")
	if err != nil {
		log.Fatal(err)
	}
	cfg := experiments.DefaultTrialConfig(workload.NameIncast, 1)
	cfg.Chaos = sched
	tr, err := experiments.RunTrial(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("schedule: %s\n", sched)
	fmt.Printf("%v\n\n", tr.Chaos.Counters)
	if r := tr.Score.Result; r != nil {
		fmt.Printf("diagnosis under fire (victim %v):\n", r.Trigger.Victim)
		fmt.Print(r.Diagnosis.String())
	} else {
		fmt.Println("no complaint scored under this schedule")
	}

	// The robustness curve: sweep telemetry loss 0 -> 50% and watch the
	// confidence grade track the evidence that survived. Rerunning with
	// the same seed reproduces this table byte for byte.
	fmt.Println("\nrobustness sweep (tel-loss 0 -> 50%):")
	curve, err := experiments.NewRunner(0).RunRobustnessCurve(
		workload.NameIncast, 1, []float64{0, 0.1, 0.25, 0.5}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(curve.Table())
}

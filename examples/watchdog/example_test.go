package main

import (
	"fmt"
	"os"
)

// The example's output is deterministic; a returned error prints
// instead of it and fails the comparison.
func Example() {
	if err := run(os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// ring deadlock WITHOUT mitigation (cyclic buffer dependency, permanent):
	//   after 25ms: paused ring ingresses=4, delivered packets=64
	//
	// same deadlock WITH a PFC watchdog on every switch:
	//    1.000ms  watchdog: storm on a ring port, flushing + discarding
	//    1.000ms  watchdog: storm on a ring port, flushing + discarding
	//    1.000ms  watchdog: storm on a ring port, flushing + discarding
	//    1.000ms  watchdog: storm on a ring port, flushing + discarding
	//   11.000ms  watchdog: storm on a ring port, flushing + discarding
	//   11.000ms  watchdog: storm on a ring port, flushing + discarding
	//   11.000ms  watchdog: storm on a ring port, flushing + discarding
	//   11.000ms  watchdog: storm on a ring port, flushing + discarding
	//   21.000ms  watchdog: storm on a ring port, flushing + discarding
	//   21.000ms  watchdog: storm on a ring port, flushing + discarding
	//   21.000ms  watchdog: storm on a ring port, flushing + discarding
	//   21.000ms  watchdog: storm on a ring port, flushing + discarding
	//   after 25ms: paused ring ingresses=0, delivered packets=208, storms=12 restores=12 lossless drops=47552
	//
	// the watchdog restores delivery by sacrificing losslessness — and the
	// storm recurs, because the routing loop is still there. Finding THAT
	// is the diagnosis problem Hawkeye solves (see hawkeye-sim -scenario
	// in-loop-deadlock).
}

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
	// victim complaint: 10.0.0.4:1024>10.0.0.5:4791/17 at 490.062us (rtt)
	//
	// diagnosis for 10.0.0.4:1024>10.0.0.5:4791/17: pfc-backpressure-contention
	//   cause: flow-contention at N4.P2 flows=[10.0.0.1:1024>10.0.0.6:4791/17]
	//   pfc-path: [N7.P2 N4.P2]
	//   confidence: high (0.90)
	//
	// cause refinement (§3.5.2): ecmp-imbalance
	// -> the contributing flows had an equal-cost sibling uplink and
	//    polarized anyway: rebalance the hashing, don't blame the traffic.
	//
	// scored against ground truth: correct=true (ok)
}

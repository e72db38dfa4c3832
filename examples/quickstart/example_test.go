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
	// victim flow: 10.0.0.1:1024>10.0.0.10:4791/17
	// detection events: 5
	//
	// diagnosis triggered at 495.431us (rtt):
	// diagnosis for 10.0.0.1:1024>10.0.0.10:4791/17: pfc-backpressure-contention
	//   cause: flow-contention at N22.P0 flows=[10.0.0.11:1024>10.0.0.9:4791/17 10.0.0.10:1024>10.0.0.9:4791/17]
	//   pfc-path: [N0.P2 N20.P0 N22.P0]
	//   spreading flows: [10.0.0.11:1024>10.0.0.9:4791/17 10.0.0.12:1024>10.0.0.9:4791/17 10.0.0.2:1024>10.0.0.9:4791/17]
	//   confidence: high (1.00)
	//
	// telemetry: 7 switches, 4399 bytes collected
}

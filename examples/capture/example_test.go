package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// The example's output is deterministic; a returned error prints
// instead of it and fails the comparison.
func Example() {
	dir, err := os.MkdirTemp("", "capture")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	if err := run(os.Stdout, filepath.Join(dir, "storm.pcap")); err != nil {
		fmt.Println(err)
	}
	// Output:
	// captured 22380 frames -> storm.pcap (open with tcpdump/Wireshark)
	//
	// capture analysis: 22380 frames, 840 PFC PAUSE frames, first at 394.216us
	// top PAUSE senders (MACs):
	//   02:00:00:00:00:00  60 frames
	//   02:00:00:00:00:03  60 frames
	//   02:00:00:03:00:00  60 frames
	//
	// -> the capture shows a pause volume ranking, but every switch in
	//    the spreading tree relays pauses: volume does not separate the
	//    injector from its victims. Hawkeye's provenance does:
	//
	// diagnosis for 10.0.0.1:1024>10.0.0.5:4791/17: pfc-storm
	//   cause: host-pause-storm at N14.P0
	//   pfc-path: [N3.P1 N13.P0 N14.P0]
	//   spreading flows: [10.0.0.14:1024>10.0.0.5:4791/17 10.0.0.2:1024>10.0.0.5:4791/17]
	//   confidence: high (1.00)
	// identified injector: h1-0-0 (ground truth: h1-0-0)
}

// Watchdog example: mitigation versus diagnosis (§2.2). The same
// forced-clockwise ring deadlock runs twice — once bare (it never
// resolves) and once with a SONiC-style PFC watchdog on every switch.
// The watchdog restores service by dropping lossless traffic, but the
// storm keeps recurring because the root cause (the routing loop) is
// untouched; that diagnosis is Hawkeye's half, shown by
// `hawkeye-sim -scenario in-loop-deadlock`.
//
//	go run ./examples/watchdog
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hawkeye/internal/cluster"
	"hawkeye/internal/packet"
	"hawkeye/internal/pfcwd"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// ring runs the forced-clockwise ring deadlock for 25ms, with or
// without a watchdog on every switch, and prints what got through.
func ring(w io.Writer, withWatchdog bool) error {
	ring, err := topo.NewRing(4, 2, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		return err
	}
	r := topo.ComputeRouting(ring.Topology)
	ring.ForceClockwise(r, nil)
	cl := cluster.New(ring.Topology, r, cluster.DefaultConfig())

	var dogs []*pfcwd.Watchdog
	if withWatchdog {
		for _, id := range ring.Switches {
			dog, err := pfcwd.Attach(cl.Eng, cl.Switches[id], pfcwd.DefaultConfig())
			if err != nil {
				return err
			}
			dog.OnStorm = func(port int, now sim.Time) {
				fmt.Fprintf(w, "  %8v  watchdog: storm on a ring port, flushing + discarding\n", now)
			}
			dogs = append(dogs, dog)
		}
	}
	for i := 0; i < 4; i++ {
		for h := 0; h < 2; h++ {
			cl.StartFlow(ring.HostsAt[i][h], ring.HostsAt[(i+2)%4][h], 2_000_000, 0)
		}
	}
	cl.Run(25 * sim.Millisecond)

	stuck, acked := 0, uint32(0)
	var wdDrops uint64
	for _, id := range ring.Switches {
		sw := cl.Switches[id]
		wdDrops += sw.WatchdogDrops
		for p := 0; p < sw.NumPorts(); p++ {
			if !ring.Topology.IsHostFacing(id, p) && sw.PauseAsserted(p, packet.ClassLossless) {
				stuck++
			}
		}
	}
	for _, hs := range ring.HostsAt {
		for _, h := range hs {
			for _, f := range cl.Hosts[h].Flows() {
				acked += f.AckedPackets()
			}
		}
	}
	storms, restores := 0, 0
	for _, dog := range dogs {
		storms += dog.Stats().Storms
		restores += dog.Stats().Restores
	}
	fmt.Fprintf(w, "  after 25ms: paused ring ingresses=%d, delivered packets=%d", stuck, acked)
	if withWatchdog {
		fmt.Fprintf(w, ", storms=%d restores=%d lossless drops=%d", storms, restores, wdDrops)
	}
	fmt.Fprintln(w)
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "ring deadlock WITHOUT mitigation (cyclic buffer dependency, permanent):")
	if err := ring(w, false); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "same deadlock WITH a PFC watchdog on every switch:")
	if err := ring(w, true); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "the watchdog restores delivery by sacrificing losslessness — and the")
	fmt.Fprintln(w, "storm recurs, because the routing loop is still there. Finding THAT")
	fmt.Fprintln(w, "is the diagnosis problem Hawkeye solves (see hawkeye-sim -scenario")
	fmt.Fprintln(w, "in-loop-deadlock).")
	return nil
}

// Command hawkeye-trace inspects the evaluation workload: it samples the
// empirical RoCEv2 flow-size distribution (§4.1) and simulates a
// background-only trace, reporting flow counts, completion statistics and
// PFC activity at a given load. With -pcap it additionally records every
// wire event as a standard libpcap capture (VLAN-tagged IPv4/UDP frames,
// 802.1Qbb MAC-control frames for PFC) readable by tcpdump/Wireshark.
//
// Usage:
//
//	hawkeye-trace -load 0.1 -ms 10 -samples 20 [-pcap trace.pcap]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hawkeye/internal/cluster"
	"hawkeye/internal/pcap"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

func main() {
	load := flag.Float64("load", 0.1, "target host-link load (0..1)")
	ms := flag.Int("ms", 10, "trace length in milliseconds")
	samples := flag.Int("samples", 10, "flow-size samples to print")
	divisor := flag.Int64("scale", workload.DefaultScaleDivisor, "flow-size scale divisor (1 = paper scale)")
	seed := flag.Uint64("seed", 1, "workload seed")
	pcapPath := flag.String("pcap", "", "write a libpcap capture of all wire events to this file")
	topoPath := flag.String("topo", "", "JSON topology spec to run on (default: fat-tree K=4)")
	cdfName := flag.String("cdf", "paper", "flow-size distribution: paper, websearch, hadoop")
	flag.Parse()

	cdf, err := workload.CDFByName(*cdfName, *divisor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hawkeye-trace:", err)
		os.Exit(1)
	}
	fmt.Printf("flow-size distribution (scale 1/%d, mean %.0f B):\n", *divisor, cdf.Mean())
	rng := sim.NewRand(*seed)
	sizes := make([]int64, *samples)
	for i := range sizes {
		sizes[i] = cdf.Sample(rng)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	for _, s := range sizes {
		fmt.Printf("  %d B\n", s)
	}

	var tp *topo.Topology
	if *topoPath != "" {
		data, err := os.ReadFile(*topoPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-trace:", err)
			os.Exit(1)
		}
		tp, err = topo.ParseSpecJSON(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("topology from %s: %d switches, %d hosts\n",
			*topoPath, len(tp.Switches()), len(tp.Hosts()))
	} else {
		ft, err := topo.NewFatTree(4)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-trace:", err)
			os.Exit(1)
		}
		tp = ft.Topology
	}
	r := topo.ComputeRouting(tp)
	cl := cluster.New(tp, r, cluster.DefaultConfig())

	var tap *pcap.Tap
	var pcapWriter *pcap.Writer
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		pcapWriter, err = pcap.NewWriter(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-trace:", err)
			os.Exit(1)
		}
		tap = pcap.AttachTap(cl.Net, pcapWriter)
	}

	horizon := sim.Time(*ms) * sim.Millisecond
	bg := &workload.Background{Load: *load, CDF: cdf, Start: 0, Stop: horizon}
	n := bg.Install(cl, sim.NewRand(*seed^0xBEEF))
	cl.Run(horizon + 5*sim.Millisecond)

	completed, active := 0, 0
	var fcts []sim.Time
	for _, h := range cl.Hosts {
		for _, f := range h.Flows() {
			if f.Completed() {
				completed++
				fcts = append(fcts, f.FCT())
			} else {
				active++
			}
		}
	}
	sort.Slice(fcts, func(i, j int) bool { return fcts[i] < fcts[j] })
	fmt.Printf("\ntrace: %d flows over %v at load %.2f\n", n, horizon, *load)
	fmt.Printf("completed %d, still active %d\n", completed, active)
	if len(fcts) > 0 {
		fmt.Printf("FCT p50=%v p99=%v max=%v\n",
			fcts[len(fcts)/2], fcts[len(fcts)*99/100], fcts[len(fcts)-1])
	}
	fmt.Printf("PFC frames: %d; drops: %d; delivered packets: %d\n",
		cl.TotalPFCFrames(), cl.TotalDrops(), cl.Net.Delivered)

	if tap != nil {
		if tap.Err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-trace: pcap:", tap.Err)
			os.Exit(1)
		}
		if err := pcapWriter.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-trace: pcap:", err)
			os.Exit(1)
		}
		fmt.Printf("pcap: %d frames -> %s\n", pcapWriter.Packets, *pcapPath)
	}
}

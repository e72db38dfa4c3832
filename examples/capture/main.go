// Capture example: record a PFC storm as a standard libpcap file and
// analyze it offline with the repository's own reader — the workflow an
// operator without Hawkeye would attempt ("take a capture, stare at it").
// The analysis shows why captures alone fall short: the pause frames are
// all visible, but nothing in them says WHO caused the storm. The same
// trace diagnosed by Hawkeye names the injector.
//
//	go run ./examples/capture [trace.pcap]
//
// The capture goes to storm.pcap in the working directory unless a path
// is given.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sort"

	"hawkeye/internal/cluster"
	"hawkeye/internal/core"
	"hawkeye/internal/packet"
	"hawkeye/internal/pcap"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

func main() {
	path := "storm.pcap"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	if err := run(os.Stdout, path); err != nil {
		log.Fatal(err)
	}
}

// run captures the storm to path, replays the capture, and contrasts
// the tally with Hawkeye's diagnosis. It prints only path's base name,
// so the output does not depend on where the file went.
func run(w io.Writer, path string) error {
	// Build the fat-tree, install Hawkeye, attach a capture tap.
	ft, err := topo.NewFatTree(4)
	if err != nil {
		return err
	}
	routing := topo.ComputeRouting(ft.Topology)
	ccfg := cluster.DefaultConfig()
	ccfg.Host.Agent.RTTFactor = 2
	cl := cluster.New(ft.Topology, routing, ccfg)

	score := core.DefaultConfig()
	score.Collect.BaseLatency = 200 * sim.Microsecond
	score.Collect.PerEpochLatency = 50 * sim.Microsecond
	sys, err := core.Install(cl, score)
	if err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pw, err := pcap.NewWriter(f)
	if err != nil {
		return err
	}
	tap := pcap.AttachTap(cl.Net, pw)

	// The anomaly: a rogue host injects PFC (Fig. 1b).
	params := workload.Params{EpochSize: score.Telemetry.EpochSize()}
	gt := workload.BuildStorm(cl, ft, params)
	cl.Run(gt.AnomalyAt + 10*sim.Millisecond)
	if tap.Err != nil {
		return tap.Err
	}
	if err := pw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "captured %d frames -> %s (open with tcpdump/Wireshark)\n\n", pw.Packets, filepath.Base(path))

	// The operator's view: replay the capture and tally it.
	rf, err := os.Open(path)
	if err != nil {
		return err
	}
	defer rf.Close()
	pr, err := pcap.NewReader(rf)
	if err != nil {
		return err
	}
	pfcBySrc := map[[6]byte]int{}
	var frames, pfcFrames int
	var firstPFC sim.Time
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		frames++
		dec, err := pcap.DecodeFrame(rec.Data)
		if err != nil {
			return err
		}
		if dec.IsPFC && dec.PFC.Paused(packet.ClassLossless) {
			pfcFrames++
			pfcBySrc[dec.SrcMAC]++
			if firstPFC == 0 {
				firstPFC = rec.TS
			}
		}
	}
	fmt.Fprintf(w, "capture analysis: %d frames, %d PFC PAUSE frames, first at %v\n",
		frames, pfcFrames, firstPFC)
	var macs [][6]byte
	for mac := range pfcBySrc {
		macs = append(macs, mac)
	}
	sort.Slice(macs, func(i, j int) bool {
		if ni, nj := pfcBySrc[macs[i]], pfcBySrc[macs[j]]; ni != nj {
			return ni > nj
		}
		return bytes.Compare(macs[i][:], macs[j][:]) < 0
	})
	fmt.Fprintln(w, "top PAUSE senders (MACs):")
	for _, mac := range macs[:min(3, len(macs))] {
		fmt.Fprintf(w, "  %v  %d frames\n", net.HardwareAddr(mac[:]), pfcBySrc[mac])
	}
	fmt.Fprintln(w, "\n-> the capture shows a pause volume ranking, but every switch in")
	fmt.Fprintln(w, "   the spreading tree relays pauses: volume does not separate the")
	fmt.Fprintln(w, "   injector from its victims. Hawkeye's provenance does:")

	results := sys.DiagnoseAll()
	for _, r := range results {
		if !gt.Victims[r.Trigger.Victim] || r.Trigger.At < gt.AnomalyAt {
			continue
		}
		fmt.Fprintf(w, "\n%s", r.Diagnosis.String())
		cause := r.Diagnosis.PrimaryCause()
		peer, _ := cl.Topo.PeerOf(cause.Port.Node, cause.Port.Port)
		fmt.Fprintf(w, "identified injector: %s (ground truth: %s)\n",
			cl.Topo.Node(peer).Name, cl.Topo.Node(gt.Injector).Name)
		break
	}
	return nil
}

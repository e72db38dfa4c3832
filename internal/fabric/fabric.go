// Package fabric is the glue between the event engine and the node models:
// it owns the wire (serialization + propagation of packets between node
// ports) and the shared egress-port machinery (per-class FIFO queues,
// strict-priority scheduling, PFC pause state) that both switches and host
// NICs build on.
package fabric

import (
	"fmt"

	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Receiver is anything attached to the network that can accept a packet
// arriving on one of its ports.
type Receiver interface {
	Receive(pkt *packet.Packet, port int)
}

// Network delivers packets between node ports with serialization and
// propagation delay. It also keeps fabric-wide counters used by the
// overhead experiments.
type Network struct {
	Eng  *sim.Engine
	Topo *topo.Topology

	nodes map[topo.NodeID]Receiver

	// Counters (bytes on the wire, by broad category). These feed the
	// monitoring-bandwidth overhead comparison (paper Fig. 9b).
	DataBytes    uint64
	ControlBytes uint64
	PFCBytes     uint64
	PollingBytes uint64
	ReportBytes  uint64
	Delivered    uint64

	// OnWire, if set, observes every packet as it is put on a link —
	// a passive tap (pcap capture, debugging). It must not mutate pkt.
	OnWire func(from topo.NodeID, port int, pkt *packet.Packet, now sim.Time)

	// faults holds per-(node, port) link fault state installed by the
	// chaos engine. Nil (the common case) costs one map lookup only when
	// entries exist.
	faults map[portKey]*linkFault

	// FaultDrops counts packets discarded because their egress link was
	// administratively down (fault injection).
	FaultDrops uint64
}

// portKey addresses one directed link endpoint.
type portKey struct {
	node topo.NodeID
	port int
}

// linkFault is the injected state of one link endpoint: an outage window
// and/or a bandwidth derating factor.
type linkFault struct {
	downUntil sim.Time
	bwFactor  float64 // 0 or 1 = nominal rate
}

// NewNetwork creates a network over the topology.
func NewNetwork(eng *sim.Engine, t *topo.Topology) *Network {
	return &Network{Eng: eng, Topo: t, nodes: make(map[topo.NodeID]Receiver)}
}

func (n *Network) faultAt(node topo.NodeID, port int) *linkFault {
	if n.faults == nil {
		n.faults = make(map[portKey]*linkFault)
	}
	k := portKey{node, port}
	f := n.faults[k]
	if f == nil {
		f = &linkFault{}
		n.faults[k] = f
	}
	return f
}

// SetLinkDown marks the directed link endpoint (node, port) down until
// the given virtual time: packets sent out of it before then vanish on
// the wire. Chaos link flaps call this on both endpoints of a link.
func (n *Network) SetLinkDown(node topo.NodeID, port int, until sim.Time) {
	n.faultAt(node, port).downUntil = until
}

// SetLinkBandwidthFactor derates (factor < 1) or restores (factor 0 or 1)
// the serialization rate of the directed link endpoint (node, port).
func (n *Network) SetLinkBandwidthFactor(node topo.NodeID, port int, factor float64) {
	n.faultAt(node, port).bwFactor = factor
}

// LinkUp reports whether the directed link endpoint can currently carry
// traffic.
func (n *Network) LinkUp(node topo.NodeID, port int) bool {
	if n.faults == nil {
		return true
	}
	f := n.faults[portKey{node, port}]
	return f == nil || f.downUntil <= n.Eng.Now()
}

// TransmitTimeOn returns the serialization time of size bytes on the
// directed link endpoint (node, port), including any injected bandwidth
// derating. Without faults it equals Topo.TransmitTime.
func (n *Network) TransmitTimeOn(node topo.NodeID, port int, size int) sim.Time {
	tx := n.Topo.TransmitTime(size)
	if n.faults != nil {
		if f := n.faults[portKey{node, port}]; f != nil && f.bwFactor > 0 && f.bwFactor < 1 {
			tx = sim.Time(float64(tx) / f.bwFactor)
		}
	}
	return tx
}

// Register attaches a node model to a topology node.
func (n *Network) Register(id topo.NodeID, r Receiver) { n.nodes[id] = r }

// Deliver puts pkt on the wire from (from, port) with the given extra
// sender-side delay already elapsed (0 for out-of-band control frames).
// The peer's Receive fires after serialization + propagation.
func (n *Network) Deliver(from topo.NodeID, port int, pkt *packet.Packet) {
	peer, peerPort := n.Topo.PeerOf(from, port)
	rx, ok := n.nodes[peer]
	if !ok {
		panic(fmt.Sprintf("fabric: no model registered for node %d", peer))
	}
	if !n.LinkUp(from, port) {
		n.FaultDrops++
		return
	}
	n.account(pkt)
	if n.OnWire != nil {
		n.OnWire(from, port, pkt, n.Eng.Now())
	}
	tx := n.TransmitTimeOn(from, port, pkt.Size)
	n.Eng.After(tx+n.Topo.LinkDelay, func() {
		n.Delivered++
		rx.Receive(pkt, peerPort)
	})
}

func (n *Network) account(pkt *packet.Packet) {
	sz := uint64(pkt.Size)
	switch pkt.Type {
	case packet.TypeData:
		n.DataBytes += sz
	case packet.TypePFC:
		n.PFCBytes += sz
	case packet.TypePolling:
		n.PollingBytes += sz
	case packet.TypeReport:
		n.ReportBytes += sz
	default:
		n.ControlBytes += sz
	}
}

// SendPFC transmits a PFC frame out of (from, port) out-of-band: real MACs
// inject pause frames at the next frame boundary without queuing behind
// data. The worst-case extra latency this ignores is one MTU
// serialization (~80 ns at 100 Gbps), far below the 2 µs link delay.
func (n *Network) SendPFC(from topo.NodeID, port int, frame *packet.PFCFrame) {
	pkt := &packet.Packet{
		Type:  packet.TypePFC,
		Class: packet.ClassControl,
		Size:  packet.PFCFrameSize,
		PFC:   frame,
	}
	n.Deliver(from, port, pkt)
}

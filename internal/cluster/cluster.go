// Package cluster assembles a runnable RDMA network: it instantiates
// switch and host models over a topology, wires them to one event engine,
// and offers flow-level helpers. Hawkeye itself (internal/core) and every
// baseline install their instrumentation on top of a Cluster.
package cluster

import (
	"hawkeye/internal/device"
	"hawkeye/internal/fabric"
	"hawkeye/internal/host"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Config bundles the per-device configurations.
type Config struct {
	Switch device.Config
	Host   host.Config
	Seed   uint64
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		Switch: device.DefaultConfig(),
		Host:   host.DefaultConfig(),
		Seed:   1,
	}
}

// Cluster is a fully wired simulated network.
type Cluster struct {
	Eng      *sim.Engine
	Topo     *topo.Topology
	Routing  *topo.Routing
	Net      *fabric.Network
	Switches map[topo.NodeID]*device.Switch
	Hosts    map[topo.NodeID]*host.Host
	Cfg      Config

	rng        *sim.Rand
	nextFlowID uint64
}

// New builds all device models over the topology.
func New(t *topo.Topology, r *topo.Routing, cfg Config) *Cluster {
	eng := sim.NewEngine()
	net := fabric.NewNetwork(eng, t)
	c := &Cluster{
		Eng:      eng,
		Topo:     t,
		Routing:  r,
		Net:      net,
		Switches: make(map[topo.NodeID]*device.Switch),
		Hosts:    make(map[topo.NodeID]*host.Host),
		Cfg:      cfg,
		rng:      sim.NewRand(cfg.Seed),
	}
	for _, id := range t.Switches() {
		c.Switches[id] = device.NewSwitch(net, r, id, cfg.Switch, c.rng.Fork())
	}
	for _, id := range t.Hosts() {
		c.Hosts[id] = host.NewHost(net, id, cfg.Host)
	}
	return c
}

// StartFlow starts a flow of totalBytes from src to dst at the given
// time and returns it.
func (c *Cluster) StartFlow(src, dst topo.NodeID, totalBytes int64, at sim.Time) *host.Flow {
	c.nextFlowID++
	return c.Hosts[src].StartFlow(c.nextFlowID, c.Topo.Node(dst).IP, totalBytes, at)
}

// Run executes the simulation until the horizon.
func (c *Cluster) Run(horizon sim.Time) { c.Eng.Run(horizon) }

// BaseRTT estimates the unloaded RTT between two hosts: per-hop
// serialization of an MTU packet plus propagation, both ways (the ACK is
// small but shares the propagation cost).
func (c *Cluster) BaseRTT(src, dst topo.NodeID) sim.Time {
	path, err := c.Routing.Path(src, dst, 0)
	if err != nil {
		return 0
	}
	hops := sim.Time(len(path) - 1)
	mtuTx := c.Topo.TransmitTime(packet.DefaultMTU + packet.DataHeaderLen)
	ackTx := c.Topo.TransmitTime(84)
	return hops * (2*c.Topo.LinkDelay + mtuTx + ackTx)
}

// TotalDrops sums packet drops across all switches (a lossless fabric
// should report zero).
func (c *Cluster) TotalDrops() uint64 {
	var total uint64
	for _, sw := range c.Switches {
		total += sw.Drops
	}
	return total
}

// TotalPFCFrames sums PFC frames sent by all switches.
func (c *Cluster) TotalPFCFrames() uint64 {
	var total uint64
	for _, sw := range c.Switches {
		total += sw.TxPFCFrames
	}
	return total
}

// StartFlowRate starts a flow with a per-flow rate cap in bps (0 = line
// rate).
func (c *Cluster) StartFlowRate(src, dst topo.NodeID, totalBytes int64, at sim.Time, maxRate float64) *host.Flow {
	c.nextFlowID++
	return c.Hosts[src].StartFlowRate(c.nextFlowID, c.Topo.Node(dst).IP, totalBytes, at, maxRate)
}

// Package host models RDMA end hosts: a NIC with per-flow pacing and
// DCQCN reaction points, per-packet ACK/CNP generation on the receive
// side, PFC compliance on the NIC port, the Hawkeye host detection agent
// (§3.4), and host-side PFC injection used to create storms.
package host

import (
	"fmt"
	"sort"

	"hawkeye/internal/fabric"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// NIC and transport constants. Segments carry packet.DefaultMTU bytes
// of payload and flows start at the topology's line rate.
const (
	// ackEvery coalesces ACKs: one ACK per ackEvery in-order packets
	// (the last packet of a flow is always acknowledged).
	ackEvery int = 4
	// cnpInterval rate-limits CNP generation per flow: the DCQCN
	// notification point's 50 µs (Zhu et al., SIGCOMM '15).
	cnpInterval sim.Time = 50 * sim.Microsecond
	// nicQueueCap is the on-NIC backlog (bytes) above which flow pacing
	// stalls until the queue drains: four full segments.
	nicQueueCap int = 4 * (packet.DefaultMTU + packet.DataHeaderLen)
)

// Config controls NIC and transport behaviour.
type Config struct {
	// RetxTimeout is the transport retransmission timer: a flow with
	// unacknowledged packets and no ACK progress for this long rewinds to
	// its cumulative ACK (go-back-N), the way a RoCE QP's transport timer
	// recovers a lost tail. PFC makes loss rare, but watchdog mitigation
	// and buffer overflow both drop lossless packets. Zero disables.
	RetxTimeout sim.Time
	// Agent configures the Hawkeye detection agent.
	Agent AgentConfig
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		RetxTimeout: 5 * sim.Millisecond,
		Agent:       DefaultAgentConfig(),
	}
}

// recvState tracks one inbound flow at the receiver.
type recvState struct {
	expected    uint32
	lastCNP     sim.Time
	hasCNP      bool
	sinceAck    int
	Received    uint64
	OutOfOrder  uint64
	ECNReceived uint64
}

// Host is one end host (NIC + transport + detection agent).
type Host struct {
	ID   topo.NodeID
	IP   uint32
	Name string
	Cfg  Config

	net    *fabric.Network
	eng    *sim.Engine
	egress *fabric.Egress

	flows   map[uint64]*Flow
	recv    map[packet.FiveTuple]*recvState
	blocked map[uint64]*Flow

	agent *Agent

	// pathology, when non-nil, is the installed host-side anomaly model
	// (slow receiver, cache-thrash NIC, pause storm).
	pathology *rxPathology

	nextSrcPort uint16
	hostIndex   uint32

	// OnFlowDone fires when a flow is fully acknowledged.
	OnFlowDone func(*Flow)

	// Counters.
	PolledReceived uint64
	RxPFCFrames    uint64
	TxPFCFrames    uint64
	TxDataPackets  uint64
}

// NewHost builds the model for topology node id and registers it.
func NewHost(net *fabric.Network, id topo.NodeID, cfg Config) *Host {
	node := net.Topo.Node(id)
	if node.Kind != topo.KindHost {
		panic(fmt.Sprintf("host: node %s is not a host", node.Name))
	}
	h := &Host{
		ID:          id,
		IP:          node.IP,
		Name:        node.Name,
		Cfg:         cfg,
		net:         net,
		eng:         net.Eng,
		egress:      fabric.NewEgress(net, id, 0),
		flows:       make(map[uint64]*Flow),
		recv:        make(map[packet.FiveTuple]*recvState),
		blocked:     make(map[uint64]*Flow),
		nextSrcPort: 1024,
		hostIndex:   node.IP & 0xFFFF,
	}
	h.egress.OnDrain = h.onNICDrain
	h.agent = newAgent(h, cfg.Agent)
	net.Register(id, h)
	return h
}

// Agent returns the host's detection agent.
func (h *Host) Agent() *Agent { return h.agent }

// PeekSrcPort returns the source port the NEXT flow started on this host
// will use. Scenario crafting uses it to predict a flow's 5-tuple — and
// therefore its ECMP hash — before starting it (e.g. to construct hash
// polarization).
func (h *Host) PeekSrcPort() uint16 { return h.nextSrcPort }

// Egress exposes the NIC port (tests and scenarios).
func (h *Host) Egress() *fabric.Egress { return h.egress }

// Flows returns the sender-side flow table (experiments read FCTs).
func (h *Host) Flows() map[uint64]*Flow { return h.flows }

// Receive implements fabric.Receiver.
func (h *Host) Receive(pkt *packet.Packet, port int) {
	switch pkt.Type {
	case packet.TypePFC:
		h.receivePFC(pkt)
	case packet.TypeData:
		h.rxIngress(pkt)
	case packet.TypeACK:
		h.receiveACK(pkt)
	case packet.TypeNACK:
		h.receiveNACK(pkt)
	case packet.TypeCNP:
		h.receiveCNP(pkt)
	case packet.TypePolling:
		// The victim path ends here; the packet has done its job.
		h.PolledReceived++
	case packet.TypeReport:
		// Analyzer traffic; hosts only count it.
	}
}

func (h *Host) receivePFC(pkt *packet.Packet) {
	h.RxPFCFrames++
	for c := uint8(0); c < packet.NumClasses; c++ {
		switch {
		case pkt.PFC.Paused(c):
			h.egress.Pause(c, pkt.PFC.Quanta[c])
		case pkt.PFC.Resumes(c):
			h.egress.Resume(c)
		}
	}
}

func (h *Host) receiveData(pkt *packet.Packet) {
	rs, ok := h.recv[pkt.Flow]
	if !ok {
		rs = &recvState{}
		h.recv[pkt.Flow] = rs
	}
	rs.Received++
	if pkt.ECN {
		rs.ECNReceived++
		if !rs.hasCNP || h.eng.Now()-rs.lastCNP >= cnpInterval {
			rs.lastCNP = h.eng.Now()
			rs.hasCNP = true
			h.sendControl(packet.TypeCNP, pkt, 0)
		}
	}
	switch {
	case pkt.Seq == rs.expected:
		rs.expected++
		rs.sinceAck++
		if rs.sinceAck >= ackEvery || pkt.Last {
			rs.sinceAck = 0
			h.sendControl(packet.TypeACK, pkt, rs.expected)
		}
	case pkt.Seq > rs.expected:
		// Gap: go-back-N. Rare in a lossless fabric; kept for correctness
		// under buffer-overflow drops.
		rs.OutOfOrder++
		h.sendControl(packet.TypeNACK, pkt, rs.expected)
	default:
		// Duplicate from a go-back-N rewind; re-ack to move the sender on.
		rs.sinceAck = 0
		h.sendControl(packet.TypeACK, pkt, rs.expected)
	}
}

// sendControl emits an ACK/CNP/NACK for the received data packet back to
// its source, echoing the data packet's send timestamp for RTT sampling.
func (h *Host) sendControl(t packet.Type, data *packet.Packet, ackSeq uint32) {
	ctrl := &packet.Packet{
		Type:     t,
		Flow:     data.Flow.Reverse(),
		FlowID:   data.FlowID,
		Class:    packet.ClassControl,
		Size:     packet.ControlPacketSize,
		AckedSeq: ackSeq,
		SentAt:   data.SentAt,
	}
	h.egress.Enqueue(fabric.Queued{Pkt: ctrl, InPort: -1})
}

func (h *Host) receiveACK(pkt *packet.Packet) {
	f, ok := h.flows[pkt.FlowID]
	if !ok || f.Completed() {
		return
	}
	now := h.eng.Now()
	if pkt.AckedSeq > f.acked {
		f.acked = pkt.AckedSeq
	}
	f.lastAckAt = now
	rtt := now - pkt.SentAt
	f.recordRTT(rtt)
	h.agent.onRTT(f, rtt)
	if f.remaining == 0 && f.acked >= f.totalPkts {
		f.finishAt = now
		f.stopTimers()
		if h.OnFlowDone != nil {
			h.OnFlowDone(f)
		}
	}
}

func (h *Host) receiveNACK(pkt *packet.Packet) {
	f, ok := h.flows[pkt.FlowID]
	if !ok || f.Completed() {
		return
	}
	f.lastAckAt = h.eng.Now()
	f.rewindTo(pkt.AckedSeq)
}

func (h *Host) receiveCNP(pkt *packet.Packet) {
	if f, ok := h.flows[pkt.FlowID]; ok && !f.Completed() {
		f.cc.OnCNP()
	}
}

// onNICDrain unblocks paced flows once the NIC queue has room again.
// Flows resume in ID order: map iteration order must not leak into the
// packet interleaving, or runs stop being reproducible.
func (h *Host) onNICDrain() {
	if len(h.blocked) == 0 || h.egress.QueueBytes(packet.ClassLossless) > nicQueueCap {
		return
	}
	ids := make([]uint64, 0, len(h.blocked))
	for id := range h.blocked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := h.blocked[id]
		delete(h.blocked, id)
		f.scheduleSend()
	}
}

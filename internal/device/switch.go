// Package device models the RDMA switch: per-port per-class egress queues
// over a shared buffer, ingress-side PFC accounting with Xoff/Xon
// thresholds and quanta-based pause frames, RED/ECN marking for DCQCN, and
// ECMP forwarding. Instrumentation hooks expose every enqueue, dequeue and
// PFC event so Hawkeye telemetry and the baselines observe the pipeline
// exactly the way a P4 program would.
package device

import (
	"fmt"

	"hawkeye/internal/fabric"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Config controls buffer management, PFC and ECN behaviour. PFC
// protects packet.ClassLossless alone.
type Config struct {
	// XoffBytes: ingress (port, class) usage above this asserts PAUSE.
	XoffBytes int
	// XonBytes: usage below this deasserts (sends RESUME).
	XonBytes int
	// TotalBufferBytes bounds the shared packet buffer. Zero = unlimited.
	TotalBufferBytes int

	// EnableECN turns RED/ECN marking on for lossless classes.
	EnableECN bool
	// KminBytes..KmaxBytes is the RED ramp; pmax the top mark probability.
	KminBytes int
	KmaxBytes int
}

const (
	// pauseQuanta is the pause duration carried in each PAUSE frame:
	// the largest IEEE 802.1Qbb quanta, ≈335 µs at 100 Gbps. Real
	// deployments pause with large quanta and rely on the explicit Xon
	// RESUME; expiry is only a failure backstop.
	pauseQuanta uint16 = packet.MaxPauseQuanta
	// pauseRefresh is the fraction of the pause duration after which a
	// still-asserted pause is re-sent (hardware refreshes similarly).
	pauseRefresh float64 = 0.5
	// pmax is DCQCN's P_max (Zhu et al., SIGCOMM '15): the RED mark
	// probability at KmaxBytes. The value is this model's.
	pmax float64 = 0.2
)

// DefaultConfig returns thresholds sized for 100 Gbps links with 2 µs
// delay (per-hop BDP ≈ 50 KB): ECN keeps steady-state queues below Xoff
// so PFC fires only on bursts, the regime the paper studies.
func DefaultConfig() Config {
	return Config{
		XoffBytes: 48 * 1024,
		XonBytes:  24 * 1024,
		EnableECN: true,
		KminBytes: 16 * 1024,
		KmaxBytes: 64 * 1024,
	}
}

// EnqueueEvent is handed to instruments for every packet entering an
// egress queue — the egress-pipeline view a P4 program sees.
type EnqueueEvent struct {
	Pkt        *packet.Packet
	InPort     int // -1 if locally generated (CPU port)
	OutPort    int
	QueueBytes int  // class backlog after the enqueue
	QueuePkts  int  // class backlog in packets after the enqueue
	Paused     bool // egress (OutPort, class) was paused at enqueue time
	Now        sim.Time
}

// DequeueEvent is handed to instruments when a packet starts transmission.
type DequeueEvent struct {
	Pkt        *packet.Packet
	OutPort    int
	EnqueuedAt sim.Time
	Now        sim.Time
}

// Instrument observes the switch pipeline. Hawkeye telemetry and every
// telemetry baseline implement this.
type Instrument interface {
	OnEnqueue(ev EnqueueEvent)
	OnDequeue(ev DequeueEvent)
	// OnPFC fires when a PFC frame arrives on port (paper: the frame is
	// passed into the egress pipeline to update the port status register).
	OnPFC(port int, frame *packet.PFCFrame, now sim.Time)
}

// PollHandler processes Hawkeye polling packets in the "data plane".
type PollHandler interface {
	HandlePolling(sw *Switch, pkt *packet.Packet, inPort int)
}

// Switch is one modelled switch.
type Switch struct {
	ID   topo.NodeID
	Name string
	Cfg  Config

	net     *fabric.Network
	routing *topo.Routing
	rng     *sim.Rand

	egress []*fabric.Egress

	ingressBytes  [][packet.NumClasses]int
	pauseAsserted [][packet.NumClasses]bool
	refreshRef    [][packet.NumClasses]sim.EventRef

	bufferUsed int

	instruments []Instrument
	pollHandler PollHandler

	// watchdogDrop marks (port, class) pairs whose arriving traffic a PFC
	// watchdog is currently discarding (storm mitigation).
	watchdogDrop [][packet.NumClasses]bool

	// Counters.
	Drops         uint64
	WatchdogDrops uint64
	RxPFCFrames   uint64
	TxPFCFrames   uint64
	MaxBufferUse  int
}

// NewSwitch builds the model for topology node id and registers it on the
// network.
func NewSwitch(net *fabric.Network, routing *topo.Routing, id topo.NodeID, cfg Config, rng *sim.Rand) *Switch {
	node := net.Topo.Node(id)
	if node.Kind != topo.KindSwitch {
		panic(fmt.Sprintf("device: node %s is not a switch", node.Name))
	}
	sw := &Switch{
		ID:      id,
		Name:    node.Name,
		Cfg:     cfg,
		net:     net,
		routing: routing,
		rng:     rng,
	}
	n := len(node.Ports)
	sw.egress = make([]*fabric.Egress, n)
	sw.ingressBytes = make([][packet.NumClasses]int, n)
	sw.pauseAsserted = make([][packet.NumClasses]bool, n)
	sw.refreshRef = make([][packet.NumClasses]sim.EventRef, n)
	sw.watchdogDrop = make([][packet.NumClasses]bool, n)
	for p := 0; p < n; p++ {
		p := p
		sw.egress[p] = fabric.NewEgress(net, id, p)
		sw.egress[p].OnDequeue = func(q fabric.Queued) { sw.onDequeue(p, q) }
	}
	net.Register(id, sw)
	return sw
}

// AddInstrument attaches a pipeline observer.
func (sw *Switch) AddInstrument(in Instrument) { sw.instruments = append(sw.instruments, in) }

// SetPollHandler installs the polling-packet logic (Hawkeye switches).
func (sw *Switch) SetPollHandler(h PollHandler) { sw.pollHandler = h }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.egress) }

// EgressAt exposes a port's egress machinery (polling logic and tests).
func (sw *Switch) EgressAt(port int) *fabric.Egress { return sw.egress[port] }

// IsHostFacing reports whether an egress port connects to a host.
func (sw *Switch) IsHostFacing(port int) bool { return sw.net.Topo.IsHostFacing(sw.ID, port) }

// RouteFor returns the egress port a packet of flow ft would take,
// using the same ECMP hash function as the data path. This is how the
// polling pipeline follows the victim flow (paper Fig. 6).
func (sw *Switch) RouteFor(ft packet.FiveTuple) (int, bool) {
	dst, ok := sw.net.Topo.HostByIP(ft.DstIP)
	if !ok {
		return 0, false
	}
	return sw.routing.SelectPort(sw.ID, dst, ft.Hash())
}

// Receive implements fabric.Receiver.
func (sw *Switch) Receive(pkt *packet.Packet, port int) {
	switch pkt.Type {
	case packet.TypePFC:
		sw.receivePFC(pkt, port)
	case packet.TypePolling:
		if sw.pollHandler != nil {
			sw.pollHandler.HandlePolling(sw, pkt, port)
			return
		}
		// Without Hawkeye logic, polling packets just follow the victim
		// flow path (the victim-only and full-polling baselines reuse this).
		out, ok := sw.RouteFor(pkt.Poll.Victim)
		if !ok {
			sw.Drops++
			return
		}
		sw.EnqueueAt(pkt, port, out)
	default:
		out, ok := sw.RouteFor(pkt.Flow)
		if !ok {
			sw.Drops++
			return
		}
		sw.EnqueueAt(pkt, port, out)
	}
}

func (sw *Switch) receivePFC(pkt *packet.Packet, port int) {
	sw.RxPFCFrames++
	frame := pkt.PFC
	for c := uint8(0); c < packet.NumClasses; c++ {
		switch {
		case frame.Paused(c):
			sw.egress[port].Pause(c, frame.Quanta[c])
		case frame.Resumes(c):
			sw.egress[port].Resume(c)
		}
	}
	for _, in := range sw.instruments {
		in.OnPFC(port, frame, sw.net.Eng.Now())
	}
}

// EnqueueAt places pkt on egress port out, running the full egress
// pipeline: buffer admission, ingress PFC accounting, ECN marking,
// telemetry hooks. inPort is -1 for locally generated packets.
func (sw *Switch) EnqueueAt(pkt *packet.Packet, inPort, out int) {
	if sw.watchdogDrop[out][pkt.Class] {
		sw.WatchdogDrops++
		return
	}
	if sw.Cfg.TotalBufferBytes > 0 && sw.bufferUsed+pkt.Size > sw.Cfg.TotalBufferBytes {
		sw.Drops++
		return
	}
	class := pkt.Class
	eg := sw.egress[out]
	paused := eg.Paused(class)

	sw.bufferUsed += pkt.Size
	if sw.bufferUsed > sw.MaxBufferUse {
		sw.MaxBufferUse = sw.bufferUsed
	}
	if inPort >= 0 && class == packet.ClassLossless {
		sw.ingressBytes[inPort][class] += pkt.Size
		sw.checkXoff(inPort, class)
	}
	if sw.Cfg.EnableECN && class == packet.ClassLossless && pkt.Type == packet.TypeData {
		sw.maybeMark(pkt, eg.QueueBytes(class))
	}
	qBytes := eg.Enqueue(fabric.Queued{Pkt: pkt, InPort: inPort})
	ev := EnqueueEvent{
		Pkt:        pkt,
		InPort:     inPort,
		OutPort:    out,
		QueueBytes: qBytes,
		QueuePkts:  eg.QueuePackets(class),
		Paused:     paused,
		Now:        sw.net.Eng.Now(),
	}
	for _, in := range sw.instruments {
		in.OnEnqueue(ev)
	}
}

// maybeMark applies the RED/ECN ramp on the pre-enqueue backlog.
func (sw *Switch) maybeMark(pkt *packet.Packet, qBytes int) {
	if qBytes <= sw.Cfg.KminBytes {
		return
	}
	if qBytes >= sw.Cfg.KmaxBytes {
		pkt.ECN = true
		return
	}
	p := pmax * float64(qBytes-sw.Cfg.KminBytes) / float64(sw.Cfg.KmaxBytes-sw.Cfg.KminBytes)
	if sw.rng.Float64() < p {
		pkt.ECN = true
	}
}

func (sw *Switch) onDequeue(out int, q fabric.Queued) {
	pkt := q.Pkt
	sw.bufferUsed -= pkt.Size
	if q.InPort >= 0 && pkt.Class == packet.ClassLossless {
		sw.ingressBytes[q.InPort][pkt.Class] -= pkt.Size
		sw.checkXon(q.InPort, pkt.Class)
	}
	ev := DequeueEvent{Pkt: pkt, OutPort: out, EnqueuedAt: q.EnqueuedAt, Now: sw.net.Eng.Now()}
	for _, in := range sw.instruments {
		in.OnDequeue(ev)
	}
}

// checkXoff asserts PAUSE toward the upstream on (inPort, class) when
// ingress usage crosses Xoff.
func (sw *Switch) checkXoff(inPort int, class uint8) {
	if sw.pauseAsserted[inPort][class] || sw.ingressBytes[inPort][class] <= sw.Cfg.XoffBytes {
		return
	}
	sw.pauseAsserted[inPort][class] = true
	sw.sendPause(inPort, class)
}

func (sw *Switch) sendPause(inPort int, class uint8) {
	sw.TxPFCFrames++
	sw.net.SendPFC(sw.ID, inPort, packet.NewPause(class, pauseQuanta))
	dur := packet.PauseDuration(pauseQuanta, sw.net.Topo.LinkBandwidth)
	refresh := sim.Time(float64(dur) * pauseRefresh)
	if refresh < sim.Microsecond {
		refresh = sim.Microsecond
	}
	sw.refreshRef[inPort][class].Cancel()
	sw.refreshRef[inPort][class] = sw.net.Eng.After(refresh, func() {
		if sw.pauseAsserted[inPort][class] {
			sw.sendPause(inPort, class)
		}
	})
}

// checkXon deasserts the pause (sends RESUME) when usage drops below Xon.
func (sw *Switch) checkXon(inPort int, class uint8) {
	if !sw.pauseAsserted[inPort][class] || sw.ingressBytes[inPort][class] >= sw.Cfg.XonBytes {
		return
	}
	sw.pauseAsserted[inPort][class] = false
	sw.refreshRef[inPort][class].Cancel()
	sw.TxPFCFrames++
	sw.net.SendPFC(sw.ID, inPort, packet.NewResume(class))
}

// SetWatchdogDrop turns discard-on-arrival for (port, class) on or off.
// PFC watchdogs use it during a detected pause storm.
func (sw *Switch) SetWatchdogDrop(port int, class uint8, on bool) {
	sw.watchdogDrop[port][class] = on
}

// DropQueued discards every packet queued on (port, class), releasing the
// shared buffer and PFC ingress accounting as if they had departed; a
// drained ingress sends RESUME upstream, which is precisely how a PFC
// watchdog unwinds a pause storm or deadlock. Returns the packet count.
func (sw *Switch) DropQueued(port int, class uint8) int {
	dropped := sw.egress[port].DropClass(class)
	for _, q := range dropped {
		sw.bufferUsed -= q.Pkt.Size
		if q.InPort >= 0 && q.Pkt.Class == packet.ClassLossless {
			sw.ingressBytes[q.InPort][q.Pkt.Class] -= q.Pkt.Size
			sw.checkXon(q.InPort, q.Pkt.Class)
		}
	}
	sw.WatchdogDrops += uint64(len(dropped))
	return len(dropped)
}

// PauseAsserted reports whether the switch is currently pausing the
// upstream on (inPort, class) — the PFC-watchdog-style view.
func (sw *Switch) PauseAsserted(inPort int, class uint8) bool {
	return sw.pauseAsserted[inPort][class]
}

// IngressBytes exposes the PFC ingress accounting (tests).
func (sw *Switch) IngressBytes(inPort int, class uint8) int {
	return sw.ingressBytes[inPort][class]
}

// BufferUsed returns the current shared-buffer occupancy in bytes.
func (sw *Switch) BufferUsed() int { return sw.bufferUsed }

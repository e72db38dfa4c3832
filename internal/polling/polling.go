// Package polling implements Hawkeye's in-data-plane causality analysis
// (§3.4, Fig. 6): polling packets follow the victim flow path at line
// rate, detect PFC pausing via the telemetry registers, and fan out along
// the PFC spreading path using the port-pair causality meter — while
// mirroring each polling packet to the switch CPU to trigger asynchronous
// telemetry collection.
package polling

import (
	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// Mirror receives the CPU-mirrored polling packet (the collection
// trigger).
type Mirror interface {
	MirrorPolling(sw topo.NodeID, tel *telemetry.State, hdr packet.PollingHeader, inPort int)
}

// FaultInjector intercepts polling packets at handler entry. The chaos
// engine (internal/chaos) implements it; all injection decisions flow
// through one seeded RNG and one accounting surface there.
type FaultInjector interface {
	// DropPolling reports whether this polling packet is lost before the
	// handler sees it (a congested or lossy control plane eating
	// diagnosis traffic).
	DropPolling(sw topo.NodeID, hdr packet.PollingHeader) bool
	// DuplicatePolling reports whether the packet arrives twice (link
	// retransmission, mirror misconfiguration). The duplicate runs the
	// full handler; the dedup window is what absorbs it.
	DuplicatePolling(sw topo.NodeID, hdr packet.PollingHeader) bool
}

// Config controls the per-switch handler.
type Config struct {
	// Dedup drops polling packets with the same victim 5-tuple seen
	// within the interval (Table 1 discussion).
	Dedup sim.Time
	// Faults, when set, injects polling-packet loss and duplication at
	// handler entry. Install via the chaos engine.
	Faults FaultInjector
}

// DefaultConfig uses a 1 ms dedup window and no failure injection.
func DefaultConfig() Config { return Config{Dedup: sim.Millisecond} }

// Handler is the polling logic of one Hawkeye switch. It implements
// device.PollHandler.
type Handler struct {
	Tel *telemetry.State
	Cfg Config

	mirror Mirror
	now    func() sim.Time

	lastSeen map[packet.FiveTuple]sim.Time

	// Counters.
	Handled        uint64
	Dropped        uint64
	Lost           uint64 // fault-injected losses (Config.Faults)
	Duplicated     uint64 // fault-injected duplicate arrivals
	ForwardVictim  uint64
	ForwardCausal  uint64
	TerminalHost   uint64 // PFC trace ended at a host-facing port
	TerminalLocal  uint64 // PFC trace ended at local flow contention
	MirrorsEmitted uint64
}

// NewHandler builds the polling logic bound to a switch's telemetry.
func NewHandler(tel *telemetry.State, cfg Config, mirror Mirror, now func() sim.Time) *Handler {
	return &Handler{
		Tel:      tel,
		Cfg:      cfg,
		mirror:   mirror,
		now:      now,
		lastSeen: make(map[packet.FiveTuple]sim.Time),
	}
}

// HandlePolling implements device.PollHandler.
func (h *Handler) HandlePolling(sw *device.Switch, pkt *packet.Packet, inPort int) {
	hdr := pkt.Poll
	if hdr == nil || hdr.Flag == packet.FlagUseless || hdr.HopsLow == 0 {
		h.Dropped++
		return
	}
	if f := h.Cfg.Faults; f != nil {
		if f.DropPolling(sw.ID, *hdr) {
			h.Lost++
			return
		}
		if f.DuplicatePolling(sw.ID, *hdr) {
			// The duplicate takes the full handler path; the per-victim
			// dedup window is the mechanism that absorbs it.
			h.Duplicated++
			h.handle(sw, hdr, inPort)
		}
	}
	h.handle(sw, hdr, inPort)
}

// handle is the fault-free polling pipeline of Fig. 6.
func (h *Handler) handle(sw *device.Switch, hdr *packet.PollingHeader, inPort int) {
	now := h.now()
	if last, ok := h.lastSeen[hdr.Victim]; ok && now-last < h.Cfg.Dedup {
		h.Dropped++
		return
	}
	h.lastSeen[hdr.Victim] = now
	h.Handled++

	// Mirror to the CPU port: triggers asynchronous telemetry collection
	// without touching the forwarding path.
	if h.mirror != nil {
		h.MirrorsEmitted++
		h.mirror.MirrorPolling(sw.ID, h.Tel, *hdr, inPort)
	}

	if hdr.Flag.TraceVictim() {
		h.traceVictim(sw, hdr, inPort)
	}
	if hdr.Flag.TracePFC() {
		h.traceCausality(sw, hdr, inPort)
	}
}

// traceVictim unicasts the polling packet along the victim flow's own
// route, upgrading the flag when the victim is PFC-paused here.
func (h *Handler) traceVictim(sw *device.Switch, hdr *packet.PollingHeader, inPort int) {
	out, ok := sw.RouteFor(hdr.Victim)
	if !ok {
		return
	}
	flag := packet.FlagVictimPath
	_, flowPaused, found := h.Tel.FlowPausedRecently(hdr.Victim)
	paused := flowPaused || (!found && h.Tel.PortPausedRecently(out))
	if paused {
		// Notify the next switch (the PAUSE sender for this egress) to
		// analyze its PFC causality.
		flag = packet.FlagBoth
	}
	h.ForwardVictim++
	h.emit(sw, hdr, inPort, out, flag)
}

// traceCausality multicasts toward every egress port causally relevant to
// the PFC backpressure felt at inPort: ports that carried traffic from
// inPort (meter > 0) and are themselves PFC-paused. Ports that carried
// traffic but are not paused are initial congestion points; host-facing
// paused ports mean host PFC injection. Both terminate the trace — the
// telemetry collected here is what diagnosis needs.
func (h *Handler) traceCausality(sw *device.Switch, hdr *packet.PollingHeader, inPort int) {
	for out := 0; out < sw.NumPorts(); out++ {
		if out == inPort {
			continue
		}
		if h.Tel.MeterRecent(inPort, out) == 0 {
			continue
		}
		switch {
		case !h.Tel.PortPausedRecently(out):
			h.TerminalLocal++
		case sw.IsHostFacing(out):
			h.TerminalHost++
		default:
			h.ForwardCausal++
			h.emit(sw, hdr, inPort, out, packet.FlagPFCOnly)
		}
	}
}

// emit clones the polling packet with the new flag and queues it on the
// control class of the chosen egress.
func (h *Handler) emit(sw *device.Switch, hdr *packet.PollingHeader, inPort, out int, flag packet.PollingFlag) {
	clone := &packet.Packet{
		Type:  packet.TypePolling,
		Flow:  hdr.Victim,
		Class: packet.ClassControl,
		Size:  packet.PollingPacketSize,
		Poll: &packet.PollingHeader{
			Flag:    flag,
			Victim:  hdr.Victim,
			DiagID:  hdr.DiagID,
			HopsLow: hdr.HopsLow - 1,
		},
	}
	sw.EnqueueAt(clone, inPort, out)
}

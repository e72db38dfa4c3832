package host

import (
	"fmt"

	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
)

// Host-side anomaly pathologies (§2.1, Collie's taxonomy): the anomalies
// production fleets actually hit are frequently *endpoint* defects that
// present on the fabric as PFC backpressure with no in-network cause. A
// ToR cannot tell them apart — every one of them looks like "my
// host-facing port is paused". The host-agent counter channel exists so
// the diagnoser can. Each pathology is a deterministic, seed-forked
// behaviour installed on the existing NIC/flow model after cluster
// construction, so healthy hosts keep the exact event sequence they had
// before this layer existed.

// PathologyKind selects a host-side anomaly model.
type PathologyKind int

const (
	// PathologyNone leaves the NIC healthy.
	PathologyNone PathologyKind = iota
	// PathologySlowReceiver bounds the RX-buffer drain rate: the buffer
	// fills under normal offered load and the NIC emits sustained PFC
	// (PCIe/DMA bottleneck, pinned-memory misconfiguration).
	PathologySlowReceiver
	// PathologyCacheThrash makes per-packet processing latency grow with
	// the inbound QP fan-in the NIC has served: connection-cache misses
	// degrade a NIC that was fine at low fan-in (Collie's RNIC cache
	// thrashing).
	PathologyCacheThrash
	// PathologyPauseStorm emits spurious PFC bursts decoupled from
	// buffer state (malfunctioning NIC firmware, Fig. 1b).
	PathologyPauseStorm
)

// String renders the kind the way scenario names and reports spell it.
func (k PathologyKind) String() string {
	switch k {
	case PathologyNone:
		return "none"
	case PathologySlowReceiver:
		return "slow-receiver"
	case PathologyCacheThrash:
		return "cache-thrash"
	case PathologyPauseStorm:
		return "pause-storm"
	}
	return fmt.Sprintf("pathology(%d)", int(k))
}

// PathologyConfig parametrizes one installed pathology. The zero value
// is unusable; start from DefaultPathologyConfig.
type PathologyConfig struct {
	Kind PathologyKind
	// Seed forks the pathology's own randomness stream (burst jitter);
	// the drain models are fully deterministic and ignore it.
	Seed uint64
	// Start/Stop bound the defect window. Outside it the NIC drains at
	// line rate (the defect "heals", backlog permitting).
	Start, Stop sim.Time

	// RX-buffer model (slow receiver, cache thrash): capacity and the
	// Xoff/Xon occupancy thresholds at which the NIC asserts/releases
	// PFC toward its ToR.
	RxBufferBytes int
	XoffBytes     int
	XonBytes      int

	// DrainBps is the slow receiver's bounded drain rate.
	DrainBps float64

	// Cache-thrash latency model: per-packet service latency
	// BaseProcNS * (1 + ThrashFactor * max(0, fanIn - ThrashFlows)),
	// where fanIn is the count of distinct inbound flows the NIC has
	// served — cumulative, because every new QP pollutes the cache.
	BaseProcNS   sim.Time
	ThrashFlows  int
	ThrashFactor float64

	// Pause-storm burst model: bursts hold PFC for ~BurstHold, separated
	// by ~BurstEvery gaps, both jittered from the seed stream.
	BurstEvery  sim.Time
	BurstHold   sim.Time
	BurstQuanta uint16
}

// DefaultPathologyConfig returns a parametrization that reliably
// reproduces the pathology on the default 100G fat-tree: the slow
// receiver drains a fifth of the line rate, the thrashing NIC degrades
// to ~1 µs/packet beyond a 2-QP working set, and the storm pauses its
// ToR port roughly a third of the time.
func DefaultPathologyConfig(kind PathologyKind) PathologyConfig {
	return PathologyConfig{
		Kind:          kind,
		RxBufferBytes: 512 << 10,
		XoffBytes:     256 << 10,
		XonBytes:      128 << 10,
		DrainBps:      20e9,
		BaseProcNS:    150,
		ThrashFlows:   2,
		ThrashFactor:  1.5,
		BurstEvery:    150 * sim.Microsecond,
		BurstHold:     60 * sim.Microsecond,
		BurstQuanta:   packet.MaxPauseQuanta,
	}
}

// buffered reports whether the kind runs the bounded RX-buffer model.
func (c *PathologyConfig) buffered() bool {
	return c.Kind == PathologySlowReceiver || c.Kind == PathologyCacheThrash
}

// rxPathology is the installed pathology state on one host.
type rxPathology struct {
	cfg PathologyConfig
	rng *sim.Rand

	// RX staging buffer (FIFO): packets wait here for service.
	q        []*packet.Packet
	bytes    int
	draining bool
	paused   bool // the NIC currently asserts PFC toward its ToR
	pauseGen int  // invalidates stale refresh loops

	// Observed-counter accumulators for the host-agent channel.
	drainedBytes  uint64
	busyNS        sim.Time
	procSumNS     sim.Time
	procPkts      uint64
	overflowDrops uint64
}

// InstallPathology arms a pathology on this host. Call it after cluster
// construction (scenario builders derive Seed from the cluster seed);
// installing PathologyNone removes any previous model.
func (h *Host) InstallPathology(cfg PathologyConfig) {
	if cfg.Kind == PathologyNone {
		h.pathology = nil
		return
	}
	p := &rxPathology{cfg: cfg, rng: sim.NewRand(cfg.Seed ^ 0x4057A7B010C1E5)}
	h.pathology = p
	if cfg.Kind == PathologyPauseStorm {
		h.eng.At(cfg.Start, h.stormBurst)
	}
}

// Pathology returns the installed pathology kind (PathologyNone when
// healthy).
func (h *Host) Pathology() PathologyKind {
	if h.pathology == nil {
		return PathologyNone
	}
	return h.pathology.cfg.Kind
}

// sendPFC emits a PFC frame on the NIC port, counting emitted pauses for
// the host-agent channel.
func (h *Host) sendPFC(frame *packet.PFCFrame) {
	if frame.Paused(packet.ClassLossless) {
		h.TxPFCFrames++
	}
	h.net.SendPFC(h.ID, 0, frame)
}

// rxIngress is the data-packet entry point: healthy hosts (and inactive
// windows with an empty backlog) process instantly, exactly as before
// the pathology layer existed; buffered pathologies stage the packet and
// run the bounded drain.
func (h *Host) rxIngress(pkt *packet.Packet) {
	p := h.pathology
	if p == nil || !p.cfg.buffered() {
		h.receiveData(pkt)
		return
	}
	now := h.eng.Now()
	if now < p.cfg.Start || (now >= p.cfg.Stop && len(p.q) == 0) {
		h.receiveData(pkt)
		return
	}
	if p.bytes+pkt.Size > p.cfg.RxBufferBytes {
		// Xoff propagation slack exhausted: a real NIC drops here too —
		// the lossless contract is already broken by the defect.
		p.overflowDrops++
		return
	}
	p.q = append(p.q, pkt)
	p.bytes += pkt.Size
	if !p.paused && p.bytes >= p.cfg.XoffBytes {
		h.setRxPaused(true)
	}
	h.rxPump()
}

// serviceTime models per-packet RX service latency for the kind.
func (p *rxPathology) serviceTime(h *Host, pkt *packet.Packet) sim.Time {
	if h.eng.Now() >= p.cfg.Stop {
		// Healed: drain the backlog at line rate.
		return sim.Time(float64(pkt.Size*8) / h.net.Topo.LinkBandwidth * 1e9)
	}
	switch p.cfg.Kind {
	case PathologySlowReceiver:
		return sim.Time(float64(pkt.Size*8) / p.cfg.DrainBps * 1e9)
	case PathologyCacheThrash:
		extra := len(h.recv) - p.cfg.ThrashFlows
		if extra < 0 {
			extra = 0
		}
		return sim.Time(float64(p.cfg.BaseProcNS) * (1 + p.cfg.ThrashFactor*float64(extra)))
	}
	return 0
}

// rxPump services the staging buffer head; one service in flight at a
// time (the NIC's RX pipeline is the serialized resource being modeled).
func (h *Host) rxPump() {
	p := h.pathology
	if p == nil || p.draining || len(p.q) == 0 {
		return
	}
	p.draining = true
	pkt := p.q[0]
	st := p.serviceTime(h, pkt)
	h.eng.After(st, func() {
		p.q = p.q[1:]
		p.bytes -= pkt.Size
		p.drainedBytes += uint64(pkt.Size)
		p.busyNS += st
		p.procSumNS += st
		p.procPkts++
		h.receiveData(pkt)
		p.draining = false
		if p.paused && p.bytes <= p.cfg.XonBytes {
			h.setRxPaused(false)
		}
		h.rxPump()
	})
}

// setRxPaused asserts or releases buffer-driven PFC toward the ToR. An
// asserted pause is refreshed at half its quanta duration so it never
// lapses while the buffer stays above Xon — the sustained-PFC signature
// of a receiver that cannot drain.
func (h *Host) setRxPaused(on bool) {
	p := h.pathology
	p.paused = on
	p.pauseGen++
	if !on {
		h.sendPFC(packet.NewResume(packet.ClassLossless))
		return
	}
	gen := p.pauseGen
	quanta := uint16(packet.MaxPauseQuanta)
	refresh := packet.PauseDuration(quanta, h.net.Topo.LinkBandwidth) / 2
	if refresh < sim.Microsecond {
		refresh = sim.Microsecond
	}
	var tick func()
	tick = func() {
		if !p.paused || p.pauseGen != gen {
			return
		}
		h.sendPFC(packet.NewPause(packet.ClassLossless, quanta))
		h.eng.After(refresh, tick)
	}
	tick()
}

// stormBurst runs one spurious pause burst and schedules the next: hold
// PFC asserted for a jittered BurstHold, release, wait a jittered
// BurstEvery gap. Entirely decoupled from buffer state — the discriminant
// the host report carries is PauseTx > 0 with an empty RX buffer.
func (h *Host) stormBurst() {
	p := h.pathology
	if p == nil || p.cfg.Kind != PathologyPauseStorm {
		return
	}
	now := h.eng.Now()
	if now >= p.cfg.Stop {
		h.sendPFC(packet.NewResume(packet.ClassLossless))
		return
	}
	hold := jitter(p.rng, p.cfg.BurstHold)
	end := now + hold
	quanta := p.cfg.BurstQuanta
	refresh := packet.PauseDuration(quanta, h.net.Topo.LinkBandwidth) / 2
	if refresh < sim.Microsecond {
		refresh = sim.Microsecond
	}
	var tick func()
	tick = func() {
		t := h.eng.Now()
		if t >= end || t >= p.cfg.Stop {
			h.sendPFC(packet.NewResume(packet.ClassLossless))
			h.eng.After(jitter(p.rng, p.cfg.BurstEvery), h.stormBurst)
			return
		}
		h.sendPFC(packet.NewPause(packet.ClassLossless, quanta))
		h.eng.After(refresh, tick)
	}
	tick()
}

// jitter draws uniformly from [0.5, 1.5) * d.
func jitter(rng *sim.Rand, d sim.Time) sim.Time {
	j := sim.Time(float64(d) * (0.5 + rng.Float64()))
	if j < sim.Microsecond {
		j = sim.Microsecond
	}
	return j
}

// NICCounters is the host-agent register snapshot: the raw material of
// the telemetry HostReport, kept free of the telemetry dependency so the
// device model stays a device model.
type NICCounters struct {
	RxBufferBytes uint64
	RxBufferCap   uint64
	DrainBps      uint64
	PauseTx       uint64
	PauseRx       uint64
	ProcLatencyNS uint64
	ActiveQPs     uint32
}

// NICCounters reads the host-agent registers at the current instant.
func (h *Host) NICCounters() NICCounters {
	c := NICCounters{
		PauseTx:   h.TxPFCFrames,
		PauseRx:   h.RxPFCFrames,
		ActiveQPs: uint32(len(h.recv)),
	}
	if p := h.pathology; p != nil && p.cfg.buffered() {
		c.RxBufferCap = uint64(p.cfg.RxBufferBytes)
		c.RxBufferBytes = uint64(p.bytes)
		if p.busyNS > 0 {
			c.DrainBps = uint64(float64(p.drainedBytes*8) / (float64(p.busyNS) / 1e9))
		}
		if p.procPkts > 0 {
			c.ProcLatencyNS = uint64(p.procSumNS) / p.procPkts
		}
	}
	return c
}

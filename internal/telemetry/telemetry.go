// Package telemetry implements Hawkeye's switch-side state (§3.3):
//
//   - per-egress-port PFC status registers updated by PAUSE frames
//     (pause deadline and frame counts),
//   - an epoch ring buffer indexed by timestamp bits, holding per-epoch
//     flow tables (hash-indexed, XOR-matched, evict-on-collision),
//     per-egress-port counters, and the port-pair PFC-causality meter
//     (paper Fig. 3),
//   - snapshot extraction for the controller poller.
//
// The structures deliberately mirror Tofino register semantics: fixed
// slot counts, lazy reset on epoch-ID wraparound, one-touch updates per
// packet.
package telemetry

import (
	"fmt"
	"math/bits"

	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Config sizes the telemetry state.
type Config struct {
	// EpochBits is log2 of the epoch length in nanoseconds: epochs are
	// demarcated by timestamp[EpochBits .. EpochBits+log2(NumEpochs)-1]
	// exactly as §3.3 describes (e.g. 20 -> ~1.05 ms epochs).
	EpochBits uint
	// NumEpochs is the ring size; must be a power of two (2 or 4 in the
	// paper's testbed runs).
	NumEpochs int
	// FlowSlots is the per-epoch flow table size (4096 on the testbed).
	FlowSlots int
	// Lookback is how many recent epochs causality checks consult.
	Lookback int
	// FlowTelemetry enables the per-epoch flow tables. §5's partial
	// deployment keeps PFC causality analysis (port tables, meter,
	// status) on every switch but provisions the flow tables only on
	// hot-spot switches such as ToRs.
	FlowTelemetry bool
}

// deepQdepthBytes: a (unpaused) enqueue only counts as contention
// evidence when the backlog it sees reaches this bound. One extra
// comparator in the pipeline; it keeps idle-era traffic from diluting
// the contention statistics of the epoch the anomaly starts in.
const deepQdepthBytes int = 8192

// DefaultConfig matches the paper's testbed defaults scaled to the
// simulation: ~105 µs epochs, 4-epoch ring, 4096 flow slots.
func DefaultConfig() Config {
	return Config{EpochBits: 17, NumEpochs: 4, FlowSlots: 4096, Lookback: 2,
		FlowTelemetry: true}
}

// EpochSize returns the epoch duration.
func (c Config) EpochSize() sim.Time { return sim.Time(1) << c.EpochBits }

// Validate checks structural requirements.
func (c Config) Validate() error {
	if c.NumEpochs <= 0 || c.NumEpochs&(c.NumEpochs-1) != 0 {
		return fmt.Errorf("telemetry: NumEpochs %d not a power of two", c.NumEpochs)
	}
	if c.EpochBits < 10 || c.EpochBits > 30 {
		return fmt.Errorf("telemetry: EpochBits %d out of range [10,30]", c.EpochBits)
	}
	if c.FlowSlots <= 0 {
		return fmt.Errorf("telemetry: FlowSlots %d", c.FlowSlots)
	}
	if c.Lookback <= 0 || c.Lookback > c.NumEpochs {
		return fmt.Errorf("telemetry: Lookback %d vs NumEpochs %d", c.Lookback, c.NumEpochs)
	}
	return nil
}

// FlowRecord is one flow-table slot: 5-tuple identity plus the PFC-aware
// counters Hawkeye adds over conventional flow telemetry.
//
// DeepCount/QdepthSum accumulate only over *contention* enqueues: packets
// that entered while the egress was NOT paused (a backlog seen during a
// pause is PFC-built, not contention-built — §3.5.1 "excludes the paused
// packets") and that found a substantial backlog (shallow enqueues carry
// no contention information and would otherwise dilute the statistics of
// the epoch an anomaly starts in).
type FlowRecord struct {
	Tuple       packet.FiveTuple
	OutPort     int
	PktCount    uint32
	PausedCount uint32 // packets that enqueued while the egress was paused
	DeepCount   uint32 // unpaused enqueues that saw a deep backlog
	QdepthSum   uint64 // bytes; backlog seen, summed over DeepCount enqueues
	Bytes       uint64
}

// AvgQdepth returns the mean queue depth (bytes) the flow's contention
// packets saw.
func (f *FlowRecord) AvgQdepth() float64 {
	if f.DeepCount == 0 {
		return 0
	}
	return float64(f.QdepthSum) / float64(f.DeepCount)
}

// PortRecord aggregates the same counters per egress port, maintained in
// the data plane so diagnosis does not have to fold thousands of flow
// records hop-by-hop (§3.3).
type PortRecord struct {
	Port        int
	PktCount    uint32
	PausedCount uint32
	QdepthSum   uint64
	Bytes       uint64
}

// epoch is one ring entry.
type epoch struct {
	id    uint32 // epoch-ID bits; epochIDInvalid when never written
	flows []FlowRecord
	// evicted collects slots displaced by hash collisions; the paper
	// stores these at the controller.
	evicted []FlowRecord
	ports   []PortRecord
}

const epochIDInvalid = ^uint32(0)

// PortStatus is the PFC status register block for one egress port, plus
// the live egress queue-depth register sampled at snapshot time. The two
// registers are what keep diagnosis possible through a deadlock, where
// per-packet telemetry freezes with the traffic.
type PortStatus struct {
	Port        int
	PausedUntil sim.Time
	RxPause     uint64 // PAUSE frames received on this port
	RxResume    uint64
	QdepthBytes int // live egress backlog at snapshot
}

// State is the full telemetry block of one switch. It implements
// device.Instrument.
type State struct {
	Cfg      Config
	Switch   topo.NodeID
	Name     string
	numPorts int

	now       func() sim.Time
	queueOf   func(port int) int // live egress backlog register
	bwBps     float64
	epochs    []epoch
	status    []PortStatus
	meterCur  []uint64 // [inPort*numPorts + outPort] bytes
	meterPrev []uint64
	meterAt   sim.Time // last rotation
	meterWin  sim.Time

	idxShift  uint
	idShift   uint
	idxMask   uint64
	Evictions uint64

	// veScratch backs validEpochs so the per-poll recency checks and
	// snapshot extraction do not allocate; the returned slices alias it
	// and are only valid until the next call.
	veScratch []validEpoch

	// faults, when set, degrades snapshot extraction (chaos engine).
	faults Faults
}

// Faults lets a fault-injection engine degrade snapshot extraction,
// modelling a lossy or corrupting register DMA sync between the data
// plane and the switch CPU. The chaos engine (internal/chaos)
// implements it; all methods must be deterministic given the engine's
// seed.
type Faults interface {
	// DropEpoch reports whether the given ring slot is lost from this
	// snapshot (epoch-ring read failure).
	DropEpoch(sw topo.NodeID, ring int) bool
	// CorruptMeter may mutate one causality-meter record in the
	// snapshot, returning true when it did (register corruption).
	CorruptMeter(sw topo.NodeID, rec *MeterRecord) bool
	// CorruptStatus may mutate one PFC status register block in the
	// snapshot, returning true when it did.
	CorruptStatus(sw topo.NodeID, st *PortStatus) bool
}

// SetFaults installs (or, with nil, removes) the snapshot fault
// injector. The live data-plane registers are never touched — only what
// the CPU poller reads out.
func (s *State) SetFaults(f Faults) { s.faults = f }

// New builds telemetry state for a switch with numPorts ports.
// now supplies the data-plane timestamp (the engine clock); queueOf reads
// the live egress backlog register of a port (may be nil in tests).
func New(cfg Config, swID topo.NodeID, name string, numPorts int, linkBps float64,
	now func() sim.Time, queueOf func(port int) int) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// win is the rotation period of the PFC-causality traffic meter
	// (Fig. 3). The meter lives outside the epoch ring — unlike flow
	// telemetry it must survive a full traffic freeze (deadlock) — and
	// keeps two buckets, so reads cover 1-2 windows of history. The
	// paper leaves meter aging unspecified; the window is twice the
	// epoch-ring span (2 * NumEpochs * EpochSize) so PFC causality
	// outlives the flow telemetry.
	win := 2 * sim.Time(cfg.NumEpochs) * cfg.EpochSize()
	s := &State{
		Cfg:       cfg,
		Switch:    swID,
		Name:      name,
		numPorts:  numPorts,
		now:       now,
		queueOf:   queueOf,
		bwBps:     linkBps,
		epochs:    make([]epoch, cfg.NumEpochs),
		status:    make([]PortStatus, numPorts),
		meterCur:  make([]uint64, numPorts*numPorts),
		meterPrev: make([]uint64, numPorts*numPorts),
		meterWin:  win,
		idxShift:  cfg.EpochBits,
		idShift:   cfg.EpochBits + uint(bits.TrailingZeros(uint(cfg.NumEpochs))),
		idxMask:   uint64(cfg.NumEpochs - 1),
	}
	for i := range s.epochs {
		s.epochs[i] = epoch{
			id:    epochIDInvalid,
			flows: make([]FlowRecord, cfg.FlowSlots),
			ports: make([]PortRecord, numPorts),
		}
	}
	for p := range s.status {
		s.status[p].Port = p
	}
	return s, nil
}

// rotateMeter ages the causality meter: after a full window the current
// bucket becomes the previous one. Reads always sum both buckets.
// Rotation happens only on writes: when traffic freezes (deadlock), the
// registers retain their last values — which is exactly what makes the
// frozen cycle traceable later.
func (s *State) rotateMeter() {
	now := s.now()
	elapsed := now - s.meterAt
	switch {
	case elapsed < s.meterWin:
		return
	case elapsed < 2*s.meterWin:
		s.meterPrev, s.meterCur = s.meterCur, s.meterPrev
		for i := range s.meterCur {
			s.meterCur[i] = 0
		}
		s.meterAt += s.meterWin
	default:
		for i := range s.meterCur {
			s.meterCur[i] = 0
			s.meterPrev[i] = 0
		}
		s.meterAt = now - (now % s.meterWin)
	}
}

// epochAt returns the ring entry for timestamp t, lazily resetting it on
// epoch-ID wraparound (the register-reset-on-newer-ID rule of §3.3).
func (s *State) epochAt(t sim.Time) *epoch {
	idx := (uint64(t) >> s.idxShift) & s.idxMask
	id := uint32((uint64(t) >> s.idShift) & 0xFF)
	ep := &s.epochs[idx]
	if ep.id != id {
		s.resetEpoch(ep, id)
	}
	return ep
}

func (s *State) resetEpoch(ep *epoch, id uint32) {
	ep.id = id
	for i := range ep.flows {
		ep.flows[i] = FlowRecord{}
	}
	ep.evicted = ep.evicted[:0]
	for i := range ep.ports {
		ep.ports[i] = PortRecord{Port: i}
	}
}

// OnEnqueue implements device.Instrument: the egress-pipeline update.
func (s *State) OnEnqueue(ev device.EnqueueEvent) {
	if ev.Pkt.Class != packet.ClassLossless {
		// Control traffic rides the unpausable queue and is not part of
		// congestion telemetry.
		return
	}
	ep := s.epochAt(ev.Now)
	size := uint64(ev.Pkt.Size)
	q := uint64(ev.QueueBytes)

	pr := &ep.ports[ev.OutPort]
	pr.PktCount++
	pr.Bytes += size
	pr.QdepthSum += q
	if ev.Paused {
		pr.PausedCount++
	}
	if ev.InPort >= 0 {
		s.rotateMeter()
		s.meterCur[ev.InPort*s.numPorts+ev.OutPort] += size
	}
	if ev.Pkt.Type != packet.TypeData || !s.Cfg.FlowTelemetry {
		return
	}
	slot := &ep.flows[ev.Pkt.Flow.Hash()%uint32(s.Cfg.FlowSlots)]
	if !slot.Tuple.IsZero() && !slot.Tuple.XOREquals(ev.Pkt.Flow) {
		// Collision: evict the incumbent to the controller store.
		ep.evicted = append(ep.evicted, *slot)
		s.Evictions++
		*slot = FlowRecord{}
	}
	slot.Tuple = ev.Pkt.Flow
	slot.OutPort = ev.OutPort
	slot.PktCount++
	slot.Bytes += size
	switch {
	case ev.Paused:
		slot.PausedCount++
	case ev.QueueBytes >= deepQdepthBytes:
		slot.DeepCount++
		slot.QdepthSum += q
	}
}

// OnDequeue implements device.Instrument (unused by Hawkeye).
func (s *State) OnDequeue(device.DequeueEvent) {}

// OnPFC implements device.Instrument: the PFC frame is passed into the
// egress pipeline and the port status register updated with the remaining
// pause time (paper Fig. 6, red line).
func (s *State) OnPFC(port int, frame *packet.PFCFrame, now sim.Time) {
	st := &s.status[port]
	for c := uint8(0); c < packet.NumClasses; c++ {
		switch {
		case frame.Paused(c):
			st.RxPause++
			st.PausedUntil = now + packet.PauseDuration(frame.Quanta[c], s.bwBps)
		case frame.Resumes(c):
			st.RxResume++
			st.PausedUntil = now
		}
	}
}

// PortPausedNow reports whether the port status register currently says
// "paused".
func (s *State) PortPausedNow(port int) bool {
	return s.status[port].PausedUntil > s.now()
}

// validEpoch pairs a ring index with the epoch's start time.
type validEpoch struct {
	idx   int
	start sim.Time
}

// validEpochs returns the ring slots holding self-consistent data,
// newest first, up to maxN entries. The result aliases a scratch buffer
// owned by the State and is valid only until the next call — this runs
// once per polling packet, so it must not allocate.
// A slot's (index, epoch-ID) pair
// reconstructs the epoch's start time, so stale slots are recognized
// without any extra state — and, like real registers, a slot written
// before a traffic freeze keeps its evidence until something overwrites
// it (which is what keeps a frozen deadlock diagnosable well after its
// formation). The 8-bit epoch ID makes the reconstruction ambiguous
// beyond 256*NumEpochs epochs (~134 ms at the defaults), the same
// wraparound bound the paper's encoding has.
func (s *State) validEpochs(maxN int) []validEpoch {
	now := uint64(s.now())
	idxBits := s.idShift - s.idxShift
	out := s.veScratch[:0]
	for idx := 0; idx < s.Cfg.NumEpochs; idx++ {
		id := s.epochs[idx].id
		if id == epochIDInvalid {
			continue
		}
		start := (uint64(id)<<idxBits | uint64(idx)) << s.idxShift
		if start > now {
			continue
		}
		out = append(out, validEpoch{idx: idx, start: sim.Time(start)})
	}
	// Insertion sort, newest first: the ring holds at most NumEpochs
	// entries (typically 4) and sort.Slice's closure would allocate.
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j].start < v.start {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	s.veScratch = out[:0]
	if maxN > 0 && len(out) > maxN {
		out = out[:maxN]
	}
	return out
}

// recentEpochs returns the valid epochs overlapping the last `lookback`
// epoch lengths — the in-data-plane recency window for causality checks.
func (s *State) recentEpochs(lookback int) []validEpoch {
	cutoff := s.now() - sim.Time(lookback)*s.Cfg.EpochSize()
	all := s.validEpochs(lookback + 1)
	out := all[:0]
	for _, ve := range all {
		if ve.start+s.Cfg.EpochSize() > cutoff {
			out = append(out, ve)
		}
	}
	return out
}

// FlowPausedRecently reports whether the flow saw paused enqueues within
// the lookback window — the "is the victim flow PFC paused" check the
// polling pipeline performs (Fig. 6).
func (s *State) FlowPausedRecently(ft packet.FiveTuple) (outPort int, paused bool, found bool) {
	slotIdx := ft.Hash() % uint32(s.Cfg.FlowSlots)
	for _, ve := range s.recentEpochs(s.Cfg.Lookback) {
		slot := &s.epochs[ve.idx].flows[slotIdx]
		if slot.Tuple.XOREquals(ft) && slot.PktCount > 0 {
			if !found {
				outPort, found = slot.OutPort, true
			}
			if slot.PausedCount > 0 {
				return slot.OutPort, true, true
			}
		}
	}
	return outPort, false, found
}

// PortPausedRecently reports whether an egress port had paused enqueues
// within the lookback window or is paused right now.
func (s *State) PortPausedRecently(port int) bool {
	if s.PortPausedNow(port) {
		return true
	}
	for _, ve := range s.recentEpochs(s.Cfg.Lookback) {
		if s.epochs[ve.idx].ports[port].PausedCount > 0 {
			return true
		}
	}
	return false
}

// MeterRecent returns the bytes metered from inPort to outPort within the
// last one-to-two meter windows — the causality-relevance test for
// polling multicast. Unlike the epoch telemetry this survives a traffic
// freeze, which is what makes deadlocks traceable.
func (s *State) MeterRecent(inPort, outPort int) uint64 {
	i := inPort*s.numPorts + outPort
	return s.meterCur[i] + s.meterPrev[i]
}

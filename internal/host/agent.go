package host

import (
	"sort"

	"hawkeye/internal/fabric"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
)

// AgentConfig controls the Hawkeye host detection agent (§3.4). The paper
// prototypes it on a BlueField-3 DPU sampling per-flow RTT via DOCA PCC;
// here it rides the NIC model's per-ACK RTT samples, plus a timeout path
// so fully blocked flows (deadlock) are still detected. The zero value
// is a silent agent: no path can trigger.
type AgentConfig struct {
	// RTTFactor is the degradation threshold as a multiple of the
	// flow's minimum observed RTT, the DPU-agent baseline (the paper
	// sweeps 200%–500%, i.e. 2.0–5.0). Zero disables the RTT path.
	RTTFactor float64
	// Timeout triggers detection when a flow has outstanding data and no
	// ACK for this long (catches deadlocks, where RTT samples stop).
	// It also paces the watchdog that runs the throughput path. Zero
	// disables both.
	Timeout sim.Time
	// Dedup suppresses repeat polling for the same flow within the
	// interval (paper: "drops polling packets with the same 5-tuple
	// within a certain time interval").
	Dedup sim.Time
	// ThroughputFrac triggers when a flow's delivery rate falls below
	// this fraction of its own observed peak while data is outstanding.
	// Congestion control can absorb PFC damage into a silent long-term
	// rate reduction (§2.1); RTT alone misses it. The paper's agent
	// supports throughput/FCT metrics for exactly this reason (§3.6).
	// Zero disables.
	ThroughputFrac float64
}

const (
	// rttSamplesOver debounces the RTT path: this many consecutive
	// over-threshold samples are required before triggering. A single
	// inflated sample from an ordinary transient queue is not a
	// complaint-worthy anomaly.
	rttSamplesOver int = 2
	// minPeak gates throughput detection to flows that ever reached a
	// meaningful rate (bps).
	minPeak float64 = 5e9
)

// DefaultAgentConfig matches the paper's default operating point:
// a 300% RTT threshold on a 2-4 hop 100G fabric.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		RTTFactor:      3.0,
		Timeout:        500 * sim.Microsecond,
		Dedup:          500 * sim.Microsecond,
		ThroughputFrac: 0.2,
	}
}

// Trigger describes one detection event: the agent decided a flow is a
// victim and emitted a polling packet.
type Trigger struct {
	DiagID uint32
	Victim packet.FiveTuple
	FlowID uint64
	At     sim.Time
	// Reason is "rtt" or "timeout".
	Reason string
	// RTT is the offending sample (zero for timeouts).
	RTT sim.Time
}

// Agent is the per-host detection agent.
type Agent struct {
	host *Host
	cfg  AgentConfig

	lastPoll map[packet.FiveTuple]sim.Time
	watching map[uint64]*Flow
	rates    map[uint64]*rateState
	overCnt  map[uint64]int
	nextDiag uint32

	// OnTrigger, if set, observes every detection (experiment scoring).
	OnTrigger func(Trigger)

	// Triggers counts polling packets emitted.
	Triggers uint64
}

// rateState tracks a flow's delivery rate between watchdog ticks.
type rateState struct {
	prevAcked uint32
	peakBps   float64
}

func newAgent(h *Host, cfg AgentConfig) *Agent {
	a := &Agent{
		host:     h,
		cfg:      cfg,
		lastPoll: make(map[packet.FiveTuple]sim.Time),
		watching: make(map[uint64]*Flow),
		rates:    make(map[uint64]*rateState),
		overCnt:  make(map[uint64]int),
	}
	if cfg.Timeout > 0 {
		a.armWatchdog()
	}
	return a
}

func (a *Agent) watch(f *Flow) {
	if a.cfg.Timeout > 0 {
		a.watching[f.ID] = f
	}
}

func (a *Agent) onRTT(f *Flow, rtt sim.Time) {
	base := f.rttMin
	if a.cfg.RTTFactor <= 0 || base == 0 {
		return
	}
	if float64(rtt) > a.cfg.RTTFactor*float64(base) {
		a.overCnt[f.ID]++
		if a.overCnt[f.ID] >= rttSamplesOver {
			a.trigger(f, "rtt", rtt)
		}
		return
	}
	a.overCnt[f.ID] = 0
}

func (a *Agent) armWatchdog() {
	period := a.cfg.Timeout / 2
	if period < 50*sim.Microsecond {
		period = 50 * sim.Microsecond
	}
	a.host.eng.After(period, func() {
		now := a.host.eng.Now()
		ids := make([]uint64, 0, len(a.watching))
		for id := range a.watching {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			f := a.watching[id]
			if f.Completed() {
				delete(a.watching, id)
				delete(a.rates, id)
				continue
			}
			if f.Outstanding() && now-f.lastAckAt > a.cfg.Timeout && now > f.startAt {
				a.trigger(f, "timeout", 0)
			}
			a.checkThroughput(f, period)
		}
		a.armWatchdog()
	})
}

// checkThroughput triggers when a flow's delivery rate collapses relative
// to its own peak — the silent PFC-through-congestion-control degradation.
func (a *Agent) checkThroughput(f *Flow, period sim.Time) {
	if a.cfg.ThroughputFrac <= 0 || a.host.eng.Now() < f.startAt {
		return
	}
	st := a.rates[f.ID]
	if st == nil {
		st = &rateState{prevAcked: f.acked}
		a.rates[f.ID] = st
		return
	}
	deliveredBits := float64(f.acked-st.prevAcked) * float64(packet.DefaultMTU) * 8
	st.prevAcked = f.acked
	rate := deliveredBits / (float64(period) / 1e9)
	if rate > st.peakBps {
		st.peakBps = rate
	}
	if st.peakBps >= minPeak && f.Outstanding() &&
		rate < a.cfg.ThroughputFrac*st.peakBps {
		a.trigger(f, "throughput", 0)
	}
}

// trigger emits a polling packet for the victim flow unless a recent one
// already covered the same 5-tuple.
func (a *Agent) trigger(f *Flow, reason string, rtt sim.Time) {
	now := a.host.eng.Now()
	if last, ok := a.lastPoll[f.Tuple]; ok && now-last < a.cfg.Dedup {
		return
	}
	a.lastPoll[f.Tuple] = now
	a.nextDiag++
	diag := a.host.hostIndex<<16 | a.nextDiag
	a.Triggers++

	poll := &packet.Packet{
		Type:  packet.TypePolling,
		Flow:  f.Tuple, // routed like the victim
		Class: packet.ClassControl,
		Size:  packet.PollingPacketSize,
		Poll: &packet.PollingHeader{
			Flag:    packet.FlagVictimPath,
			Victim:  f.Tuple,
			DiagID:  diag,
			HopsLow: packet.DefaultPollTTL,
		},
		SentAt: now,
	}
	a.host.egress.Enqueue(fabric.Queued{Pkt: poll, InPort: -1})
	if a.OnTrigger != nil {
		a.OnTrigger(Trigger{
			DiagID: diag, Victim: f.Tuple, FlowID: f.ID,
			At: now, Reason: reason, RTT: rtt,
		})
	}
}

// InjectPFC makes this host emit PFC PAUSE frames for the lossless class
// toward its ToR from start to stop, refreshed so the pause never lapses.
// This reproduces the malfunctioning-NIC / slow-receiver behaviour behind
// PFC storms (§2.1, Fig. 1b).
func (h *Host) InjectPFC(start, stop sim.Time, quanta uint16) {
	dur := packet.PauseDuration(quanta, h.net.Topo.LinkBandwidth)
	refresh := dur / 2
	if refresh < sim.Microsecond {
		refresh = sim.Microsecond
	}
	var tick func()
	tick = func() {
		now := h.eng.Now()
		if now >= stop {
			h.sendPFC(packet.NewResume(packet.ClassLossless))
			return
		}
		h.sendPFC(packet.NewPause(packet.ClassLossless, quanta))
		h.eng.After(refresh, tick)
	}
	h.eng.At(start, tick)
}

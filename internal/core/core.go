// Package core is the Hawkeye system facade: it installs PFC-aware
// telemetry and polling logic on every switch of a simulated cluster,
// wires host detection agents to the collection service, correlates
// telemetry deliveries into per-diagnosis sessions, and runs the
// provenance-based diagnosis. This is the package a user of the library
// interacts with end-to-end.
package core

import (
	"fmt"
	"sort"

	"hawkeye/internal/cluster"
	"hawkeye/internal/collect"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/host"
	"hawkeye/internal/packet"
	"hawkeye/internal/polling"
	"hawkeye/internal/provenance"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// Config aggregates all Hawkeye component configurations.
type Config struct {
	Telemetry telemetry.Config
	Polling   polling.Config
	Collect   collect.Config
	Diagnosis diagnosis.Config
	// BurstRateFrac / BurstMaxEpochs tune burst-flow classification in
	// the provenance graph.
	BurstRateFrac  float64
	BurstMaxEpochs int
	// FlowTelemetryAt, when set, restricts the flow tables to the
	// switches it approves (§5 partial deployment). PFC causality
	// analysis stays fabric-wide. Nil means full deployment.
	FlowTelemetryAt func(topo.NodeID) bool
	// HostTelemetry enables the host-agent counter channel: every
	// detection trigger snapshots the NIC counters of all hosts, and the
	// diagnosis ingests them as provenance host leaves. Off, the
	// analyzer still declares its host-coverage expectation, so
	// host-facing verdicts are graded as running on the network's word
	// alone (the degraded mode).
	HostTelemetry bool
}

// HostFaults injects faults into the host-agent counter channel
// (internal/chaos implements it): drop a host's snapshot for one
// trigger, or corrupt it in flight.
type HostFaults interface {
	// DropHostReport reports whether the host's snapshot for the current
	// trigger is lost.
	DropHostReport(id topo.NodeID) bool
	// CorruptHostReport may mutate the snapshot in flight.
	CorruptHostReport(id topo.NodeID, r *telemetry.HostReport)
}

// correlationWindow bounds how long after a trigger a telemetry
// collection still belongs to that diagnosis session.
const correlationWindow sim.Time = 2 * sim.Millisecond

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		Telemetry:      telemetry.DefaultConfig(),
		Polling:        polling.DefaultConfig(),
		Collect:        collect.DefaultConfig(),
		Diagnosis:      diagnosis.DefaultConfig(),
		BurstRateFrac:  0.15,
		BurstMaxEpochs: 3,
		HostTelemetry:  true,
	}
}

// Session accumulates one diagnosis: the trigger plus the telemetry
// reports collected for it.
type Session struct {
	Trigger host.Trigger
	Reports map[topo.NodeID]*telemetry.Report
	// HostReports are the host-agent counter snapshots taken at trigger
	// time (less any the fault model dropped).
	HostReports map[topo.NodeID]*telemetry.HostReport
	// Tagged marks switches whose collection was explicitly triggered by
	// THIS diagnosis's polling (vs shared via the collection interval).
	Tagged map[topo.NodeID]bool
	// LastArrival is when the final report reached the analyzer.
	LastArrival sim.Time
}

// Result is a completed diagnosis.
type Result struct {
	Trigger     host.Trigger
	Graph       *provenance.Graph
	Diagnosis   *diagnosis.Report
	Switches    []topo.NodeID // switches whose telemetry was used
	ReportBytes int
	// PolledSwitches counts switches whose collection this diagnosis's
	// own polling triggered (Fig. 11's collection scale; Switches may be
	// larger because nearby diagnoses share reports).
	PolledSwitches int
	// ReadyAt is when the last contributing report arrived (detection ->
	// diagnosis latency = ReadyAt - Trigger.At).
	ReadyAt sim.Time
	// Detail refines a flow-contention primary cause (§3.5.2):
	// micro-burst, ECMP imbalance, or plain overload.
	Detail diagnosis.CauseDetail
}

// System is Hawkeye installed on a cluster.
type System struct {
	Cl        *cluster.Cluster
	Cfg       Config
	Tels      map[topo.NodeID]*telemetry.State
	Handlers  map[topo.NodeID]*polling.Handler
	Collector *collect.Collector

	sessions   map[uint32]*Session
	deliveries []collect.Delivery
	triggers   []host.Trigger

	// HostFaults, if set, filters the host-agent channel (chaos wires
	// itself in here).
	HostFaults HostFaults

	// OnTrigger, if set, observes every detection event (after the
	// session is created). Experiments use it to take comparison
	// snapshots for baseline systems.
	OnTrigger func(host.Trigger)
}

// Install attaches Hawkeye to every switch and host of the cluster.
func Install(cl *cluster.Cluster, cfg Config) (*System, error) {
	if err := cfg.Telemetry.Validate(); err != nil {
		return nil, err
	}
	sys := &System{
		Cl:        cl,
		Cfg:       cfg,
		Tels:      make(map[topo.NodeID]*telemetry.State),
		Handlers:  make(map[topo.NodeID]*polling.Handler),
		Collector: collect.NewCollector(cl.Eng, cfg.Collect),
		sessions:  make(map[uint32]*Session),
	}
	sys.Collector.OnDelivery = sys.onDelivery

	for id, sw := range cl.Switches {
		sw := sw
		queueOf := func(port int) int {
			return sw.EgressAt(port).QueueBytes(packet.ClassLossless)
		}
		telCfg := cfg.Telemetry
		if cfg.FlowTelemetryAt != nil {
			telCfg.FlowTelemetry = cfg.FlowTelemetryAt(id)
		}
		tel, err := telemetry.New(telCfg, id, sw.Name, sw.NumPorts(),
			cl.Topo.LinkBandwidth, cl.Eng.Now, queueOf)
		if err != nil {
			return nil, fmt.Errorf("core: telemetry for %s: %w", sw.Name, err)
		}
		sys.Tels[id] = tel
		sw.AddInstrument(tel)
		h := polling.NewHandler(tel, cfg.Polling, sys.Collector, cl.Eng.Now)
		sys.Handlers[id] = h
		sw.SetPollHandler(h)
	}
	for _, h := range cl.Hosts {
		h.Agent().OnTrigger = sys.onTrigger
	}
	return sys, nil
}

func (sys *System) onTrigger(tr host.Trigger) {
	sys.triggers = append(sys.triggers, tr)
	s := &Session{
		Trigger:     tr,
		Reports:     make(map[topo.NodeID]*telemetry.Report),
		HostReports: make(map[topo.NodeID]*telemetry.HostReport),
		Tagged:      make(map[topo.NodeID]bool),
	}
	sys.sessions[tr.DiagID] = s
	if sys.Cfg.HostTelemetry {
		sys.snapshotHosts(s)
	}
	if sys.OnTrigger != nil {
		sys.OnTrigger(tr)
	}
}

// snapshotHosts reads every host agent's NIC counters at the trigger
// instant. Snapshots are pure register reads — no events are scheduled,
// so enabling the channel cannot perturb the simulated packet sequence.
// Hosts are visited in ID order so the fault model's random stream is
// consumed deterministically.
func (sys *System) snapshotHosts(s *Session) {
	ids := make([]topo.NodeID, 0, len(sys.Cl.Hosts))
	for id := range sys.Cl.Hosts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	now := sys.Cl.Eng.Now()
	for _, id := range ids {
		if sys.HostFaults != nil && sys.HostFaults.DropHostReport(id) {
			continue
		}
		c := sys.Cl.Hosts[id].NICCounters()
		hr := &telemetry.HostReport{
			Host:          id,
			Taken:         now,
			RxBufferBytes: c.RxBufferBytes,
			RxBufferCap:   c.RxBufferCap,
			DrainBps:      c.DrainBps,
			PauseTx:       c.PauseTx,
			PauseRx:       c.PauseRx,
			ProcLatencyNS: c.ProcLatencyNS,
			ActiveQPs:     c.ActiveQPs,
		}
		if sys.HostFaults != nil {
			sys.HostFaults.CorruptHostReport(id, hr)
		}
		s.HostReports[id] = hr
	}
}

func (sys *System) onDelivery(d collect.Delivery) {
	sys.deliveries = append(sys.deliveries, d)
	for _, id := range d.DiagIDs {
		if s, ok := sys.sessions[id]; ok {
			s.Tagged[d.Report.Switch] = true
			sys.attach(s, d)
		}
	}
}

func (sys *System) attach(s *Session, d collect.Delivery) {
	s.Reports[d.Report.Switch] = d.Report
	if d.Arrived > s.LastArrival {
		s.LastArrival = d.Arrived
	}
}

// Triggers returns all detection events observed so far.
func (sys *System) Triggers() []host.Trigger { return sys.triggers }

// Sessions returns the diagnosis sessions keyed by DiagID.
func (sys *System) Sessions() map[uint32]*Session { return sys.sessions }

// correlate picks, for each session and switch, the best available
// report: nearby diagnoses share one register sync per switch (§3.4
// collection dedup), so the tagged report is not always the most
// relevant one. The analyzer prefers the first collection started at or
// after the trigger (it covers the anomaly epochs), falling back to the
// freshest one from just before.
func (sys *System) correlate() {
	for _, s := range sys.sessions {
		lo := s.Trigger.At - collect.Interval
		hi := s.Trigger.At + correlationWindow
		best := make(map[topo.NodeID]*collect.Delivery)
		for i := range sys.deliveries {
			d := &sys.deliveries[i]
			if d.Started < lo || d.Started > hi {
				continue
			}
			cur, ok := best[d.Report.Switch]
			if !ok || betterReport(d.Started, cur.Started, s.Trigger.At) {
				best[d.Report.Switch] = d
			}
		}
		for _, d := range best {
			sys.attach(s, *d)
		}
	}
}

// betterReport prefers the collection whose start is closest to the
// trigger, with pre-trigger collections penalized 2x: a report taken just
// after the complaint covers the anomaly epochs, while one taken just
// before may predate the anomaly entirely — but a slightly-stale report
// still beats one taken long after the evidence aged out.
func betterReport(cand, cur, trigger sim.Time) bool {
	cost := func(t sim.Time) sim.Time {
		if t >= trigger {
			return t - trigger
		}
		return 2 * (trigger - t)
	}
	return cost(cand) < cost(cur)
}

// ProvConfig builds the provenance configuration from the
// cluster/telemetry parameters.
func (sys *System) ProvConfig() provenance.Config {
	cfg := provenance.DefaultConfig(sys.Cl.Topo.LinkBandwidth, int64(sys.Cfg.Telemetry.EpochSize()))
	cfg.BurstRateFrac = sys.Cfg.BurstRateFrac
	cfg.BurstMaxEpochs = sys.Cfg.BurstMaxEpochs
	return cfg
}

// DiagnoseAll correlates deliveries and runs the provenance diagnosis for
// every session. Call after the simulation horizon.
func (sys *System) DiagnoseAll() []*Result {
	sys.correlate()
	ids := make([]uint32, 0, len(sys.sessions))
	for id := range sys.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		si, sj := sys.sessions[ids[i]], sys.sessions[ids[j]]
		if si.Trigger.At != sj.Trigger.At {
			return si.Trigger.At < sj.Trigger.At
		}
		return ids[i] < ids[j]
	})
	// One validator for the pass, as for one served session: host
	// snapshots are taken at their trigger instant, so in trigger order
	// their timestamps advance per host. One Assessor too: in trigger
	// order, sessions that share a report set are adjacent.
	v := wire.NewValidator(sys.Cl.Topo)
	var a Assessor
	var out []*Result
	for _, id := range ids {
		out = append(out, sys.diagnose(sys.sessions[id], v, &a))
	}
	return out
}

// diagnose assesses the session's evidence with a.
func (sys *System) diagnose(s *Session, v *wire.Validator, a *Assessor) *Result {
	ev := sys.evidence(s, v)
	g, d := a.Assess(ev) // sorts ev.Reports by switch
	switches := make([]topo.NodeID, len(ev.Reports))
	bytes := 0
	for i, rep := range ev.Reports {
		switches[i] = rep.Switch
		bytes += rep.WireSize()
	}
	polled := len(s.Tagged)
	if polled == 0 {
		polled = len(switches)
	}
	return &Result{
		Trigger:        s.Trigger,
		Graph:          g,
		Diagnosis:      d,
		Switches:       switches,
		ReportBytes:    bytes,
		PolledSwitches: polled,
		ReadyAt:        s.LastArrival,
		Detail:         diagnosis.Refine(d.PrimaryCause(), sys.Cl.Routing, sys.Cl.Topo),
	}
}

// evidence gathers the session's reports and admits its host snapshots
// through the wire discipline. Switch reports are taken as collected:
// sessions share report pointers, so clamping one in place would make
// the tallies depend on session order.
func (sys *System) evidence(s *Session, v *wire.Validator) Evidence {
	t := sys.Cl.Topo
	ev := Evidence{
		Topo:    t,
		Prov:    sys.ProvConfig(),
		Diag:    sys.Cfg.Diagnosis,
		Victim:  s.Trigger.Victim,
		Path:    VictimPath(sys.Cl.Routing, t, s.Trigger.Victim),
		Reports: make([]*telemetry.Report, 0, len(s.Reports)),
	}
	for _, rep := range s.Reports {
		ev.Reports = append(ev.Reports, rep)
	}
	lim := telemetry.HostLimitsFor(t.LinkBandwidth)
	for _, hr := range s.HostReports {
		if _, err := ev.AdmitHostReport(v, hr, lim); err == nil {
			ev.Hosts = append(ev.Hosts, hr)
		}
	}
	return ev
}

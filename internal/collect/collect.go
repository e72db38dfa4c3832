// Package collect implements Hawkeye's controller-assisted telemetry
// collection (§3.4): when the data plane mirrors a polling packet to the
// switch CPU, the CPU synchronizes the telemetry registers (modelled on
// BF_Runtime REGISTER_SYNC DMA), filters zero slots, batches records into
// MTU-sized report packets and ships them to the analyzer.
//
// The latency model is calibrated to the paper's testbed measurements
// (§4.5): polling full telemetry takes ~80 ms for 2 epochs and ~120 ms
// for 4 epochs, i.e. ~40 ms fixed + ~20 ms per epoch. Register values are
// captured when the sync starts; the latency delays only delivery.
package collect

import (
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

const (
	// epochsToCollect bounds how many recent epochs each report carries.
	epochsToCollect int = 4
	// Interval dedups collection per switch: a switch that reported
	// within the interval is not re-polled (multiple victims, §3.4). It
	// must stay well inside the telemetry ring span (NumEpochs * epoch);
	// a deduped collection is reused by nearby diagnoses and must still
	// cover their anomaly epochs.
	Interval sim.Time = 250 * sim.Microsecond
	// phvExportBytes models the alternative data-plane export: limited
	// PHV space forces ~200-byte payloads per generated packet (§3.4).
	phvExportBytes int = 200
)

// Config controls the collector.
type Config struct {
	// BaseLatency + PerEpochLatency model the CPU register sync + report
	// assembly time.
	BaseLatency     sim.Time
	PerEpochLatency sim.Time
	// ReportMTU is the batching unit for report packets.
	ReportMTU int
}

// DefaultConfig matches the paper's measured poller behaviour.
func DefaultConfig() Config {
	return Config{
		BaseLatency:     40 * sim.Millisecond,
		PerEpochLatency: 20 * sim.Millisecond,
		ReportMTU:       1500,
	}
}

// Delivery is one report arriving at the analyzer, with the diagnosis
// sessions it serves and its transfer accounting.
type Delivery struct {
	Report  *telemetry.Report
	DiagIDs []uint32 // sessions this collection serves
	Started sim.Time // when the CPU began the register sync
	Arrived sim.Time // when the analyzer received it
	Bytes   int      // zero-filtered wire bytes
	Packets int      // MTU-batched packet count
}

// Faults degrades the collection path. The chaos engine implements it:
// report batches lost between the switch CPU and the analyzer, and
// controller lag stretching delivery. Decisions must be deterministic
// given the engine's seed.
type Faults interface {
	// DropDelivery reports whether this switch's report batch is lost in
	// transit. The register sync itself happened: the switch CPU still
	// dedups re-polls for the interval, which is exactly the failure mode
	// worth testing.
	DropDelivery(sw topo.NodeID) bool
	// CollectLatency returns extra controller lag added to this delivery.
	CollectLatency(sw topo.NodeID) sim.Time
}

// Stats aggregates collection overhead for the efficiency experiments.
type Stats struct {
	Collections     int
	DedupHits       int
	ReportBytes     uint64
	ReportPackets   uint64
	FullDumpBytes   uint64 // what full (unfiltered) dumps would have cost
	FullDumpPackets uint64 // what PHV-limited data-plane export would cost
	FlowRecords     uint64
	SwitchesTouched map[topo.NodeID]bool
	// DroppedDeliveries counts report batches lost to fault injection;
	// Collections - DroppedDeliveries batches reached OnDelivery.
	DroppedDeliveries int
	// LagSum is the total fault-injected controller lag across deliveries.
	LagSum sim.Time
}

// Delivered returns the number of report batches that actually reached
// the analyzer.
func (s Stats) Delivered() int { return s.Collections - s.DroppedDeliveries }

// Collector is the analyzer-side collection service. One instance serves
// the whole fabric (per-switch CPUs are modelled by the latency).
type Collector struct {
	Eng *sim.Engine
	Cfg Config

	// OnDelivery receives each report at its (latency-delayed) arrival.
	OnDelivery func(Delivery)

	// Faults, when set, injects delivery drops and controller lag.
	Faults Faults

	lastCollect map[topo.NodeID]sim.Time
	pending     map[topo.NodeID]*Delivery

	stats Stats
}

// NewCollector builds a collector.
func NewCollector(eng *sim.Engine, cfg Config) *Collector {
	return &Collector{
		Eng:         eng,
		Cfg:         cfg,
		lastCollect: make(map[topo.NodeID]sim.Time),
		pending:     make(map[topo.NodeID]*Delivery),
		stats: Stats{
			SwitchesTouched: make(map[topo.NodeID]bool),
		},
	}
}

// Stats returns the accumulated overhead counters.
func (c *Collector) Stats() Stats { return c.stats }

// MirrorPolling implements polling.Mirror: the collection trigger.
func (c *Collector) MirrorPolling(sw topo.NodeID, tel *telemetry.State, hdr packet.PollingHeader, inPort int) {
	now := c.Eng.Now()
	if last, ok := c.lastCollect[sw]; ok && now-last < Interval {
		// Within the dedup interval: attach this diagnosis to the
		// in-flight (or just-delivered) collection instead of re-reading.
		c.stats.DedupHits++
		if d, ok := c.pending[sw]; ok {
			d.DiagIDs = appendUniqueDiag(d.DiagIDs, hdr.DiagID)
		}
		return
	}
	c.lastCollect[sw] = now

	// Registers are captured at sync start.
	rep := tel.Snapshot(epochsToCollect)
	bytes := rep.WireSize()
	pkts := (bytes + c.Cfg.ReportMTU - 1) / c.Cfg.ReportMTU

	c.stats.Collections++
	c.stats.ReportBytes += uint64(bytes)
	c.stats.ReportPackets += uint64(pkts)
	full := rep.FullDumpSize()
	c.stats.FullDumpBytes += uint64(full)
	c.stats.FullDumpPackets += uint64((full + phvExportBytes - 1) / phvExportBytes)
	c.stats.FlowRecords += uint64(rep.FlowCount())
	c.stats.SwitchesTouched[sw] = true

	d := &Delivery{
		Report:  rep,
		DiagIDs: []uint32{hdr.DiagID},
		Started: now,
		Bytes:   bytes,
		Packets: pkts,
	}
	c.pending[sw] = d
	latency := c.Cfg.BaseLatency + sim.Time(len(rep.Epochs))*c.Cfg.PerEpochLatency
	dropped := false
	if c.Faults != nil {
		if lag := c.Faults.CollectLatency(sw); lag > 0 {
			latency += lag
			c.stats.LagSum += lag
		}
		if c.Faults.DropDelivery(sw) {
			// The batch is lost between CPU and analyzer. lastCollect
			// stays set: the switch believes it reported, so re-polls
			// inside the interval are still deduped away.
			dropped = true
			c.stats.DroppedDeliveries++
		}
	}
	c.Eng.After(latency, func() {
		d.Arrived = c.Eng.Now()
		if c.pending[sw] == d {
			delete(c.pending, sw)
		}
		if !dropped && c.OnDelivery != nil {
			c.OnDelivery(*d)
		}
	})
}

func appendUniqueDiag(ids []uint32, id uint32) []uint32 {
	for _, v := range ids {
		if v == id {
			return ids
		}
	}
	return append(ids, id)
}

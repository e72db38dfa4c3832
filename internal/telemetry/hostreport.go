package telemetry

import (
	"fmt"

	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// HostReport is the host-agent counter channel: the NIC-local registers a
// host agent ships to the analyzer alongside the switch reports. Where a
// switch report carries queue provenance, this carries the *endpoint*
// evidence Hawkeye's Table 2 cannot see — whether pause frames leaving a
// host were forced by a full RX buffer (slow receiver, processing-bound
// NIC) or fabricated with the buffer empty (pause storm). The record is
// deliberately flat and fixed-width: host NICs expose these as plain
// registers, and a fixed frame keeps the strict decoder trivial.
type HostReport struct {
	Host  topo.NodeID
	Taken sim.Time
	// RxBufferBytes is the RX-buffer occupancy at snapshot time and
	// RxBufferCap its capacity. Cap zero means the NIC ran no bounded
	// RX-buffer model (drain keeps up at line rate) — occupancy must be
	// zero with it.
	RxBufferBytes uint64
	RxBufferCap   uint64
	// DrainBps is the observed effective RX drain bandwidth while the
	// buffer was busy (0 = never measured: nothing ever queued).
	DrainBps uint64
	// PauseTx / PauseRx count PFC frames the NIC emitted / received.
	PauseTx uint64
	PauseRx uint64
	// ProcLatencyNS is the processing-latency proxy: mean per-packet RX
	// service latency in nanoseconds (queueing wait excluded, so a slow
	// drain and a slow *processor* stay distinguishable).
	ProcLatencyNS uint64
	// ActiveQPs is the inbound flow fan-in the NIC has served — the load
	// axis cache-thrash degradation correlates with.
	ActiveQPs uint32
}

// HostReportWire is the exact encoded size of a host report.
const HostReportWire = 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4

// MarshalBinary encodes the report (fixed-width big-endian fields).
func (r *HostReport) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, HostReportWire)
	put := func(v uint64, n int) {
		for i := n - 1; i >= 0; i-- {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	put(uint64(uint32(r.Host)), 4)
	put(uint64(r.Taken), 8)
	put(r.RxBufferBytes, 8)
	put(r.RxBufferCap, 8)
	put(r.DrainBps, 8)
	put(r.PauseTx, 8)
	put(r.PauseRx, 8)
	put(r.ProcLatencyNS, 8)
	put(uint64(r.ActiveQPs), 4)
	return buf, nil
}

// UnmarshalBinary decodes a report produced by MarshalBinary. The frame
// is fixed-width, so the strict-decode contract collapses to an exact
// length check: anything shorter is truncated, anything longer is
// smuggling trailing bytes.
func (r *HostReport) UnmarshalBinary(b []byte) error {
	if len(b) != HostReportWire {
		return fmt.Errorf("%w: host report is %d bytes, want %d", ErrBadReport, len(b), HostReportWire)
	}
	off := 0
	get := func(n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v = v<<8 | uint64(b[off+i])
		}
		off += n
		return v
	}
	r.Host = topo.NodeID(int32(get(4)))
	r.Taken = sim.Time(get(8))
	r.RxBufferBytes = get(8)
	r.RxBufferCap = get(8)
	r.DrainBps = get(8)
	r.PauseTx = get(8)
	r.PauseRx = get(8)
	r.ProcLatencyNS = get(8)
	r.ActiveQPs = uint32(get(4))
	return nil
}

// Validate checks the internal consistency a NIC cannot physically
// violate. Reports failing it are rejected outright (they contradict
// themselves); magnitude excesses are left to SanitizeHostReport, which
// clamps instead.
func (r *HostReport) Validate() error {
	if r.Taken < 0 {
		return fmt.Errorf("%w: negative snapshot time %d", ErrBadReport, r.Taken)
	}
	if r.RxBufferCap > 0 && r.RxBufferBytes > r.RxBufferCap {
		return fmt.Errorf("%w: RX occupancy %d exceeds capacity %d", ErrBadReport, r.RxBufferBytes, r.RxBufferCap)
	}
	if r.RxBufferCap == 0 && r.RxBufferBytes > 0 {
		return fmt.Errorf("%w: RX occupancy %d with no buffer", ErrBadReport, r.RxBufferBytes)
	}
	return nil
}

// HostLimits bounds physically plausible magnitudes for one host report.
type HostLimits struct {
	// MaxBufferBytes caps RX-buffer capacity and occupancy: no host NIC
	// stages more than this.
	MaxBufferBytes uint64
	// MaxDrainBps caps the observed drain rate (with the same 4x
	// epoch-smear slack the switch limits use).
	MaxDrainBps uint64
	// MaxProcNS caps the per-packet processing-latency proxy.
	MaxProcNS uint64
	// MaxQPs caps the reported fan-in.
	MaxQPs uint32
}

// HostLimitsFor derives host limits from the fabric's link speed.
func HostLimitsFor(linkBps float64) HostLimits {
	drain := uint64(4 * linkBps)
	if drain == 0 {
		drain = 1
	}
	return HostLimits{
		MaxBufferBytes: 64 << 20, // deepest plausible host RX staging buffer
		MaxDrainBps:    drain,
		MaxProcNS:      1e9, // a NIC "processing" one packet for >1s is corruption
		MaxQPs:         1 << 20,
	}
}

// SanitizeHostReport clamps implausible magnitudes in place and returns
// how many fields were touched. Mirrors SanitizeReport: one flipped bit
// degrades the report instead of discarding its evidence, and the clamp
// count flows into provenance Coverage.
func SanitizeHostReport(r *HostReport, lim HostLimits) int {
	clamped := 0
	clampU := func(v *uint64, max uint64) {
		if *v > max {
			*v = max
			clamped++
		}
	}
	clampU(&r.RxBufferCap, lim.MaxBufferBytes)
	// Occupancy clamps to capacity (zero capacity means no buffer, so
	// nothing can occupy it) — after sanitization the report is always
	// internally consistent again.
	clampU(&r.RxBufferBytes, r.RxBufferCap)
	clampU(&r.DrainBps, lim.MaxDrainBps)
	clampU(&r.ProcLatencyNS, lim.MaxProcNS)
	if r.ActiveQPs > lim.MaxQPs {
		r.ActiveQPs = lim.MaxQPs
		clamped++
	}
	return clamped
}

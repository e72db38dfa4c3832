// Package cc implements DCQCN, the de-facto RDMA congestion control
// (Zhu et al., SIGCOMM'15), in its timer-driven reaction-point form.
// The paper's evaluation runs RoCEv2 with congestion control enabled and
// still observes PFC (§2); DCQCN here plays exactly that role: it shapes
// steady-state traffic but cannot react fast enough to line-rate bursts.
package cc

import "hawkeye/internal/sim"

// DCQCN reaction-point parameters (the paper's symbols in brackets),
// from Zhu et al., "Congestion Control for Large-Scale RDMA
// Deployments" (SIGCOMM '15), as common 100 Gbps deployments set them.
// Only the line rate varies, per flow.
const (
	minRate      float64  = 100e6                // bps floor
	rai          float64  = 400e6                // additive increase step [R_AI], bps
	rhai         float64  = 4e9                  // hyper increase step [R_HAI], bps
	alphaGain    float64  = 1.0 / 16.0           // alpha EWMA gain [g]
	AlphaT       sim.Time = 55 * sim.Microsecond // alpha update timer [K]
	RateT        sim.Time = 55 * sim.Microsecond // rate increase timer [T]
	fastRecovery int      = 5                    // fast-recovery stages before additive increase [F]
)

// State is the per-flow reaction point. The owner (host NIC) drives the
// two timers by calling OnAlphaTimer/OnRateTimer at the configured
// periods while the flow is active, and OnCNP whenever a congestion
// notification arrives.
type State struct {
	lineRate float64 // bps; flows start at line rate (§2.2)

	rc    float64 // current rate
	rt    float64 // target rate
	alpha float64

	// timer bookkeeping
	stage        int  // rate increase iterations since last cut
	cnpSinceLast bool // CNP seen since the last alpha timer tick
}

// NewState returns a flow starting at lineRate (bps), per RDMA NIC
// behaviour.
func NewState(lineRate float64) *State {
	return &State{lineRate: lineRate, rc: lineRate, rt: lineRate, alpha: 1}
}

// Rate returns the current sending rate in bps.
func (s *State) Rate() float64 { return s.rc }

// TargetRate returns the current target rate in bps (tests/ablations).
func (s *State) TargetRate() float64 { return s.rt }

// Alpha returns the congestion estimate (tests/ablations).
func (s *State) Alpha() float64 { return s.alpha }

// OnCNP applies the multiplicative decrease rule.
func (s *State) OnCNP() {
	s.rt = s.rc
	s.rc *= 1 - s.alpha/2
	if s.rc < minRate {
		s.rc = minRate
	}
	s.alpha = (1-alphaGain)*s.alpha + alphaGain
	s.stage = 0
	s.cnpSinceLast = true
}

// OnAlphaTimer decays alpha when no CNP arrived during the last period.
func (s *State) OnAlphaTimer() {
	if s.cnpSinceLast {
		s.cnpSinceLast = false
		return
	}
	s.alpha *= 1 - alphaGain
}

// OnRateTimer runs one increase iteration: fastRecovery stages of fast recovery
// toward the target, then additive increase, then hyper increase.
func (s *State) OnRateTimer() {
	s.stage++
	switch {
	case s.stage <= fastRecovery:
		// fast recovery: close half the gap to the target
	case s.stage <= 2*fastRecovery:
		s.rt += rai
	default:
		s.rt += rhai
	}
	if s.rt > s.lineRate {
		s.rt = s.lineRate
	}
	s.rc = (s.rt + s.rc) / 2
	if s.rc > s.lineRate {
		s.rc = s.lineRate
	}
}

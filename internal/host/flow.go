package host

import (
	"hawkeye/internal/cc"
	"hawkeye/internal/fabric"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
)

// Flow is one sender-side RDMA flow (the model's stand-in for a QP).
// Segmentation is packet-indexed: segment i carries MTU bytes except the
// last, so go-back-N rewinds are a simple seq reset.
type Flow struct {
	ID    uint64
	Tuple packet.FiveTuple

	host *Host
	cc   *cc.State

	totalBytes int64
	totalPkts  uint32
	remaining  int64
	nextSeq    uint32
	acked      uint32

	startAt   sim.Time
	finishAt  sim.Time
	lastAckAt sim.Time
	lastSend  sim.Time

	rttMin    sim.Time
	rttSample int
	// stallStart records when the flow first found the NIC blocked; the
	// next packet actually transmitted carries this as its SentAt, so its
	// RTT includes the stall — the way a posted WQE's completion latency
	// would on real RDMA hardware (PFC pushes back to the sender, so
	// without this no transmitted packet ever witnesses the pause).
	stallStart sim.Time

	sendRef    sim.EventRef
	alphaRef   sim.EventRef
	rateRef    sim.EventRef
	retxRef    sim.EventRef
	timersLive bool

	// Retransmits counts transport-timeout rewinds (tail loss recovery).
	Retransmits int
}

// StartFlow begins sending totalBytes to the host that owns dstIP at
// time start (absolute). It returns the created flow.
func (h *Host) StartFlow(id uint64, dstIP uint32, totalBytes int64, start sim.Time) *Flow {
	return h.StartFlowRate(id, dstIP, totalBytes, start, 0)
}

// StartFlowRate is StartFlow with a per-flow rate cap in bps (0 = NIC
// line rate). Scenarios use caps to keep links busy without saturating
// them — e.g. priming a cyclic buffer dependency that only deadlocks once
// an external initiator congests it.
func (h *Host) StartFlowRate(id uint64, dstIP uint32, totalBytes int64, start sim.Time, maxRate float64) *Flow {
	lineRate := h.net.Topo.LinkBandwidth
	if maxRate > 0 && maxRate < lineRate {
		lineRate = maxRate
	}
	srcPort := h.nextSrcPort
	h.nextSrcPort++
	if h.nextSrcPort < 1024 {
		h.nextSrcPort = 1024
	}
	f := &Flow{
		ID: id,
		Tuple: packet.FiveTuple{
			SrcIP:   h.IP,
			DstIP:   dstIP,
			SrcPort: srcPort,
			DstPort: 4791, // RoCEv2 UDP port
			Proto:   packet.ProtoUDP,
		},
		host:       h,
		cc:         cc.NewState(lineRate),
		totalBytes: totalBytes,
		totalPkts:  uint32((totalBytes + packet.DefaultMTU - 1) / packet.DefaultMTU),
		remaining:  totalBytes,
		startAt:    start,
		lastAckAt:  start,
	}
	h.flows[id] = f
	h.eng.At(start, func() {
		f.startTimers()
		f.sendNext()
	})
	h.agent.watch(f)
	return f
}

// Completed reports whether every byte has been acknowledged.
func (f *Flow) Completed() bool { return f.finishAt > 0 }

// Outstanding reports whether unacknowledged packets exist.
func (f *Flow) Outstanding() bool { return f.acked < f.totalPkts }

// AckedPackets returns the cumulative-ACK high-water mark.
func (f *Flow) AckedPackets() uint32 { return f.acked }

// TotalPackets returns the flow's segment count.
func (f *Flow) TotalPackets() uint32 { return f.totalPkts }

// FCT returns the flow completion time, valid once Completed.
func (f *Flow) FCT() sim.Time { return f.finishAt - f.startAt }

// Rate returns the current DCQCN rate (bps).
func (f *Flow) Rate() float64 { return f.cc.Rate() }

// TotalBytes returns the flow size.
func (f *Flow) TotalBytes() int64 { return f.totalBytes }

// MinRTT returns the smallest RTT sample observed (0 if none).
func (f *Flow) MinRTT() sim.Time { return f.rttMin }

func (f *Flow) recordRTT(rtt sim.Time) {
	f.rttSample++
	if f.rttMin == 0 || rtt < f.rttMin {
		f.rttMin = rtt
	}
}

// scheduleSend arranges the next transmission respecting pacing.
func (f *Flow) scheduleSend() {
	if f.sendRef.Pending() || f.remaining <= 0 {
		return
	}
	now := f.host.eng.Now()
	next := f.nextSendTime()
	if next < now {
		next = now
	}
	f.sendRef = f.host.eng.At(next, f.sendNext)
}

// nextSendTime enforces the DCQCN rate: one wire-sized packet per
// size*8/rate interval.
func (f *Flow) nextSendTime() sim.Time {
	if f.lastSend == 0 {
		return f.host.eng.Now()
	}
	wire := float64((packet.DefaultMTU + packet.DataHeaderLen) * 8)
	gap := sim.Time(wire / f.cc.Rate() * 1e9)
	return f.lastSend + gap
}

func (f *Flow) sendNext() {
	h := f.host
	if f.remaining <= 0 {
		return
	}
	if h.egress.QueueBytes(packet.ClassLossless) > nicQueueCap {
		if f.stallStart == 0 {
			f.stallStart = h.eng.Now()
		}
		h.blocked[f.ID] = f
		return
	}
	payload := int64(packet.DefaultMTU)
	if payload > f.remaining {
		payload = f.remaining
	}
	sentAt := h.eng.Now()
	if f.stallStart > 0 {
		sentAt = f.stallStart
		f.stallStart = 0
	}
	pkt := &packet.Packet{
		Type:   packet.TypeData,
		Flow:   f.Tuple,
		FlowID: f.ID,
		Class:  packet.ClassLossless,
		Size:   int(payload) + packet.DataHeaderLen,
		Seq:    f.nextSeq,
		Last:   payload == f.remaining,
		SentAt: sentAt,
	}
	f.nextSeq++
	f.remaining -= payload
	f.lastSend = h.eng.Now()
	h.TxDataPackets++
	h.egress.Enqueue(fabric.Queued{Pkt: pkt, InPort: -1})
	if f.remaining > 0 {
		f.scheduleSend()
	}
}

// rewindTo implements go-back-N after a NACK for seq.
func (f *Flow) rewindTo(seq uint32) {
	if seq >= f.nextSeq {
		return
	}
	f.nextSeq = seq
	f.remaining = f.totalBytes - int64(seq)*packet.DefaultMTU
	f.scheduleSend()
}

func (f *Flow) startTimers() {
	f.timersLive = true
	f.armAlpha()
	f.armRate()
	f.armRetx()
}

func (f *Flow) stopTimers() {
	f.timersLive = false
	f.alphaRef.Cancel()
	f.rateRef.Cancel()
	f.retxRef.Cancel()
	f.sendRef.Cancel()
}

func (f *Flow) armAlpha() {
	f.alphaRef = f.host.eng.After(cc.AlphaT, func() {
		if !f.timersLive {
			return
		}
		f.cc.OnAlphaTimer()
		f.armAlpha()
	})
}

// armRetx runs the transport retransmission timer: no ACK progress for a
// full RetxTimeout while packets are outstanding rewinds the flow to its
// cumulative ACK (go-back-N tail recovery). Only drops make this fire —
// an intact-but-slow fabric always delivers SOME ack within the (multi-ms)
// timeout, and a PFC-stalled flow is rewound to data the NIC cannot send
// anyway, so the timer is harmless outside genuine loss.
func (f *Flow) armRetx() {
	if f.host.Cfg.RetxTimeout <= 0 {
		return
	}
	f.retxRef = f.host.eng.After(f.host.Cfg.RetxTimeout, func() {
		if !f.timersLive || f.Completed() {
			return
		}
		now := f.host.eng.Now()
		if f.Outstanding() && now-f.lastAckAt >= f.host.Cfg.RetxTimeout {
			f.Retransmits++
			f.lastAckAt = now // one rewind per quiet period
			f.rewindTo(f.acked)
		}
		f.armRetx()
	})
}

func (f *Flow) armRate() {
	f.rateRef = f.host.eng.After(cc.RateT, func() {
		if !f.timersLive {
			return
		}
		f.cc.OnRateTimer()
		f.armRate()
	})
}

package fabric

import (
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Queued is one packet waiting in an egress queue, together with the
// ingress port it arrived on (needed to release PFC ingress accounting
// when it leaves) and its enqueue time.
type Queued struct {
	Pkt        *packet.Packet
	InPort     int // -1 for locally generated packets
	EnqueuedAt sim.Time
}

// Egress models one output port: per-class FIFO queues, strict-priority
// scheduling (higher class number first), link serialization, and
// per-class PFC pause state. Both switch ports and host NICs use it.
type Egress struct {
	net  *Network
	node topo.NodeID
	port int

	queues   [packet.NumClasses][]Queued
	bytes    [packet.NumClasses]int
	pktCount [packet.NumClasses]int

	pausedUntil [packet.NumClasses]sim.Time
	resumeKick  [packet.NumClasses]sim.EventRef

	busy bool

	// OnDequeue, if set, fires when a packet starts transmission
	// (ingress-accounting release and telemetry hooks).
	OnDequeue func(q Queued)
	// OnDrain, if set, fires after every dequeue with the remaining
	// lossless backlog; host NICs use it to unblock paced flows.
	OnDrain func()

	// TxPackets and TxBytes count transmitted traffic.
	TxPackets uint64
	TxBytes   uint64
}

// NewEgress creates the egress machinery for (node, port).
func NewEgress(net *Network, node topo.NodeID, port int) *Egress {
	return &Egress{net: net, node: node, port: port}
}

// QueueBytes returns the backlog of one class in bytes.
func (e *Egress) QueueBytes(class uint8) int { return e.bytes[class] }

// QueuePackets returns the backlog of one class in packets.
func (e *Egress) QueuePackets(class uint8) int { return e.pktCount[class] }

// TotalBytes returns the backlog across all classes.
func (e *Egress) TotalBytes() int {
	total := 0
	for _, b := range e.bytes {
		total += b
	}
	return total
}

// Paused reports whether transmission of class is currently paused.
func (e *Egress) Paused(class uint8) bool {
	return e.pausedUntil[class] > e.net.Eng.Now()
}

// PausedUntil returns the virtual time the current pause of class expires
// (zero value if never paused).
func (e *Egress) PausedUntil(class uint8) sim.Time { return e.pausedUntil[class] }

// Pause stops transmission of class for the duration encoded in quanta,
// as dictated by a received PFC PAUSE frame.
func (e *Egress) Pause(class uint8, quanta uint16) {
	until := e.net.Eng.Now() + packet.PauseDuration(quanta, e.net.Topo.LinkBandwidth)
	e.setPause(class, until)
}

// Resume lifts the pause of class (a zero-quanta PFC frame).
func (e *Egress) Resume(class uint8) { e.setPause(class, e.net.Eng.Now()) }

func (e *Egress) setPause(class uint8, until sim.Time) {
	e.pausedUntil[class] = until
	e.resumeKick[class].Cancel()
	now := e.net.Eng.Now()
	if until > now {
		// Wake the scheduler when the pause lapses on its own.
		e.resumeKick[class] = e.net.Eng.At(until, e.kick)
	} else {
		e.kick()
	}
}

// Enqueue appends the packet to its class queue and starts transmission
// if the port is idle. It returns the class backlog in bytes after the
// packet was added (the "queue depth seen by the packet", which telemetry
// records).
func (e *Egress) Enqueue(q Queued) int {
	class := q.Pkt.Class
	q.EnqueuedAt = e.net.Eng.Now()
	e.queues[class] = append(e.queues[class], q)
	e.bytes[class] += q.Pkt.Size
	e.pktCount[class]++
	e.kick()
	return e.bytes[class]
}

// DropClass removes every queued packet of class without transmitting
// them, returning the removed entries so the owner can release buffer and
// PFC ingress accounting. PFC watchdogs use this to break pause storms.
func (e *Egress) DropClass(class uint8) []Queued {
	dropped := e.queues[class]
	e.queues[class] = nil
	e.bytes[class] = 0
	e.pktCount[class] = 0
	return dropped
}

// kick starts transmitting the next eligible packet if the port is idle.
// Strict priority: the highest class with backlog and no active pause
// wins; a paused class never blocks other classes (that is precisely how
// PFC isolates priorities).
func (e *Egress) kick() {
	if e.busy {
		return
	}
	now := e.net.Eng.Now()
	for class := packet.NumClasses - 1; class >= 0; class-- {
		c := uint8(class)
		if len(e.queues[class]) == 0 || e.pausedUntil[c] > now {
			continue
		}
		q := e.queues[class][0]
		e.queues[class] = e.queues[class][1:]
		e.bytes[class] -= q.Pkt.Size
		e.pktCount[class]--
		e.busy = true
		e.TxPackets++
		e.TxBytes += uint64(q.Pkt.Size)
		if e.OnDequeue != nil {
			e.OnDequeue(q)
		}
		tx := e.net.TransmitTimeOn(e.node, e.port, q.Pkt.Size)
		e.net.Deliver(e.node, e.port, q.Pkt)
		e.net.Eng.After(tx, func() {
			e.busy = false
			if e.OnDrain != nil {
				e.OnDrain()
			}
			e.kick()
		})
		return
	}
}

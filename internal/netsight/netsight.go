// Package netsight implements NetSight's mechanism for real: every
// switch emits a postcard (truncated header + switch ID + output port +
// timestamp) for every packet it forwards, and a central store assembles
// them into per-packet "packet histories". Histories localize WHERE a
// packet spent its time — per-hop latency falls straight out of the
// postcard timestamps — which is exactly what the paper credits NetSight
// with, and nothing more: postcards carry no PFC state, and a packet that
// is stuck in a paused queue emits no further postcards, so a PFC anomaly
// appears only as histories that go silent mid-path.
package netsight

import (
	"sort"

	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// PostcardBytes is the wire size of one compressed postcard as the
// NetSight paper reports after its Van Jacobson-style compression.
const PostcardBytes = 15

// Postcard is one per-hop record.
type Postcard struct {
	Switch  topo.NodeID
	OutPort int
	// EnqueuedAt/DequeuedAt bracket the packet's residence at this hop.
	EnqueuedAt sim.Time
	DequeuedAt sim.Time
}

// pktKey identifies one packet across hops.
type pktKey struct {
	flow packet.FiveTuple
	seq  uint32
}

// Store is the central packet-history server.
type Store struct {
	histories map[pktKey][]Postcard

	// Postcards counts records received; Bytes the modelled wire cost.
	Postcards uint64
	Bytes     uint64
}

// NewStore returns an empty history server.
func NewStore() *Store {
	return &Store{histories: make(map[pktKey][]Postcard)}
}

func (s *Store) add(flow packet.FiveTuple, seq uint32, pc Postcard) {
	k := pktKey{flow, seq}
	s.histories[k] = append(s.histories[k], pc)
	s.Postcards++
	s.Bytes += PostcardBytes
}

// History returns the hop records of one packet in time order.
func (s *Store) History(flow packet.FiveTuple, seq uint32) []Postcard {
	h := append([]Postcard(nil), s.histories[pktKey{flow, seq}]...)
	sort.Slice(h, func(i, j int) bool { return h[i].DequeuedAt < h[j].DequeuedAt })
	return h
}

// SlowestHop returns the hop where one packet waited longest (zero value
// if no history).
func (s *Store) SlowestHop(flow packet.FiveTuple, seq uint32) (Postcard, sim.Time) {
	var worst Postcard
	var max sim.Time
	for _, pc := range s.History(flow, seq) {
		if d := pc.DequeuedAt - pc.EnqueuedAt; d >= max {
			max = d
			worst = pc
		}
	}
	return worst, max
}

// Seqs returns the packet sequence numbers the store has seen for a flow,
// ascending.
func (s *Store) Seqs(flow packet.FiveTuple) []uint32 {
	var out []uint32
	for k := range s.histories {
		if k.flow == flow {
			out = append(out, k.seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IncompleteHistories counts packets of a flow whose history is shorter
// than expectHops — the silence signature a PFC stall leaves in NetSight
// data.
func (s *Store) IncompleteHistories(flow packet.FiveTuple, expectHops int) int {
	n := 0
	for k, h := range s.histories {
		if k.flow == flow && len(h) < expectHops {
			n++
		}
	}
	return n
}

// Instrument emits postcards from one switch. Implements
// device.Instrument.
type Instrument struct {
	sw    *device.Switch
	store *Store
}

// Attach installs postcard generation on a switch.
func Attach(sw *device.Switch, store *Store) *Instrument {
	in := &Instrument{sw: sw, store: store}
	sw.AddInstrument(in)
	return in
}

// OnEnqueue implements device.Instrument (postcards are emitted at
// dequeue, carrying both timestamps).
func (in *Instrument) OnEnqueue(device.EnqueueEvent) {}

// OnPFC implements device.Instrument: NetSight predates PFC telemetry;
// pause frames leave no postcard.
func (in *Instrument) OnPFC(int, *packet.PFCFrame, sim.Time) {}

// OnDequeue emits this hop's postcard.
func (in *Instrument) OnDequeue(ev device.DequeueEvent) {
	if ev.Pkt.Type != packet.TypeData {
		return
	}
	in.store.add(ev.Pkt.Flow, ev.Pkt.Seq, Postcard{
		Switch:     in.sw.ID,
		OutPort:    ev.OutPort,
		EnqueuedAt: ev.EnqueuedAt,
		DequeuedAt: ev.Now,
	})
}

// InstallAll attaches postcard generation to every switch, all feeding
// one store.
func InstallAll(switches map[topo.NodeID]*device.Switch, store *Store) {
	for _, sw := range switches {
		Attach(sw, store)
	}
}

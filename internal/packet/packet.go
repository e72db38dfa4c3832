// Package packet defines the wire-level vocabulary of the simulated RDMA
// network: flow 5-tuples, RoCEv2-style data/ACK/CNP packets, IEEE 802.1Qbb
// PFC PAUSE frames, and the Hawkeye polling packet (paper Fig. 5).
//
// Inside the simulator packets travel as Go structs for speed; the binary
// codecs in this package are used wherever bytes actually matter — polling
// packet parsing on switches, PFC frame quanta, and telemetry reports — and
// follow the prepend/append layering style of gopacket serialization.
package packet

import (
	"fmt"
	"sort"

	"hawkeye/internal/sim"
)

// Proto numbers used by the model (a tiny subset of IANA).
const (
	ProtoUDP uint8 = 17 // RoCEv2 runs over UDP
)

// FiveTuple identifies a flow. IPv4 addresses are stored as uint32 in
// host order; this matches how a P4 pipeline would treat them as bit
// vectors for hashing and XOR comparison.
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Size of an encoded FiveTuple in bytes.
const FiveTupleLen = 13

// IsZero reports whether the tuple is the zero value (an empty telemetry
// slot).
func (ft FiveTuple) IsZero() bool { return ft == FiveTuple{} }

// Hash returns a 32-bit hash of the tuple (FNV-1a over the 13 encoded
// bytes). Switch telemetry tables index slots with Hash % tableSize,
// mirroring the CRC-based hash units in a Tofino pipeline.
func (ft FiveTuple) Hash() uint32 {
	var b [FiveTupleLen]byte
	ft.encode(b[:])
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	return h
}

// XOREquals reports whether two tuples are bitwise identical, expressed
// the way the paper's data plane does it: XOR of the stored and incoming
// tuples equal to zero.
func (ft FiveTuple) XOREquals(other FiveTuple) bool {
	return ft.SrcIP^other.SrcIP == 0 &&
		ft.DstIP^other.DstIP == 0 &&
		ft.SrcPort^other.SrcPort == 0 &&
		ft.DstPort^other.DstPort == 0 &&
		ft.Proto^other.Proto == 0
}

// Reverse returns the tuple with source and destination swapped, used for
// ACK/CNP return traffic.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: ft.DstIP, DstIP: ft.SrcIP,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%d",
		ipString(ft.SrcIP), ft.SrcPort, ipString(ft.DstIP), ft.DstPort, ft.Proto)
}

// SortByString sorts tuples by their String form, formatting each tuple
// once rather than once per comparison. Distinct tuples format
// distinctly, so the order is total; a later stable sort on another key
// keeps it as the tie-break.
func SortByString(ts []FiveTuple) {
	type keyed struct {
		s string
		t FiveTuple
	}
	ks := make([]keyed, len(ts))
	for i, t := range ts {
		ks[i] = keyed{t.String(), t}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].s < ks[j].s })
	for i := range ks {
		ts[i] = ks[i].t
	}
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

func (ft FiveTuple) encode(b []byte) {
	putU32(b[0:], ft.SrcIP)
	putU32(b[4:], ft.DstIP)
	putU16(b[8:], ft.SrcPort)
	putU16(b[10:], ft.DstPort)
	b[12] = ft.Proto
}

// MarshalBinary encodes the tuple in its 13-byte wire layout.
func (ft FiveTuple) MarshalBinary() ([]byte, error) {
	b := make([]byte, FiveTupleLen)
	ft.encode(b)
	return b, nil
}

// UnmarshalBinary decodes the 13-byte wire layout.
func (ft *FiveTuple) UnmarshalBinary(b []byte) error {
	if len(b) < FiveTupleLen {
		return fmt.Errorf("%w: 5-tuple %d bytes, need %d", ErrBadFrame, len(b), FiveTupleLen)
	}
	*ft = decodeFiveTuple(b)
	return nil
}

func decodeFiveTuple(b []byte) FiveTuple {
	return FiveTuple{
		SrcIP:   getU32(b[0:]),
		DstIP:   getU32(b[4:]),
		SrcPort: getU16(b[8:]),
		DstPort: getU16(b[10:]),
		Proto:   b[12],
	}
}

// Type enumerates the packet kinds the simulator forwards.
type Type uint8

const (
	// TypeData is a RoCEv2 data segment.
	TypeData Type = iota
	// TypeACK acknowledges received data (per-packet, coalesced by hosts).
	TypeACK
	// TypeCNP is a DCQCN congestion notification packet.
	TypeCNP
	// TypeNACK signals an out-of-order arrival (go-back-N).
	TypeNACK
	// TypePFC is an 802.1Qbb priority flow-control frame. PFC frames are
	// link-local: they never cross a switch.
	TypePFC
	// TypePolling is a Hawkeye diagnosis polling packet (paper Fig. 5).
	TypePolling
	// TypeReport carries telemetry from a switch CPU to the analyzer.
	TypeReport
)

func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeACK:
		return "ACK"
	case TypeCNP:
		return "CNP"
	case TypeNACK:
		return "NACK"
	case TypePFC:
		return "PFC"
	case TypePolling:
		return "POLL"
	case TypeReport:
		return "REPORT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsControl reports whether the packet type travels in the unpausable
// control queue (same priority as CNP, per §3.4).
func (t Type) IsControl() bool {
	switch t {
	case TypeCNP, TypeACK, TypeNACK, TypePolling, TypeReport:
		return true
	}
	return false
}

// Priority classes. The model uses a small number of 802.1p classes:
// lossless RDMA traffic rides ClassLossless (PFC-enabled), control
// packets ride ClassControl (never paused).
const (
	ClassLossless uint8 = 3
	ClassControl  uint8 = 6
	NumClasses          = 8
)

// Packet is the unit the simulator forwards. A single struct covers all
// packet kinds; kind-specific payloads live in the optional pointers so
// the common case (data) stays small.
type Packet struct {
	ID       uint64
	Type     Type
	Flow     FiveTuple
	Class    uint8 // 802.1p priority class
	Size     int   // bytes on the wire, headers included
	Seq      uint32
	FlowID   uint64 // dense simulator-side flow identifier
	Last     bool   // final segment of its flow (ACK-flush marker)
	ECN      bool   // CE mark set by congested egress queues
	SentAt   sim.Time
	AckedSeq uint32 // for ACK/NACK: cumulative sequence being acknowledged

	// CumDelayNS is SpiderMon's in-band 16-bit cumulative queuing delay
	// counter (in units of 64ns to fit 16 bits, as the baseline describes);
	// unused by Hawkeye.
	CumDelay uint16

	PFC  *PFCFrame
	Poll *PollingHeader
}

// Header sizes used for accounting, matching RoCEv2 framing:
// Ethernet(14)+FCS(4)+preamble/IPG(20 effective) + IPv4(20) + UDP(8) + BTH(12).
const (
	EthOverhead    = 38 // preamble + eth header + FCS + min IPG
	IPUDPBTHHeader = 40
	// DataHeaderLen is the total per-packet overhead for a data segment.
	DataHeaderLen = EthOverhead + IPUDPBTHHeader
	// DefaultMTU is the largest data payload per segment.
	DefaultMTU = 1000
	// ControlPacketSize approximates ACK/CNP/NACK wire size.
	ControlPacketSize = 84
	// PFCFrameSize is the wire size of an 802.1Qbb pause frame.
	PFCFrameSize = 64
	// PollingPacketSize is the wire size of a Hawkeye polling packet.
	PollingPacketSize = EthOverhead + IPUDPBTHHeader + PollingHeaderLen
)

// Clone returns a deep copy of the packet (kind-specific payloads
// included). Multicast replication of polling packets uses this.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.PFC != nil {
		f := *p.PFC
		q.PFC = &f
	}
	if p.Poll != nil {
		h := *p.Poll
		q.Poll = &h
	}
	return &q
}

func (p *Packet) String() string {
	switch p.Type {
	case TypePFC:
		return fmt.Sprintf("PFC{%v}", p.PFC)
	case TypePolling:
		return fmt.Sprintf("POLL{%v}", p.Poll)
	default:
		return fmt.Sprintf("%s{%v seq=%d size=%d}", p.Type, p.Flow, p.Seq, p.Size)
	}
}

// binary helpers (big-endian, network order)

func putU16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v>>32))
	putU32(b[4:], uint32(v))
}
func getU16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func getU64(b []byte) uint64 { return uint64(getU32(b))<<32 | uint64(getU32(b[4:])) }

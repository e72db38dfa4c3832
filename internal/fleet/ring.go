// Package fleet is the horizontal tier over single-shard analyzers:
// a consistent-hash router assigning fabrics to shards, a follower
// that replicates a shard's durable state over the wire and can be
// promoted when the primary dies, and a front door that fans operator
// queries out across the shards and merges the answers (incidents in
// deterministic order, rollup windows by sketch merge).
//
// The unit of placement is the fabric: every diagnosis record carries
// its fabric name, the rollup hierarchy keys are fabric-prefixed, and
// incidents cluster within a fabric's record stream — so pinning each
// fabric to exactly one shard keeps every per-key invariant (sketch
// error bounds, incident exactly-once) local to one shard, and the
// front door's merges never have to reconcile split state.
package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the virtual-node count per shard when a Ring is
// built with vnodes <= 0. 128 points per shard keeps the ownership
// imbalance across shards within a few percent for realistic fleet
// sizes while the ring stays small enough to rebuild on every
// membership change.
const DefaultVnodes = 128

// domain separators keep shard points and fabric keys in disjoint hash
// families: a fabric named exactly like a shard must not land exactly
// on that shard's point.
const (
	domainPoint = 'P'
	domainKey   = 'K'
)

// Ring maps fabric names to shard names by consistent hashing: each
// shard contributes vnodes points on a 64-bit ring, a fabric is owned
// by the first point at or clockwise of its own hash. The layout is a
// pure function of (shards, vnodes, seed) — two processes building the
// same ring route identically with no coordination, which is the
// routing-determinism contract the cluster kill-loop asserts.
type Ring struct {
	seed   uint64
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds a ring over the named shards. Names must be non-empty
// and distinct; order does not matter (the ring sorts them). vnodes <= 0
// uses DefaultVnodes. The seed partitions rings of unrelated clusters:
// the same membership under a different seed is a completely different
// layout.
func NewRing(shards []string, vnodes int, seed uint64) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	names := make([]string, len(shards))
	copy(names, shards)
	sort.Strings(names)
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("fleet: empty shard name")
		}
		if i > 0 && names[i-1] == n {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", n)
		}
	}
	r := &Ring{
		seed:   seed,
		points: make([]ringPoint, 0, len(names)*vnodes),
	}
	for _, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(seed, domainPoint, name, uint32(v)),
				shard: name,
			})
		}
	}
	// Shard-name tiebreak on (astronomically unlikely) hash collisions
	// keeps the layout independent of input order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

func ringHash(seed uint64, domain byte, name string, v uint32) uint64 {
	h := fnv.New64a()
	var b [13]byte
	b[0] = domain
	binary.BigEndian.PutUint64(b[1:9], seed)
	binary.BigEndian.PutUint32(b[9:], v)
	h.Write(b[:])
	h.Write([]byte(name))
	return h.Sum64()
}

// Owner returns the shard owning the fabric.
func (r *Ring) Owner(fabric string) string {
	h := ringHash(r.seed, domainKey, fabric, 0)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the highest point, ownership circles to the first
	}
	return r.points[i].shard
}

// Move is one fabric's reassignment in a reshard plan.
type Move struct {
	Fabric   string
	From, To string
}

// Plan diffs fabric ownership between two rings and returns the
// explicit reassignments, sorted by fabric. This is how a membership
// change ships: build the next ring, Plan against the current one, and
// migrate exactly the listed fabrics — consistent hashing guarantees
// the plan stays near len(fabrics)/len(shards) for a single
// added or removed shard instead of reshuffling everything.
func Plan(old, next *Ring, fabrics []string) []Move {
	var moves []Move
	for _, f := range fabrics {
		from, to := old.Owner(f), next.Owner(f)
		if from != to {
			moves = append(moves, Move{Fabric: f, From: from, To: to})
		}
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].Fabric < moves[j].Fabric })
	return moves
}

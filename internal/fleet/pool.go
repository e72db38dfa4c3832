package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hawkeye/internal/analyzd"
)

// shardPool is the one shard-session cache behind the front door, the
// writer and the reshard executor: a validated shard set, one cached
// operator session per shard, and the per-shard fencing-epoch view
// those sessions carry. Every fresh dial to a shard whose epoch is
// known announces it before the session is handed out — contacting a
// revived stale primary demotes it instead of reading (or writing)
// through its ghost. The view only ever holds epochs the shard's own
// replies reported, so the announce can never fence a live primary.
type shardPool struct {
	owner string // "frontdoor", "writer", "executor": names the holder in errors
	retry analyzd.RetryConfig
	// redials, when the holder keeps one, counts reconnects: successful
	// dials to a shard this pool had already dialed once.
	redials *atomic.Uint64

	mu      sync.Mutex
	specs   []ShardSpec // sorted by name: the fan-out and merge order
	clients map[string]*analyzd.Client
	epochs  map[string]uint64
	dialed  map[string]bool
	closed  bool
}

func newShardPool(owner string, specs []ShardSpec, retry analyzd.RetryConfig, redials *atomic.Uint64) (*shardPool, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: %s needs at least one shard", owner)
	}
	p := &shardPool{
		owner:   owner,
		retry:   retry,
		redials: redials,
		specs:   append([]ShardSpec(nil), specs...),
		clients: make(map[string]*analyzd.Client, len(specs)),
		epochs:  make(map[string]uint64, len(specs)),
		dialed:  make(map[string]bool, len(specs)),
	}
	for i, sp := range specs {
		if sp.Name == "" || sp.Addr == "" {
			return nil, fmt.Errorf("fleet: %s shard %d needs a name and an address", owner, i)
		}
	}
	sort.Slice(p.specs, func(i, j int) bool { return p.specs[i].Name < p.specs[j].Name })
	for i := 1; i < len(p.specs); i++ {
		if p.specs[i-1].Name == p.specs[i].Name {
			return nil, fmt.Errorf("fleet: duplicate shard %q", p.specs[i].Name)
		}
	}
	return p, nil
}

// shards returns the shard set in pool order.
func (p *shardPool) shards() []ShardSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ShardSpec(nil), p.specs...)
}

// names returns the shard names in pool order — the ring's membership.
func (p *shardPool) names() []string {
	specs := p.shards()
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}

// find returns the named shard's slot; the caller holds mu.
func (p *shardPool) find(name string) (*ShardSpec, error) {
	for i := range p.specs {
		if p.specs[i].Name == name {
			return &p.specs[i], nil
		}
	}
	return nil, fmt.Errorf("fleet: %s knows no shard %q", p.owner, name)
}

// spec returns the named shard's current address.
func (p *shardPool) spec(name string) (ShardSpec, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp, err := p.find(name)
	if err != nil {
		return ShardSpec{}, err
	}
	return *sp, nil
}

// update repoints one shard at a new primary address (after a
// failover promotion) and drops any cached session to the old one.
func (p *shardPool) update(spec ShardSpec) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp, err := p.find(spec.Name)
	if err != nil {
		return err
	}
	sp.Addr = spec.Addr
	p.dropLocked(spec.Name)
	return nil
}

// close drops every cached shard session; later dials are refused.
func (p *shardPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for name := range p.clients {
		p.dropLocked(name)
	}
}

// drop forgets a shard's cached session after an operation error, so
// the next call redials instead of reusing a dead transport.
func (p *shardPool) drop(name string) {
	p.mu.Lock()
	p.dropLocked(name)
	p.mu.Unlock()
}

func (p *shardPool) dropLocked(name string) {
	if c, ok := p.clients[name]; ok {
		c.Close()
		delete(p.clients, name)
	}
}

// noteEpoch records a fencing epoch observed for a shard — its own, or
// the one that superseded it. The view only grows.
func (p *shardPool) noteEpoch(shard string, epoch uint64) {
	p.mu.Lock()
	if epoch > p.epochs[shard] {
		p.epochs[shard] = epoch
	}
	p.mu.Unlock()
}

func (p *shardPool) epochOf(shard string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epochs[shard]
}

// client returns the cached operator session to the named shard,
// dialing one if needed. The dial runs outside the lock so a slow
// shard never blocks sessions to the others; when two callers race the
// same dial, the loser closes its session and takes the winner's.
func (p *shardPool) client(name string) (*analyzd.Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("fleet: %s closed", p.owner)
	}
	sp, err := p.find(name)
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	if c, ok := p.clients[name]; ok {
		p.mu.Unlock()
		return c, nil
	}
	addr, known := sp.Addr, p.epochs[name]
	p.mu.Unlock()

	c, err := analyzd.DialOperatorRetry(addr, p.retry)
	if err != nil {
		return nil, err
	}
	if known > 0 {
		// A failed announce is not a failed dial: the operation that
		// follows reports the transport's state on its own.
		if info, err := c.AnnounceEpoch(name, known); err == nil {
			p.noteEpoch(name, max(info.Epoch, info.Observed))
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return nil, fmt.Errorf("fleet: %s closed", p.owner)
	}
	if prev, ok := p.clients[name]; ok {
		c.Close()
		return prev, nil
	}
	if p.dialed[name] && p.redials != nil {
		p.redials.Add(1)
	}
	p.dialed[name] = true
	p.clients[name] = c
	return c, nil
}

// do runs fn on the named shard's session and drops the session when
// fn fails, so the next call redials instead of reusing a transport in
// an unknown state.
func (p *shardPool) do(name string, fn func(c *analyzd.Client) error) error {
	c, err := p.client(name)
	if err != nil {
		return err
	}
	if err := fn(c); err != nil {
		p.drop(name)
		return err
	}
	return nil
}

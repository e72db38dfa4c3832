package chaos

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"hawkeye/internal/sim"
)

// FlakyConfig shapes the transport faults a FlakyProxy injects between
// analyzd clients and the server.
type FlakyConfig struct {
	// ResetFirst aborts the first N accepted connections immediately
	// (connection reset at dial time).
	ResetFirst int
	// ResetEveryNth additionally aborts every Nth accepted connection
	// after the first N (0 disables). A value of 3 kills connections
	// 3, 6, 9, ... of the post-ResetFirst stream.
	ResetEveryNth int
	// CorruptEveryNth flips one bit in every Nth client-to-server chunk
	// the proxy forwards (0 disables). The flipped byte/bit positions
	// come from Seed, so a corrupted run replays exactly. This is the
	// frame-corruption channel: with length-prefixed framing a single
	// bit flip lands in a length field, a type byte, or a payload, and
	// the server's admission path must absorb all three.
	CorruptEveryNth int
	// Seed drives the probabilistic decisions (bit positions for
	// CorruptEveryNth); resets above are deterministic counters so
	// retry tests are exact.
	Seed uint64
}

// FlakyProxy is a TCP proxy that forwards connections to a backend
// address while injecting transport faults per FlakyConfig: connection
// resets at accept and bit flips in forwarded client bytes. It exists
// to exercise the analyzd client's retry/backoff path against a real
// server without patching either side.
type FlakyProxy struct {
	Cfg FlakyConfig

	lis     net.Listener
	backend string

	accepted  atomic.Int64
	resets    atomic.Int64
	chunks    atomic.Int64
	corrupted atomic.Int64

	rngMu sync.Mutex
	rng   *sim.Rand

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewFlakyProxy listens on addr (e.g. "127.0.0.1:0") and forwards
// surviving connections to backend.
func NewFlakyProxy(addr, backend string, cfg FlakyConfig) (*FlakyProxy, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("chaos: flaky proxy listen: %w", err)
	}
	p := &FlakyProxy{
		Cfg: cfg, lis: lis, backend: backend,
		conns: make(map[net.Conn]struct{}),
		rng:   sim.NewRand(cfg.Seed),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (dial this instead of the
// backend).
func (p *FlakyProxy) Addr() string { return p.lis.Addr().String() }

// Resets returns how many connections the proxy has aborted so far.
func (p *FlakyProxy) Resets() int { return int(p.resets.Load()) }

// Accepted returns how many connections the proxy has accepted so far.
func (p *FlakyProxy) Accepted() int { return int(p.accepted.Load()) }

// Corruptions returns how many forwarded chunks have had a bit flipped.
func (p *FlakyProxy) Corruptions() int { return int(p.corrupted.Load()) }

// maybeCorrupt flips one seeded-random bit in buf when this chunk (a
// global 1-based count across all connections) is due per
// CorruptEveryNth.
func (p *FlakyProxy) maybeCorrupt(buf []byte) {
	if p.Cfg.CorruptEveryNth <= 0 || len(buf) == 0 {
		return
	}
	if p.chunks.Add(1)%int64(p.Cfg.CorruptEveryNth) != 0 {
		return
	}
	p.rngMu.Lock()
	i := p.rng.Intn(len(buf))
	bit := p.rng.Intn(8)
	p.rngMu.Unlock()
	buf[i] ^= 1 << bit
	p.corrupted.Add(1)
}

// Close stops the proxy and severs every live connection.
func (p *FlakyProxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.lis.Close()
	p.wg.Wait()
	return err
}

func (p *FlakyProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			return
		}
		n := p.accepted.Add(1)
		if p.shouldReset(n) {
			p.resets.Add(1)
			abortConn(conn)
			continue
		}
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// shouldReset applies the deterministic reset pattern to the nth
// accepted connection (1-based).
func (p *FlakyProxy) shouldReset(n int64) bool {
	if n <= int64(p.Cfg.ResetFirst) {
		return true
	}
	if p.Cfg.ResetEveryNth > 0 {
		k := n - int64(p.Cfg.ResetFirst)
		return k%int64(p.Cfg.ResetEveryNth) == 0
	}
	return false
}

// abortConn closes with SO_LINGER=0 so the peer sees an RST rather than
// a graceful FIN — the "connection reset by peer" the retry path must
// survive.
func abortConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

func (p *FlakyProxy) serve(client net.Conn) {
	defer p.wg.Done()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		abortConn(client)
		return
	}
	p.track(client)
	p.track(server)
	defer p.untrack(client)
	defer p.untrack(server)

	done := make(chan struct{}, 2)
	// Client -> server carries the corruption channel.
	go func() {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 16*1024)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				p.maybeCorrupt(buf[:n])
				if _, werr := server.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				server.Close()
				return
			}
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		io.Copy(client, server)
		client.Close()
	}()
	<-done
	<-done
}

func (p *FlakyProxy) track(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return
	}
	p.conns[c] = struct{}{}
}

func (p *FlakyProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

package fleet

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/wire"
)

// TestShardPoolConcurrentUse hammers one pool from several goroutines
// — dial, drop, repoint — then closes it under them: exactly one
// session per shard survives the races, and Close both empties the
// cache and refuses every later dial.
func TestShardPoolConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	specs := make([]ShardSpec, 2)
	for i, name := range []string{"s0", "s1"} {
		srv := testShard(t, filepath.Join(dir, name), name)
		defer srv.Close()
		specs[i] = ShardSpec{Name: name, Addr: srv.Addr()}
	}
	p, err := newShardPool("test", specs, testRetry(1), nil)
	if err != nil {
		t.Fatal(err)
	}

	hammer := func(wantClosed bool) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					spec := specs[(g+i)%len(specs)]
					switch _, err := p.client(spec.Name); {
					case err == nil:
					case wantClosed && strings.Contains(err.Error(), "closed"):
					default:
						t.Errorf("client(%s): %v", spec.Name, err)
					}
					switch (g + i) % 5 {
					case 0:
						p.drop(spec.Name)
					case 1:
						if err := p.update(spec); err != nil {
							t.Errorf("update(%s): %v", spec.Name, err)
						}
					}
				}
			}(g)
		}
		if wantClosed {
			p.close()
		}
		wg.Wait()
	}

	hammer(false)
	for _, spec := range specs {
		a, err := p.client(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := p.client(spec.Name); a != b {
			t.Fatalf("shard %s: two live sessions", spec.Name)
		}
		if _, err := a.Health(); err != nil {
			t.Fatalf("surviving session to %s is dead: %v", spec.Name, err)
		}
	}
	if n := len(p.clients); n != len(specs) {
		t.Fatalf("pool caches %d sessions, want %d", n, len(specs))
	}

	hammer(true)
	if n := len(p.clients); n != 0 {
		t.Fatalf("closed pool still caches %d sessions", n)
	}
	if _, err := p.client("s0"); err == nil {
		t.Fatal("closed pool dialed")
	}
	if _, err := p.client("nope"); err == nil {
		t.Fatal("unknown shard dialed")
	}
}

// TestShardPoolRedialAnnouncesEpoch: the first dial to a shard is not
// a redial and announces nothing; once an epoch is noted, the next
// fresh dial announces it, and a stale primary behind that address is
// fenced before the session is handed out.
func TestShardPoolRedialAnnouncesEpoch(t *testing.T) {
	dir := t.TempDir()
	stale := testShard(t, filepath.Join(dir, "stale"), "s0")
	defer stale.Close()
	promoted := promotedShard(t, filepath.Join(dir, "promoted"), "s0")
	defer promoted.Close()
	newEpoch := promoted.Fleet().Epoch()
	if se := stale.Fleet().Epoch(); se >= newEpoch {
		t.Fatalf("test setup: stale epoch %d not behind promoted %d", se, newEpoch)
	}

	var redials atomic.Uint64
	p, err := newShardPool("test", []ShardSpec{{Name: "s0", Addr: stale.Addr()}}, testRetry(2), &redials)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	if _, err := p.client("s0"); err != nil {
		t.Fatal(err)
	}
	if redials.Load() != 0 {
		t.Fatalf("first dial counted as %d redials", redials.Load())
	}
	p.noteEpoch("s0", newEpoch)
	if stale.Fleet().FencedBy() != 0 {
		t.Fatal("noting an epoch alone fenced the shard: the cached session must not announce")
	}

	p.drop("s0")
	c, err := p.client("s0")
	if err != nil {
		t.Fatal(err)
	}
	if redials.Load() != 1 {
		t.Fatalf("redials = %d after one reconnect, want 1", redials.Load())
	}
	if got := stale.Fleet().FencedBy(); got != newEpoch {
		t.Fatalf("stale primary fenced by %d after the redial, want %d", got, newEpoch)
	}
	rec := testRec("fabA", 0)
	body, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRecord(wire.WriteRequest{Fabric: "fabA", OriginSeq: 1, Record: body}); !errors.Is(err, analyzd.ErrFenced) {
		t.Fatalf("write to the fenced primary: %v, want ErrFenced", err)
	}
}

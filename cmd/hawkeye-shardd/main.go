// Command hawkeye-shardd runs one shard of a horizontally scaled
// Hawkeye control plane. In primary mode it is a durable analyzer
// named on the cluster's consistent-hash ring; in follower mode it
// replicates a primary's WAL over the wire into its own durable
// directory and can promote itself into a serving primary when the
// primary stays unreachable.
//
// Usage:
//
//	# primary: a named, durable, replication-capable analyzer
//	hawkeye-shardd -listen 127.0.0.1:9401 -shard shard-a -data-dir /var/lib/hawkeye/a
//
//	# follower: mirror shard-a's durable state
//	hawkeye-shardd -follow 127.0.0.1:9401 -data-dir /var/lib/hawkeye/a-standby
//
//	# follower with automatic failover: after 10s without a primary,
//	# promote and serve on -listen
//	hawkeye-shardd -follow 127.0.0.1:9401 -data-dir /var/lib/hawkeye/a-standby \
//	    -listen 127.0.0.1:9401 -shard shard-a -promote-after 10s
//
// Promotion reuses the store's normal snapshot+WAL recovery: the
// follower's directory is byte-compatible with a primary's, so the
// promoted server starts exactly where the acknowledged stream ended.
// Repoint the surviving followers and the front door at the new
// address (hawkeye-fleet -cluster ... health shows who answers).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/fleet"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9401", "TCP listen address (primary mode, or after promotion)")
	shard := flag.String("shard", "", "shard name on the cluster's consistent-hash ring")
	dataDir := flag.String("data-dir", "", "durable store directory (required)")
	follow := flag.String("follow", "", "follower mode: replicate from this primary address")
	promoteAfter := flag.Duration("promote-after", 0,
		"follower mode: promote to primary after this long without a primary connection (0 = never, wait for a signal)")
	readTimeout := flag.Duration("read-timeout", 0, "per-frame read deadline for fabric sessions (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"on SIGTERM, refuse new ingest and wait up to this long for an attached follower to mirror the full admission sequence before exiting (0 = exit immediately)")
	semiSync := flag.Duration("semi-sync", 0,
		"acknowledge a writer-routed record only once a follower holds it durably, bounded by this wait (0 = local durability only)")
	flag.Parse()

	if *dataDir == "" {
		fail(fmt.Errorf("-data-dir is required: a shard without durable state cannot be replicated or promoted"))
	}
	if *follow == "" && *shard == "" {
		fail(fmt.Errorf("-shard is required in primary mode: the ring routes by shard name"))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *follow != "" {
		runFollower(*follow, *listen, *shard, *dataDir, *promoteAfter, *readTimeout, *drainTimeout, *semiSync, sig)
		return
	}
	servePrimary(*listen, *shard, *dataDir, *readTimeout, *drainTimeout, *semiSync, sig)
}

// servePrimary runs the shard as a named durable analyzer until a
// signal drains it.
func servePrimary(listen, shard, dataDir string, readTimeout, drainTimeout, semiSync time.Duration, sig chan os.Signal) {
	s, err := analyzd.ListenOpts(listen, analyzd.Options{
		DataDir:     dataDir,
		Shard:       shard,
		ReadTimeout: readTimeout,
		SemiSync:    semiSync,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("hawkeye-shardd: shard %s serving on %s (store %s, %d records recovered, epoch %d)\n",
		shard, s.Addr(), dataDir, s.Fleet().Seq(), s.Fleet().Epoch())

	<-sig
	drain(s, shard, drainTimeout)
}

// drain is the graceful SIGTERM handoff: refuse new ingest, let an
// attached follower mirror everything already admitted (bounded by
// drainTimeout), then close. A clean handoff means the follower can
// be promoted with zero acked-record loss the moment this process
// exits.
func drain(s *analyzd.Server, shard string, drainTimeout time.Duration) {
	fmt.Println("hawkeye-shardd: draining (ingest refused)")
	if drainTimeout > 0 {
		s.BeginHandoff()
		target := s.Fleet().Seq()
		watermark, caughtUp := s.WaitFollower(drainTimeout)
		switch {
		case caughtUp:
			fmt.Printf("hawkeye-shardd: follower caught up at watermark %d\n", watermark)
		case watermark < target:
			fmt.Fprintf(os.Stderr,
				"hawkeye-shardd: drain timeout: follower at watermark %d, store at %d — promoting it now would lose acked records\n",
				watermark, target)
		default:
			fmt.Fprintf(os.Stderr,
				"hawkeye-shardd: drain timeout: follower holds every record (watermark %d) but has not mirrored epoch %d — promoting it now would not fence this primary\n",
				watermark, s.Fleet().Epoch())
		}
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hawkeye-shardd: close:", err)
	}
	fmt.Printf("hawkeye-shardd: shard %s stopped at seq %d (epoch %d)\n", shard, s.Fleet().Seq(), s.Fleet().Epoch())
}

// runFollower mirrors a primary until a signal stops it — or, with
// -promote-after, until the primary has been unreachable that long, at
// which point the follower promotes itself and serves.
func runFollower(follow, listen, shard, dataDir string, promoteAfter, readTimeout, drainTimeout, semiSync time.Duration, sig chan os.Signal) {
	fl, err := fleet.StartFollower(fleet.FollowerConfig{Addr: follow, Dir: dataDir})
	if err != nil {
		fail(err)
	}
	fmt.Printf("hawkeye-shardd: following %s into %s (watermark %d)\n", follow, dataDir, fl.AckedSeq())

	var down time.Duration
	const probe = time.Second
	ticker := time.NewTicker(probe)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			if err := fl.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "hawkeye-shardd: stop:", err)
			}
			fmt.Printf("hawkeye-shardd: follower stopped at watermark %d (%d records, %d snapshots, %d re-syncs)\n",
				fl.AckedSeq(), fl.Records(), fl.Snapshots(), fl.Resyncs())
			return
		case <-ticker.C:
			if fl.Connected() {
				down = 0
				continue
			}
			down += probe
			if promoteAfter <= 0 || down < promoteAfter {
				continue
			}
		}
		break
	}

	// Promotion: stop replicating, then serve from the follower's own
	// directory — the store's recovery path rebuilds incidents and
	// rollup state from the replicated snapshot + WAL. BumpEpoch claims
	// a higher epoch than the dead primary ever held, so if it comes
	// back it fences itself on first contact with the fleet.
	fmt.Printf("hawkeye-shardd: primary unreachable for %v, promoting at watermark %d\n", down, fl.AckedSeq())
	if err := fl.Stop(); err != nil {
		fail(fmt.Errorf("stop follower: %w", err))
	}
	if shard == "" {
		shard = "promoted"
	}
	s, err := analyzd.ListenOpts(listen, analyzd.Options{
		DataDir:     dataDir,
		Shard:       shard,
		ReadTimeout: readTimeout,
		SemiSync:    semiSync,
		BumpEpoch:   true,
	})
	if err != nil {
		fail(fmt.Errorf("promote: %w", err))
	}
	fmt.Printf("hawkeye-shardd: shard %s promoted, serving on %s at seq %d (epoch %d)\n",
		shard, s.Addr(), s.Fleet().Seq(), s.Fleet().Epoch())

	<-sig
	drain(s, shard, drainTimeout)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hawkeye-shardd:", err)
	os.Exit(1)
}

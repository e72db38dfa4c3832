// Cluster example: the horizontal fleet tier end to end. Three durable
// shards come up, each with a live follower replicating its WAL over
// the wire; a record stream routes across them by the consistent-hash
// ring; one primary is killed mid-stream and its follower promoted;
// then the front door fans a cluster-wide query out and merges the
// answers. The run asserts the fleet tier's contract — no acknowledged
// record lost across the failover, deterministic routing, merged
// rollup windows identical to a single reference summarizer — and
// returns an error on any violation.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hawkeye/internal/fleet"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "hawkeye-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintln(w, "3-shard cluster kill-loop (seed 42): semi-sync replication,")
	fmt.Fprintln(w, "seed-chosen primary kills, follower promotion, front-door merge")
	fmt.Fprintln(w)

	rep, err := fleet.KillLoop(dir, 42, fleet.KillLoopConfig{Rounds: 3})
	if err != nil {
		return fmt.Errorf("cluster contract violated: %w", err)
	}
	fmt.Fprintln(w, rep)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "every one of the %d acknowledged records survived %d failovers,\n",
		rep.Acked, rep.Failovers)
	fmt.Fprintf(w, "and the front door's %d merged rollup windows matched a single\n",
		rep.MergedWindows)
	fmt.Fprintln(w, "reference summarizer exactly — counts, quantiles and heavy hitters.")
	return nil
}

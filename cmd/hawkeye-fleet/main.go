// Command hawkeye-fleet is the operator's window into a running
// analyzer's fleet store: query the clustered incident history, tail
// incident lifecycle events live as fabrics report complaints, probe a
// server's lifecycle health, or inspect a durable store's data
// directory offline (read-only — safe while the analyzer is down).
//
// Usage:
//
//	hawkeye-fleet -addr 127.0.0.1:9393                 # query all incidents
//	hawkeye-fleet -addr 127.0.0.1:9393 -type pfc-storm # filter by anomaly type
//	hawkeye-fleet -addr 127.0.0.1:9393 -from 1ms -to 5ms
//	hawkeye-fleet -addr 127.0.0.1:9393 -tail           # live subscription
//	hawkeye-fleet -addr 127.0.0.1:9393 -tail -n 10     # stop after 10 events
//	hawkeye-fleet -addr 127.0.0.1:9393 -tail -summary  # live rollup summaries
//	hawkeye-fleet -data-dir /var/lib/hawkeye           # offline inspection
//	hawkeye-fleet health -addr 127.0.0.1:9393          # lifecycle + load probe
//	hawkeye-fleet rollups -addr 127.0.0.1:9393         # windowed rollups
//	hawkeye-fleet rollups -sliding 8 -level switch -prefix podA/pod1
//
// Against a sharded cluster, -cluster replaces -addr with the shard
// set (name=addr pairs, or bare addresses auto-named shard-0..) and
// every mode fans out through the front door: incident queries merge
// in first-seen order, rollup windows merge by sketch state, tails
// interleave per-shard events, and health renders a per-shard table
// with replication role, lag and last checkpoint:
//
//	hawkeye-fleet -cluster shard-a=host1:9401,shard-b=host2:9401
//	hawkeye-fleet rollups -cluster host1:9401,host2:9401
//	hawkeye-fleet health -cluster shard-a=host1:9401,shard-b=host2:9401
//
// -ring-seed/-vnodes must match what the writers routing fabrics used,
// or fabric-scoped queries ask the wrong shard.
//
// Tails survive analyzer restarts: on a drain notice or connection
// loss the subscription is re-established with capped exponential
// backoff, and the tail resumes on the new server. Events emitted
// while disconnected are not replayed — query the store for the gap.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleet"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "health" {
		healthCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "rollups" {
		rollupsCmd(os.Args[2:])
		return
	}

	addr := flag.String("addr", "127.0.0.1:9393", "analyzer address")
	cluster := flag.String("cluster", "", "shard set for fan-out: name=addr,... or bare addresses (replaces -addr)")
	ringSeed := flag.Uint64("ring-seed", 0, "consistent-hash ring seed; must match the writers routing fabrics")
	vnodes := flag.Int("vnodes", 0, "ring virtual nodes per shard (0 = default)")
	dataDir := flag.String("data-dir", "", "inspect a durable store directory offline instead of dialing a server")
	tail := flag.Bool("tail", false, "subscribe and stream incident events instead of querying")
	summary := flag.Bool("summary", false, "with -tail: stream live rollup summaries instead of the incident firehose")
	closedOnly := flag.Bool("closed-only", false, "with -tail -summary: only final window summaries")
	n := flag.Int("n", 0, "with -tail: exit after this many events (0 = forever)")
	fabric := flag.String("fabric", "", "filter: fabric name")
	typ := flag.String("type", "", "filter: anomaly type (e.g. pfc-storm)")
	node := flag.Int("node", -1, "filter: initial congestion node ID (-1 = any)")
	from := flag.Duration("from", 0, "filter: span start on the fabric clock (e.g. 1ms)")
	to := flag.Duration("to", 0, "filter: span end (0 = unbounded)")
	limit := flag.Int("limit", 0, "query: cap the incident count (0 = all)")
	flag.Parse()
	rejectPositional(flag.Args())

	if *dataDir != "" {
		if *tail {
			fail(errors.New("-tail needs a live server, not -data-dir"))
		}
		offlineQuery(*dataDir, *fabric, *typ, *node, int64(*from), int64(*to), *limit)
		return
	}
	if *summary && !*tail {
		fail(errors.New("-summary needs -tail (use the rollups subcommand for queries)"))
	}

	if *cluster != "" {
		fd := dialCluster(*cluster, *vnodes, *ringSeed)
		defer fd.Close()
		if *tail {
			if *summary {
				fail(errors.New("-summary tails are per-shard; use `rollups -cluster` for merged windows"))
			}
			clusterTail(fd, wire.SubscribeRequest{Fabric: *fabric, Type: *typ, Node: *node}, *n)
			return
		}
		q := wire.IncidentQuery{
			Fabric: *fabric, Type: *typ, Node: *node,
			FromNS: int64(*from), ToNS: int64(*to), Limit: *limit,
		}
		incs, shardErrs, err := fd.QueryIncidents(q)
		if err != nil {
			fail(err)
		}
		warnShards(shardErrs)
		if len(incs) == 0 {
			fmt.Println("no incidents match")
			return
		}
		for i := range incs {
			printIncident(&incs[i])
		}
		fmt.Printf("%d incident(s) across %d shard(s)\n", len(incs), len(fd.Shards())-len(shardErrs))
		return
	}

	c, err := analyzd.DialOperatorRetry(*addr, tailRetryConfig())
	if err != nil {
		fail(err)
	}
	defer c.Close()

	if *tail {
		if *summary {
			if err := c.SubscribeRollups(wire.RollupSubscribeRequest{ClosedOnly: *closedOnly}); err != nil {
				fail(err)
			}
			fmt.Printf("tailing rollup summaries on %s (ctrl-c to stop)\n", *addr)
			tailLoop(c, *n, func() error {
				ev, err := c.NextRollup()
				if err != nil {
					return err
				}
				printRollupEvent(ev)
				return nil
			})
			return
		}
		req := wire.SubscribeRequest{Fabric: *fabric, Type: *typ, Node: *node}
		if err := c.Subscribe(req); err != nil {
			fail(err)
		}
		fmt.Printf("tailing incidents on %s (ctrl-c to stop)\n", *addr)
		tailLoop(c, *n, func() error {
			ev, err := c.NextEvent()
			if err != nil {
				return err
			}
			printEvent(ev)
			return nil
		})
		return
	}

	q := wire.IncidentQuery{
		Fabric: *fabric,
		Type:   *typ,
		Node:   *node,
		FromNS: int64(*from),
		ToNS:   int64(*to),
		Limit:  *limit,
	}
	incs, err := c.QueryIncidents(q)
	if err != nil {
		fail(err)
	}
	if len(incs) == 0 {
		fmt.Println("no incidents match")
		return
	}
	for i := range incs {
		printIncident(&incs[i])
	}
	fmt.Printf("%d incident(s)\n", len(incs))
}

// parseCluster turns "-cluster a=h1:9401,b=h2:9401" (or bare addresses,
// auto-named shard-0.. in listed order) into shard specs.
func parseCluster(s string) ([]fleet.ShardSpec, error) {
	parts := strings.Split(s, ",")
	specs := make([]fleet.ShardSpec, 0, len(parts))
	named := false
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if name, addr, ok := strings.Cut(p, "="); ok {
			named = true
			specs = append(specs, fleet.ShardSpec{Name: name, Addr: addr})
			continue
		}
		if named {
			return nil, fmt.Errorf("mix of named and bare shards in %q", s)
		}
		specs = append(specs, fleet.ShardSpec{Name: fmt.Sprintf("shard-%d", i), Addr: p})
	}
	if len(specs) == 0 {
		return nil, errors.New("-cluster lists no shards")
	}
	return specs, nil
}

func dialCluster(cluster string, vnodes int, seed uint64) *fleet.Frontdoor {
	specs, err := parseCluster(cluster)
	if err != nil {
		fail(err)
	}
	fd, err := fleet.NewFrontdoor(specs, vnodes, seed)
	if err != nil {
		fail(err)
	}
	return fd
}

// warnShards surfaces partial fan-out failures without failing the
// query: the merged answer below it covers the shards that did reply.
func warnShards(errs []fleet.ShardError) {
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "hawkeye-fleet: warning: shard %s unavailable: %v\n", e.Shard, e.Err)
	}
}

// clusterTail streams the merged incident tail, each event tagged with
// its source shard.
func clusterTail(fd *fleet.Frontdoor, req wire.SubscribeRequest, n int) {
	tail, shardErrs, err := fd.Subscribe(req, 256)
	if err != nil {
		fail(err)
	}
	defer tail.Close()
	warnShards(shardErrs)
	fmt.Printf("tailing incidents across %d shard(s) (ctrl-c to stop)\n", len(fd.Shards())-len(shardErrs))
	i := 0
	for ev := range tail.Events() {
		fmt.Printf("[%s] ", ev.Shard)
		printEvent(&ev.Event)
		if i++; n > 0 && i >= n {
			return
		}
	}
	fmt.Println("every shard session ended")
}

// tailRetryConfig is patient: a tail is a long-lived watch, so it
// rides out an analyzer restart (drain + replay can take seconds)
// instead of giving up on the reporting client's tight schedule.
func tailRetryConfig() analyzd.RetryConfig {
	rc := analyzd.DefaultRetryConfig()
	rc.MaxAttempts = 20
	rc.BaseBackoff = 100 * time.Millisecond
	rc.MaxBackoff = 3 * time.Second
	return rc
}

// tailLoop pumps events through next, resubscribing with backoff when
// the server drains or the connection drops, so the tail survives an
// analyzer restart. Only a failed resubscription ends the loop.
func tailLoop(c *analyzd.Client, n int, next func() error) {
	for i := 0; n == 0 || i < n; i++ {
		if err := next(); err != nil {
			if errors.Is(err, analyzd.ErrServerDraining) {
				fmt.Println("server draining; reconnecting...")
			} else {
				fmt.Printf("tail interrupted (%v); reconnecting...\n", err)
			}
			if err := c.Resubscribe(); err != nil {
				fail(fmt.Errorf("resubscribe: %w", err))
			}
			fmt.Println("subscription restored")
			i-- // the failed read produced no event
			continue
		}
	}
}

// rejectPositional fails on leftover arguments: subcommands go before
// flags, so `hawkeye-fleet -addr X rollups` would otherwise silently
// run the default incident query instead of the rollups command.
func rejectPositional(rest []string) {
	if len(rest) > 0 {
		fail(fmt.Errorf("unexpected argument %q (subcommands go first: hawkeye-fleet %s -addr ...)", rest[0], rest[0]))
	}
}

// rollupsCmd queries the analyzer's windowed rollups.
func rollupsCmd(args []string) {
	fs := flag.NewFlagSet("rollups", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9393", "analyzer address")
	cluster := fs.String("cluster", "", "shard set for fan-out: name=addr,... or bare addresses (replaces -addr)")
	ringSeed := fs.Uint64("ring-seed", 0, "consistent-hash ring seed; must match the writers routing fabrics")
	vnodes := fs.Int("vnodes", 0, "ring virtual nodes per shard (0 = default)")
	windows := fs.Int("windows", 0, "return only the most recent N windows (0 = all retained)")
	sliding := fs.Int("sliding", 0, "also merge the last N windows into one sliding view")
	level := fs.String("level", "", "drill down to one hierarchy level: fabric, pod, switch or port")
	prefix := fs.String("prefix", "", "drill down to keys under this path prefix (e.g. fabA/pod2)")
	closed := fs.Bool("closed-only", false, "exclude still-open windows")
	fs.Parse(args)
	rejectPositional(fs.Args())

	q := wire.RollupQuery{
		Windows:    *windows,
		Sliding:    *sliding,
		Level:      *level,
		Prefix:     *prefix,
		ClosedOnly: *closed,
	}
	var res *wire.RollupResult
	var err error
	if *cluster != "" {
		fd := dialCluster(*cluster, *vnodes, *ringSeed)
		defer fd.Close()
		var shardErrs []fleet.ShardError
		res, shardErrs, err = fd.QueryRollups(q)
		if err != nil {
			fail(err)
		}
		warnShards(shardErrs)
	} else {
		c, err2 := analyzd.DialOperator(*addr)
		if err2 != nil {
			fail(err2)
		}
		defer c.Close()
		res, err = c.QueryRollups(q)
		if err != nil {
			fail(err)
		}
	}
	if len(res.Windows) == 0 {
		fmt.Println("no rollup windows")
		return
	}
	for i := range res.Windows {
		printSummary(&res.Windows[i])
	}
	fmt.Printf("%d window(s)\n", len(res.Windows))
	if res.Sliding != nil {
		fmt.Println("sliding view:")
		printSummary(res.Sliding)
	}
}

// healthCmd probes a server's lifecycle state and load counters.
func healthCmd(args []string) {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9393", "analyzer address")
	cluster := fs.String("cluster", "", "shard set: name=addr,... or bare addresses; renders a per-shard table")
	ringSeed := fs.Uint64("ring-seed", 0, "consistent-hash ring seed")
	vnodes := fs.Int("vnodes", 0, "ring virtual nodes per shard (0 = default)")
	fs.Parse(args)
	rejectPositional(fs.Args())

	if *cluster != "" {
		fd := dialCluster(*cluster, *vnodes, *ringSeed)
		defer fd.Close()
		clusterHealth(fd)
		return
	}

	c, err := analyzd.DialOperator(*addr)
	if err != nil {
		fail(err)
	}
	defer c.Close()
	h, err := c.Health()
	if err != nil {
		fail(err)
	}
	store := "in-memory"
	if h.Durable {
		store = "durable (WAL + snapshots)"
	}
	fmt.Printf("state: %s\n", h.State)
	fmt.Printf("store: %s\n", store)
	fmt.Printf("ingest load: %.0f%% (%d ingested, %d dropped)\n", h.Load*100, h.Ingested, h.Dropped)
	fmt.Printf("sessions: %d, diagnoses: %d, open incidents: %d\n",
		h.Sessions, h.Diagnoses, h.OpenIncidents)
	fmt.Printf("shed: %d subscriptions, %d queries, %d rollup subscriptions\n",
		h.ShedSubscriptions, h.ShedQueries, h.ShedRollups)
	fmt.Printf("rollups: %d windows open, %d closed, %d sketch evictions, %d bytes\n",
		h.RollupWindowsOpen, h.RollupWindowsClosed, h.RollupEvictions, h.RollupBytes)
	if h.WALErrors > 0 {
		fmt.Printf("WARNING: %d WAL errors (records kept in memory only)\n", h.WALErrors)
	}
}

// clusterHealth renders the per-shard table: identity, lifecycle
// state, replication role, epoch and lag, and the last durable
// checkpoint. A dead shard is a row, not an error — the table is how
// an operator finds which follower to promote. Exits non-zero when a
// shard is down, fenced, or its follower mirrors a different epoch
// than the primary holds: a split epoch view means a failover or
// cutover is half-applied, and promoting the follower now would fork
// history.
func clusterHealth(fd *fleet.Frontdoor) {
	rows := fd.Health()
	w := func(cols ...string) {
		fmt.Printf("%-12s %-22s %-9s %-9s %8s %10s %10s %8s %10s %s\n",
			cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7], cols[8], cols[9])
	}
	w("SHARD", "ADDR", "STATE", "ROLE", "EPOCH", "SEQ", "FOLLOWER", "LAG", "LASTCKPT", "LOAD")
	healthy := 0
	split := 0
	for _, row := range rows {
		if row.Err != nil {
			w(row.Spec.Name, row.Spec.Addr, "down", "-", "-", "-", "-", "-", "-", row.Err.Error())
			continue
		}
		info := row.Info
		epoch := fmt.Sprintf("%d", info.Epoch)
		ok := true
		if info.Fenced {
			epoch += "!fenced"
			ok = false
		}
		if info.Replicas > 0 && info.FollowerEpoch != info.Epoch {
			epoch += fmt.Sprintf("!=%d", info.FollowerEpoch)
			ok = false
		}
		if ok {
			healthy++
		} else {
			split++
		}
		load := fmt.Sprintf("%.0f%% (%d open inc)", row.Health.Load*100, row.Health.OpenIncidents)
		follower := "-"
		lag := "-"
		if info.Replicas > 0 {
			follower = fmt.Sprintf("%d", info.FollowerSeq)
			lag = fmt.Sprintf("%d", info.Lag)
		}
		w(row.Spec.Name, row.Spec.Addr, row.Health.State, info.Role, epoch,
			fmt.Sprintf("%d", info.Seq), follower, lag,
			fmt.Sprintf("%d", info.LastSnapshotSeq), load)
	}
	fmt.Printf("%d/%d shard(s) healthy\n", healthy, len(rows))
	if split > 0 {
		fmt.Printf("%d shard(s) fenced or with a split epoch view\n", split)
	}
	if healthy < len(rows) {
		os.Exit(1)
	}
}

// offlineQuery opens a durable store directory read-only and prints the
// matching incidents — the post-mortem path when the analyzer is down.
func offlineQuery(dir, fabric, typ string, node int, fromNS, toNS int64, limit int) {
	st, err := fleetstore.Open(dir, fleetstore.Config{ReadOnly: true})
	if err != nil {
		fail(err)
	}
	rec := st.Recovery()
	fmt.Printf("store %s: %d records replayed", dir, st.ReplayedRecords())
	if rec.Torn {
		fmt.Printf(" (torn tail: %d bytes truncated, %d segments dropped)",
			rec.TornBytes, rec.DroppedSegments)
	}
	fmt.Println()

	q := fleetstore.Query{
		Fabric: fabric,
		Node:   fleetstore.AnyNode,
		From:   sim.Time(fromNS),
		To:     sim.Time(toNS),
		Limit:  limit,
	}
	if node >= 0 {
		q.Node = topo.NodeID(node)
	}
	if typ != "" {
		t, ok := diagnosis.ParseAnomalyType(typ)
		if !ok {
			fail(fmt.Errorf("unknown anomaly type %q", typ))
		}
		q.Types = []diagnosis.AnomalyType{t}
	}
	incs := st.Incidents(q)
	if len(incs) == 0 {
		fmt.Println("no incidents match")
		return
	}
	for i := range incs {
		inc := &incs[i]
		w := wire.FleetIncident{
			ID:       inc.ID,
			Type:     inc.Type.String(),
			FirstNS:  int64(inc.First),
			LastNS:   int64(inc.Last),
			Fabrics:  inc.Fabrics,
			Culprits: inc.Culprits,
			Resolved: inc.Resolved,
			Summary:  inc.Summary(),
			Constant: inc.Constant,
			Varying:  inc.Varying,
		}
		printIncident(&w)
	}
	fmt.Printf("%d incident(s)\n", len(incs))
}

func printRollupEvent(ev *wire.RollupEvent) {
	s := &ev.Summary
	fmt.Printf("[%s] %v .. %v  %d record(s)  %s\n",
		strings.ToUpper(ev.Kind), sim.Time(s.StartNS), sim.Time(s.EndNS), s.Records, s.Headline)
}

// printSummary renders one rollup window: headline, attribute counts,
// per-level heavy hitters and the latency/confidence distributions.
func printSummary(s *wire.RollupSummary) {
	state := "open"
	if s.Closed {
		state = "closed"
	}
	fmt.Printf("window %v .. %v (%s) %d record(s)  %s\n",
		sim.Time(s.StartNS), sim.Time(s.EndNS), state, s.Records, s.Headline)
	printCounts("types", s.ByType)
	printCounts("causes", s.ByCause)
	printCounts("confidence", s.ByConfidence)
	for _, level := range rollup.Levels {
		hits := s.Top[level]
		if len(hits) == 0 {
			continue
		}
		parts := make([]string, len(hits))
		for i, h := range hits {
			parts[i] = fmt.Sprintf("%s=%d(±%d)", h.Key, h.Count, h.Err)
		}
		fmt.Printf("    top %-6s %s\n", level, strings.Join(parts, " "))
	}
	if s.StallNS.Count > 0 {
		fmt.Printf("    stall p50=%v p90=%v p99=%v max=%v\n",
			time.Duration(s.StallNS.P50), time.Duration(s.StallNS.P90),
			time.Duration(s.StallNS.P99), time.Duration(s.StallNS.Max))
	}
	if s.Score.Count > 0 {
		fmt.Printf("    score p50=%.2f p90=%.2f max=%.2f\n", s.Score.P50, s.Score.P90, s.Score.Max)
	}
	fmt.Printf("    sketch: %d bytes, %d evictions\n", s.Bytes, s.Evictions)
}

func printCounts(label string, m map[string]uint64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	fmt.Printf("    %-10s %s\n", label, strings.Join(parts, " "))
}

func printEvent(ev *wire.IncidentEvent) {
	inc := &ev.Incident
	fmt.Printf("[%s] #%d %s\n", strings.ToUpper(ev.Kind), inc.ID, inc.Summary)
}

func printIncident(inc *wire.FleetIncident) {
	state := "open"
	if inc.Resolved {
		state = "resolved"
	}
	fmt.Printf("#%d (%s) %v .. %v  %s\n",
		inc.ID, state, sim.Time(inc.FirstNS), sim.Time(inc.LastNS), inc.Summary)
	if len(inc.Fabrics) > 0 {
		fmt.Printf("    fabrics: %s\n", strings.Join(inc.Fabrics, ", "))
	}
	if len(inc.Culprits) > 0 {
		fmt.Printf("    culprits: %s\n", strings.Join(inc.Culprits, ", "))
	}
	// The attribute partition: what every complaint agreed on, and
	// which dimensions spread.
	for k, v := range inc.Constant {
		fmt.Printf("    constant %s = %s\n", k, v)
	}
	for k, vals := range inc.Varying {
		fmt.Printf("    varying  %s across %d values\n", k, len(vals))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hawkeye-fleet:", err)
	os.Exit(1)
}

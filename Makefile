# Standard library only; the targets below are the whole toolchain.

GO ?= go
comma := ,

# run-tests is `go test -run '<regex>' <flags and packages>` that fails
# when any |-separated alternative of the regex matches no test: `go
# test -run` exits 0 on "no tests to run", and a dead alternative inside
# 'TestA|TestB' passes on its live sibling, so a renamed test would
# otherwise turn its part of a smoke line into a silent pass. The
# alternatives are checked against one `go test -list .` of the same
# command line. $(1) is the regex, $(2) the rest of the command line.
define run-tests
@echo "$(GO) test -run '$(1)' $(2)"; \
list=`$(GO) test -list . $(2) 2>&1` || { echo "$$list"; exit 1; }; \
list=`echo "$$list" | grep -E '^(Test|Fuzz|Example|Benchmark)'`; \
alts='$(1)'; set -f; IFS='|'; \
for alt in $$alts; do echo "$$list" | grep -qE -- "$$alt" || { echo "FAIL: -run alternative '$$alt' matches no test" >&2; exit 1; }; done; \
unset IFS; set +f; \
out=`$(GO) test -run '$(1)' $(2) 2>&1`; rc=$$?; echo "$$out"; \
[ $$rc -eq 0 ] || exit $$rc
endef

.PHONY: check build vet test race no-poll sync-stress benchmark fleet-race chaos-smoke recovery-smoke fuzz-smoke rollup-smoke cluster-smoke reshard-smoke host-smoke

# check is the CI gate: compile everything, vet, the no-poll guard,
# full race-enabled tests, then the synchronisation-heavy packages
# repeated at one and two cores.
check: build vet no-poll race sync-stress

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# no-poll keeps the fleet tier's waits event-driven: the replicated
# write path (WAL group commit, follower ack, semi-sync wait, reshard
# hold) blocks on the event it is waiting for, because a sub-millisecond
# timer costs a millisecond and three in series made a write 20x the
# disk's cost. Any timer or sleep in these packages' non-test code fails
# the build unless it is listed here — and what is listed is a delay
# that is itself the policy (a backoff, a deadline), never a stand-in
# for a wake-up.
NO_POLL_DIRS := internal/fleetstore internal/fleet internal/analyzd
# the client's backoff between redials (RetryConfig.Sleep's default)
NO_POLL_ALLOW += -e '^internal/analyzd/client\.go:[0-9]+:.*sleep = time\.Sleep$$'
# the writer's backoff between resends, same schedule
NO_POLL_ALLOW += -e '^internal/fleet/writer\.go:[0-9]+:.*time\.Sleep\(w\.cfg\.Retry\.Delay\('
# the follower's backoff between re-syncs, in run
NO_POLL_ALLOW += -e '^internal/fleet/follower\.go:[0-9]+:.*<-time\.After\(backoff\.Delay\('
# the deadline arm of watermark.Wait: fires only when the event never comes
NO_POLL_ALLOW += -e '^internal/fleetstore/watermark/watermark\.go:[0-9]+:.*timer = time\.NewTimer\(d\)$$'
no-poll:
	@hits=`grep -rnE 'time\.(Sleep|NewTimer|NewTicker|After|AfterFunc|Tick)\b' --include='*.go' --exclude='*_test.go' $(NO_POLL_DIRS) \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -vE $(NO_POLL_ALLOW)`; \
	if [ -n "$$hits" ]; then echo "$$hits"; \
		echo "FAIL: timer or sleep on the fleet tier; wait on the event (internal/fleetstore/watermark) or allowlist the delay in the Makefile" >&2; exit 1; fi; \
	echo "no-poll: ok"

# sync-stress repeats the packages whose tests lean on goroutine
# synchronisation at GOMAXPROCS 1 and 2 (-cpu), three times each: a test
# that passes only on a wide machine, or only sometimes, fails here.
sync-stress:
	$(call run-tests,.,-count=3 -cpu 1$(comma)2 ./internal/fleetstore/... ./internal/fleet ./internal/analyzd)

# fleet-race is the fast loop while working on the ingest pipeline.
fleet-race:
	$(GO) test -race ./internal/fleetstore ./internal/analyzd

# chaos-smoke proves the fault-injection contract end to end: replay
# determinism, the degraded-confidence sweep, and the retrying client.
chaos-smoke:
	$(GO) test ./internal/chaos
	$(call run-tests,TestChaosDeterminism|TestRobustnessConfidenceSweep,./internal/experiments)
	$(call run-tests,TestDial|TestDiagnoseSurvives|TestRetry|TestHandshake,./internal/analyzd)

# recovery-smoke proves the crash-safety contract: a 20-seed
# crash-restart sweep over the durable fleet store under the race
# detector (torn WAL tails, snapshot+delta recovery, exactly-once
# acked records, no incident-ID reuse), plus the WAL corruption and
# server lifecycle suites.
recovery-smoke:
	$(call run-tests,TestCrashRestart,-race ./internal/chaos -crash.seeds=20)
	$(GO) test -race ./internal/fleetstore/wal
	$(call run-tests,TestOpen|TestReopen|TestCheckpoint|TestSnapshot|TestEviction|TestReplay,-race ./internal/fleetstore)
	$(call run-tests,TestShed|TestThrottle|TestClose|TestDrain|TestHealth|TestServerRestart,-race ./internal/analyzd)

# fuzz-smoke runs every native fuzz target for 10s over the committed
# corpora (testdata/fuzz/) plus fresh mutations — the hostile-input
# gate. A finding is committed back as a corpus seed so it replays
# deterministically forever after.
fuzz-smoke:
	$(GO) test -fuzz='^FuzzReadFrame$$' -fuzztime=10s -run='^$$' ./internal/wire
	$(GO) test -fuzz='^FuzzHello$$' -fuzztime=10s -run='^$$' ./internal/wire
	$(GO) test -fuzz='^FuzzDecodeReport$$' -fuzztime=10s -run='^$$' ./internal/telemetry
	$(GO) test -fuzz='^FuzzIncidentQuery$$' -fuzztime=10s -run='^$$' ./internal/analyzd
	$(GO) test -fuzz='^FuzzWALRecord$$' -fuzztime=10s -run='^$$' ./internal/fleetstore/wal
	$(GO) test -fuzz='^FuzzReplicationRecord$$' -fuzztime=10s -run='^$$' ./internal/wire
	$(GO) test -fuzz='^FuzzFenceFrame$$' -fuzztime=10s -run='^$$' ./internal/wire
	$(GO) test -fuzz='^FuzzHostReport$$' -fuzztime=10s -run='^$$' ./internal/telemetry

# host-smoke proves the host-vs-network attribution contract: the
# 200-seed degraded-mode property sweep under the race detector (host
# telemetry present -> the pathology is attributed host-side at the
# sick host; absent -> never a high-confidence network verdict), the
# mixed host/network evaluation with its >= 90% attribution floor, the
# host-telemetry robustness curve, and the pathology model suite. The
# hostside example rides along.
host-smoke:
	$(call run-tests,TestHostAttributionProperty,-race ./internal/experiments -host.seeds=200 -timeout 40m)
	$(call run-tests,TestHostEvalAccuracy|TestMixedRobustnessConfidence,-race ./internal/experiments -timeout 20m)
	$(GO) test -race ./internal/host
	$(GO) run ./examples/hostside

# cluster-smoke proves the scale-out contract: a 20-seed kill-loop over
# a 3-shard cluster under the race detector — every shard a durable
# primary with a live TCP follower, records routed by the
# consistent-hash ring and acknowledged only when the follower holds
# them durably, a seed-chosen primary killed and its follower promoted
# every round — asserting no acked record lost, deterministic routing,
# and front-door rollup merges identical to a single-store reference.
# The ring/follower/frontdoor suites and the cluster example ride
# along.
cluster-smoke:
	$(call run-tests,TestKillLoop,-race ./internal/fleet -fleet.seeds=20)
	$(call run-tests,TestRing|TestFollower|TestFrontdoor,-race ./internal/fleet)
	$(GO) run ./examples/cluster

# reshard-smoke proves the failover-under-migration contract: a
# 20-seed partition+reshard loop over a 3-shard cluster under the race
# detector — a self-healing writer routing ingest by the ring, a
# mid-round online reshard (freeze -> copy -> release -> adopt) racing
# the writes, the primary killed and its follower promoted with an
# epoch bump every round, and the old primary revived behind a
# partition to prove the fence: zero post-fence acks, exactly-once
# acked records across moves and failovers, and front-door rollup
# merges identical to a single-store reference. The writer, executor
# and epoch suites ride along.
reshard-smoke:
	$(call run-tests,TestReshardLoop,-race ./internal/fleet -fleet.reshard.seeds=20)
	$(call run-tests,TestWriter|TestExecutor|TestShardPool|TestDoubleFailover,-race ./internal/fleet)
	$(call run-tests,TestEpoch|TestAddUnique|TestFreeze|TestPurgeAdopt,-race ./internal/fleetstore)

# rollup-smoke proves the summarization contract end to end: the
# three-fabric example must produce a rollup stream >= 10x quieter than
# the raw incident firehose with drill-down recovering the constituent
# incidents (it exits non-zero otherwise), backed by the sketch
# error-bound and memory-cap suites and the wire-level rollup tests.
rollup-smoke:
	$(GO) run ./examples/rollup
	$(GO) test -race ./internal/rollup
	$(call run-tests,TestRollup|TestResubscribe,-race ./internal/analyzd)

# benchmark exercises the repository benchmark (BENCHMARK.json): its
# own vet and contract tests, then one short read-path run so the
# workload code cannot rot unexercised. A perf claim is ten or more
# `go run ./benchmark -out DIR` pairs judged by `-compare A B`; see
# benchmark/README.md.
benchmark:
	$(GO) vet ./benchmark
	$(GO) test ./benchmark
	$(GO) run ./benchmark -workload fleet_read -seconds 3

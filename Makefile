GO ?= go

.PHONY: build vet delay-guard test test-short test-race stress bench-check-build chaos chaos-autopilot chaos-overload chaos-frontdoor bench-fig7 bench-fig10 bench-commit bench-compress bench-overload bench-frontdoor trace-demo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet delay-guard chaos bench-check-build
	$(GO) test ./...

# One injected-delay path: non-test code in simnet, paxos and dn waits
# out simulated time only through simnet.Delay, the deadline queue in
# internal/simnet/delay.go that a virtual-time scheduler can replace.
# Fails on any time.Sleep in those packages' non-test code.
delay-guard:
	@bad=$$(find internal/simnet internal/paxos internal/dn -name '*.go' ! -name '*_test.go' \
		-exec grep -Hn 'time\.Sleep' {} +); \
	[ -z "$$bad" ] || { echo "time.Sleep in simnet/paxos/dn non-test code (use simnet.Delay):"; echo "$$bad"; exit 1; }

# benchmark/ is its own Go module, so `go build ./... && go test ./...`
# never compiles it: an internal/ API edit can break the standing
# benchmark unnoticed. This compiles, vets and tests it (~10 s).
bench-check-build:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# Fault-injection suite under the race detector: the simnet fabric
# itself, the 2PC crash-window tests, the cluster-level recovery-loop
# tests, and Paxos failover on a lossy link. Seeds are fixed inside
# the tests, so failures reproduce deterministically.
chaos: chaos-autopilot chaos-overload chaos-frontdoor
	$(GO) test -race ./internal/simnet/
	$(GO) test -race -run 'Chaos|CoordinatorCrash|PartitionedPrimary|DuplicatedCommitPoint|LossyLinks|Pipeline|GroupCommit' \
		./internal/txn/ ./internal/core/ ./internal/paxos/

# Overload-protection suite under the race detector: the admission
# controller and retry/breaker unit tests, the core-level concurrent
# Execute stress, and the 10x-offered-load chaos scenario with a
# jitter-faulted DN (goodput must hold, admitted-TP p99 must stay
# bounded by the statement deadline, and nothing may wedge).
chaos-overload:
	$(GO) test -race ./internal/admission/ ./internal/retry/
	$(GO) test -race -run 'TestAdmission|TestStatementTimeout' ./internal/core/
	$(GO) test -race -run 'TestChaosOverload' -v ./internal/testcluster/

# Front-door suite under the race detector: the wire-protocol and
# server unit tests, the session-busy / prepared-epoch / slow-query-
# ring regression tests, and the 10,000-connection chaos scenario —
# jittered links, a mid-round DN leader kill, goodput floors per
# round, principled-error-only failures, a deadline-bounded admitted
# tail, and zero per-connection server state after the fleet closes.
chaos-frontdoor:
	$(GO) test -race ./internal/srv/
	$(GO) test -race -run 'TestSession|TestPrepared|TestSlowQuery|TestPerTenant' ./internal/core/
	$(GO) test -race -run 'TestChaosFrontdoor' -v ./internal/testcluster/

# Elastic-autopilot convergence suite: a moving hotspot under sustained
# sysbench traffic with drop/dup/jitter link faults and a mid-migration
# coordinator crash, asserting skew and p99 recover within a bounded
# window with no manual intervention. The TestCluster logs its chaos
# fault seed on startup so any failure reproduces deterministically.
chaos-autopilot:
	$(GO) test -race ./internal/autopilot/
	$(GO) test -race -run 'TestChaosAutopilot' -v ./internal/testcluster/

test-short:
	$(GO) test -short ./...

# The concurrency-sensitive paths (batched RPC fan-out, plan cache,
# 2PC) are exercised under the race detector. The executor, the column
# index, and the tracing/metrics layer run first and explicitly: every
# statement's pooled batches move through bounded exchange queues, and
# the lock-cheap metrics instruments are shared-memory surfaces too.
test-race: vet
	$(GO) test -race ./internal/executor/ ./internal/colindex/ ./internal/obs/ ./internal/vector/
	$(GO) test -race ./...

# "Green under load and at more than one GOMAXPROCS" (ROADMAP ground
# rule): PKGS run N times each at -cpu 1,2,4 while internal/bench, the
# heaviest suite, runs beside them over and over until they finish.
# Fails if either side fails. SKIP, when set, is passed to go test -skip,
# so a package can be stressed while a known failure in it stays open.
#   make stress PKGS="./internal/core" N=10
#   make stress PKGS=./internal/storage SKIP=TestConcurrentTransfersConserveMoney
N ?= 50
PKGS ?= ./internal/executor ./internal/sql ./internal/admission
SKIP ?=
stress:
	@stop=$$(mktemp -u); log=$$(mktemp); \
	( while [ ! -e $$stop ]; do $(GO) test -count=1 ./internal/bench > $$log 2>&1 || exit 1; done ) & load=$$!; \
	$(GO) test -count=$(N) -cpu 1,2,4 $(if $(SKIP),-skip '$(SKIP)') $(PKGS); rc=$$?; \
	touch $$stop; wait $$load; lrc=$$?; \
	[ $$lrc -eq 0 ] || { echo "stress: internal/bench failed beside the run:"; cat $$log; }; \
	rm -f $$stop $$log; \
	[ $$rc -eq 0 ] && [ $$lrc -eq 0 ]

# Fig. 7 benches plus the CN fast-path point-read benchmark
# (batched per-DN fan-out, cross-DC topology).
bench-fig7:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkPointReadBatch' ./internal/bench/...

# Fig. 10 TPC-H benches (serial vs MPP vs column index).
bench-fig10:
	$(GO) test -run '^$$' -bench 'BenchmarkFig10' -benchtime 1x .

# Commit-pipeline benchmark: sustained multi-client commit throughput
# over a fixed 3-DC RTT matrix, group commit on vs off (the seed's
# flush-per-MTR path), plus the Go micro-benchmark. The sweep writes
# BENCH_commit.json as the standing record.
bench-commit:
	$(GO) run ./cmd/polardbx-bench -exp commit -commit-out BENCH_commit.json
	$(GO) test -run '^$$' -bench 'BenchmarkCommitThroughput' ./internal/paxos/

# Compression experiment: column-index footprint against the logical row
# bytes and scan throughput on encoded vectors (Fig. 10 query shapes),
# Paxos log-shipping compression ratio, and PolarFS replication bytes
# moved. Writes BENCH_compress.json as the standing record, then runs the
# Fig. 10 column-index benchmark with allocation and bytes-scanned
# reporting.
bench-compress:
	$(GO) run ./cmd/polardbx-bench -exp compress -compress-out BENCH_compress.json
	$(GO) test -run '^$$' -bench 'BenchmarkFig10ColumnIndex' -benchtime 1x .

# Overload sweep: one CN with bounded admission and a 250ms statement
# deadline driven at 1x/5x/10x capacity against a jitter-faulted DN.
# Records goodput, admitted-TP p99 and shed fraction per level; writes
# BENCH_overload.json as the standing record.
bench-overload:
	$(GO) run ./cmd/polardbx-bench -exp overload -overload-out BENCH_overload.json

# Front-door connection ramp: 100 / 1,000 / 10,000 wire connections
# multiplexed onto a fixed CN pool, each with a prepared point select,
# paced by a think time with jittered exponential backoff on shed.
# Goodput at 10k must hold within 10% of the 1k plateau and the
# admitted p99 must stay bounded by the statement deadline; writes
# BENCH_frontdoor.json as the standing record.
bench-frontdoor:
	$(GO) run ./cmd/polardbx-bench -exp frontdoor -frontdoor-out BENCH_frontdoor.json

# End-to-end observability demo: span trees for a fan-out read and a
# 2PC write, EXPLAIN ANALYZE, the slow-query log, and a metrics
# snapshot, on a 2-DC cluster with realistic link latencies.
trace-demo:
	$(GO) run ./examples/trace

GO ?= go

.PHONY: build vet fmt-check delay-guard contended test test-short test-race fuzz stress allocprof bench-check-build chaos chaos-autopilot chaos-overload chaos-frontdoor bench-fig7 bench-fig10 bench-commit bench-compress bench-overload bench-frontdoor trace-demo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet fmt-check delay-guard contended chaos bench-check-build
	$(GO) test ./...

# Fails on any Go file of the root module (benchmark/ is its own module)
# that gofmt would rewrite.
fmt-check:
	@bad=$$(find . -name '*.go' ! -path './benchmark/*' -exec gofmt -l {} +); \
	[ -z "$$bad" ] || { echo "gofmt would rewrite:"; echo "$$bad"; exit 1; }

# The lost-update regressions (§IV: a writer leaves ACTIVE before it
# draws its timestamp), repeated at several GOMAXPROCS: the storage-level
# transfer ledger and the SQL-level contended counter.
contended:
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestConcurrentTransfersConserveMoney' ./internal/storage/
	$(GO) test -count=20 -cpu 1,2,4 -run 'TestContendedCounterLosesNoIncrement' ./internal/core/

# One injected-delay path: non-test code in simnet, paxos, dn and mt
# waits out simulated time only through simnet.Delay, the deadline queue in
# internal/simnet/delay.go that a virtual-time scheduler can replace.
# Fails on any time.Sleep in those packages' non-test code.
delay-guard:
	@bad=$$(find internal/simnet internal/paxos internal/dn internal/mt -name '*.go' ! -name '*_test.go' \
		-exec grep -Hn 'time\.Sleep' {} +); \
	[ -z "$$bad" ] || { echo "time.Sleep in simnet/paxos/dn/mt non-test code (use simnet.Delay):"; echo "$$bad"; exit 1; }

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
# ring regression tests, the shape-path tests (sessions sharing one
# CN's shape bindings), and the 10,000-connection chaos scenario —
# jittered links, a mid-round DN leader kill, goodput floors per
# round, principled-error-only failures, a deadline-bounded admitted
# tail, and zero per-connection server state after the fleet closes.
chaos-frontdoor:
	$(GO) test -race ./internal/srv/
	$(GO) test -race -run 'TestSession|TestPrepared|TestSlowQuery|TestPerTenant|TestShape' ./internal/core/
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
# Replication runs first as well: each RO replica's tail loop reads the
# instance's redo log while purge, eviction and Stop race it. So do the
# lexer, shape pass and plan cache: every session of a CN shares its
# shape bindings and plan skeletons, and a plan-cache hit is copy on
# write, so each instance shares the skeleton's unparameterized subtrees
# with the executor and the DN handlers of every other session; the
# core shape and prepared-statement tests drive that sharing against a
# prepared statement re-binding its own AST.
test-race: vet
	$(GO) test -race ./internal/dn/ ./internal/paxos/ ./internal/wal/
	$(GO) test -race ./internal/sql/ ./internal/optimizer/
	$(GO) test -race -run 'TestShape|TestPrepared' ./internal/core/
	$(GO) test -race ./internal/executor/ ./internal/colindex/ ./internal/obs/ ./internal/vector/
	$(GO) test -race ./...

# Every Fuzz* target, found with `go test -list`, fuzzed for FUZZTIME
# each. Not part of `make test`: tier-1 `go test` replays each target's
# seeds and testdata/fuzz/ corpus only. A failing input is written to the
# package's testdata/fuzz/, where tier-1 then replays it.
#   make fuzz FUZZTIME=30s
FUZZTIME ?= 30s
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
		while read pkg target; do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done

# "Green under load and at more than one GOMAXPROCS" (ROADMAP ground
# rule): PKGS run N times each at -cpu 1,2,4 while internal/bench, the
# heaviest suite, runs beside them over and over until they finish.
# Fails if either side fails. SKIP, when set, is passed to go test -skip,
# so a package can be stressed while a known failure in it stays open.
#   make stress PKGS="./internal/core" N=10
#   make stress PKGS=./internal/paxos SKIP=TestIdleLeaderKeepsLease
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

# Allocation profile of one test, by call site: runs the tests TEST names
# in PKG with every allocation sampled and prints the top 40 sites by
# objects allocated. Point it at an allocation pin to attribute a count
# to the layers that pay it; the profile covers the test's set-up too.
# Not part of `make test`.
#   make allocprof PKG=./internal/core TEST='TestWriteAllocs/txn'
allocprof:
	@[ -n "$(TEST)" ] && [ -n "$(PKG)" ] || { echo "usage: make allocprof TEST=<regexp> PKG=<pkg>"; exit 1; }
	@dir=$$(mktemp -d); \
	$(GO) test -count=1 -run '$(TEST)' -memprofilerate=1 -memprofile $$dir/mem.out -o $$dir/test.bin $(PKG) && \
	$(GO) tool pprof -sample_index=alloc_objects -nodecount=40 -top $$dir/test.bin $$dir/mem.out; \
	rc=$$?; rm -rf $$dir; exit $$rc

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

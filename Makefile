# QRIO build entry points. CI (.github/workflows/ci.yml) invokes exactly
# these targets so local runs and CI never diverge.

GO ?= go

# Benchmarks the CI regression guard re-runs with -count=$(BENCH_COUNT)
# for median comparison (the full suite takes minutes; the guard only
# needs the scheduling/store/fairness benches). The cheap benches run
# $(BENCH_FAST_TIME) iterations per measurement so a single cold op can't
# dominate (at 1x, StoreContention/create measures one ~20µs op — pure
# start-up noise); SubmitThroughput drives whole orchestrator bursts and
# stays at 1x, and so do the scoring engines' two records — ColdSweep (one
# never-seen fingerprint over the 100-device fleet, ~0.1 s, 16 MB and
# 100 k allocations an op) and
# StabilizerNoisyShots (one device's 2045 canary shots, ~0.9 ms an op) —
# which guard per layer what BENCHMARK.json's cold-sweep guards end to end,
# and the execution engine's three — ExactDistribution (one density-matrix
# evolution of each steady-warm family, what a memo miss pays),
# NoisyStatevecShots (eight jobs' shots of each family on the trajectory
# engine, which runs what is wider than 8 qubits) and ExecuteDense (one
# fidelity.Execute of each family, a memo hit) — which guard what
# steady-warm's run stage pays. SubmitIntake (the six
# steady-warm families plus a topology job through core.QRIO.Submit,
# ~0.1 ms an op) guards what a job pays before it exists, and RankWarm
# (one 100-node rank of a cached circuit through core's scorer chain,
# ~0.06 ms and ~9 allocations an op) what a warm job pays to be placed.
# The committed baseline MUST be produced with the same settings (make
# bench-json does) so medians compare apples-to-apples.
GUARDED_FAST := BenchmarkSchedulePassWithHistory|BenchmarkStoreContention|BenchmarkFairShare|BenchmarkWatchResume|BenchmarkWALAppend$$|BenchmarkReplayBoot|BenchmarkSubmitIntake|BenchmarkRankWarm
GUARDED_SLOW := BenchmarkSubmitThroughput|BenchmarkColdSweep|BenchmarkStabilizerNoisyShots|BenchmarkNoisyStatevecShots|BenchmarkExecuteDense|BenchmarkExactDistribution
# The intake's rate-limiter fast path is guarded from internal/core (the
# limiter is internal); benchcompare keys on benchmark name, so its
# results concatenate into the same JSON stream.
GUARDED_CORE := BenchmarkRateLimit
# The metrics hot path (counter inc, labeled lookup, histogram observe,
# full scrape) is guarded from internal/obs: instrumentation that shows
# up in the scheduler or gateway profiles defeats its own purpose.
GUARDED_OBS := BenchmarkMetricsHotPath
# The fsync'd log: one appender paying a whole fsync per record
# (WALAppendFsync) and 1, 4, 16 appenders sharing them (WALGroupCommit).
# These are disk-bound, so they run for a fixed time, not a fixed count.
GUARDED_WAL := BenchmarkWALAppendFsync|BenchmarkWALGroupCommit
BENCH_WAL_TIME ?= 200ms
BENCH_COUNT ?= 3
BENCH_FAST_TIME ?= 20x

# Total-coverage floor: the coverage job fails when the current total
# drops below the committed baseline (COVERAGE_baseline.txt) minus this
# many points.
COVERAGE_SLACK ?= 2

.PHONY: all build vet fmt loc lint lint-rand lint-draw lint-poll lint-http lint-routes lint-phase lint-sync lint-bind lint-intake lint-index lint-watch lint-fanout lint-metrics test race fuzz-smoke examples bench bench-json bench-store bench-compare bench-harness chaos-crash chaos-faults chaos-replicas coverage sim sim-smoke sim-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when any file needs reformatting (CI), and prints the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loc prints the code-size figure ROADMAP quotes: lines (as wc -l counts
# them) of non-test Go outside bench/, over tracked and untracked,
# non-ignored files. Report only, no gate.
loc:
	@n="$$(git ls-files --cached --others --exclude-standard -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/' | xargs cat | wc -l)"; \
	echo "loc: $$n lines of non-test Go outside bench/"

# lint runs staticcheck when it is installed (CI installs it; local runs
# without it skip with a note instead of failing).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# lint-http enforces the shared-client rule: every *http.Client is built
# by internal/httpx (NewClient/NewStreamClient), so explicit timeouts,
# bounded transports and the httpx.roundtrip fault point hold everywhere
# at once. Tests are exempt (they build throwaway clients around
# httptest servers).
lint-http:
	@out="$$(grep -rn '&http\.Client{' --include='*.go' --exclude='*_test.go' internal cmd client | grep -v '^internal/httpx/' || true)"; \
	if [ -n "$$out" ]; then echo "lint-http: construct HTTP clients via internal/httpx, not ad hoc:"; echo "$$out"; exit 1; fi

# lint-routes enforces the one-front-door rule: HTTP routes are registered
# only by the gateway (/v1), the dashboard built over it and the daemon mux
# that mounts the two, so no component can grow an HTTP side door. (The
# gates themselves are core.QRIO.Submit's, which lint-intake holds.) Tests
# and examples/ (which mount the gateway on their own mux) are exempt.
lint-routes:
	@out="$$(grep -rnE 'http\.NewServeMux|HandleFunc\(|mux\.Handle\(' --include='*.go' --exclude='*_test.go' internal cmd client | grep -vE '^internal/(gateway|visualizer|daemon)/' || true)"; \
	if [ -n "$$out" ]; then echo "lint-routes: register HTTP routes in internal/gateway, not beside it:"; echo "$$out"; exit 1; fi

# lint-phase enforces the one-lifecycle-table rule: a job's phase is
# written only by api.JobStatus.Apply (internal/cluster/api/lifecycle.go),
# which every writer reaches through state.Cluster.TransitionJob — so no
# component can grow its own phase guard, stamp bookkeeping or release
# epilogue. The one other assignment is SubmitJob's initial Pending status.
# Tests are exempt (they stage fixtures in arbitrary phases).
lint-phase:
	@out="$$(grep -rnE '\.Phase = api\.Job|Phase: *api\.Job' --include='*.go' --exclude='*_test.go' internal cmd client \
		| grep -v '^internal/cluster/api/lifecycle\.go:' \
		| grep -vF 'j.Status = api.JobStatus{Phase: api.JobPending}' || true)"; \
	if [ -n "$$out" ]; then echo "lint-phase: a phase change is a row of the lifecycle table (api.JobStatus.Apply via state.TransitionJob), not an assignment:"; echo "$$out"; exit 1; fi

# lint-sync enforces the one-no-wait-path rule: a store's NoWait view —
# mutators that write their log record and return ahead of the disk — is
# taken only by the state layer, whose SubmitJob, BindJobAt and
# TransitionJob each end in one Cluster.Sync. Everywhere else a store
# mutation that returns is durable. Tests are exempt.
lint-sync:
	@out="$$(grep -rnE '\.NoWait\(\)' --include='*.go' --exclude='*_test.go' internal cmd client *.go \
		| grep -vE '^internal/cluster/(state|store)/' || true)"; \
	if [ -n "$$out" ]; then echo "lint-sync: only internal/cluster/state may write ahead of the disk (store.NoWait); everyone else waits on return:"; echo "$$out"; exit 1; fi

# lint-bind enforces the one-placement-loop rule: state.Cluster.BindJobAt
# (and its BindJob wrapper) is called only by the scheduler's Dispatch
# (Scheduler.bind in internal/sched/scheduler.go) and by the state layer
# itself — so no second filter/score/bind loop, in-process or behind an
# HTTP route, can grow beside Dispatch unnoticed. Tests and
# bench/ are exempt (they stage bound jobs directly). Finding no call at
# all means the grep is miswired, not that the code is clean.
lint-bind:
	@all="$$(grep -rnE '\.BindJob(At)?\(' --include='*.go' --exclude='*_test.go' internal cmd client examples *.go || true)"; \
	if [ -z "$$all" ]; then echo "lint-bind: found no BindJobAt call — audit miswired"; exit 1; fi; \
	out="$$(echo "$$all" | grep -vE '^(internal/sched/scheduler\.go|internal/cluster/state/[^:]+\.go):' || true)"; \
	if [ -n "$$out" ]; then echo "lint-bind: place jobs through sched.Dispatch (Scheduler.bind), not beside it:"; echo "$$out"; exit 1; fi

# lint-intake enforces the one-intake rule: a job enters the cluster only
# through core.QRIO.Submit, which holds the drain, rate-limit,
# schedulability, quota and name gates. So master.Server.Submit (the
# intake's last step) is called only from internal/core — and a Master
# Server is built only there — and
# state.Cluster.SubmitJob only from internal/master, the state layer
# itself and internal/sim (which still submits straight into the state
# until it runs the daemon's own loops). Tests and bench/ are exempt.
# Finding no call at all means the grep is miswired, not that the code
# is clean.
lint-intake:
	@master="$$(grep -rnE '\.Master\.Submit\(|master\.NewServer\(' --include='*.go' --exclude='*_test.go' internal cmd client examples *.go || true)"; \
	submit="$$(grep -rnE '\.SubmitJob\(' --include='*.go' --exclude='*_test.go' internal cmd client examples *.go || true)"; \
	if [ -z "$$master" ] || [ -z "$$submit" ]; then echo "lint-intake: found no Master.Submit, master.NewServer or SubmitJob call — audit miswired"; exit 1; fi; \
	out="$$( { echo "$$master" | grep -vE '^internal/core/[^:]+\.go:'; \
		echo "$$submit" | grep -vE '^internal/(master|cluster/state|sim)/[^:]+\.go:'; } || true)"; \
	if [ -n "$$out" ]; then echo "lint-intake: submit through core.QRIO.Submit, the one intake, not beside it:"; echo "$$out"; exit 1; fi

# lint-index enforces the one-job-order rule: every ordered job index in
# internal/cluster/state (pending, scheduled by node, terminal) is a key
# function over jobOrder (order.go), so no hand-rolled sorted slice with
# its own binary search grows beside it. Tests are exempt. Finding no
# sort.Search at all means the grep is miswired, not that the code is clean.
lint-index:
	@all="$$(grep -rn 'sort\.Search' --include='*.go' --exclude='*_test.go' internal/cluster/state || true)"; \
	if [ -z "$$all" ]; then echo "lint-index: found no sort.Search — audit miswired"; exit 1; fi; \
	out="$$(echo "$$all" | grep -v '^internal/cluster/state/order\.go:' || true)"; \
	if [ -n "$$out" ]; then echo "lint-index: an ordered job index is a key function over jobOrder (order.go), not a second sorted slice:"; echo "$$out"; exit 1; fi

# lint-watch enforces the one-watch-site rule: a view derived from a store
# (the node table, the job orders, tenant usage, the kubelets' and the
# scheduler's wake channels) is fed by the store's OnEvent hook, which
# sees every mutation under the shard lock. The one store watch left is
# the state hub's (hub.go): the resumable streams behind /v1/watch and
# WaitForJobCtx, which start at a position and close, never thin, when
# their consumer falls behind. Tests are exempt. Finding no watch at all
# means the grep is miswired.
lint-watch:
	@all="$$(grep -rnE '\.Watch\(' --include='*.go' --exclude='*_test.go' internal *.go || true)"; \
	if [ -z "$$all" ]; then echo "lint-watch: found no store watch — audit miswired"; exit 1; fi; \
	out="$$(echo "$$all" | grep -v '^internal/cluster/state/hub\.go:' || true)"; \
	if [ -n "$$out" ]; then echo "lint-watch: a derived view is a hook-fed index (store.OnEvent); the only store watch is the hub's (internal/cluster/state/hub.go):"; echo "$$out"; exit 1; fi

# lint-fanout enforces the one-fan-out rule: the scoring path (non-test
# code under internal/sched and internal/meta) starts no goroutine of its
# own — the Meta Server's misses, a rank's per-node scores and the
# dispatcher's spec classes all fan out through par.ForEach, whose shared
# Limit is what bounds concurrent scoring. Finding no go statement in
# internal/par means the grep is miswired, not that the code is clean.
GO_STMT := ^[[:space:]]*go[[:space:]]+[[:alnum:]_(]
lint-fanout:
	@all="$$(grep -rnE '$(GO_STMT)' --include='*.go' --exclude='*_test.go' internal/par || true)"; \
	if [ -z "$$all" ]; then echo "lint-fanout: found no go statement in internal/par — audit miswired"; exit 1; fi; \
	out="$$(grep -rnE '$(GO_STMT)' --include='*.go' --exclude='*_test.go' internal/sched internal/meta || true)"; \
	if [ -n "$$out" ]; then echo "lint-fanout: the scoring path fans out through par.ForEach, not its own goroutines:"; echo "$$out"; exit 1; fi

# lint-rand is the simulator's determinism audit: package-global math/rand
# calls (rand.Intn, rand.Float64, ...) draw from shared process-wide state
# and would make seeded sim runs irreproducible. Every draw must go
# through an explicitly seeded *rand.Rand. rand.New/rand.NewSource remain
# allowed — they are how those seeded generators are built.
lint-rand:
	@out="$$(grep -rnE '\brand\.(Intn|Int63n?|Int31n?|Float64|Float32|Perm|Shuffle|ExpFloat64|NormFloat64|Uint32|Uint64|Seed)\(' --include='*.go' internal cmd client 2>/dev/null || true)"; \
	if [ -n "$$out" ]; then echo "lint-rand: package-global math/rand use breaks sim determinism:"; echo "$$out"; exit 1; fi

# lint-draw enforces the one-draw-path rule: both simulators draw through
# noise.Stream, so no non-test file under internal/quantum/stabilizer or
# internal/quantum/statevec builds its own generator (rand.New) or calls
# the rand.Rand reference draws (noise.DrawOneQubit/DrawTwoQubit), which
# only the oracles keep; and the dense engine draws only through the
# threshold forms (Stream.DrawAt, Stream.Quiet), never Stream.Draw.
lint-draw:
	@out="$$( { grep -rnE 'rand\.New\(|noise\.Draw(One|Two)Qubit\(' --include='*.go' --exclude='*_test.go' internal/quantum/stabilizer internal/quantum/statevec; \
		grep -rnF '.Draw(' --include='*.go' --exclude='*_test.go' internal/quantum/statevec; } || true)"; \
	if [ -n "$$out" ]; then echo "lint-draw: the simulators draw through noise.Stream (the dense engine through DrawAt/Quiet only), not a second path:"; echo "$$out"; exit 1; fi

# lint-poll enforces the edge-triggered control loops: non-test code under
# internal/sched wakes on job events and on a retry timer armed only while
# a job waits; non-test code under internal/cluster/controller wakes on
# its state wake token (a job failed, a node joined, left or changed
# phase) and on a one-shot timer armed at the next deadline, capped by a
# 1 s backstop; non-test code under internal/cluster/kubelet wakes on its
# node's wake token, and its one timer is the deployment's heartbeat loop
# in heartbeat.go. None runs a ticker (time.NewTicker, time.Tick), and a
# kubelet keeps no timer of its own (time.NewTimer, time.After,
# time.AfterFunc anywhere else in the package).
lint-poll:
	@out="$$( { grep -rnE 'time\.(NewTicker|Tick)\(' --include='*.go' --exclude='*_test.go' internal/sched internal/cluster/controller internal/cluster/kubelet; \
		grep -rnE 'time\.(NewTimer|After|AfterFunc)\(' --include='*.go' --exclude='*_test.go' --exclude='heartbeat.go' internal/cluster/kubelet; } || true)"; \
	timers="$$(grep -cE 'time\.(NewTimer|After|AfterFunc)\(' internal/cluster/kubelet/heartbeat.go || true)"; \
	if [ -n "$$out" ]; then echo "lint-poll: the scheduler, the controller and the kubelets wake on edges and one-shot timers, not a ticker; a kubelet has no timer but the heartbeat loop's:"; echo "$$out"; exit 1; fi; \
	if [ "$$timers" != 1 ]; then echo "lint-poll: internal/cluster/kubelet/heartbeat.go should hold the heartbeat loop's one timer, found $$timers"; exit 1; fi

# lint-metrics enforces the metric naming contract: every family literal
# ("qrio_..." strings in non-test code) must read
# qrio_<layer>_<name>_<unit> with a known layer prefix and unit suffix,
# so dashboards and alert rules can rely on the grammar. The audit also
# fails when it finds zero names — that means the grep is miswired, not
# that the code is clean.
lint-metrics:
	@names="$$(grep -rhoE '"qrio_[a-z0-9_]+"' --include='*.go' --exclude='*_test.go' internal cmd client | sort -u | tr -d '"')"; \
	if [ -z "$$names" ]; then echo "lint-metrics: found no metric family names — audit miswired"; exit 1; fi; \
	bad="$$(echo "$$names" | grep -vE '^qrio_(sched|state|meta|gateway|watch|durability|archive|faults|kubelet|controller)_([a-z0-9]+_)*(total|seconds|bytes|jobs|entries|events|records|requests|streams|errors|generation)$$' || true)"; \
	if [ -n "$$bad" ]; then echo "lint-metrics: family names must read qrio_<layer>_<name>_<unit>:"; echo "$$bad"; exit 1; fi; \
	echo "lint-metrics: $$(echo "$$names" | wc -l) family names conform"

# sim runs the full capacity-planning grid (sim/experiments.json) and
# refreshes the committed artifacts under sim/results/. Deterministic:
# re-running on any machine reproduces the committed files byte for byte.
sim:
	$(GO) run ./cmd/qrio-sim -experiments sim/experiments.json -out sim/results

# sim-smoke is the CI determinism gate: the small seeded "smoke" scenario
# runs twice into scratch dirs and the artifacts must be byte-identical.
sim-smoke:
	@tmp1="$$(mktemp -d)"; tmp2="$$(mktemp -d)"; \
	trap 'rm -rf "$$tmp1" "$$tmp2"' EXIT; \
	$(GO) run ./cmd/qrio-sim -experiments sim/experiments.json -only smoke -out "$$tmp1" && \
	$(GO) run ./cmd/qrio-sim -experiments sim/experiments.json -only smoke -out "$$tmp2" && \
	diff -r "$$tmp1" "$$tmp2" && echo "sim-smoke: double run byte-identical"

# sim-check is the behaviour gate for anything under the scheduler: the
# FULL grid (every scenario, fleet-1k-1m included) runs into a scratch dir
# and must reproduce the committed sim/results/ byte for byte — a
# placement, ordering or fairness change anywhere in sched/state shows up
# as a diff. Minutes, not seconds; the grid's wall time goes to stderr so
# a scheduling slowdown is visible in the same run.
sim-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; start=$$(date +%s); \
	$(GO) run ./cmd/qrio-sim -experiments sim/experiments.json -out "$$tmp" && \
	diff -r "$$tmp" sim/results && \
	echo "sim-check: full grid reproduces sim/results byte for byte ($$(( $$(date +%s) - start ))s wall)" >&2

# race runs the whole tree under the race detector — the simulator, the
# daemon wiring and the root package share the state layer's hook-fed
# tables and wake channels with the packages that own them, so they are
# raced together (≈ 3 min on 2 cores; internal/experiments' figure
# reproductions are most of it).
race:
	$(GO) test -race ./...

# fuzz-smoke gives every Fuzz* target in the tree $(FUZZ_TIME) of real
# fuzzing — `go test` alone only replays their seed corpora. Targets are
# found, not listed, so a new fuzzer is covered the day it is written; go
# fuzzes one target of one package per invocation, hence the loop. Finding
# none means the grep is miswired, not that there is nothing to fuzz.
FUZZ_TIME ?= 3s
fuzz-smoke:
	@targets="$$(grep -rnE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+\(' internal cmd client \
		| sed -E 's|^(.*)/[^/]+:[0-9]+:func (Fuzz[A-Za-z0-9_]+)\(.*|\1 \2|')"; \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: found no Fuzz targets — audit miswired"; exit 1; fi; \
	echo "$$targets" | while read -r dir target; do \
		echo "fuzz-smoke: $$target ($$dir, $(FUZZ_TIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) "./$$dir" || exit 1; \
	done

# chaos-crash runs the kill -9 crash-recovery harness under the race
# detector: a child process running a durable cluster under lifecycle
# churn is SIGKILLed mid-flight and the recovered state is audited (no
# job lost or duplicated across tiers, indexes match a rebuild, resume
# tokens replay or 410). -count=1 defeats the test cache: the harness's
# value is in a fresh kill each run.
chaos-crash:
	$(GO) test -race -count=1 -run 'TestCrashRecovery' ./internal/cluster/chaostest

# chaos-faults runs the dependency-failure storm under the race detector:
# a full orchestrator is flooded while the Meta scorer dies (breaker →
# degraded scoring → recovery on virtual time), the network flaps under
# the retry policy, WAL/spill writes fail (latched, surfaced in stats), a
# flooding tenant hits its token bucket, and the run ends in a
# SIGTERM-style drain that must lose no acked job. -count=1 defeats the
# test cache: the storm's value is in fresh interleavings each run.
chaos-faults:
	$(GO) test -race -count=1 -run 'TestFaultStorm' ./internal/cluster/chaostest

# chaos-replicas runs the concurrent-bind storm under the race detector:
# K concurrent binders race one pending queue with optimistic
# version-conditional binds while executors drain the fleet and a
# retention sweeper archives terminal jobs mid-release. Asserts
# exactly-once binds, coherent per-binder win/conflict counters, and
# node accounting draining to zero. -count=1 defeats the test cache: the
# storm's value is in fresh interleavings each run.
chaos-replicas:
	$(GO) test -race -count=1 -run 'TestConcurrentBindStorm' ./internal/cluster/chaostest

# examples runs every program under examples/ — the documented users of
# the embedded API — each under a timeout, so a change to what Submit
# accepts or refuses shows up as a failing example, not a stale doc.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		timeout 60s $(GO) run "./$$d" >/dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# bench-json refreshes the committed benchmark baseline with exactly the
# methodology bench-compare measures against — run it on a quiet machine
# and commit BENCH_results.json to move the perf trajectory.
bench-json:
	$(GO) test -run xxx -bench '$(GUARDED_SLOW)' -benchtime 1x -count $(BENCH_COUNT) -json . > BENCH_results.json
	$(GO) test -run xxx -bench '$(GUARDED_FAST)' -benchtime $(BENCH_FAST_TIME) -count $(BENCH_COUNT) -json . >> BENCH_results.json
	$(GO) test -run xxx -bench '$(GUARDED_WAL)' -benchtime $(BENCH_WAL_TIME) -count $(BENCH_COUNT) -json . >> BENCH_results.json
	$(GO) test -run xxx -bench '$(GUARDED_CORE)' -benchtime $(BENCH_FAST_TIME) -count $(BENCH_COUNT) -json ./internal/core >> BENCH_results.json
	$(GO) test -run xxx -bench '$(GUARDED_OBS)' -benchtime $(BENCH_FAST_TIME) -count $(BENCH_COUNT) -json ./internal/obs >> BENCH_results.json

# bench-store exercises the sharded store's lock scaling across core counts.
bench-store:
	$(GO) test -run xxx -bench BenchmarkStoreContention -benchtime 1x -cpu 1,4,8 .

# bench-compare runs the guarded benchmarks $(BENCH_COUNT) times into
# BENCH_current.json and diffs their MEDIANS — of exactly the benchmarks the
# GUARDED_* patterns run, passed as benchcompare's -match — against the committed
# BENCH_results.json baseline, failing on >25% throughput regression or
# >25% growth in B/op or allocs/op (the CI guard; single noisy runs don't
# flake the job, and allocation does not drift with the host's speed as
# ns/op does). Inside GitHub Actions
# the delta table also lands on the workflow step summary.
bench-compare:
	$(GO) test -run xxx -bench '$(GUARDED_SLOW)' -benchtime 1x -count $(BENCH_COUNT) -json . > BENCH_current.json
	$(GO) test -run xxx -bench '$(GUARDED_FAST)' -benchtime $(BENCH_FAST_TIME) -count $(BENCH_COUNT) -json . >> BENCH_current.json
	$(GO) test -run xxx -bench '$(GUARDED_WAL)' -benchtime $(BENCH_WAL_TIME) -count $(BENCH_COUNT) -json . >> BENCH_current.json
	$(GO) test -run xxx -bench '$(GUARDED_CORE)' -benchtime $(BENCH_FAST_TIME) -count $(BENCH_COUNT) -json ./internal/core >> BENCH_current.json
	$(GO) test -run xxx -bench '$(GUARDED_OBS)' -benchtime $(BENCH_FAST_TIME) -count $(BENCH_COUNT) -json ./internal/obs >> BENCH_current.json
	$(GO) run ./cmd/benchcompare -baseline BENCH_results.json -current BENCH_current.json -threshold 25 \
		-match '$(GUARDED_SLOW)|$(GUARDED_FAST)|$(GUARDED_WAL)|$(GUARDED_CORE)|$(GUARDED_OBS)'

# bench-harness vets and tests the end-to-end benchmark harness. bench/ is
# its own module (qrio/bench, replace qrio => ..), so `go build ./...` and
# `go test ./...` at the root never compile it: a rename of anything it
# uses from the tree would otherwise go unnoticed until bench/run.sh.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# coverage runs the full suite with a coverage profile and enforces the
# soft floor: committed baseline minus $(COVERAGE_SLACK) points. Refresh
# the baseline by copying the reported total into COVERAGE_baseline.txt.
coverage:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{gsub("%","",$$3); print $$3}'); \
	baseline=$$(cat COVERAGE_baseline.txt); \
	awk -v t="$$total" -v b="$$baseline" -v s="$(COVERAGE_SLACK)" 'BEGIN { \
		floor = b - s; \
		if (t + 0 < floor) { printf "coverage: total %.1f%% fell below floor %.1f%% (baseline %.1f%% - %d)\n", t, floor, b, s; exit 1 } \
		printf "coverage: total %.1f%% (floor %.1f%%, baseline %.1f%%)\n", t, floor, b }'

ci: build vet fmt lint lint-rand lint-draw lint-poll lint-http lint-routes lint-phase lint-sync lint-bind lint-intake lint-index lint-watch lint-fanout lint-metrics test race examples sim-smoke bench-harness

# Developer entry points. The repo is pure Go, standard library only;
# everything below is plain go-tool invocations.

GO ?= go

.PHONY: all build test vet lint check apicheck apigen race flake chaos chaos-nodes \
	bench bench-recovery bench-policy bench-load benchdiff \
	benchdiff-policy bench-module clean model model-long policy fuzz-smoke cover \
	recovery-smoke load-smoke load-repro loc one-store one-handler

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint is the static gate: go vet plus a gofmt cleanliness check (the
# repo is stdlib-only, so vet and gofmt are the whole toolchain — no
# external linters to vendor).
lint: vet
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "lint: files need gofmt:"; echo "$$out"; exit 1; \
	fi

check: lint one-store one-handler apicheck test policy fuzz-smoke cover recovery-smoke load-smoke

# one-store keeps the second durable store from coming back unnoticed:
# the write-ahead log is the daemon's only one (DESIGN §13), and no
# non-test Go outside bench/ may name the per-container file it replaced.
one-store:
	@! git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | \
		xargs grep -nE 'session\.json|sessionFileName|sessionRecord|writeSessionFile|recoverSessions|importLegacySessions' \
		|| { echo "one-store: a session.json store is back (see DESIGN §13)"; exit 1; }

# one-handler keeps a second implementation of the container socket's
# verbs from coming back unnoticed: the daemon's handler is the only one
# (DESIGN §6), served over a socket or called in process through
# daemon.Caller, and no non-test Go outside internal/daemon/ and bench/
# may switch on an allocation request again.
one-handler:
	@! git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | grep -v '^internal/daemon/' | \
		xargs grep -nF 'case protocol.TypeAlloc' \
		|| { echo "one-handler: a second container-verb handler is back (see DESIGN §6)"; exit 1; }

# apicheck guards the public facade: the exported API of package
# convgpu is dumped in normalized form (tools/apidump) and diffed
# against the committed golden file. A surface change fails the build
# until api/convgpu.txt is regenerated on purpose with `make apigen`.
apicheck:
	$(GO) run ./tools/apidump . | diff -u api/convgpu.txt - \
		|| { echo "apicheck: public API changed; review and run 'make apigen'"; exit 1; }

apigen:
	$(GO) run ./tools/apidump . > api/convgpu.txt

# race runs the full suite under the race detector — the hot path
# (pooled messages, coalesced writes, fast-path admit) is validated by
# dedicated concurrency stress tests that only bite with -race on —
# and then the full chaos sweep (see chaos below).
race:
	$(GO) test -race ./...
	$(MAKE) chaos

# flake reruns the short tests of the transport packages — the ones that
# race real sockets against goroutine scheduling — many times under the
# race detector in shuffled order, so an intermittent failure shows up
# here instead of one run in four on main. The one-way frame tests race
# an unsolicited refusal against the caller's next step, the client's
# reader tests race calls for the reading role, and the responder tests
# race a late answer against the read loop re-arming, the deferral
# tests race a 1 ms timer against the next frame (and a free against the
# confirm it may join), and the wait-rule tests race a peer's close, a
# stray frame or another writer carrying a staged frame out against an
# end that waits without reading, and the raw-syscall tests check the
# held fd is non-blocking and that -race still orders what crosses the
# socket, and the fd-exhaustion test races a server's accept back-off
# against the dials that fill the descriptor table, so they get ten times
# the runs.
flake:
	$(GO) test -race -shuffle=on -count=20 -short ./internal/ipc/... ./internal/protocol/... ./internal/wrapper/...
	$(GO) test -race -count=200 -run 'TestPostIsOneFrame|TestRefus|TestPostDegrades|TestOldStyleReply|TestMalformedOneWay|TestReconnectorPost|TestReaderRole|TestCancelledReader|TestReadCutInsideFrame|TestReusedResponder|TestOneReplyFrame|TestSpentContext|TestCloseEndsContext|TestDeferredPost|TestCloseDropsADeferredFrame|TestFreeJoinsOnlyAWaitingFrame|TestOneWayFrameThenClose|TestFramesAndCloseInOneWake|TestStaleRefusalAndReplyInOneRead|TestFrameAheadOfTheWriteIsRead|TestEndedContextStillSendsItsFrame|TestPastDeadlineAtEntry|TestStagedFrameCarriedOut|TestCallOnADeadWriter|TestHeldFDIsNonBlocking|TestRaceEdgesThroughTheSocket|TestAcceptSurvivesFDExhaustion' ./internal/ipc
	$(GO) test -race -count=200 -run 'TestRefusedConfirmFailsNextCall|TestHeartbeatKeepsRefusal' ./internal/wrapper
	$(GO) test -race -count=200 -run 'TestReleaseBetweenDecideAndPark|TestRefusedOneWayFree|TestTwoWayReportsStillServed|TestLoneMallocIsConfirmedWithinTheBound|TestJoinedFreeResumesWithinTheBound' ./internal/daemon
	$(GO) test -race -count=200 -run 'TestChaosOneWayFrameLost' ./internal/fault

# chaos replays the full sweep of seeded fault schedules against the
# daemon↔wrapper stack under the race detector — both the single-device
# suite (TestChaos) and the 2-device suite (TestChaosMultiDevice, four
# containers round-robin across two overcommitted pools with per-device
# invariants): every connection drops,
# delays, corrupts, truncates, and hard-closes frames on a deterministic
# schedule while the scheduler's invariants are checked after every op.
# A failing seed N replays with:
#   go test -race -run 'TestChaos/seed=N$' ./internal/fault -chaos.seeds=120
CHAOS_SEEDS ?= 120
chaos:
	$(GO) test -race -run TestChaos -count=1 -timeout 25m ./internal/fault -chaos.seeds=$(CHAOS_SEEDS)

# chaos-nodes is the node-scope sweep on its own: seeded schedules of
# node kills, stalls, partitions, flapping restarts, and drains against
# a live 2x2 cluster daemon under -race, with the suite-level goroutine
# leak check covering the health-probe loop. The plain `make chaos`
# regex already includes TestChaosNodeKill at its default seed count;
# this target runs more seeds. A failing seed N replays with:
#   go test -race -run 'TestChaosNodeKill/seed=N$' ./internal/fault -chaos.nodeseeds=$(CHAOS_NODE_SEEDS)
CHAOS_NODE_SEEDS ?= 24
chaos-nodes:
	$(GO) test -race -run TestChaosNodeKill -count=1 -timeout 25m ./internal/fault -chaos.nodeseeds=$(CHAOS_NODE_SEEDS)

# model runs the model-based conformance suite under the race detector:
# seeded op streams drive every algorithm on every topology (core,
# multigpu, cluster, and the full daemon+ipc wire path) in lockstep with
# the sequential reference model in internal/model, cross-checking full
# state after every op. A reported failure prints a shrunk minimal
# reproducer and the exact replay command (-model.seed pins one seed).
# CI runs this short sweep; model-long is the overnight setting.
MODEL_SEEDS ?= 8
MODEL_OPS ?= 500
model:
	$(GO) test -race -count=1 -timeout 15m ./internal/model -model.seeds=$(MODEL_SEEDS) -model.ops=$(MODEL_OPS)

model-long:
	$(MAKE) model MODEL_SEEDS=64 MODEL_OPS=2000

# policy is the conformance gate on the policy tables: their own unit
# tests (every name and alias to its concrete type, seeded draws equal to
# the direct constructors', ordering semantics of the tenant-aware
# policies, the preemption never-loses-a-ticket property), plus the
# tenant conformance and mutation-sensitivity sweeps that check every
# wake policy against the fairness/quota oracle in internal/model under
# -race.
policy:
	$(GO) test -race -count=1 ./internal/policy
	$(GO) test -race -count=1 -timeout 15m ./internal/model -run 'TestTenant|TestMutation' -model.seeds=$(MODEL_SEEDS) -model.ops=$(MODEL_OPS)

# fuzz-smoke gives each fuzz target a short native-fuzzing
# budget on top of the committed seeds (which plain `go test` always
# replays). Long fuzzing sessions: raise FUZZTIME.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzEncodeDecodeRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzBinaryDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol -run '^$$' -fuzz '^FuzzBinaryJSONParity$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ipc -run '^$$' -fuzz '^FuzzFrameSplit$$' -fuzztime $(FUZZTIME)

# recovery-smoke is the CI gate on restart recovery cost: replaying a
# 50k-event log must finish inside CONVGPU_RECOVERY_SMOKE_MS
# milliseconds (default 5000 — an order of magnitude of slack over the
# measured time, so only a real regression trips it; widen the env knob
# on slow runners).
recovery-smoke:
	$(GO) test -run '^TestRecoverySmoke$$' -count=1 -v ./internal/wal

# load-smoke is the CI gate on the open-loop load harness: a small
# fixed-seed scenario runs the deterministic in-process path, the
# BENCH_load report schema must round-trip, and the calm-load p99
# admission latency must stay under CONVGPU_LOAD_SMOKE_P99_MS (virtual
# milliseconds, default 60000 — an order of magnitude of slack, and
# deterministic because the path runs on the virtual clock).
load-smoke:
	$(GO) test -run '^TestLoadSmoke$$' -count=1 -v ./internal/load

# cover enforces per-package statement-coverage floors on the packages
# that carry the correctness burden. The floors are recorded a couple of
# points below the measured value at the time they were set — they exist
# to catch tests being deleted or gutted, not to force coverage upward.
# internal/daemon re-measured when the session.json store and its paired
# tests went (PR 21): 82.5% before, 84.1% after; the floor stays 82.
cover:
	@set -e; \
	fail=0; \
	for spec in core:74 protocol:74 daemon:82; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover ./internal/$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: internal/$$pkg: no coverage reported (test failure?)"; fail=1; continue; fi; \
		echo "internal/$$pkg: $$pct% (floor $$floor%)"; \
		if ! awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p+0 >= f+0) }'; then \
			echo "cover: internal/$$pkg coverage $$pct% fell below the $$floor% floor"; fail=1; \
		fi; \
	done; \
	exit $$fail

# bench runs the hot-path benchmark suite with allocation tracking and
# saves the results. BENCH_hotpath.json holds the go-test JSON stream
# (one event per line; benchstat-compatible text is in BENCH_hotpath.txt).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkHotPath' -benchmem -count=1 . | tee BENCH_hotpath.txt
	$(GO) test -run '^$$' -bench 'BenchmarkHotPath' -benchmem -count=1 -json . > BENCH_hotpath.json

# bench-recovery captures the restart-recovery artifact quoted by
# EXPERIMENTS.md: replay wall time and per-event cost as the WAL grows
# from 10^3 to 10^6 sessions (the 10^6 case allocates a multi-hundred-MB
# log; it is skipped under -short). BENCH_recovery.json holds the
# go-test JSON stream, BENCH_recovery.txt the benchstat-compatible text.
bench-recovery:
	$(GO) test -run '^$$' -bench 'BenchmarkRecovery' -benchmem -count=1 -timeout 30m ./internal/wal | tee BENCH_recovery.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRecovery' -benchmem -count=1 -timeout 30m -json ./internal/wal > BENCH_recovery.json

# bench-policy captures the policy artifact: per-policy admit
# cost (which must stay flat and allocation-free across every wake
# policy), the bare Pick decision over a fixed candidate set, and
# the end-to-end preempt-admit cycle latency. BENCH_policy.txt is the
# committed baseline benchdiff-policy gates against.
bench-policy:
	$(GO) test -run '^$$' -bench 'BenchmarkPolicy' -benchmem -count=1 . | tee BENCH_policy.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPolicy' -benchmem -count=1 -json . > BENCH_policy.json

# bench-load regenerates the open-loop SLO artifact quoted by
# EXPERIMENTS.md: 3200-container arrivals (100x the paper's Fig. 7/8
# cohort) across all seven wake policies on both the deterministic
# in-process path and the daemon+IPC wire path, with
# goodput-vs-offered-load curves and p50/p99/p999 admission tails.
# Repeat runs with the same seed reproduce BENCH_load.json's in-process
# section byte-for-byte (load-repro below checks it); `convgpu-stats
# load` renders the artifact.
bench-load:
	$(GO) run ./cmd/convgpu-load -out BENCH_load

# load-repro is the gate on that promise, and with it on every
# virtual-time scheduling outcome at 3200 containers: the in-process
# section is regenerated with the command's defaults into a temp dir
# (about a minute and a half) and must equal the committed
# BENCH_load.json's, cell for cell, byte for byte. A change that moves a
# scheduling outcome on purpose regenerates the artifact with
# `make bench-load` and says so.
load-repro:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/convgpu-load -path inprocess -out $$tmp/BENCH_load > /dev/null \
		&& $(GO) test -run '^TestLoadRepro$$' -count=1 -v ./internal/load \
			-load.fresh=$$tmp/BENCH_load.json -load.committed=$(CURDIR)/BENCH_load.json; \
	status=$$?; rm -rf $$tmp; exit $$status

# benchdiff compares the current hot-path numbers against the committed
# BENCH_hotpath.txt baseline with the home-grown comparer (benchstat
# itself is an external module this repo does not vendor) and fails on
# any allocs/op increase at all — allocation counts are deterministic,
# so the 0-alloc budgets get no slack. The ns/op columns are printed for
# reading; timing is judged by the repository benchmark (bench/), not by
# one sample on a shared runner. The one timing gated is a ratio of two
# rows of one run, which moves with the machine far less than either
# row: observed against bare core admit (CoreAccept ÷ CoreAcceptBare),
# which fails when it exceeds the committed ratio by more than the
# constant in tools/benchdiff (three times its ten-run spread).
benchdiff:
	@tmp=$$(mktemp); \
	$(GO) test -run '^$$' -bench 'BenchmarkHotPath' -benchmem -count=1 . > $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	$(GO) run ./tools/benchdiff BENCH_hotpath.txt $$tmp; \
	status=$$?; rm -f $$tmp; exit $$status

# benchdiff-policy is the same comparison against the committed
# BENCH_policy.txt baseline: the per-policy admit benchmarks are 0
# allocs/op by construction, so any allocation leaking onto the tenant
# admit path fails the gate.
benchdiff-policy:
	@tmp=$$(mktemp); \
	$(GO) test -run '^$$' -bench 'BenchmarkPolicy' -benchmem -count=1 . > $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	$(GO) run ./tools/benchdiff BENCH_policy.txt $$tmp; \
	status=$$?; rm -f $$tmp; exit $$status

# bench-module builds and tests the repository benchmark. bench/ is a Go
# module of its own (replace convgpu => ../), so `go build ./...` and
# `go test ./...` at the root never compile it: this is the gate that
# notices when a change here breaks an exported signature it calls.
bench-module:
	cd bench && $(GO) build ./... && $(GO) test ./...

# loc prints the non-test Go lines outside bench/ (tracked files only),
# per package directory and in total — the figure every CHANGES.md entry
# quotes before and after, so a size claim can be read off a CI log.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

clean:
	rm -f BENCH_hotpath.json BENCH_hotpath.txt

# Standard checks and benchmark tracking. The repository is stdlib-only,
# so every target needs nothing but a Go toolchain.

GO ?= go

.PHONY: build test test-short race vet fmt-check round-guard recipe-guard fleet-guard deps-guard codec-guard api-guard flag-guard examples-smoke benchmark-selftest bench bench-check check fuzz-fleet fuzz-dp trace-smoke load-smoke shard-load-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short skips the minutes-long node-bound determinism figures.
test-short:
	$(GO) test -short ./...

# race covers every package that runs experiment jobs concurrently
# (worker pool, figure fan-outs, auction sweeps, the scheduler they
# drive, and the serving broker's concurrent bid intake). Short mode
# keeps the node-bound Titan figures out of the 10-20x race slowdown;
# the full determinism suite runs under `make test`.
race:
	$(GO) test -race -short ./internal/runner/ ./internal/experiments/ ./internal/auction/ ./internal/core/ ./internal/obs/ ./internal/service/ ./internal/sim/ ./internal/vendor/ ./internal/zones/

vet:
	$(GO) vet ./...

fmt-check:
	test -z "$$(gofmt -l .)"

# round-guard is the mechanical form of "there is one round engine":
# internal/service may drive Algorithm 1's per-bid round only through
# sim.Engine (Start/Round/Finish), so no non-test file there may offer a
# bid, account or track a decision, surface capacity changes, or emit the
# engine's observer events itself. Its sibling keeps the decided set one
# packed store, in internal/service or internal/decision where it lives:
# the 174 B/bid map of Decisions must not come back, and neither may a map
# beside it as its index (29 B a bid where the position table in
# internal/decision/store.go takes 5 to 11), nor an unexported *Schedule field
# (an admitted bid costs ~125 B with its plan as bytes, ~300 with the
# plan kept as a pointer), nor an intern table of reject reasons: a
# record holds schedule.RejectReason's one-byte code itself. And
# sim.Result keeps no per-bid []time.Duration: a run's latency samples go
# into a fixed-size obs.Histogram, 8 bytes a bid less. The third keeps "decide" one
# thing: Algorithm 1's write tail (lines 7-9: dual update, ledger commit)
# exists once in internal/core, in Offer, and neither sim nor service
# grows a second decide-mode back.
# The next keeps the stages either side of the round one thing too: one
# intake message type (submission) and one inline checkpoint and
# decision-log writer, no user-selected background one. The last keeps
# one way to make a file durable: outside durable.go, no non-test file
# in internal/service creates, renames or removes a file itself. The
# Algorithm-2 DP keeps its speed-group form: internal/core has no per-node
# inner loop or 16-byte cells (parentWBuf, float64Rows, candDelta), and
# internal/cluster keeps one unit-cost row per node class, not a K×T plane.
round-guard:
	@if grep -nE '\.(Offer|BatchOffer|Account|Track|ApplyUpTo|AdvanceTo|OnBid|OnOutcome|OnRunStart|OnRunEnd)\(' \
		$$(ls internal/service/*.go | grep -v _test); then \
		echo "round-guard: internal/service must go through sim.Engine for the calls above"; exit 1; fi
	@if grep -n 'map\[int\]schedule\.Decision' $$(ls internal/service/*.go internal/decision/*.go | grep -v _test); then \
		echo "round-guard: decided bids live in the decision.Store, not in a map of Decisions"; exit 1; fi
	@if grep -n 'map\[int\]int32' $$(ls internal/service/*.go internal/decision/*.go | grep -v _test); then \
		echo "round-guard: the decision.Store finds a bid through its position table, not through a map"; exit 1; fi
	@if grep -nE '^\s+[a-z][A-Za-z0-9]*\s+\*schedule\.Schedule' $$(ls internal/service/*.go internal/decision/*.go | grep -v _test); then \
		echo "round-guard: the decision.Store keeps a plan as its encoded bytes (appendSchedule), not as a *Schedule"; exit 1; fi
	@if grep -nE 'reasons\s+\[\]schedule\.RejectReason|intern\(' $$(ls internal/service/*.go internal/decision/*.go | grep -v _test); then \
		echo "round-guard: a decision record holds its RejectReason code itself, not a position in an intern table"; exit 1; fi
	@if awk '/^type Result struct/,/^}/' $$(ls internal/sim/*.go | grep -v _test) | grep -nE '\[\]time\.Duration'; then \
		echo "round-guard: sim.Result keeps latency in a fixed-size obs.Histogram, not a per-bid []time.Duration"; exit 1; fi
	@for call in 'updateDuals(' '.cl.Commit('; do \
		n=$$(cat $$(ls internal/core/*.go | grep -v _test) | grep -v '^func ' | grep -cF "$$call"); \
		if [ "$$n" != 1 ]; then \
			echo "round-guard: internal/core has $$n call sites of $$call, want 1 (Algorithm 1's write tail lives in Offer)"; exit 1; fi; done
	@if grep -nE 'Spec(ulator|Workers)' $$(ls internal/sim/*.go internal/service/*.go | grep -v _test); then \
		echo "round-guard: the engine decides by Offer or BatchOffer, chosen by scheduler type"; exit 1; fi
	@if grep -nE 'AsyncCheckpoint|pendingPool|intakeMsg' $$(ls internal/service/*.go | grep -v _test) || \
		grep -n 'func (l \*DecisionLog) Async' internal/obs/*.go; then \
		echo "round-guard: a bid enters as one submission and persists through one inline writer"; exit 1; fi
	@if grep -nE 'os\.(Rename|CreateTemp|Create|Remove|OpenFile)\(' \
		$$(ls internal/service/*.go | grep -v _test | grep -v '/durable\.go$$'); then \
		echo "round-guard: internal/service makes a file durable only through replaceFile (durable.go)"; exit 1; fi
	@if grep -nE 'parentWBuf|float64Rows|candDelta' $$(ls internal/core/*.go | grep -v _test) || \
		grep -nE 'unitCost|costBack' $$(ls internal/cluster/*.go | grep -v _test); then \
		echo "round-guard: the DP visits one node per speed group, and unit costs are one row per node class"; exit 1; fi

# recipe-guard is the mechanical form of "there is one §5.1": an auction
# stack — node groups → cluster, the marketplace that goes with a seed,
# arrival/deadline names → trace kinds, calibration, scheduler — is wired
# in internal/config and nowhere else. So outside it (and outside the
# public facade pdftsp.go, the examples, and benchmark/, whose copy waits
# for its own PR) no non-test file may lay nodes out with cluster.Uniform,
# add the marketplace's +7 to a seed, or switch on an arrival-process name.
recipe-guard:
	@if grep -nE 'cluster\.Uniform\(|vendor\.Standard\(.*\+ ?7|case "philly"' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/config/*' ! -path './pdftsp.go' \
			! -path './examples/*' ! -path './benchmark/*'); then \
		echo "recipe-guard: build the stack through internal/config (Mix/NewCluster, Market, Generate/Wire, trace.ParseArrivalKind)"; exit 1; fi

# fleet-guard is the mechanical form of "there is one way to open, resume
# and check a fleet": service.Open decides the shape, Resume sequences the
# checkpoint chains, the manifest and the journals, DiffTwins finds each
# bid's broker. So outside internal/service (and benchmark/, which drives
# one *Broker through the primitives) no non-test file may build a Shards
# fleet itself, read or restore a manifest, replay a journal, or assert
# its Auctioneer back to a *service.Shards. And the daemon carries no
# harness: the fleet's self-tests are FuzzFleet's corpus in
# internal/service, so no non-test file in cmd/pdftspd imports the
# simulator, the fault plans or the workload generator. And a fleet comes
# back from a crash one way, a process restart that runs Open + Resume:
# no second, in-process generation, and so no fence against one.
fleet-guard:
	@if grep -nE 'service\.NewShards\(|ReadShardManifest\(|\.RestoreFromManifest\(|\.RecoverWAL\(|\.\(\*service\.Shards\)' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/service/*' ! -path './benchmark/*'); then \
		echo "fleet-guard: open a fleet with service.Open and resume it with Resume, whatever its shape"; exit 1; fi
	@if grep -nE '"github.com/pdftsp/pdftsp/internal/(sim|faults|trace)"' $$(ls cmd/pdftspd/*.go | grep -v _test); then \
		echo "fleet-guard: cmd/pdftspd serves; its self-tests are FuzzFleet in internal/service"; exit 1; fi
	@if grep -nE 'Supersede|superseded|NewSupervisor|resubmitBatch' $$(find internal/service cmd -name '*.go' ! -name '*_test.go'); then \
		echo "fleet-guard: recovery is a process restart (Open + Resume), not an in-process generation"; exit 1; fi

# deps-guard is the mechanical form of "the daemon links what it serves":
# a serving binary runs the auction, so nothing pdftspd or pdftspd-load
# links, however indirectly, may be the micro-trainer (train, tensor), a
# comparison baseline (baseline) or the MILP stack under Titan and the
# offline optimum (lp, milp, offline). The baseline switch lives on the
# figure side, in internal/experiments; internal/config wires only the
# pdFTSP family. A served broker's capacity is fixed, so neither binary
# links the scripted spot market (spot), which only replays and -fig spot
# drive. The workload and the marketplace draw one seeded stream,
# math/rand's, reproduced once in internal/lfg: no non-test file in
# internal/trace or internal/vendor may import math/rand itself.
deps-guard:
	@if $(GO) list -deps ./cmd/pdftspd ./cmd/pdftspd-load | grep -E '/internal/(train|tensor|lp|milp|offline|baseline)$$'; then \
		echo "deps-guard: a serving binary links the trainer, a baseline or the MILP stack"; exit 1; fi
	@if $(GO) list -deps ./cmd/pdftspd ./cmd/pdftspd-load | grep -E '/internal/spot$$'; then \
		echo "deps-guard: a serving binary links the scripted spot market; a served broker's capacity is fixed"; exit 1; fi
	@if $(GO) list -f '{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}' ./internal/trace ./internal/vendor | grep -E ' math/rand( |/|$$)'; then \
		echo "deps-guard: trace or vendor draws from math/rand instead of internal/lfg"; exit 1; fi

# codec-guard is the mechanical form of "a decided bid is kept one way":
# internal/decision holds the one record encoding, and the broker's store,
# delta sidecar, snapshot and the twin gate all go through it. So outside
# it (and benchmark/, its own module) no non-test file may declare a
# decision or plan codec of its own, a JSON wire form of the decided set,
# or a MarshalJSON/UnmarshalJSON on a collection of decisions.
# appendDecisionJSON is exempt: it renders the public HTTP response, not
# storage. Broker state is kept one way too: a full snapshot is the delta
# chain's first record (delta.go's encoder and applyDeltaRecord), so the
# snapshot's code (checkpoint.go), the record's (delta.go) and the writer
# (ckptwriter.go) may not import encoding/json, and no non-test file may
# bring back the JSON snapshot's checkpointFile or its plane-by-plane
# checkShape/checkPlane.
# The frame is kept one way too: only internal/decision declares
# appendFrame/frameNext/framedPrefix (any case), so the journal, the
# sidecar, the snapshot and the decision log are checksummed and cut at a
# torn tail by one reader; and no non-test file in internal/obs imports
# encoding/binary or hash/crc32, so the decision log cannot grow a private
# record or frame again (it writes decision.Append records in that frame).
codec-guard:
	@if grep -nE '^(func|type|var)( \([^)]*\))? *(appendDecision|readDecision|appendSchedule|readSchedule|decisionWire|decisionRec)' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/decision/*' ! -path './benchmark/*') | \
		grep -v 'func appendDecisionJSON('; then \
		echo "codec-guard: a decided bid is encoded by internal/decision (Append, Store.AppendFrom, Store.ReadList) only"; exit 1; fi
	@if grep -nE '^func \([a-z]+ \*?[A-Za-z]*([Dd]ecision|Store)[A-Za-z]*\) (Marshal|Unmarshal)JSON\(' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*'); then \
		echo "codec-guard: the decided set goes to disk as decision records, not through encoding/json"; exit 1; fi
	@if grep -n '"encoding/json"' internal/service/checkpoint.go internal/service/delta.go internal/service/ckptwriter.go; then \
		echo "codec-guard: a snapshot is one delta record in the sidecar's framing, and no record carries JSON"; exit 1; fi
	@if grep -nE '^(func|type)( \([^)]*\))? *(checkpointFile|checkShape|checkPlane)\b' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*'); then \
		echo "codec-guard: planes are allocated from the snapshot header's shape; there is no second snapshot codec"; exit 1; fi
	@if grep -niE '^func( \([^)]*\))? *(appendFrame|frameNext|framedPrefix)\(' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/decision/*' ! -path './benchmark/*'); then \
		echo "codec-guard: every framed file goes through internal/decision's AppendFrame, FrameNext and FramedPrefix"; exit 1; fi
	@if grep -nE '"(encoding/binary|hash/crc32)"' $$(find internal/obs -name '*.go' ! -name '*_test.go'); then \
		echo "codec-guard: the decision log writes decision records in decision's frame; internal/obs encodes no bytes of its own"; exit 1; fi

# api-guard is the mechanical form of "production code has a caller": every
# exported name a non-test file of the root package, internal/ or cmd/
# declares must be named by some non-test file — the module's own,
# examples/ or benchmark/. Code that only tests drive is deleted, not kept
# for its tests; what stays anyway (the root package's public API, the
# shared fault-plan fixture) is allowlisted in apiguard_test.go, one
# reason an entry. The check is a stdlib go/ast scan (TestAPIGuard), so
# it also runs under `make test`.
api-guard:
	$(GO) test -run '^TestAPIGuard$$' -count=1 .

# flag-guard is the mechanical form of "a knob stays only if two callers
# need different values": a serving-binary flag exists because a Makefile
# target, a test, a README or EXPERIMENTS recipe, benchmark/ or a
# benchsuite row sets it to something other than its default, or because
# it names a deployment setting (an address, a path), a safety check or an
# observability sink. Every other knob is the constant it defaulted to.
# So `pdftspd -h` may list at most 21 flags and `pdftspd-load -h` at most
# 22; a new flag has to take an old one's place. And every
# `go run ./cmd/pdftspd...` recipe in the README may pass only flags its
# binary defines, so a flag that goes takes its recipes with it.
FLAG_CAPS = pdftspd:21 pdftspd-load:22
flag-guard:
	@for b in $(FLAG_CAPS); do \
		name=$${b%%:*}; cap=$${b##*:}; \
		flags=$$($(GO) run ./cmd/$$name -h 2>&1 | sed -n 's/^  -\([A-Za-z0-9_-]*\).*/\1/p'); \
		n=$$(echo "$$flags" | grep -c .); \
		if [ "$$n" -eq 0 ] || [ "$$n" -gt "$$cap" ]; then \
			echo "flag-guard: $$name -h lists $$n flags, want 1 to $$cap: a knob nobody sets is a constant"; exit 1; fi; \
		for f in $$(grep -E "go run \./cmd/$$name( |$$)" README.md | sed -e 's/#.*//' -e "s|.*go run \./cmd/$$name||" | \
			grep -oE '(^|[[:space:]])-[A-Za-z][A-Za-z0-9-]*' | tr -d ' \t' | sort -u); do \
			if ! echo "$$flags" | grep -qx -- "$${f#-}"; then \
				echo "flag-guard: a README recipe runs $$name with $$f, which $$name does not define"; exit 1; fi; \
		done; \
	done

# examples-smoke runs every program under examples/ and fails on a
# non-zero exit: `go build` proves an example compiles, not that it runs,
# and microtrain exits non-zero if training moved the shared base or a
# backward pass disagrees with finite differences. heterogeneous is left
# out: its Titan comparison solves per-slot MILPs for about 30 s, where
# the others take well under a second each.
EXAMPLES_SKIP = heterogeneous
examples-smoke:
	@for d in examples/*/; do \
		e=$$(basename $$d); \
		case " $(EXAMPLES_SKIP) " in *" $$e "*) continue;; esac; \
		$(GO) run ./$$d > /dev/null || { echo "examples-smoke: examples/$$e exited non-zero"; exit 1; }; \
	done

# benchmark/ is its own module, so build, vet and test above never compile
# it; this catches a signature change here that breaks the yardstick.
benchmark-selftest:
	cd benchmark && $(GO) vet . && $(GO) test .

# bench runs the hot-path rows under go test, for profiling.
bench:
	$(GO) test -bench 'OfferPdFTSP|CalibrateDuals|TraceGenerate|VendorQuotes' -benchmem -run '^$$' .

# bench-check times every micro-benchmark row of internal/benchsuite
# against BASE (the parent commit by default) on this host: cmd/bench
# builds BASE's suite from its git tree, runs each row as 5 interleaved
# base/change pairs (GOMAXPROCS NumCPU, and 1 too for the multi-core
# serving rows) and fails a row that is slower than its tolerance in a
# majority of them, so the host drifting over time cannot fail it.
# B/op and allocs/op do not depend on the host and are held to the
# committed BENCH_allocs.json; a change that moves them edits its entry.
# Each row's benchtime and tolerances are its entry in benchsuite.Suite().
# The alloc budget tests guard the other axis: the failure-free hot path
# must stay allocation-free with the fault layer compiled in but disabled;
# the memory budget tests beside them report what a decided bid retains,
# in the broker's store and in a collecting sim.Run.
# Every line runs even when an earlier one fails, so a slow row cannot
# hide the budget tests behind it; the target then exits non-zero and
# names each line that failed.
BASE ?= HEAD^
bench-check:
	@failed=""; \
	check() { echo "$$*"; "$$@" || failed="$$failed\n  $$*"; }; \
	check $(GO) run ./cmd/bench -base $(BASE); \
	check $(GO) test -run 'AllocBudget|SteadyStateAllocs' -count=1 . ./internal/sim/; \
	check $(GO) test -run 'MemoryBudget|RecordSizes' -count=1 -v ./internal/decision/ ./internal/service/ ./internal/sim/; \
	if [ -n "$$failed" ]; then printf '%b\n' "bench-check: these lines failed:$$failed"; exit 1; fi

# trace-smoke runs one audited, traced figure end to end and verifies the
# trace reproduces the reported accounting.
trace-smoke:
	$(GO) run ./cmd/experiments -fig 8 -trace /tmp/pdftsp-smoke.jsonl -audit
	$(GO) run ./cmd/trace -check -quiet /tmp/pdftsp-smoke.jsonl

# The fuzz targets explore past their seed corpora (which `make test`
# runs), each for FUZZTIME. A failing input is saved under the package's
# testdata/fuzz/<target> and replays with
# `go test -run '<target>/<name>' ./<package>/`.
#
# fuzz-fleet: seeded scripts of intake, steps, whole-fleet kills and
# restarts, torn journals, seam faults and checkpoint-fault windows, each
# diffed against sim.Run twins.
#
# fuzz-dp: random DP instances (seed, tie-forcing mode bits, dual bytes),
# each plan held to the per-node reference DP: same placements, vendor
# and surplus bits.
FUZZTIME ?= 60s
fuzz-fleet:
	$(GO) test -run '^$$' -fuzz FuzzFleet -fuzztime $(FUZZTIME) ./internal/service/

fuzz-dp:
	$(GO) test -run '^$$' -fuzz FuzzFindSchedule -fuzztime $(FUZZTIME) ./internal/core/

# load-smoke and shard-load-smoke drive cmd/pdftspd-load, which no test
# covers, and are gated.
#
# load-smoke replays a short fixed-seed workload through the trace-driven
# load generator over loopback HTTP — batched intake, binary incremental
# checkpoints and a streamed binary decision log — and verifies the
# broker's decisions and accounting are bit-identical to a sequential
# sim.Run of the same workload.
load-smoke:
	$(GO) run ./cmd/pdftspd-load -slots 24 -rate 40 -nodes 4 -seed 1 -verify \
		-checkpoint /tmp/pdftsp-load.ckpt -full-every 4 -decision-log /tmp/pdftsp-load.declog

# shard-load-smoke is the two-shard load run: every shard must be
# bit-identical to its own sequential sim.Run twin.
shard-load-smoke:
	$(GO) run ./cmd/pdftspd-load -slots 24 -rate 40 -nodes 4 -seed 1 -shards 2 -verify

check: build vet fmt-check round-guard recipe-guard fleet-guard deps-guard codec-guard api-guard flag-guard examples-smoke test benchmark-selftest race load-smoke shard-load-smoke

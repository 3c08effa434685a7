// Package benchsuite defines the named benchmark suite tracked across
// PRs: the algorithmic hot paths (one Algorithm-1 offer, dual
// calibration, workload generation) and one full evaluation figure at
// both parallelism extremes. The root bench_test.go wraps these for
// `go test -bench`, and cmd/bench runs them standalone to emit a
// BENCH_<label>.json snapshot, so the same code path produces both the
// interactive and the recorded numbers.
package benchsuite

import (
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/experiments"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Bench is one named benchmark of the tracked suite. MultiCore marks
// serving-path rows that cmd/bench runs at GOMAXPROCS 1 and 4 so the
// snapshot records the scaling, not just one arbitrary core count.
type Bench struct {
	Name      string
	Func      func(b *testing.B)
	MultiCore bool
}

// Suite returns the tracked benchmarks in reporting order.
func Suite() []Bench {
	return []Bench{
		{Name: "OfferPdFTSP", Func: OfferPdFTSP},
		{Name: "CalibrateDuals", Func: CalibrateDuals},
		{Name: "TraceGenerate", Func: TraceGenerate},
		{Name: "VendorQuotes", Func: VendorQuotes},
		{Name: "VendorQuotes/append", Func: VendorQuotesAppend},
		{Name: "FigWorkload/sequential", Func: FigWorkloadSequential},
		{Name: "FigWorkload/parallel", Func: FigWorkloadParallel},
		{Name: "FigTruthfulness/sequential", Func: FigTruthfulnessSequential},
		{Name: "FigTruthfulness/parallel", Func: FigTruthfulnessParallel},
		{Name: "ServeBid/batched-1", Func: ServeBidBatched1, MultiCore: true},
		{Name: "ServeBid/batched-16", Func: ServeBidBatched16, MultiCore: true},
		{Name: "ServeBid/batched-256", Func: ServeBidBatched256, MultiCore: true},
		{Name: "ServeBid/sharded", Func: ServeBidSharded, MultiCore: true},
		{Name: "SlotClose/seq", Func: SlotCloseSequential, MultiCore: true},
		{Name: "ShardRoute", Func: ShardRoute},
		{Name: "HTTPDecodeBid/stdjson", Func: HTTPDecodeBidStdJSON},
		{Name: "HTTPDecodeBid/pooled", Func: HTTPDecodeBidPooled},
		{Name: "DecisionEncode/stdjson", Func: DecisionEncodeStdJSON},
		{Name: "DecisionEncode/pooled", Func: DecisionEncodePooled},
		{Name: "DecisionLog/jsonl", Func: DecisionLogJSONL},
		{Name: "DecisionLog/binary", Func: DecisionLogBinary},
		{Name: "CheckpointPerSlot/none", Func: CheckpointPerSlotNone, MultiCore: true},
		{Name: "CheckpointPerSlot/json-full", Func: CheckpointPerSlotJSONFull, MultiCore: true},
		{Name: "CheckpointPerSlot/binary-delta", Func: CheckpointPerSlotBinaryDelta, MultiCore: true},
		{Name: "WALAppend/sync-1", Func: WALAppendSync1, MultiCore: true},
		{Name: "WALAppend/sync-64", Func: WALAppendSync64, MultiCore: true},
		{Name: "SpotAdvance", Func: SpotAdvance},
		{Name: "SpotTraceGen", Func: SpotTraceGen},
	}
}

// tenNodes builds the ten-node one-day cluster the micro-benchmarks run
// on.
func tenNodes(b *testing.B, mix string, model lora.ModelConfig) *cluster.Cluster {
	b.Helper()
	groups, err := config.Mix(mix, 10)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := config.NewCluster(timeslot.Day(), model, groups)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// OfferPdFTSP measures one Algorithm-1 iteration (DP + duals + pricing)
// on a warm ten-node hybrid cluster — the per-task latency of Figure
// 13's fast curve and the repository's primary hot-path benchmark.
func OfferPdFTSP(b *testing.B) {
	model := lora.GPT2Small()
	cl := tenNodes(b, "hybrid", model)
	mkt, err := vendor.Standard(5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 3
	tasks, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.CalibrateDuals(tasks, model, cl, mkt)
	opts.ReusePlans = true // decisions are dropped between offers
	sch, err := core.New(cl, opts)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the prices with a slice of the workload. The env is refilled
	// per bid, mirroring the engine's run-scoped scratch.
	var env schedule.TaskEnv
	for i := 0; i < len(tasks)/2; i++ {
		env.Refill(&tasks[i], cl, model, mkt)
		sch.Offer(&env)
	}
	rest := tasks[len(tasks)/2:]
	var tk task.Task
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk = rest[i%len(rest)]
		tk.ID += 1_000_000 + i // fresh identity per offer
		env.Refill(&tk, cl, model, mkt)
		sch.Offer(&env)
	}
}

// CalibrateDuals measures the Lemma-2 coefficient derivation, quote
// derivation for every f_i = 1 task included: what a caller pays once per
// start.
func CalibrateDuals(b *testing.B) {
	model := lora.GPT2Small()
	cl := tenNodes(b, "a100", model)
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 10
	tasks, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mkt, err := vendor.Standard(5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CalibrateDuals(tasks, model, cl, mkt)
	}
}

// TraceGenerate measures workload generation for a paper-scale day
// (rate 50).
func TraceGenerate(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 50
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// VendorQuotes measures deriving one task's quotes from a ten-vendor
// marketplace through the allocating QuotesFor.
func VendorQuotes(b *testing.B) {
	mkt, err := vendor.Standard(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mkt.QuotesFor(i)
	}
}

// VendorQuotesAppend is VendorQuotes into a caller-owned buffer, the form
// TaskEnv.Refill and CalibrateDuals use.
func VendorQuotesAppend(b *testing.B) {
	mkt, err := vendor.Standard(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]vendor.Quote, 0, mkt.NumVendors())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mkt.AppendQuotes(buf[:0], i)
	}
}

// BenchFigureProfile is the bench-sized experiment profile, shared with
// the root figure benchmarks: a full figure regenerates in roughly a
// second.
func BenchFigureProfile(parallelism int) experiments.Profile {
	return experiments.Profile{
		Name:        "bench",
		Scale:       0.04,
		Seed:        1,
		TitanBudget: 20 * time.Millisecond,
		Horizon:     timeslot.NewHorizon(48),
		Parallelism: parallelism,
	}
}

// figWorkload regenerates Figure 8 (12 independent scheduler runs: three
// workloads × four algorithms) at the given parallelism.
func figWorkload(b *testing.B, parallelism int) {
	p := BenchFigureProfile(parallelism)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FigWorkload(); err != nil {
			b.Fatal(err)
		}
	}
}

// FigWorkloadSequential is the Figure-8 regeneration on the sequential
// engine (Parallelism=1).
func FigWorkloadSequential(b *testing.B) { figWorkload(b, 1) }

// FigWorkloadParallel is the same figure on one worker per CPU; the
// ratio to FigWorkloadSequential is the experiment engine's wall-clock
// speedup on this machine.
func FigWorkloadParallel(b *testing.B) { figWorkload(b, 0) }

// figTruthfulness regenerates Figure 10 (21 counterfactual replays of
// the background workload) at the given parallelism.
func figTruthfulness(b *testing.B, parallelism int) {
	p := BenchFigureProfile(parallelism)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FigTruthfulness(); err != nil {
			b.Fatal(err)
		}
	}
}

// FigTruthfulnessSequential is the Figure-10 sweep on the sequential
// engine.
func FigTruthfulnessSequential(b *testing.B) { figTruthfulness(b, 1) }

// FigTruthfulnessParallel is the same sweep with its per-bid branches
// fanned out across one worker per CPU.
func FigTruthfulnessParallel(b *testing.B) { figTruthfulness(b, 0) }

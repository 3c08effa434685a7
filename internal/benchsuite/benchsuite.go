// Package benchsuite is the micro-benchmark suite cmd/bench gates: hot
// paths, serving and persistence. One op is a call, a served bid
// (ServeBid) or a 64-bid slot-close round (SlotClose, CheckpointPerSlot,
// WALAppend).
package benchsuite

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// The gate of a row that sets none: one run's budget (-benchtime syntax),
// and how far its ns/op may exceed the base's in a pair and its B/op and
// allocs/op the committed values.
const (
	Benchtime = "200ms"
	NsTol     = 0.25
	BytesTol  = 0.10
	AllocsTol = 0.10

	servingSlots       = 4096 // a broker's horizon, rebuilt off the clock once spent
	servingBidsPerSlot = 64
	benchShards        = 4
)

// Bench is one row and its gate, zero fields the defaults above; a base
// revision's suite is read for Name and Func only. Every row runs at
// GOMAXPROCS NumCPU, a MultiCore one at 1 too.
type Bench struct {
	Name            string
	Func            func(b *testing.B)
	MultiCore       bool
	Benchtime       string
	NsTol, BytesTol float64
}

// Suite returns the tracked rows in reporting order.
func Suite() []Bench {
	// A serving row runs a broker, whose file I/O and per-plan allocation
	// swing run to run on identical code: wider ns/op and B/op bands,
	// allocs/op as tight. The per-op share of a broker's warm-up
	// allocations falls with the count, so it runs a fixed one.
	serving := func(name, count string, f func(*testing.B)) Bench {
		return Bench{Name: name, Func: f, MultiCore: true, Benchtime: count, NsTol: 0.5, BytesTol: 0.3}
	}
	return []Bench{
		{Name: "OfferPdFTSP", Func: OfferPdFTSP},
		{Name: "CalibrateDuals", Func: CalibrateDuals},
		{Name: "TraceGenerate", Func: TraceGenerate},
		{Name: "VendorQuotes", Func: VendorQuotes},
		{Name: "VendorQuotes/append", Func: VendorQuotesAppend},
		serving("ServeBid/batched-1", "2000x", func(b *testing.B) { serveBids(b, 1, 1) }),
		serving("ServeBid/batched-16", "2000x", func(b *testing.B) { serveBids(b, 16, 1) }),
		serving("ServeBid/batched-256", "2000x", func(b *testing.B) { serveBids(b, 256, 1) }),
		serving("ServeBid/sharded", "2000x", func(b *testing.B) { serveBids(b, servingBidsPerSlot, benchShards) }),
		serving("SlotClose/seq", "100x", func(b *testing.B) { slotRounds(b, 128, nil) }),
		{Name: "ShardRoute", Func: shardRoute},
		{Name: "HTTPDecodeBid/pooled", Func: decodeBids},
		{Name: "DecisionEncode/pooled", Func: encodeDecision},
		{Name: "DecisionLog/binary", Func: decisionLog},
		serving("CheckpointPerSlot/none", "100x", func(b *testing.B) { slotRounds(b, 0, nil) }),
		serving("CheckpointPerSlot/full", "100x", func(b *testing.B) { checkpointed(b, 1, 0) }),
		serving("CheckpointPerSlot/binary-delta", "100x", func(b *testing.B) { checkpointed(b, 1<<30, 0) }),
		serving("WALAppend/sync-1", "100x", func(b *testing.B) { checkpointed(b, 1<<30, 1) }),
		serving("WALAppend/sync-64", "100x", func(b *testing.B) { checkpointed(b, 1<<30, 64) }),
		{Name: "SpotAdvance", Func: spotAdvance},
		{Name: "SpotTraceGen", Func: spotTraceGen},
	}
}

func must(b *testing.B, err error) {
	if err != nil {
		b.Helper()
		b.Fatal(err)
	}
}

// hotPath sets up ten nodes of mix, a day of bids at rate and 5 vendors.
func hotPath(b *testing.B, mix string, rate float64) (lora.ModelConfig, *cluster.Cluster, []task.Task, *vendor.Marketplace) {
	model := lora.GPT2Small()
	groups, err := config.Mix(mix, 10)
	must(b, err)
	cl, err := config.NewCluster(timeslot.Day(), model, groups)
	must(b, err)
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = rate
	tasks, err := trace.Generate(cfg)
	must(b, err)
	mkt, err := vendor.Standard(5, 1)
	must(b, err)
	return model, cl, tasks, mkt
}

// OfferPdFTSP measures one Algorithm-1 iteration (DP + duals + pricing)
// on a warm ten-node hybrid cluster: Figure 13's per-task latency.
func OfferPdFTSP(b *testing.B) {
	model, cl, tasks, mkt := hotPath(b, "hybrid", 3)
	opts := core.CalibrateDuals(tasks, model, cl, mkt)
	opts.ReusePlans = true // decisions are dropped between offers
	sch, err := core.New(cl, opts)
	must(b, err)
	// Warm the prices on half the workload, refilling one env per bid.
	var env schedule.TaskEnv
	for i := 0; i < len(tasks)/2; i++ {
		env.Refill(&tasks[i], cl, model, mkt)
		sch.Offer(&env)
	}
	rest := tasks[len(tasks)/2:]
	var tk task.Task
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk = rest[i%len(rest)]
		tk.ID += 1_000_000 + i // fresh identity per offer
		env.Refill(&tk, cl, model, mkt)
		sch.Offer(&env)
	}
}

// CalibrateDuals measures the Lemma-2 α/β derivation a caller runs once.
func CalibrateDuals(b *testing.B) {
	model, cl, tasks, mkt := hotPath(b, "a100", 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CalibrateDuals(tasks, model, cl, mkt)
	}
}

// TraceGenerate measures generating a paper-scale day at rate 50.
func TraceGenerate(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.RatePerSlot = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := trace.Generate(cfg)
		must(b, err)
	}
}

// VendorQuotes measures one task's quotes from ten vendors via QuotesFor.
func VendorQuotes(b *testing.B) {
	mkt, err := vendor.Standard(10, 1)
	must(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mkt.QuotesFor(i)
	}
}

// VendorQuotesAppend is VendorQuotes into a buffer, as TaskEnv.Refill does.
func VendorQuotesAppend(b *testing.B) {
	mkt, err := vendor.Standard(10, 1)
	must(b, err)
	buf := make([]vendor.Quote, 0, mkt.NumVendors())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mkt.AppendQuotes(buf[:0], i)
	}
}

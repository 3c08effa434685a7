package pdftsp

// One benchmark per evaluation figure of the paper (Figures 4–13), each
// regenerating the figure through internal/experiments at a bench-sized
// profile, plus micro-benchmarks for the core algorithm's hot paths.
//
// The figures themselves (at the default "small" profile) are produced by
//
//	go run ./cmd/experiments -fig all
//
// and recorded in EXPERIMENTS.md; these benchmarks exist to track the
// cost of regenerating them and to exercise every experiment end to end
// under `go test -bench`.

import (
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/benchsuite"
	"github.com/pdftsp/pdftsp/internal/experiments"
	"github.com/pdftsp/pdftsp/internal/lp"
	"github.com/pdftsp/pdftsp/internal/milp"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// benchProfile is sized so a full figure regenerates in roughly a second.
func benchProfile() experiments.Profile {
	return experiments.Profile{
		Name:        "bench",
		Scale:       0.04,
		Seed:        1,
		TitanBudget: 20 * time.Millisecond,
		Horizon:     timeslot.NewHorizon(48),
	}
}

func benchFigure(b *testing.B, run func(p experiments.Profile) error) {
	b.Helper()
	p := benchProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04Scale(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigScale(); return err })
}

func BenchmarkFig05Vendors(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigVendors(); return err })
}

func BenchmarkFig06Capacity(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigCapacity(); return err })
}

func BenchmarkFig07Traces(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigTraces(); return err })
}

func BenchmarkFig08Workload(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigWorkload(); return err })
}

func BenchmarkFig09Deadlines(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigDeadlines(); return err })
}

func BenchmarkFig10Truthfulness(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigTruthfulness(); return err })
}

func BenchmarkFig11Rationality(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigRationality(); return err })
}

func BenchmarkFig12Ratio(b *testing.B) {
	opts := experiments.RatioOptions{
		Horizons:    []int{24},
		Rates:       []float64{0.2},
		Nodes:       2,
		SolveNodes:  30,
		SolveBudget: 20 * time.Second,
	}
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigRatio(opts); return err })
}

func BenchmarkFig13Runtime(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.FigRuntime(); return err })
}

// Ablation benches (DESIGN.md Section 6).

func BenchmarkAblationDualRule(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.AblationDualRule(); return err })
}

func BenchmarkAblationMask(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.AblationMask(); return err })
}

func BenchmarkAblationVendorPolicy(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.AblationVendorPolicy(); return err })
}

func BenchmarkAblationAdmission(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.AblationAdmission(); return err })
}

func BenchmarkAblationCalibration(b *testing.B) {
	benchFigure(b, func(p experiments.Profile) error { _, err := p.AblationCalibration(); return err })
}

// Micro-benchmarks for the algorithmic hot paths. The bodies live in
// internal/benchsuite so `go test -bench` and `go run ./cmd/bench`
// (snapshot tracking) measure the same code.

// BenchmarkOfferPdFTSP measures one Algorithm-1 iteration (DP + duals +
// pricing) on a warm cluster — the per-task latency of Figure 13's fast
// curve.
func BenchmarkOfferPdFTSP(b *testing.B) { benchsuite.OfferPdFTSP(b) }

// BenchmarkCalibrateDuals measures the Lemma-2 coefficient derivation.
func BenchmarkCalibrateDuals(b *testing.B) { benchsuite.CalibrateDuals(b) }

// BenchmarkTraceGenerate measures workload generation for a paper-scale
// day (rate 50).
func BenchmarkTraceGenerate(b *testing.B) { benchsuite.TraceGenerate(b) }

// BenchmarkSimplexScheduleLP measures the LP core on a Titan-slot-shaped
// instance.
func BenchmarkSimplexScheduleLP(b *testing.B) {
	// 12 tasks × 16 slots of x vars plus admission vars.
	const tasks, slots = 12, 16
	n := tasks*slots + tasks
	prob := &lp.Problem{NumVars: n, Objective: make([]float64, n)}
	for i := 0; i < tasks; i++ {
		prob.Objective[tasks*slots+i] = 50 // bids
		terms := []lp.Term{{Var: tasks*slots + i, Coef: -30}}
		for t := 0; t < slots; t++ {
			x := i*slots + t
			prob.Objective[x] = -2 // energy
			terms = append(terms, lp.Term{Var: x, Coef: 14})
			prob.AddConstraint(lp.LE, 1, lp.Term{Var: x, Coef: 1})
		}
		prob.AddConstraint(lp.GE, 0, terms...)
	}
	for t := 0; t < slots; t++ {
		var cap []lp.Term
		for i := 0; i < tasks; i++ {
			cap = append(cap, lp.Term{Var: i*slots + t, Coef: 14})
		}
		prob.AddConstraint(lp.LE, 86, cap...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := lp.Solve(prob, lp.Options{})
		if err != nil || sol.Status != lp.Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// BenchmarkMILPKnapsack measures the branch-and-bound on a 16-item 0-1
// knapsack (the NP-hard core of Theorem 1).
func BenchmarkMILPKnapsack(b *testing.B) {
	const n = 16
	prob := &milp.Problem{LP: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
	var cap []lp.Term
	for i := 0; i < n; i++ {
		prob.LP.Objective[i] = float64(3 + (i*7)%11)
		cap = append(cap, lp.Term{Var: i, Coef: float64(2 + (i*5)%7)})
		prob.Binary = append(prob.Binary, i)
	}
	prob.LP.AddConstraint(lp.LE, 30, cap...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := milp.Solve(prob, milp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVendorQuotes measures marketplace quote generation, through
// the allocating QuotesFor and into a caller-owned buffer.
func BenchmarkVendorQuotes(b *testing.B) {
	b.Run("alloc", benchsuite.VendorQuotes)
	b.Run("append", benchsuite.VendorQuotesAppend)
}

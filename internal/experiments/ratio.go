package experiments

import (
	"strconv"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/metrics"
	"github.com/pdftsp/pdftsp/internal/milp"
	"github.com/pdftsp/pdftsp/internal/offline"
	"github.com/pdftsp/pdftsp/internal/report"
	"github.com/pdftsp/pdftsp/internal/runner"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
)

// RatioResult is Figure 12: empirical competitive ratios across horizon
// lengths and workload intensities.
type RatioResult struct {
	Horizons  []int
	Workloads []string
	// Ratio[h][w] = OPT bound / pdFTSP welfare.
	Ratio [][]float64
	// Exact[h][w] reports whether the offline solve proved optimality
	// (otherwise the ratio uses the dual bound, a conservative
	// overestimate).
	Exact [][]bool
}

// Render prints the ratio matrix.
func (r *RatioResult) Render() string {
	rows := make([]string, len(r.Horizons))
	for i, h := range r.Horizons {
		rows[i] = "T=" + strconv.Itoa(h)
	}
	out := report.Table("Figure 12: empirical competitive ratio (OPT bound / online)", "",
		rows, r.Workloads, r.Ratio, "%.3f")
	return out
}

// RatioOptions sizes the Figure-12 instances. The offline optimum is a
// MILP over the whole horizon, so instances stay deliberately small
// (Section 5.2 computes OPT "via Gurobi solver" on small instances); the
// branch-and-bound's dual bound makes larger instances conservative
// rather than wrong.
type RatioOptions struct {
	// Horizons are the T values (the paper sweeps 50/100/150).
	Horizons []int
	// Rates are the per-slot arrival rates for the three workloads.
	Rates []float64
	// Nodes is the cluster size.
	Nodes int
	// SolveNodes budgets the branch-and-bound per instance.
	SolveNodes int
	// SolveBudget caps the wall-clock per instance.
	SolveBudget time.Duration
}

// DefaultRatioOptions matches the paper's axes at a tractable size.
func DefaultRatioOptions() RatioOptions {
	return RatioOptions{
		Horizons:    []int{50, 100, 150},
		Rates:       []float64{0.15, 0.25, 0.4}, // small / medium / high
		Nodes:       2,
		SolveNodes:  60,
		SolveBudget: 30 * time.Second,
	}
}

// ratioCell is one (horizon, workload) outcome of the Figure-12 sweep.
type ratioCell struct {
	ratio float64
	exact bool
}

// FigRatio reproduces Figure 12. Every (horizon, workload) cell — an
// online pdFTSP run plus an offline MILP solve — is an independent job,
// fanned out across the profile's workers.
func (p Profile) FigRatio(opts RatioOptions) (*RatioResult, error) {
	if len(opts.Horizons) == 0 {
		opts = DefaultRatioOptions()
	}
	res := &RatioResult{
		Horizons:  opts.Horizons,
		Workloads: []string{"small workload", "medium workload", "high workload"},
	}
	if len(opts.Rates) != len(res.Workloads) {
		res.Workloads = res.Workloads[:len(opts.Rates)]
	}
	nRates := len(opts.Rates)
	cells, err := runner.MapCtx(p.ctx(), p.workers(), len(opts.Horizons)*nRates, func(i int) (ratioCell, error) {
		T := opts.Horizons[i/nRates]
		wi := i % nRates
		h := timeslot.NewHorizon(T)
		tc := trace.DefaultConfig()
		tc.Seed = p.Seed + int64(T)*100 + int64(wi)
		tc.Horizon = h
		tc.RatePerSlot = opts.Rates[wi]
		tc.Deadlines = trace.TightDeadlines // keeps the MILP windows small
		tasks, err := trace.Generate(tc)
		if err != nil {
			return ratioCell{}, err
		}
		mkt, err := config.Market(3, p.Seed)
		if err != nil {
			return ratioCell{}, err
		}
		// Online pdFTSP.
		onCl, err := acquireCluster(h, opts.Nodes, Hybrid, tc.Model)
		if err != nil {
			return ratioCell{}, err
		}
		defer releaseCluster(h, opts.Nodes, Hybrid, tc.Model, onCl)
		sched, err := p.scheduler("pdFTSP", tasks, tc.Model, onCl, mkt)
		if err != nil {
			return ratioCell{}, err
		}
		onRes, err := sim.Run(onCl, sched, tasks, sim.Config{Model: tc.Model, Market: mkt,
			Observer: p.Observer, RunLabel: "fig12/T" + strconv.Itoa(T) + "-w" + strconv.Itoa(wi)})
		if err != nil {
			return ratioCell{}, err
		}
		// Offline optimum (or its dual bound).
		offCl, err := acquireCluster(h, opts.Nodes, Hybrid, tc.Model)
		if err != nil {
			return ratioCell{}, err
		}
		defer releaseCluster(h, opts.Nodes, Hybrid, tc.Model, offCl)
		offRes, err := offline.Solve(offline.Instance{
			Cluster: offCl, Tasks: tasks, Model: tc.Model, Market: mkt,
		}, milp.Options{MaxNodes: opts.SolveNodes, TimeBudget: opts.SolveBudget, GapTol: 0.02})
		if err != nil {
			return ratioCell{}, err
		}
		ratio, err := metrics.CompetitiveRatio(offRes.Bound, onRes.Welfare)
		if err != nil {
			return ratioCell{}, err
		}
		return ratioCell{ratio: ratio, exact: offRes.Status == milp.Optimal}, nil
	})
	if err != nil {
		return nil, err
	}
	for hi := range opts.Horizons {
		row := make([]float64, nRates)
		exact := make([]bool, nRates)
		for wi := 0; wi < nRates; wi++ {
			row[wi] = cells[hi*nRates+wi].ratio
			exact[wi] = cells[hi*nRates+wi].exact
		}
		res.Ratio = append(res.Ratio, row)
		res.Exact = append(res.Exact, exact)
	}
	return res, nil
}

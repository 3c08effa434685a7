package experiments

import (
	"fmt"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/metrics"
	"github.com/pdftsp/pdftsp/internal/report"
	"github.com/pdftsp/pdftsp/internal/runner"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/trace"
)

// RuntimeResult is Figure 13: per-task scheduling latency CDFs of pdFTSP
// versus Titan on the same workload and cluster.
type RuntimeResult struct {
	PdFTSP []metrics.CDFPoint
	Titan  []metrics.CDFPoint
	// Percentile summaries in seconds.
	PdP50, PdP99, TitanP50, TitanP99 float64
	// Welfare and admission counts of the two underlying runs. Latencies
	// are wall-clock and vary run to run; these fields are the
	// deterministic part of the figure, which the parallel-determinism
	// test audits.
	PdWelfare, TitanWelfare   float64
	PdAdmitted, TitanAdmitted int
}

// Render prints percentile summaries plus coarse CDF samples.
func (r *RuntimeResult) Render() string {
	head := report.KV("Figure 13: per-task scheduling latency (seconds)",
		[]string{"pdFTSP p50", "pdFTSP p99", "Titan p50", "Titan p99"},
		[]string{
			fmt.Sprintf("%.6f", r.PdP50), fmt.Sprintf("%.6f", r.PdP99),
			fmt.Sprintf("%.6f", r.TitanP50), fmt.Sprintf("%.6f", r.TitanP99),
		})
	sampled := func(cdf []metrics.CDFPoint) ([]float64, []float64) {
		var xs, ys []float64
		step := len(cdf) / 10
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(cdf); i += step {
			xs = append(xs, cdf[i].X)
			ys = append(ys, cdf[i].P)
		}
		return xs, ys
	}
	x1, y1 := sampled(r.PdFTSP)
	x2, y2 := sampled(r.Titan)
	return head +
		report.Series("pdFTSP latency CDF", "seconds", "P", x1, y1) +
		report.Series("Titan latency CDF", "seconds", "P", x2, y2)
}

// FigRuntime reproduces Figure 13 at the paper's 100-node point (scaled
// by the profile): both schedulers process the same workload; Titan's
// per-slot MILP time is averaged over the slot's tasks, exactly as in the
// paper. The two scheduler branches fan out across the profile's workers;
// for publication-grade latency measurements on a loaded machine run with
// Parallelism=1 so the branches cannot contend for cores.
func (p Profile) FigRuntime() (*RuntimeResult, error) {
	tc := p.baseTrace()
	tasks, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	mkt, err := config.Market(5, p.Seed)
	if err != nil {
		return nil, err
	}
	branches, err := runner.MapCtx(p.ctx(), p.workers(), 2, func(i int) (*sim.Result, error) {
		cl, err := acquireCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model)
		if err != nil {
			return nil, err
		}
		defer releaseCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model, cl)
		sched, err := p.scheduler([]string{"pdFTSP", "Titan"}[i], tasks, tc.Model, cl, mkt)
		if err != nil {
			return nil, err
		}
		return sim.Run(cl, sched, tasks, sim.Config{Model: tc.Model, Market: mkt,
			Observer: p.Observer, RunLabel: "fig13"})
	})
	if err != nil {
		return nil, err
	}
	pd, ti := branches[0], branches[1]
	toF := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds()
		}
		return out
	}
	return &RuntimeResult{
		PdFTSP:        metrics.LatencyCDF(pd.OfferLatency),
		Titan:         metrics.LatencyCDF(ti.OfferLatency),
		PdP50:         metrics.Percentile(toF(pd.OfferLatency), 50),
		PdP99:         metrics.Percentile(toF(pd.OfferLatency), 99),
		TitanP50:      metrics.Percentile(toF(ti.OfferLatency), 50),
		TitanP99:      metrics.Percentile(toF(ti.OfferLatency), 99),
		PdWelfare:     pd.Welfare,
		TitanWelfare:  ti.Welfare,
		PdAdmitted:    pd.Admitted,
		TitanAdmitted: ti.Admitted,
	}, nil
}

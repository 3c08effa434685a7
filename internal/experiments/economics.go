package experiments

import (
	"fmt"

	"github.com/pdftsp/pdftsp/internal/auction"
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/report"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/trace"
)

// TruthfulnessResult is Figure 10: a focal bid's utility as a function of
// its declared bid, with the true valuation fixed.
type TruthfulnessResult struct {
	TrueValue float64
	Points    []auction.SweepPoint
	// TruthfulUtility is the utility when bidding the true valuation.
	TruthfulUtility float64
}

// Render prints the sweep.
func (r *TruthfulnessResult) Render() string {
	xs := make([]float64, len(r.Points))
	ys := make([]float64, len(r.Points))
	for i, pt := range r.Points {
		xs[i], ys[i] = pt.Bid, pt.Utility
	}
	head := fmt.Sprintf("Figure 10: truthfulness (true valuation %.1f, truthful utility %.3f)", r.TrueValue, r.TruthfulUtility)
	return report.Series(head, "bid", "utility", xs, ys)
}

// auctionScenario builds the shared Figure-10/11 setup: a medium workload
// on a profile-scaled cluster with pdFTSP.
func (p Profile) auctionScenario() (*auction.Scenario, error) {
	tc := p.baseTrace()
	background, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	mkt, err := config.Market(5, p.Seed)
	if err != nil {
		return nil, err
	}
	makeCluster := func() (*cluster.Cluster, error) {
		return acquireCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model)
	}
	releaseCl := func(cl *cluster.Cluster) {
		releaseCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model, cl)
	}
	cl0, err := makeCluster()
	if err != nil {
		return nil, err
	}
	opts := core.CalibrateDuals(background, tc.Model, cl0, mkt)
	releaseCl(cl0)
	// Route around committed load so the sweep exercises the pricing
	// boundary rather than incidental capacity rejections.
	opts.MaskFullCells = true
	// Each branch drops its scheduler after the focal offer; the focal
	// decision is consumed before any further offer, so plan buffers
	// recycle safely.
	opts.ReusePlans = true
	// The focal bid mirrors the paper's running example: scheduled late
	// in the day against an already-priced cluster.
	return &auction.Scenario{
		MakeCluster:    makeCluster,
		ReleaseCluster: releaseCl,
		MakeScheduler: func(cl *cluster.Cluster) (auction.Offerer, error) {
			return core.New(cl, opts)
		},
		Background:  background,
		Focal:       mkTask(1_000_000, p.Horizon.T/2, p.Horizon.T/2+12, 30, 5, 0),
		TrueValue:   36, // ≈ value 1.2/unit, inside the generator's range
		Model:       tc.Model,
		Market:      mkt,
		Parallelism: p.Parallelism,
	}, nil
}

// FigTruthfulness reproduces Figure 10: sweep the focal bid from zero to
// well above the true valuation and record the achieved utility.
func (p Profile) FigTruthfulness() (*TruthfulnessResult, error) {
	sc, err := p.auctionScenario()
	if err != nil {
		return nil, err
	}
	var bids []float64
	for b := 0.0; b <= 2*sc.TrueValue; b += sc.TrueValue / 10 {
		bids = append(bids, b)
	}
	points, err := auction.TruthfulnessSweep(sc, bids)
	if err != nil {
		return nil, err
	}
	truthful, err := sc.RunFocal(sc.TrueValue)
	if err != nil {
		return nil, err
	}
	res := &TruthfulnessResult{TrueValue: sc.TrueValue, Points: points}
	if truthful.Admitted {
		res.TruthfulUtility = sc.TrueValue - truthful.Payment
	}
	if err := auction.VerifyTruthful(points, sc.TrueValue, res.TruthfulUtility, 1e-9); err != nil {
		return nil, err
	}
	return res, nil
}

// RationalityResult is Figure 11: sampled winning bids and their
// payments, normalized by the largest sampled bid as the paper plots.
type RationalityResult struct {
	Pairs []auction.IRPair
	// MaxBid normalizes the plot.
	MaxBid float64
}

// Render prints the audit.
func (r *RationalityResult) Render() string {
	rows := make([]string, len(r.Pairs))
	data := make([][]float64, len(r.Pairs))
	for i, pr := range r.Pairs {
		rows[i] = fmt.Sprintf("task %d", pr.TaskID)
		data[i] = []float64{pr.Bid / r.MaxBid, pr.Payment / r.MaxBid}
	}
	return report.Table("Figure 11: individual rationality (normalized money)", "",
		rows, []string{"bid", "payment"}, data, "%.3f")
}

// FigRationality reproduces Figure 11: run pdFTSP over the medium
// workload and audit ten random winners' bids against their payments.
func (p Profile) FigRationality() (*RationalityResult, error) {
	tc := p.baseTrace()
	tasks, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	mkt, err := config.Market(5, p.Seed)
	if err != nil {
		return nil, err
	}
	cl, err := acquireCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model)
	if err != nil {
		return nil, err
	}
	defer releaseCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model, cl)
	sched, err := p.scheduler("pdFTSP", tasks, tc.Model, cl, mkt)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(cl, sched, tasks, sim.Config{Model: tc.Model, Market: mkt, CollectDecisions: true,
		Observer: p.Observer, RunLabel: "fig11"})
	if err != nil {
		return nil, err
	}
	pairs, err := auction.RationalityAudit(res.Decisions, tasks, 10, p.Seed+3)
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no winners to audit")
	}
	if err := auction.VerifyIR(pairs, 1e-9); err != nil {
		return nil, err
	}
	maxBid := 0.0
	for _, pr := range pairs {
		if pr.Bid > maxBid {
			maxBid = pr.Bid
		}
	}
	return &RationalityResult{Pairs: pairs, MaxBid: maxBid}, nil
}

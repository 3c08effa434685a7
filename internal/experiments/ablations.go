package experiments

import (
	"fmt"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/metrics"
	"github.com/pdftsp/pdftsp/internal/report"
	"github.com/pdftsp/pdftsp/internal/runner"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// AblationResult is a variant-versus-welfare table for the design-choice
// studies of DESIGN.md Section 6 (extensions beyond the paper).
type AblationResult struct {
	Title      string
	Variants   []string
	Welfare    []float64
	Normalized []float64
}

// Render prints the ablation.
func (a *AblationResult) Render() string {
	data := make([][]float64, len(a.Variants))
	for i := range a.Variants {
		data[i] = []float64{a.Welfare[i], a.Normalized[i]}
	}
	return report.Table(a.Title, "", a.Variants, []string{"welfare", "normalized"}, data, "%.3f")
}

// runVariants evaluates scheduler factories on the identical medium
// workload and cluster recipe. The workload and marketplace are shared
// read-only; every variant owns a fresh cluster and scheduler, so the
// variants fan out across the profile's workers.
func (p Profile) runVariants(id, title string, names []string,
	factories []func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error)) (*AblationResult, error) {
	tc := p.baseTrace()
	tasks, err := trace.Generate(tc)
	if err != nil {
		return nil, err
	}
	mkt, err := config.Market(5, p.Seed)
	if err != nil {
		return nil, err
	}
	welfare, err := runner.Map(p.ctx(), p.workers(), len(factories), func(i int) (float64, error) {
		cl, err := acquireCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model)
		if err != nil {
			return 0, err
		}
		defer releaseCluster(p.Horizon, p.nodes(100), Hybrid, tc.Model, cl)
		sched, err := factories[i](cl, tasks, mkt)
		if err != nil {
			return 0, err
		}
		out, err := sim.Run(cl, sched, tasks, sim.Config{Model: tc.Model, Market: mkt,
			Observer: p.Observer, RunLabel: id + "/" + names[i]})
		if err != nil {
			return 0, fmt.Errorf("%s variant %s: %w", id, names[i], err)
		}
		return out.Welfare, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: title, Variants: names, Welfare: welfare}
	norm := metrics.NormalizeByMax([][]float64{res.Welfare})
	res.Normalized = norm[0]
	return res, nil
}

// taskList aliases the workload element type to keep factory signatures
// short.
type taskList = task.Task

// AblationDualRule compares the paper's dual update (7)–(8) against
// pure-additive and pure-multiplicative variants.
func (p Profile) AblationDualRule() (*AblationResult, error) {
	rules := []core.DualRule{core.PaperRule, core.AdditiveOnly, core.MultiplicativeOnly}
	names := make([]string, len(rules))
	factories := make([]func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error), len(rules))
	for i, rule := range rules {
		rule := rule
		names[i] = rule.String()
		factories[i] = func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error) {
			opts := core.CalibrateDuals(tasks, trace.DefaultConfig().Model, cl, mkt)
			opts.DualRule = rule
			return core.New(cl, opts)
		}
	}
	return p.runVariants("ablation-dual", "Ablation: dual price update rule", names, factories)
}

// AblationMask compares the paper's price-only capacity control against
// the capacity-aware DP extension (MaskFullCells).
func (p Profile) AblationMask() (*AblationResult, error) {
	names := []string{"paper (price-only)", "masked DP"}
	mk := func(mask bool) func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error) {
		return func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error) {
			opts := core.CalibrateDuals(tasks, trace.DefaultConfig().Model, cl, mkt)
			opts.MaskFullCells = mask
			return core.New(cl, opts)
		}
	}
	return p.runVariants("ablation-mask", "Ablation: capacity-aware DP masking", names,
		[]func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error){mk(false), mk(true)})
}

// AblationVendorPolicy compares greedy vendor-selection policies.
func (p Profile) AblationVendorPolicy() (*AblationResult, error) {
	names := []string{"fastest (EFT)", "cheapest", "random"}
	policies := []baseline.VendorPolicy{baseline.FastestVendor, baseline.CheapestVendor, baseline.RandomVendor}
	factories := make([]func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error), len(policies))
	for i, pol := range policies {
		pol := pol
		name := names[i]
		factories[i] = func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error) {
			return baseline.NewGreedy(name, pol, false, p.Seed), nil
		}
	}
	return p.runVariants("ablation-vendor", "Ablation: greedy vendor selection policy", names, factories)
}

// AblationAdmission compares the paper-literal greedy (admit any feasible
// task) against the welfare-checked greedy.
func (p Profile) AblationAdmission() (*AblationResult, error) {
	names := []string{"EFT admit-if-feasible", "EFT welfare-checked"}
	factories := []func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error){
		func(*cluster.Cluster, []taskList, *vendor.Marketplace) (sim.Scheduler, error) {
			return baseline.NewEFT(), nil
		},
		func(*cluster.Cluster, []taskList, *vendor.Marketplace) (sim.Scheduler, error) {
			return baseline.NewEFT().WithWelfareCheck(), nil
		},
	}
	return p.runVariants("ablation-admission", "Ablation: greedy admission rule", names, factories)
}

// AblationCalibration compares the paper-literal Lemma-2 coefficients
// (α = max b/M, β = max b/r) against the footprint-normalized net-value
// calibration of core.CalibrateDuals and the oracle-free online adaptive
// estimator.
func (p Profile) AblationCalibration() (*AblationResult, error) {
	names := []string{"paper-literal α,β", "calibrated α,β", "adaptive α,β"}
	factories := []func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error){
		func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error) {
			alpha, beta := trace.AlphaBeta(tasks)
			return core.New(cl, core.Options{Alpha: alpha, Beta: beta})
		},
		func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error) {
			return core.New(cl, core.CalibrateDuals(tasks, trace.DefaultConfig().Model, cl, mkt))
		},
		func(cl *cluster.Cluster, tasks []taskList, mkt *vendor.Marketplace) (sim.Scheduler, error) {
			return core.NewAdaptive(cl, core.Options{}, 1.3)
		},
	}
	return p.runVariants("ablation-calibration", "Ablation: dual coefficient calibration", names, factories)
}

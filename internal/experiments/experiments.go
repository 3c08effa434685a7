// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each Fig* function reproduces one figure and
// returns a renderable result; cmd/experiments and the repository-root
// benchmarks are thin wrappers around these entry points.
//
// Scale: the paper runs 50–200 nodes with 30–80 task arrivals per slot.
// Those runs are reproducible here with Profile Paper(), but they take
// tens of minutes on a laptop; the default Small() profile scales node
// counts and arrival rates by the same factor (preserving per-node load,
// which is what the figures exercise) so the whole suite completes in
// minutes. EXPERIMENTS.md records Small()-profile outputs.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/metrics"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/report"
	"github.com/pdftsp/pdftsp/internal/runner"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Profile scales the paper's experiment sizes.
type Profile struct {
	// Name labels the profile in output.
	Name string
	// Scale multiplies the paper's node counts and arrival rates.
	Scale float64
	// Seed drives workload and marketplace generation.
	Seed int64
	// Seeds, when above 1, repeats every bar-figure setting with
	// Seed+1000·s for s = 0..Seeds-1 and reports mean and standard
	// deviation. Default 1 (single run, as the paper plots).
	Seeds int
	// Parallelism bounds the worker pool every figure fans its
	// independent experiment settings out on: 1 forces the sequential
	// path, 0 (the default) uses one worker per CPU. Each parallel job
	// owns its own cluster, scheduler, RNG, and marketplace, so results
	// are identical to Parallelism=1 regardless of the setting (the
	// Titan baseline's wall-clock MILP budget is the one nondeterministic
	// input, and it is nondeterministic even sequentially; see
	// TestParallelDeterminism for the budget-free guarantee).
	Parallelism int
	// TitanBudget is the per-slot MILP budget for the Titan baseline.
	TitanBudget time.Duration
	// TitanNodes caps the branch-and-bound nodes of each Titan MILP
	// solve; 0 keeps Titan's default (2000). A small node cap combined
	// with a generous TitanBudget makes Titan node-bound rather than
	// wall-clock-bound — and therefore fully deterministic — which the
	// determinism tests rely on.
	TitanNodes int
	// Horizon is the slotted horizon (the paper's is one day).
	Horizon timeslot.Horizon
	// Observer, when non-nil, receives every run's decision-path event
	// stream (trace sink, metrics, or invariant audit — see internal/obs).
	// Figures run their settings in parallel, so the observer must be
	// safe for concurrent use; events carry per-run labels like
	// "fig4/philly-100/seed1001" for demultiplexing.
	Observer obs.Observer
	// Context, when non-nil, cancels a figure early: the worker pool
	// stops launching jobs and every in-flight simulation aborts between
	// offers (sim.Config.Context), so ^C on cmd/experiments returns
	// within one bid. Nil runs to completion.
	Context context.Context
}

// ctx resolves the profile's cancellation context.
func (p Profile) ctx() context.Context {
	if p.Context != nil {
		return p.Context
	}
	return context.Background()
}

// Small is the default profile: 10% of the paper's scale, same per-node
// load.
func Small() Profile {
	return Profile{Name: "small", Scale: 0.1, Seed: 1, TitanBudget: 300 * time.Millisecond, Horizon: timeslot.Day()}
}

// Paper is the full-scale profile (slow: tens of minutes per figure).
func Paper() Profile {
	return Profile{Name: "paper", Scale: 1.0, Seed: 1, TitanBudget: 250 * time.Millisecond, Horizon: timeslot.Day()}
}

// workers resolves the profile's parallelism knob.
func (p Profile) workers() int { return runner.Parallelism(p.Parallelism) }

// nodes scales a paper node count, keeping at least two nodes.
func (p Profile) nodes(paperCount int) int {
	n := int(float64(paperCount)*p.Scale + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// rate scales a paper arrival rate, keeping it positive.
func (p Profile) rate(paperRate float64) float64 {
	r := paperRate * p.Scale
	if r < 0.5 {
		r = 0.5
	}
	return r
}

// Mix selects the cluster's GPU composition (Figure 6).
type Mix int

// Cluster mixes.
const (
	AllA100 Mix = iota
	AllA40
	Hybrid
)

// String implements fmt.Stringer.
func (m Mix) String() string {
	switch m {
	case AllA100:
		return "A100"
	case AllA40:
		return "A40"
	default:
		return "hybrid"
	}
}

// buildCluster assembles k nodes of the requested mix, with capacities
// calibrated by the LoRA throughput model.
func buildCluster(h timeslot.Horizon, k int, mix Mix, model lora.ModelConfig) (*cluster.Cluster, error) {
	groups, err := config.Mix(strings.ToLower(mix.String()), k)
	if err != nil {
		return nil, err
	}
	return config.NewCluster(h, model, groups)
}

// Algos is the figure-standard algorithm order.
var Algos = []string{"pdFTSP", "Titan", "EFT", "NTM"}

// Baseline returns the comparison scheduler "titan", "eft" or "ntm" names
// in any case (Algos, pdftsp-sim -algo); budget and maxNodes bound Titan's
// per-slot MILP, 0 keeping its defaults. It is the one name → baseline
// switch, on the figure side so that no serving binary links a baseline.
func Baseline(name string, seed int64, budget time.Duration, maxNodes int) (sim.Scheduler, error) {
	switch strings.ToLower(name) {
	case "titan":
		return baseline.NewTitan(baseline.TitanOptions{Seed: seed, SolveBudget: budget, MaxNodes: maxNodes}), nil
	case "eft":
		return baseline.NewEFT(), nil
	case "ntm":
		return baseline.NewNTM(seed), nil
	}
	return nil, fmt.Errorf("experiments: unknown baseline %q", name)
}

// scheduler builds one of Algos on cl: pdFTSP calibrated on the workload,
// or a baseline under the profile's seed and Titan bounds.
func (p Profile) scheduler(name string, tasks []task.Task, model lora.ModelConfig, cl *cluster.Cluster, mkt *vendor.Marketplace) (sim.Scheduler, error) {
	if name != "pdFTSP" {
		return Baseline(name, p.Seed, p.TitanBudget, p.TitanNodes)
	}
	opts := core.CalibrateDuals(tasks, model, cl, mkt)
	// The engine never retains a Decision past the next offer
	// (CollectDecisions deep-copies), so plan buffers recycle.
	opts.ReusePlans = true
	return core.New(cl, opts)
}

// setting is one bar group: a cluster recipe plus a workload.
type setting struct {
	label   string
	nodes   int
	mix     Mix
	traceC  trace.Config
	vendors int
	// run labels this setting's events in the observer stream; empty
	// falls back to label.
	run string
}

// runSetting executes all four algorithms on identical inputs and returns
// their results keyed by algorithm name. The task list and marketplace are
// generated once and shared read-only; each algorithm owns a fresh cluster
// and scheduler, so the four runs fan out across the profile's workers.
func (p Profile) runSetting(s setting) (map[string]*sim.Result, error) {
	tasks, err := trace.Generate(s.traceC)
	if err != nil {
		return nil, err
	}
	nVendors := s.vendors
	if nVendors <= 0 {
		nVendors = 5
	}
	mkt, err := config.Market(nVendors, p.Seed)
	if err != nil {
		return nil, err
	}
	model := s.traceC.Model
	results, err := runner.MapCtx(p.ctx(), p.workers(), len(Algos), func(i int) (*sim.Result, error) {
		name := Algos[i]
		cl, err := acquireCluster(p.Horizon, s.nodes, s.mix, model)
		if err != nil {
			return nil, err
		}
		defer releaseCluster(p.Horizon, s.nodes, s.mix, model, cl)
		sched, err := p.scheduler(name, tasks, model, cl, mkt)
		if err != nil {
			return nil, err
		}
		runLabel := s.run
		if runLabel == "" {
			runLabel = s.label
		}
		res, err := sim.Run(cl, sched, tasks, sim.Config{Context: p.Context, Model: model, Market: mkt, Observer: p.Observer, RunLabel: runLabel})
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", name, s.label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*sim.Result, len(Algos))
	for i, name := range Algos {
		out[name] = results[i]
	}
	return out, nil
}

// BarFigure is the result shape of Figures 4–9: welfare per (group,
// algorithm).
type BarFigure struct {
	ID, Title  string
	Rows       []string
	Algos      []string
	Raw        [][]float64
	Normalized [][]float64
	// Std holds the per-cell standard deviation when Profile.Seeds > 1
	// (nil for single-seed runs).
	Std [][]float64
	// Results keeps the full per-run accounting (of the base seed) for
	// deeper inspection.
	Results []map[string]*sim.Result
}

// runBarFigure executes a list of settings, optionally over several
// seeds. Every (setting, seed) pair is an independent job — its own
// workload, marketplace, clusters, and schedulers — fanned out across the
// profile's workers; aggregation happens afterwards in job order, so the
// figure is identical at every parallelism level.
func (p Profile) runBarFigure(id, title string, settings []setting) (*BarFigure, error) {
	seeds := p.Seeds
	if seeds < 1 {
		seeds = 1
	}
	jobs, err := runner.MapCtx(p.ctx(), p.workers(), len(settings)*seeds, func(i int) (map[string]*sim.Result, error) {
		run := settings[i/seeds]
		run.traceC.Seed = p.Seed + int64(i%seeds)*1000
		run.run = fmt.Sprintf("%s/%s/seed%d", id, run.label, run.traceC.Seed)
		return p.runSetting(run)
	})
	if err != nil {
		return nil, err
	}
	fig := &BarFigure{ID: id, Title: title, Algos: Algos}
	for si, s := range settings {
		sum := make([]float64, len(Algos))
		sumSq := make([]float64, len(Algos))
		for sd := 0; sd < seeds; sd++ {
			res := jobs[si*seeds+sd]
			for j, a := range Algos {
				w := res[a].Welfare
				sum[j] += w
				sumSq[j] += w * w
			}
		}
		row := make([]float64, len(Algos))
		std := make([]float64, len(Algos))
		for j := range Algos {
			row[j] = sum[j] / float64(seeds)
			if seeds > 1 {
				variance := sumSq[j]/float64(seeds) - row[j]*row[j]
				if variance > 0 {
					std[j] = math.Sqrt(variance)
				}
			}
		}
		fig.Rows = append(fig.Rows, s.label)
		fig.Raw = append(fig.Raw, row)
		if seeds > 1 {
			fig.Std = append(fig.Std, std)
		}
		fig.Results = append(fig.Results, jobs[si*seeds])
	}
	fig.Normalized = metrics.NormalizeByMax(fig.Raw)
	return fig, nil
}

// Render prints the figure as two tables (normalized, as the paper plots,
// and raw welfare).
func (f *BarFigure) Render() string {
	out := report.Table(f.Title+" — normalized social welfare", "", f.Rows, f.Algos, f.Normalized, "%.3f") +
		report.Table("raw social welfare", "", f.Rows, f.Algos, f.Raw, "%.1f")
	if f.Std != nil {
		out += report.Table("std dev over seeds", "", f.Rows, f.Algos, f.Std, "%.1f")
	}
	out += report.Bars("", f.Rows, f.Algos, f.Normalized, 40)
	return out
}

// Supplementary renders the metrics the paper does not tabulate but a
// release should: acceptance rate, auction revenue, and cluster
// utilization per (group, algorithm).
func (f *BarFigure) Supplementary() string {
	pick := func(get func(r *sim.Result) float64) [][]float64 {
		out := make([][]float64, len(f.Results))
		for i, m := range f.Results {
			out[i] = make([]float64, len(f.Algos))
			for j, a := range f.Algos {
				out[i][j] = get(m[a])
			}
		}
		return out
	}
	return report.Table("acceptance rate", "", f.Rows, f.Algos,
		pick(func(r *sim.Result) float64 { return r.AcceptanceRate() }), "%.3f") +
		report.Table("auction revenue", "", f.Rows, f.Algos,
			pick(func(r *sim.Result) float64 { return r.Revenue }), "%.1f") +
		report.Table("compute utilization", "", f.Rows, f.Algos,
			pick(func(r *sim.Result) float64 { return r.Utilization }), "%.3f")
}

// Improvement returns pdFTSP's percentage improvement over the named
// algorithm in the given row (the paper's headline metric).
func (f *BarFigure) Improvement(row int, algo string) float64 {
	ai := -1
	for j, a := range f.Algos {
		if a == algo {
			ai = j
		}
	}
	if ai < 0 || row >= len(f.Raw) {
		return 0
	}
	return metrics.ImprovementPct(f.Raw[row][0], f.Raw[row][ai])
}

// baseTrace returns the default workload config under the profile.
func (p Profile) baseTrace() trace.Config {
	tc := trace.DefaultConfig()
	tc.Seed = p.Seed
	tc.Horizon = p.Horizon
	tc.RatePerSlot = p.rate(50) // the paper's medium workload
	return tc
}

// mkTask is a tiny helper used by the economic figures; its slots lie
// inside the profile's horizon and its work is a small constant.
func mkTask(id, arrival, deadline, work int, mem, bid float64) task.Task {
	return task.Task{
		ID: id, Arrival: int32(arrival), Deadline: int32(deadline), DatasetSamples: int32(work * lora.SamplesPerUnit),
		Epochs: 1, Work: int32(work), MemGB: mem, Rank: 8, Batch: 16, Bid: bid, TrueValue: bid,
	}
}

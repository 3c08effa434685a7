package experiments

import (
	"reflect"
	"testing"
	"time"
)

// detProfile returns the determinism-test profile at the given
// parallelism. It is tiny() with the Titan baseline made node-bound:
// the per-slot MILP budget is so generous that the (deterministic) node
// cap always triggers first, removing the wall clock — the one
// nondeterministic input any figure has — from the run. Everything else
// must then be byte-identical at every parallelism level.
func detProfile(par int) Profile {
	p := tiny()
	p.TitanBudget = 60 * time.Second
	p.TitanNodes = 60
	p.Parallelism = par
	return p
}

// assertSame runs the same figure sequentially and on four workers and
// requires identical results. Four workers on the tiny figures forces
// job interleaving (more jobs than workers), which is the racy regime;
// `go test -race ./internal/experiments` checks the memory model side.
func assertSame[T any](t *testing.T, name string, run func(p Profile) (T, error)) {
	t.Helper()
	seq, err := run(detProfile(1))
	if err != nil {
		t.Fatalf("%s sequential: %v", name, err)
	}
	par, err := run(detProfile(4))
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("%s: parallel result differs from sequential\nseq: %+v\npar: %+v", name, seq, par)
	}
}

// barPayload projects a BarFigure onto its deterministic content: every
// number the figure renders plus the full per-run accounting (welfare,
// admissions, revenue, utilization per algorithm).
type barPayload struct {
	Rows               []string
	Raw, Norm, Std     [][]float64
	Welfare            [][]float64
	Revenue            [][]float64
	VendorSpend        [][]float64
	EnergySpend        [][]float64
	Utilization        [][]float64
	Admitted, Rejected [][]int
}

func project(fig *BarFigure) barPayload {
	p := barPayload{Rows: fig.Rows, Raw: fig.Raw, Norm: fig.Normalized, Std: fig.Std}
	for _, m := range fig.Results {
		var wel, rev, ven, eng, util []float64
		var adm, rej []int
		for _, algo := range fig.Algos {
			r := m[algo]
			wel = append(wel, r.Welfare)
			rev = append(rev, r.Revenue)
			ven = append(ven, r.VendorSpend)
			eng = append(eng, r.EnergySpend)
			util = append(util, r.Utilization)
			adm = append(adm, r.Admitted)
			rej = append(rej, r.Rejected)
		}
		p.Welfare = append(p.Welfare, wel)
		p.Revenue = append(p.Revenue, rev)
		p.VendorSpend = append(p.VendorSpend, ven)
		p.EnergySpend = append(p.EnergySpend, eng)
		p.Utilization = append(p.Utilization, util)
		p.Admitted = append(p.Admitted, adm)
		p.Rejected = append(p.Rejected, rej)
	}
	return p
}

// TestParallelDeterminismBarFigures covers every bar-figure entry point
// (Figures 4–9), i.e. the per-(setting, algorithm) fan-out of
// runSetting and the per-(setting, seed) fan-out of runBarFigure.
func TestParallelDeterminismBarFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("node-bound Titan makes every bar figure minutes-slow; covered by the full run")
	}
	for _, fig := range []struct {
		name string
		run  func(p Profile) (*BarFigure, error)
	}{
		{"FigScale", func(p Profile) (*BarFigure, error) { return p.FigScale() }},
		{"FigVendors", func(p Profile) (*BarFigure, error) { return p.FigVendors() }},
		{"FigCapacity", func(p Profile) (*BarFigure, error) { return p.FigCapacity() }},
		{"FigTraces", func(p Profile) (*BarFigure, error) { return p.FigTraces() }},
		{"FigWorkload", func(p Profile) (*BarFigure, error) { return p.FigWorkload() }},
		{"FigDeadlines", func(p Profile) (*BarFigure, error) { return p.FigDeadlines() }},
	} {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			assertSame(t, fig.name, func(p Profile) (barPayload, error) {
				f, err := fig.run(p)
				if err != nil {
					return barPayload{}, err
				}
				return project(f), nil
			})
		})
	}
}

// TestParallelDeterminismMultiSeed exercises the seed-repeat dimension
// of the bar-figure fan-out (Seeds·settings jobs, aggregation in job
// order).
func TestParallelDeterminismMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("node-bound Titan makes the multi-seed figure minutes-slow; covered by the full run")
	}
	assertSame(t, "FigCapacity/seeds=2", func(p Profile) (barPayload, error) {
		p.Seeds = 2
		f, err := p.FigCapacity()
		if err != nil {
			return barPayload{}, err
		}
		return project(f), nil
	})
}

// TestParallelDeterminismEconomics covers the auction sweeps: the
// per-bid counterfactual branches of Figure 10 and the audited run of
// Figure 11.
func TestParallelDeterminismEconomics(t *testing.T) {
	t.Run("FigTruthfulness", func(t *testing.T) {
		t.Parallel()
		assertSame(t, "FigTruthfulness", func(p Profile) (*TruthfulnessResult, error) {
			return p.FigTruthfulness()
		})
	})
	t.Run("FigRationality", func(t *testing.T) {
		t.Parallel()
		assertSame(t, "FigRationality", func(p Profile) (*RationalityResult, error) {
			return p.FigRationality()
		})
	})
}

// TestParallelDeterminismRatio covers Figure 12's per-cell MILP
// fan-out. The offline solves are made node-bound the same way Titan
// is: tiny node caps under a generous wall-clock budget.
func TestParallelDeterminismRatio(t *testing.T) {
	assertSame(t, "FigRatio", func(p Profile) (*RatioResult, error) {
		return p.FigRatio(RatioOptions{
			Horizons:    []int{24},
			Rates:       []float64{0.15, 0.3},
			Nodes:       2,
			SolveNodes:  40,
			SolveBudget: 120 * time.Second,
		})
	})
}

// TestParallelDeterminismRuntime covers Figure 13's two scheduler
// branches. Latencies are wall-clock by definition, so the audit
// compares the runs' deterministic surface: welfare and admissions.
func TestParallelDeterminismRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("node-bound Titan runs are slow; covered by the full run")
	}
	type runtimePayload struct {
		PdWelfare, TitanWelfare   float64
		PdAdmitted, TitanAdmitted int
		PdSamples, TitanSamples   uint64
	}
	assertSame(t, "FigRuntime", func(p Profile) (runtimePayload, error) {
		r, err := p.FigRuntime()
		if err != nil {
			return runtimePayload{}, err
		}
		return runtimePayload{
			PdWelfare: r.PdWelfare, TitanWelfare: r.TitanWelfare,
			PdAdmitted: r.PdAdmitted, TitanAdmitted: r.TitanAdmitted,
			PdSamples: r.PdSamples, TitanSamples: r.TitanSamples,
		}, nil
	})
}

// TestParallelDeterminismAblations covers the per-variant fan-out of
// every ablation entry point.
func TestParallelDeterminismAblations(t *testing.T) {
	for _, abl := range []struct {
		name string
		run  func(p Profile) (*AblationResult, error)
	}{
		{"DualRule", func(p Profile) (*AblationResult, error) { return p.AblationDualRule() }},
		{"Mask", func(p Profile) (*AblationResult, error) { return p.AblationMask() }},
		{"VendorPolicy", func(p Profile) (*AblationResult, error) { return p.AblationVendorPolicy() }},
		{"Admission", func(p Profile) (*AblationResult, error) { return p.AblationAdmission() }},
		{"Calibration", func(p Profile) (*AblationResult, error) { return p.AblationCalibration() }},
	} {
		abl := abl
		t.Run(abl.name, func(t *testing.T) {
			t.Parallel()
			assertSame(t, abl.name, abl.run)
		})
	}
}

// TestParallelDeterminismSpot: the spot frontier's rows are independent
// jobs; parallel fan-out must not change a single cell.
func TestParallelDeterminismSpot(t *testing.T) {
	assertSame(t, "FigSpot", func(p Profile) (*SpotResult, error) {
		return p.FigSpot()
	})
}

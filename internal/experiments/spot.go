package experiments

import (
	"fmt"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/report"
	"github.com/pdftsp/pdftsp/internal/runner"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/spot"
	"github.com/pdftsp/pdftsp/internal/trace"
)

// SpotResult is the spot-tier cost frontier: one row per fleet shape /
// market configuration, the columns tracking welfare against what the
// welfare was spent on. "on-demand" is the all-owned fleet; every other
// row trades one owned node for a spot node rented from a seeded market
// at the given discount to the on-demand energy price.
type SpotResult struct {
	Rows []string
	// Cols: welfare, admitted, spot rent, total cost (energy + vendor +
	// spot rent), leased node-slots, revocations.
	Cols []string
	Data [][]float64
}

// Render prints the frontier table.
func (r *SpotResult) Render() string {
	return report.Table("Spot tier: cost frontier vs on-demand (pdFTSP)", "fleet",
		r.Rows, r.Cols, r.Data, "%.1f")
}

// spotSetting is one row of the frontier sweep.
type spotSetting struct {
	label      string
	spotNodes  int     // elastic nodes appended to the owned fleet
	discount   float64 // spot base price as a fraction of on-demand
	predictive bool
}

// FigSpot sweeps the spot market's discount and the provider's foresight
// against an all-on-demand fleet of the same total size. Each row is an
// independent job (own cluster, market, scheduler, provider) fanned out
// across the profile's workers. Spot clusters are built outside the
// shared pool: MarkElastic is structural, so a pooled cluster must never
// be marked.
func (p Profile) FigSpot() (*SpotResult, error) {
	owned := p.nodes(6)
	settings := []spotSetting{
		{label: "on-demand"},
		{label: "spot d=0.2", spotNodes: 1, discount: 0.2},
		{label: "spot d=0.5", spotNodes: 1, discount: 0.5},
		{label: "spot d=0.8", spotNodes: 1, discount: 0.8},
		{label: "spot d=0.2 predictive", spotNodes: 1, discount: 0.2, predictive: true},
		{label: "spot d=0.5 predictive", spotNodes: 1, discount: 0.5, predictive: true},
	}
	tc := p.baseTrace()
	rows, err := runner.Map(p.ctx(), p.workers(), len(settings), func(i int) ([]float64, error) {
		s := settings[i]
		tasks, err := trace.Generate(tc)
		if err != nil {
			return nil, err
		}
		mkt, err := config.Market(5, p.Seed)
		if err != nil {
			return nil, err
		}
		// Same total fleet size everywhere: the frontier compares owning
		// the last node against renting it.
		cl, err := buildCluster(p.Horizon, owned+s.spotNodes-boolToInt(s.spotNodes > 0), AllA100, tc.Model)
		if err != nil {
			return nil, err
		}
		var prov sim.SpotProvider
		if s.spotNodes > 0 {
			elastic := cl.NumNodes() - 1
			tr, err := spot.GenerateTrace(spot.TraceConfig{
				Seed:        p.Seed + 101,
				Slots:       p.Horizon.T,
				Nodes:       []int{elastic},
				BasePrice:   spot.ReferencePrice(cl) * s.discount,
				ReclaimProb: 0.02,
			})
			if err != nil {
				return nil, err
			}
			sp, err := spot.New(spot.Options{
				Trace: tr, Nodes: []int{elastic}, Budget: 1e9, Predictive: s.predictive,
			})
			if err != nil {
				return nil, err
			}
			prov = sp
		}
		opts := core.CalibrateDuals(tasks, tc.Model, cl, mkt)
		opts.ReusePlans = true
		// Uniform across rows so the frontier isolates the market: the
		// spot rows need the mask (revocation recovery must see closed
		// cells), and the on-demand baseline must run the same DP.
		opts.MaskFullCells = true
		sched, err := core.New(cl, opts)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(cl, sched, tasks, sim.Config{
			Context: p.Context, Model: tc.Model, Market: mkt, Spot: prov,
			Observer: p.Observer, RunLabel: "spot/" + s.label,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.label, err)
		}
		return []float64{
			res.Welfare,
			float64(res.Admitted),
			res.SpotSpend,
			res.EnergySpend + res.VendorSpend + res.SpotSpend,
			float64(res.SpotLeasedSlots),
			float64(res.SpotRevocations),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &SpotResult{
		Cols: []string{"welfare", "admitted", "spot rent", "total cost", "leased slots", "revocations"},
	}
	for i, s := range settings {
		out.Rows = append(out.Rows, s.label)
		out.Data = append(out.Data, rows[i])
	}
	return out, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

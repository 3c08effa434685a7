// Package zones implements the multi-model data center the paper sketches
// in Section 2.1: "Different 'zones' within the cloud data center can be
// set up for tasks fine-tuning different pre-trained models." Each zone
// owns a cluster whose nodes hold one shared pre-trained model replica,
// plus its own scheduler; a Router places each arriving bid on the zone
// offering the best price-adjusted surplus, computed from the zones'
// published dual prices only (quote.go).
//
// Because the paper's formulation (and therefore the pdFTSP analysis) is
// per-model, zones compose without touching the core algorithm: each
// zone's auction runs independently, and the data center's social welfare
// is the sum over zones. A model may be served by several zones (replica
// shards of one cluster); the dual-price placement rule is then the only
// coordination between them — the pattern service.Shards runs live.
package zones

import (
	"context"
	"fmt"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Zone is one slice of the data center: a model-scoped cluster shard with
// its own scheduler (and therefore its own dual prices and ledger).
type Zone struct {
	// Key names the zone. Empty defaults to Model.Name; replica shards of
	// one model must carry distinct explicit keys.
	Key string
	// Model is the pre-trained model every task in this zone fine-tunes;
	// its catalog code (lora.ModelConfig.Code) is the routing key.
	Model lora.ModelConfig
	// Cluster holds the zone's nodes (base model replica accounted).
	Cluster *cluster.Cluster
	// Scheduler is the zone's admission/scheduling algorithm.
	Scheduler sim.Scheduler
	// Market is the zone's labor-vendor marketplace (may be shared
	// between zones; quotes are per-task, so sharing is safe).
	Market *vendor.Marketplace
}

// key returns the zone's routing key.
func (z *Zone) key() string {
	if z.Key != "" {
		return z.Key
	}
	return z.Model.Name
}

// DualSnapshotter is the read half of service.DualCheckpointer: a
// scheduler that can publish its dual prices. Schedulers without dual
// state (the greedy baselines) quote on energy alone.
type DualSnapshotter interface {
	SnapshotDuals() core.DualState
}

// zoneDuals reads a zone scheduler's dual prices, or a zero snapshot for
// schedulers that publish none.
func zoneDuals(s sim.Scheduler) core.DualState {
	if dc, ok := s.(DualSnapshotter); ok {
		return dc.SnapshotDuals()
	}
	return core.DualState{}
}

// ModelIndex lists, per catalog model, the zones (or shards) serving it,
// in registration order. The first model registered is the default: a
// task that names none goes where that model's does.
type ModelIndex struct {
	def    lora.Model
	byCode [lora.NumModels][]int
}

// Add registers zone i as serving model m.
func (x *ModelIndex) Add(m lora.Model, i int) {
	if x.def == 0 {
		x.def = m
	}
	x.byCode[m] = append(x.byCode[m], i)
}

// Serving returns the zones that serve m (the default model's for the
// zero Model): none for a model no zone serves.
func (x *ModelIndex) Serving(m lora.Model) []int {
	if m == 0 {
		m = x.def
	}
	if !m.Valid() {
		return nil
	}
	return x.byCode[m]
}

// Router places bids across zones: by model first, then — among the
// zones serving that model — by the best price-adjusted surplus under
// each zone's published Quote.
type Router struct {
	zones   []*Zone
	keys    []string
	byModel ModelIndex
	base    []*Quote // static price books, duals not applied
	quotes  []*Quote // current published quotes
}

// NewRouter builds a router over the given zones. Every zone's model must
// be in lora's catalog, and the first zone's model is the default for
// tasks with a zero ModelName. Several zones may serve the same model
// (replica shards) as long as their keys differ.
func NewRouter(zs ...*Zone) (*Router, error) {
	if len(zs) == 0 {
		return nil, fmt.Errorf("zones: no zones")
	}
	r := &Router{
		zones:  make([]*Zone, 0, len(zs)),
		keys:   make([]string, 0, len(zs)),
		base:   make([]*Quote, 0, len(zs)),
		quotes: make([]*Quote, 0, len(zs)),
	}
	seen := map[string]bool{}
	for i, z := range zs {
		if z == nil || z.Cluster == nil || z.Scheduler == nil {
			return nil, fmt.Errorf("zones: zone %d incomplete", i)
		}
		if err := z.Model.Validate(); err != nil {
			return nil, fmt.Errorf("zones: zone %d: %w", i, err)
		}
		code, err := z.Model.Code()
		if err != nil {
			return nil, fmt.Errorf("zones: zone %d: %w", i, err)
		}
		key := z.key()
		if seen[key] {
			return nil, fmt.Errorf("zones: duplicate zone key %q (replica shards need distinct Key values)", key)
		}
		seen[key] = true
		idx := len(r.zones)
		r.zones = append(r.zones, z)
		r.keys = append(r.keys, key)
		r.byModel.Add(code, idx)
		q := NewQuote(z.Model, z.Cluster)
		r.base = append(r.base, q)
		r.quotes = append(r.quotes, q.WithDuals(zoneDuals(z.Scheduler)))
	}
	return r, nil
}

// ZoneNames returns the zone keys in registration order.
func (r *Router) ZoneNames() []string {
	return append([]string(nil), r.keys...)
}

// RefreshQuotes republishes every zone's Quote from its scheduler's
// current dual prices. Run calls it at each arrival-slot boundary — the
// cadence service.Shards uses live (duals only move at slot close), so a
// batch replay routes exactly as the sharded service does.
func (r *Router) RefreshQuotes() {
	for i, z := range r.zones {
		r.quotes[i] = r.base[i].WithDuals(zoneDuals(z.Scheduler))
	}
}

// Place picks the destination zone index for t under the current quotes,
// or -1 when no zone serves its model.
func (r *Router) Place(t *task.Task) int {
	return Place(t, r.quotes, r.byModel.Serving(t.ModelName))
}

// Offer routes one bid under the current quotes and returns the chosen
// zone's decision and key. A bid for an unknown model is rejected (no
// zone hosts its base weights). Offer does not refresh quotes; callers
// replaying a workload should RefreshQuotes at slot boundaries (or use
// Run, which does).
func (r *Router) Offer(t *task.Task) (schedule.Decision, string) {
	zi := r.Place(t)
	if zi < 0 {
		return schedule.Decision{
			TaskID: t.ID,
			Reason: schedule.ReasonNoSchedule,
		}, ""
	}
	z := r.zones[zi]
	env := schedule.NewTaskEnv(t, z.Cluster, z.Model, z.Market)
	return z.Scheduler.Offer(env), r.keys[zi]
}

// Result aggregates a multi-zone run.
type Result struct {
	// PerZone maps zone key to that zone's accounting.
	PerZone map[string]*ZoneStats
	// Assignments records the zone key each task was routed to, indexed
	// like the input tasks ("" = unroutable). Twin replays (per-zone
	// sim.Run) reconstruct each zone's subsequence from it.
	Assignments []string
	// Unroutable counts bids whose model no zone hosts.
	Unroutable int
	// TotalWelfare is the data center's social welfare.
	TotalWelfare float64
}

// ZoneStats is one zone's accounting, taken verbatim from the Result of
// the zone's sim.Engine — the round sim.Run and service.Broker run — so a
// zones replay never drifts from the per-zone ground truth.
type ZoneStats struct {
	Admitted, Rejected int
	Welfare            float64
	Revenue            float64
	VendorSpend        float64
	EnergySpend        float64
	// RejectReasons tallies rejections by Decision.Reason.
	RejectReasons map[schedule.RejectReason]int
}

// Run replays a mixed-model workload (sorted by arrival) through the
// router, refreshing each zone's published quote at every slot boundary.
// Each zone decides its bids through its own sim.Engine, one single-bid
// round per routed bid (routing is per bid, so a slot's arrivals cannot
// be handed over whole); with no observer, fault plan or spot tier those
// rounds are the whole run, so Start and Finish have nothing to do.
func Run(r *Router, tasks []task.Task) (*Result, error) {
	if r == nil {
		return nil, fmt.Errorf("zones: nil router")
	}
	engines := make([]*sim.Engine, len(r.zones))
	for i, z := range r.zones {
		eng, err := sim.NewEngine(z.Cluster, z.Scheduler, sim.EngineConfig{Model: z.Model, Market: z.Market}, nil)
		if err != nil {
			return nil, fmt.Errorf("zones: %w", err)
		}
		engines[i] = eng
	}
	res := &Result{
		PerZone:     make(map[string]*ZoneStats, len(r.zones)),
		Assignments: make([]string, len(tasks)),
	}
	prev := -1
	ctx := context.Background() // a replay has no caller to give up on it
	bid := make([]*task.Task, 1)
	for i := range tasks {
		t := &tasks[i]
		slot := int(t.Arrival)
		if slot < prev {
			return nil, fmt.Errorf("zones: tasks not sorted by arrival (task %d)", t.ID)
		}
		if slot != prev {
			r.RefreshQuotes()
		}
		prev = slot
		zi := r.Place(t)
		if zi < 0 {
			res.Unroutable++
			continue
		}
		bid[0] = t
		if err := engines[zi].Round(ctx, slot, bid); err != nil {
			return nil, fmt.Errorf("zones: %w", err)
		}
		res.Assignments[i] = r.keys[zi]
	}
	for i, eng := range engines {
		pr := eng.Result()
		res.PerZone[r.keys[i]] = &ZoneStats{
			Admitted:      pr.Admitted,
			Rejected:      pr.Rejected,
			Welfare:       pr.Welfare,
			Revenue:       pr.Revenue,
			VendorSpend:   pr.VendorSpend,
			EnergySpend:   pr.EnergySpend,
			RejectReasons: pr.RejectReasons,
		}
		res.TotalWelfare += pr.Welfare
	}
	return res, nil
}

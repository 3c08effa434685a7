package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Engine is the one implementation of Algorithm 1's per-bid round. The
// batch replay (Run), the serving broker (internal/service) and the
// multi-zone replay (internal/zones) all drive it, so "broker ≡ sim.Run"
// holds because there is nothing else to run: the callers differ only in
// where bids come from and where decisions go.
//
// The engine owns everything on a run's decision path — the Result, the
// FailureTracker, the bound SpotProvider, the stamped observer, the offer
// index that orders recovery re-planning, and the reusable envs and event
// buffers — and exposes the run's life as Start, Round per closed slot,
// Finish. The call discipline, stated once:
//
//   - NewEngine binds the spot provider to the cluster and tracker (a
//     spot run always carries a live, possibly outage-free tracker:
//     revocations reuse its plan-breaking machinery). It happens here, not
//     in Start, because a checkpoint Restore precedes Start and needs the
//     provider bound.
//   - Round does nothing for an empty slot. Capacity changes surface
//     lazily, when an arrival forces the clock forward: on a bid-bearing
//     slot Spot.AdvanceTo runs first, then FailureTracker.ApplyUpTo, so a
//     slot's spot reclaims re-plan against the ledger before its static
//     outages do. The order decides who is refunded.
//   - Each bid then goes, in the order given: refill env (its quotes
//     read from Market) → OnBid → decide → OnOutcome → Account → Track →
//     sink.
//   - "decide" has two forms, chosen by the scheduler's type and nothing
//     else. A BatchScheduler gets the whole slot in one BatchOffer (every
//     env prepared first, every OnBid before it, every OnOutcome
//     after, latency amortised over the batch — the paper's Figure 13
//     methodology). Any other scheduler gets one Offer per bid.
//   - Finish(true) applies AdvanceTo/ApplyUpTo once more at the horizon's
//     last slot — events after the last arrival still break committed
//     plans — then records utilization and emits RunEnd. Finish(false)
//     closes a run suspended mid-horizon (a draining broker) without
//     surfacing the future. Only the first call does anything.
//
// Recovery re-offers after failures bypass Bid/Outcome; RunEnd carries the
// failure count so trace analyzers know the per-decision stream is not the
// whole story there.
//
// An Engine is not safe for concurrent use: one goroutine owns the duals,
// the ledger and therefore the engine.
type Engine struct {
	cl    *cluster.Cluster
	sched Scheduler
	batch BatchScheduler // non-nil when sched plans whole slots
	cfg   EngineConfig
	sink  Sink

	res    *Result
	faults *FailureTracker
	o      obs.Observer
	// next numbers bids in offer order: the tracker index stream that
	// makes recovery re-planning deterministic.
	next     int
	finished bool

	// Round-scoped scratch, refilled per bid instead of reallocated.
	// Observers must not retain event pointers past the callback and
	// schedulers only read an env during the offer, so reuse cannot leak
	// state. A live tracker retains admitted envs in its recovery records,
	// so it forces a fresh env per bid instead of the pool.
	pool    []*schedule.TaskEnv
	envs    []*schedule.TaskEnv
	bidEv   obs.BidEvent
	outEv   obs.OutcomeEvent
	placBuf []obs.Placement
	// d lives here so taking its address for the sink does not force a
	// heap allocation per bid.
	d schedule.Decision
}

// EngineConfig is the decision-path configuration Config and
// service.Options have in common; see Config for the field semantics.
type EngineConfig struct {
	Model    lora.ModelConfig
	Market   *vendor.Marketplace
	Failures []Failure
	Spot     SpotProvider
	Observer obs.Observer
	RunLabel string
}

// Sink receives every decided bid, after the engine has accounted and
// tracked it: idx is the bid's position in the run's offer stream, lat
// its scheduling latency. env and d are engine scratch — copy what must
// outlive the call (a scheduler with reused plan buffers also overwrites
// d.Schedule on the next offer). A caller that only wants the Result
// passes a nil Sink.
type Sink func(idx int, env *schedule.TaskEnv, d *schedule.Decision, lat time.Duration)

// NewEngine validates the fault plan, binds the spot provider, and
// returns an engine ready for Restore (optional) and Start.
func NewEngine(cl *cluster.Cluster, sched Scheduler, cfg EngineConfig, sink Sink) (*Engine, error) {
	faults, err := NewFailureTracker(cfg.Failures, cl)
	if err != nil {
		return nil, err
	}
	if cfg.Spot != nil {
		if faults == nil {
			faults = NewEmptyFailureTracker(cl)
		}
		if err := cfg.Spot.Bind(cl, faults); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		cl: cl, sched: sched, cfg: cfg, sink: sink,
		res:    NewResult(sched.Name()),
		faults: faults,
	}
	e.batch, _ = sched.(BatchScheduler)
	return e, nil
}

// Result is the run accounting, live while the run is.
func (e *Engine) Result() *Result { return e.res }

// Offered is the number of bids decided so far — the next offer index.
func (e *Engine) Offered() int { return e.next }

// OnRefund registers f to receive the original task ID of every task a
// capacity loss refunds (see FailureTracker.OnRefund).
func (e *Engine) OnRefund(f func(origID int)) {
	if e.faults != nil {
		e.faults.OnRefund = f
	}
}

// FaultState snapshots the tracker for a checkpoint; nil without one.
func (e *Engine) FaultState() *FailureTrackerState {
	if e.faults == nil {
		return nil
	}
	st := e.faults.State()
	return &st
}

// SpotState snapshots the spot provider for a checkpoint; nil without one.
func (e *Engine) SpotState() *SpotState {
	if e.cfg.Spot == nil {
		return nil
	}
	st := e.cfg.Spot.State()
	return &st
}

// Restore resumes a checkpointed run before Start: the accounting (nil
// keeps the fresh one), the offer index, and the tracker and spot state.
// State the engine has no tracker or provider to hold is an error.
func (e *Engine) Restore(res *Result, offered int, faults *FailureTrackerState, spot *SpotState) error {
	if res != nil {
		e.res = res
		if e.res.RejectReasons == nil {
			e.res.RejectReasons = map[schedule.RejectReason]int{}
		}
	}
	e.next = offered
	if err := e.faults.RestoreState(faults, e.cfg.Model); err != nil {
		return err
	}
	if e.cfg.Spot != nil {
		return e.cfg.Spot.RestoreState(spot)
	}
	if spot != nil && (spot.Next > 0 || len(spot.Leases) > 0) {
		return fmt.Errorf("sim: checkpoint carries spot state but no spot provider is configured")
	}
	return nil
}

// Start attaches the stamped observer — to an observable scheduler and
// the tracker too, so their internal events carry this run's label — and
// emits RunStart.
func (e *Engine) Start() {
	e.o = obs.Stamp(e.cfg.Observer, e.cfg.RunLabel, e.sched.Name())
	if e.o == nil {
		return
	}
	if ob, ok := e.sched.(obs.Observable); ok {
		ob.SetObserver(e.o)
	}
	if e.faults != nil {
		e.faults.Obs = e.o
	}
	capWork := make([]int, e.cl.NumNodes())
	for k := range capWork {
		capWork[k] = e.cl.Node(k).CapWork
	}
	e.o.OnRunStart(&obs.RunStartEvent{Nodes: e.cl.NumNodes(), Slots: e.cl.Horizon().T, CapWork: capWork})
}

// Round runs one slot's auction: bids all arrive at slot and are decided
// in the order given. It returns ctx's error as soon as it observes
// cancellation between offers; decisions already made stand.
func (e *Engine) Round(ctx context.Context, slot int, bids []*task.Task) error {
	if len(bids) == 0 {
		return nil
	}
	if e.cfg.Spot != nil {
		e.cfg.Spot.AdvanceTo(slot, e.sched, e.res)
	}
	e.faults.ApplyUpTo(slot, e.sched, e.res)

	if e.batch != nil {
		// The batch plans over the whole round: every env up front.
		e.envs = e.envs[:0]
		for i, tk := range bids {
			e.envs = append(e.envs, e.prepare(i, tk))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, env := range e.envs {
			e.onBid(env)
		}
		start := time.Now()
		ds := e.batch.BatchOffer(e.envs)
		per := time.Since(start) / time.Duration(len(ds))
		for i := range ds {
			e.settle(e.envs[i], &ds[i], per)
		}
		return nil
	}
	for _, tk := range bids {
		if err := ctx.Err(); err != nil {
			return err
		}
		env := e.prepare(0, tk)
		e.onBid(env)
		start := time.Now()
		e.d = e.sched.Offer(env)
		e.settle(env, &e.d, time.Since(start))
	}
	return nil
}

// prepare derives bid tk's env: pool entry pos, or a fresh one when the
// tracker will retain it.
func (e *Engine) prepare(pos int, tk *task.Task) *schedule.TaskEnv {
	if e.faults != nil {
		return schedule.NewTaskEnv(tk, e.cl, e.cfg.Model, e.cfg.Market)
	}
	for pos >= len(e.pool) {
		e.pool = append(e.pool, new(schedule.TaskEnv))
	}
	env := e.pool[pos]
	env.Refill(tk, e.cl, e.cfg.Model, e.cfg.Market)
	return env
}

func (e *Engine) onBid(env *schedule.TaskEnv) {
	if e.o == nil {
		return
	}
	e.bidEv = obs.BidEvent{
		TaskID:    env.Task.ID,
		Slot:      int(env.Task.Arrival),
		Bid:       env.Task.Bid,
		Work:      int(env.Task.Work),
		MemGB:     env.Task.MemGB,
		NeedsPrep: env.Task.NeedsPrep,
		Quotes:    len(env.Quotes),
	}
	e.o.OnBid(&e.bidEv)
}

// settle is everything that follows a decision, in its fixed order.
func (e *Engine) settle(env *schedule.TaskEnv, d *schedule.Decision, lat time.Duration) {
	if e.o != nil {
		e.fillOutcome(env, d)
		e.o.OnOutcome(&e.outEv)
	}
	e.res.Account(env, d)
	e.faults.Track(e.next, env, d)
	if e.sink != nil {
		e.sink(e.next, env, d, lat)
	}
	e.next++
}

// fillOutcome populates the reusable outcome event, including the
// committed placements of an admitted plan.
func (e *Engine) fillOutcome(env *schedule.TaskEnv, d *schedule.Decision) {
	e.outEv = obs.OutcomeEvent{
		TaskID:       env.Task.ID,
		Slot:         int(env.Task.Arrival),
		Bid:          env.Task.Bid,
		Admitted:     d.Admitted,
		Reason:       d.Reason,
		Payment:      d.Payment(),
		VendorCost:   d.VendorCost(),
		EnergyCost:   d.EnergyCost(),
		DualsUpdated: d.DualsUpdated,
		Env:          env,
		Decision:     d,
	}
	// F is -Inf when no plan exists; keep the trace JSON-encodable.
	if !math.IsInf(d.F, 0) {
		e.outEv.Surplus = d.F
	}
	if d.Admitted && d.Schedule != nil {
		e.placBuf = e.placBuf[:0]
		for _, p := range d.Schedule.Placements {
			e.placBuf = append(e.placBuf, obs.Placement{Node: p.Node, Slot: p.Slot, Work: env.Speed[p.Node]})
		}
		e.outEv.Placements = e.placBuf
	}
}

// Finish closes the run; see the discipline on Engine. The final
// utilization belongs to the accounting whether or not anyone observes.
func (e *Engine) Finish(horizonOver bool) {
	if e.finished {
		return
	}
	e.finished = true
	if horizonOver {
		last := e.cl.Horizon().T - 1
		if e.cfg.Spot != nil {
			e.cfg.Spot.AdvanceTo(last, e.sched, e.res)
		}
		e.faults.ApplyUpTo(last, e.sched, e.res)
	}
	e.res.Utilization = e.cl.Utilization()
	if e.o != nil {
		e.o.OnRunEnd(&obs.RunEndEvent{
			Welfare:     e.res.Welfare,
			Revenue:     e.res.Revenue,
			VendorSpend: e.res.VendorSpend,
			EnergySpend: e.res.EnergySpend,
			Admitted:    e.res.Admitted,
			Rejected:    e.res.Rejected,
			Utilization: e.res.Utilization,
			Failures:    e.res.FailuresInjected,
			Cluster:     e.cl,
		})
	}
	e.Detach()
}

// Detach unhooks the run's observer from an observable scheduler. Finish
// does it; a caller abandoning a run without finishing it (cancellation,
// a crash-stop) calls it directly.
func (e *Engine) Detach() {
	if e.o == nil {
		return
	}
	e.o = nil
	if ob, ok := e.sched.(obs.Observable); ok {
		ob.SetObserver(nil)
	}
}

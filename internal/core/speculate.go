package core

import (
	"math"

	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/runner"
	"github.com/pdftsp/pdftsp/internal/schedule"
)

// Speculator runs the speculative parallel slot-close round: Plan fans a
// held batch of bids across a worker pool, each worker computing a
// tentative Decision against the frozen dual/ledger state with its own
// offerScratch; Commit then walks the batch in arrival order and commits
// each tentative decision iff nothing the bid priced against has changed
// along its read footprint, re-executing the bid through the normal
// sequential Offer path otherwise.
//
// The output is bit-identical to a sequential loop by construction:
//
//   - A bid's decision is a pure function of the duals λ/φ and the
//     cluster ledger over its footprint — the nodes it can run on
//     ({k : Speed[k] > 0}) crossed with its loosest execution window
//     (delay 0), which contains every vendor window and hence every cell
//     the DP, the candidate-node load scan, the pricing max, and the
//     capacity check read.
//   - Offer writes (dual updates and ledger commits) land only on the
//     winning plan's placements, a subset of that bid's own footprint.
//     Commit records them in per-node dirty-slot bitsets.
//   - At commit time, bid i's tentative decision is reused only when no
//     earlier bid dirtied any footprint cell, in which case every value
//     the tentative offer read equals what a sequential Offer would read
//     now; otherwise the bid re-runs through Scheduler.Offer, which is
//     the sequential path verbatim.
//
// Because Algorithm 1's writes are sparse (most bids are rejections, and
// admitted plans touch disjoint (k,t) cells far more often than not), the
// common case commits without re-execution.
//
// Plan must only be called while the scheduler's state is otherwise
// frozen: the Speculator owns the only goroutines touching the scheduler
// between Plan and the last Commit.
type Speculator struct {
	s       *Scheduler
	workers int
	scratch []offerScratch
	results []specResult
	envs    []*schedule.TaskEnv

	// dirty is a K×⌈T/64⌉ bitset of (node, slot) cells written (duals or
	// ledger) by bids committed so far this round; words is the per-node
	// stride. anyDirty short-circuits validation until the first write.
	dirty    []uint64
	words    int
	anyDirty bool

	hits, misses uint64
}

// specStage classifies how far a tentative offer got.
type specStage uint8

const (
	// specNoSchedule: no vendor quote yields a feasible plan.
	specNoSchedule specStage = iota
	// specSurplus: a best plan exists but F(il) ≤ 0.
	specSurplus
	// specPriced: F(il) > 0 — the commit pass updates duals, re-checks
	// capacity live, and commits or rejects exactly like Offer.
	specPriced
)

// specResult is one bid's tentative outcome plus everything the commit
// pass needs to replay it: the plan (copied out of worker scratch), the
// pre-update pricing terms, the recorded per-vendor observer events, and
// the read footprint.
type specResult struct {
	env   *schedule.TaskEnv
	stage specStage
	f     float64
	// sched backs the committed Decision's Schedule; plan is its
	// result-owned placement buffer, reused across rounds.
	sched schedule.Schedule
	plan  []schedule.Placement
	// Payment (14) terms recorded at speculation time; valid on a clean
	// footprint because they are maxima of λ/φ over plan cells.
	maxLam, maxPhi  float64
	payment, energy float64
	computeT, memT  float64
	// vendorEvents is the per-quote Algorithm-2 event sequence, recorded
	// instead of emitted so the observer only ever runs on the commit
	// goroutine, in commit order.
	vendorEvents []obs.VendorEvent
	// Footprint slot range [lo, hi] (lo > hi: no reads). Nodes are
	// implied: every k with env.Speed[k] > 0.
	lo, hi int
}

// NewSpeculator builds a speculative slot-close round executor over s
// with the given worker-pool size (values below 2 still work — Plan then
// degenerates to a sequential tentative pass, useful in tests).
func NewSpeculator(s *Scheduler, workers int) *Speculator {
	if workers < 1 {
		workers = 1
	}
	K, T := s.cl.NumNodes(), s.cl.Horizon().T
	words := (T + 63) / 64
	sp := &Speculator{
		s:       s,
		workers: workers,
		scratch: make([]offerScratch, workers),
		dirty:   make([]uint64, K*words),
		words:   words,
	}
	for w := range sp.scratch {
		sp.scratch[w].init(K, s.cl.Generation())
	}
	return sp
}

// Workers returns the pool size.
func (sp *Speculator) Workers() int { return sp.workers }

// Stats returns the cumulative commit counts: hits committed a tentative
// decision unchanged, misses re-executed through the sequential Offer.
func (sp *Speculator) Stats() (hits, misses uint64) { return sp.hits, sp.misses }

// Plan runs the speculative phase: one tentative offer per env, fanned
// across the worker pool. The scheduler's duals and the cluster ledger
// must not change until the matching Commit calls are done. Envs are
// retained until the next Plan.
func (sp *Speculator) Plan(envs []*schedule.TaskEnv) {
	n := len(envs)
	sp.envs = envs
	if cap(sp.results) < n {
		sp.results = make([]specResult, n)
	}
	sp.results = sp.results[:n]
	clear(sp.dirty)
	sp.anyDirty = false
	runner.ForEachWorker(sp.workers, n, func(worker, i int) {
		sp.s.speculate(envs[i], &sp.scratch[worker], &sp.results[i])
	})
}

// speculate computes one tentative offer into r using sc, reading the
// live duals/ledger but writing nothing shared. It mirrors Offer up to
// (but excluding) the dual update.
func (s *Scheduler) speculate(env *schedule.TaskEnv, sc *offerScratch, r *specResult) {
	r.env = env
	r.vendorEvents = r.vendorEvents[:0]
	w0 := env.Task.ExecWindow(s.cl.Horizon(), 0)
	if w0.Len() == 0 {
		r.lo, r.hi = 1, 0
	} else {
		r.lo, r.hi = w0.Start, w0.End
	}

	quotes := env.Quotes
	if !env.Task.NeedsPrep {
		quotes = noPrepQuotes
	} else if len(quotes) == 0 {
		r.stage = specNoSchedule
		return
	}

	var rec *[]obs.VendorEvent
	if s.obs != nil {
		rec = &r.vendorEvents
	}
	candidates := s.candidateNodes(env, sc)
	best, bestF, found := s.bestSchedule(env, quotes, candidates, sc, rec)
	if !found {
		r.stage = specNoSchedule
		return
	}
	r.plan = append(r.plan[:0], best.Placements...)
	r.sched = best
	r.sched.Placements = r.plan
	r.f = bestF
	if bestF <= 0 {
		r.stage = specSurplus
		return
	}
	r.stage = specPriced
	r.maxLam, r.maxPhi = s.maxPrices(&r.sched)
	r.computeT = r.maxLam * float64(r.sched.TotalWork(env))
	r.memT = r.maxPhi * r.sched.TotalMem(env)
	r.payment = r.sched.VendorPrice + r.computeT + r.memT
	r.energy = r.sched.EnergyCost(env)
	if s.opts.ChargeEnergy {
		r.payment += r.energy
	}
}

// Commit finalizes bid i of the last Plan batch and reports whether the
// tentative decision was committed directly (hit) or the bid re-ran
// through the sequential Offer (miss). Calls must happen in batch order
// on the goroutine that owns the scheduler.
func (sp *Speculator) Commit(i int) (schedule.Decision, bool) {
	r := &sp.results[i]
	s := sp.s
	if !sp.clean(r) {
		sp.misses++
		d := s.Offer(r.env)
		if d.DualsUpdated && d.Schedule != nil {
			sp.mark(d.Schedule.Placements)
		}
		return d, false
	}
	sp.hits++
	if s.obs != nil {
		for j := range r.vendorEvents {
			s.obs.OnVendor(&r.vendorEvents[j])
		}
	}
	d := schedule.Decision{TaskID: r.env.Task.ID, F: math.Inf(-1)}
	if r.stage == specNoSchedule {
		d.Reason = schedule.ReasonNoSchedule
		return d, true
	}
	plan := s.finishPlan(&r.sched)
	d.Schedule = plan
	d.F = r.f
	if r.stage == specSurplus {
		d.Reason = schedule.ReasonSurplus
		return d, true
	}

	// F(il) > 0: replay the write tail of Offer against the live state.
	// The clean footprint guarantees the live λ/φ/ledger equal what the
	// tentative pass read, so updateDuals moves the same before→after
	// values and the capacity check resolves identically.
	s.updateDuals(r.env, plan)
	d.DualsUpdated = true
	sp.mark(plan.Placements)
	if !s.fits(r.env, plan) {
		d.Reason = schedule.ReasonCapacity
		return d, true
	}
	for _, p := range plan.Placements {
		s.cl.Commit(p.Node, p.Slot, r.env.Speed[p.Node], r.env.Task.MemGB)
	}
	d.Admitted = true
	d.Payment = r.payment
	d.VendorCost = plan.VendorPrice
	d.EnergyCost = r.energy
	if s.obs != nil {
		energyTerm := 0.0
		if s.opts.ChargeEnergy {
			energyTerm = r.energy
		}
		s.obs.OnPayment(&obs.PaymentEvent{
			TaskID:      r.env.Task.ID,
			VendorTerm:  plan.VendorPrice,
			ComputeTerm: r.computeT,
			MemoryTerm:  r.memT,
			EnergyTerm:  energyTerm,
			Total:       r.payment,
			MaxLambda:   r.maxLam,
			MaxPhi:      r.maxPhi,
		})
	}
	return d, true
}

// clean reports whether no committed bid has written any cell of r's
// read footprint since Plan froze the state.
func (sp *Speculator) clean(r *specResult) bool {
	if !sp.anyDirty || r.lo > r.hi {
		return true
	}
	loW, hiW := r.lo>>6, r.hi>>6
	loMask := ^uint64(0) << (uint(r.lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(r.hi) & 63))
	for k, sk := range r.env.Speed {
		if sk <= 0 {
			continue
		}
		row := sp.dirty[k*sp.words : k*sp.words+sp.words]
		if loW == hiW {
			if row[loW]&loMask&hiMask != 0 {
				return false
			}
			continue
		}
		if row[loW]&loMask != 0 || row[hiW]&hiMask != 0 {
			return false
		}
		for w := loW + 1; w < hiW; w++ {
			if row[w] != 0 {
				return false
			}
		}
	}
	return true
}

// mark records the (node, slot) cells a committed bid wrote (duals
// and/or ledger — both land exactly on the plan's placements).
func (sp *Speculator) mark(placements []schedule.Placement) {
	for _, p := range placements {
		sp.dirty[p.Node*sp.words+p.Slot>>6] |= 1 << (uint(p.Slot) & 63)
	}
	if len(placements) > 0 {
		sp.anyDirty = true
	}
}

package spot

import (
	"fmt"
	"sort"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// Options configures a Provider.
type Options struct {
	// Trace is the spot-market history the provider replays. Required.
	Trace *Trace
	// Nodes are the elastic node indices the provider may rent — the
	// same set the trace draws reclaims for. Required, non-empty.
	Nodes []int
	// Budget caps cumulative rent. Once spent, no new leases are taken
	// (held leases keep paying: committed work cannot walk away).
	Budget float64
	// LeaseLen is the lease length in slots (default 6).
	LeaseLen int
	// Margin is the required rent markup: a node is rented only when its
	// λ-implied marginal welfare exceeds (1+Margin)× the projected rent
	// (default 0.25).
	Margin float64
	// SpikeHold blocks new leases — and releases idle ones — whenever
	// the current quote exceeds SpikeHold × Trace.Base (default 2).
	SpikeHold float64
	// Predictive lets the policy read the trace's future: projected rent
	// uses the actual upcoming quotes, and leases are truncated at the
	// next known reclaim instead of renting across it. Off, the policy
	// is oblivious — it extrapolates the current quote and eats
	// revocations as they come.
	Predictive bool
}

// lease is one live rental.
type lease struct {
	node     int
	from, to int
	rate     float64 // quote at lease time, for reporting
}

// Provider is a budgeted spot-capacity manager driving one engine's
// cluster. It implements sim.SpotProvider; construct one per engine
// (state is bound to a single cluster) and share the read-only Trace
// between twins.
//
// Per processed slot s, in order: expired leases are dropped, the
// market's reclaims revoke covering leases (breaking committed plans via
// FailureTracker.Revoke), price spikes and budget exhaustion release
// idle leases, new rentals are taken where the dual prices say demand
// outruns supply, and rent is charged for every node-slot held at s.
type Provider struct {
	opts   Options
	cl     *cluster.Cluster
	faults *sim.FailureTracker

	next   int
	spent  float64
	leases []lease
	// onLease tracks which nodes hold a live lease (index = position in
	// opts.Nodes).
	onLease map[int]int // node -> index into leases
}

// New validates the options and returns an unbound Provider.
func New(opts Options) (*Provider, error) {
	if opts.Trace == nil || len(opts.Trace.Prices) == 0 {
		return nil, fmt.Errorf("spot: provider needs a trace")
	}
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("spot: provider needs at least one elastic node")
	}
	if opts.Budget < 0 {
		return nil, fmt.Errorf("spot: negative budget %v", opts.Budget)
	}
	if opts.LeaseLen == 0 {
		opts.LeaseLen = 6
	}
	if opts.LeaseLen < 1 {
		return nil, fmt.Errorf("spot: lease length %d", opts.LeaseLen)
	}
	if opts.Margin == 0 {
		opts.Margin = 0.25
	}
	if opts.SpikeHold == 0 {
		opts.SpikeHold = 2
	}
	return &Provider{opts: opts, onLease: map[int]int{}}, nil
}

// Bind attaches the provider to the run's cluster and failure tracker
// and marks its nodes elastic (unavailable until leased). Part of the
// sim.SpotProvider contract; called once before the first bid.
func (p *Provider) Bind(cl *cluster.Cluster, faults *sim.FailureTracker) error {
	if faults == nil {
		return fmt.Errorf("spot: bind needs a live failure tracker (revocations reuse it)")
	}
	for _, k := range p.opts.Nodes {
		if k < 0 || k >= cl.NumNodes() {
			return fmt.Errorf("spot: elastic node %d out of range (cluster has %d)", k, cl.NumNodes())
		}
	}
	p.cl = cl
	p.faults = faults
	for _, k := range p.opts.Nodes {
		cl.MarkElastic(k)
	}
	return nil
}

// dualReader is what the provider needs from a scheduler to read the
// published λ duals; core.Scheduler satisfies it. Schedulers without
// duals imply zero marginal welfare — the provider never rents for them.
type dualReader interface {
	Lambda(k, t int) float64
}

// AdvanceTo processes every unprocessed trace slot ≤ now, in order.
// Idempotent per slot; sim.Engine calls it at exactly the failure
// trigger points (see sim.Engine).
func (p *Provider) AdvanceTo(now int, sched sim.Scheduler, res *sim.Result) {
	if p.cl == nil {
		return
	}
	last := len(p.opts.Trace.Prices) - 1
	if now > last {
		now = last
	}
	for p.next <= now {
		p.step(p.next, sched, res)
		p.next++
	}
}

// step handles one market slot.
func (p *Provider) step(s int, sched sim.Scheduler, res *sim.Result) {
	tr := p.opts.Trace
	quote := tr.Prices[s]

	// 1. Drop leases that ended before s.
	p.compact(s)

	// 2. Market reclaims: withdraw the lease first (so recovery cannot
	// re-place onto the revoked cells), then break the committed plans.
	for _, k := range tr.Reclaims[s] {
		li, ok := p.onLease[k]
		if !ok {
			continue
		}
		l := p.leases[li]
		p.cl.EndLease(k, s, l.to)
		p.dropLease(k)
		p.faults.Revoke(sim.Failure{Node: k, From: s, To: l.to}, sched, res)
	}

	// 3. Voluntary releases: during a price spike, or once the budget is
	// gone, idle leases (no committed work left on their cells) are
	// handed back — only future rent is saved, nothing is broken.
	spike := quote > p.opts.SpikeHold*tr.Base
	if spike || p.spent >= p.opts.Budget {
		for _, k := range p.keysInOrder() {
			li, held := p.onLease[k]
			if !held {
				continue
			}
			l := p.leases[li]
			if l.to < s || p.committed(l.node, s, l.to) {
				continue
			}
			p.cl.EndLease(k, s, l.to)
			p.dropLease(k)
		}
	}

	// 4. New rentals: rent node k when the λ-implied marginal welfare of
	// its capacity over the lease window beats the projected rent with
	// the configured margin, and the budget covers the projection.
	if !spike && p.spent < p.opts.Budget {
		dr, _ := sched.(dualReader)
		for _, k := range p.opts.Nodes {
			if _, held := p.onLease[k]; held {
				continue
			}
			from, to := s, s+p.opts.LeaseLen-1
			if last := len(tr.Prices) - 1; to > last {
				to = last
			}
			if p.opts.Predictive {
				// Don't rent across a known reclaim of this node.
				for t := from + 1; t <= to; t++ {
					if p.reclaimedAt(k, t) {
						to = t - 1
						break
					}
				}
				if to < from {
					continue
				}
			}
			rent := p.projectedRent(from, to, quote)
			if p.spent+rent > p.opts.Budget {
				continue
			}
			if dr == nil {
				continue
			}
			if p.impliedValue(dr, k, from, to) <= (1+p.opts.Margin)*rent {
				continue
			}
			p.cl.Lease(k, from, to)
			p.leases = append(p.leases, lease{node: k, from: from, to: to, rate: quote})
			p.onLease[k] = len(p.leases) - 1
			res.SpotLeases++
		}
	}

	// 5. Charge rent for every node-slot held at s. Rent is market
	// indexed (the slot's quote), which is what makes spike releases and
	// the cost frontier meaningful.
	for _, l := range p.leases {
		if l.from <= s && s <= l.to {
			res.Welfare -= quote
			res.SpotSpend += quote
			res.SpotLeasedSlots++
			p.spent += quote
		}
	}
}

// projectedRent estimates the rent for holding one node over [from, to]:
// the trace's actual quotes when Predictive, flat extrapolation of the
// current quote otherwise.
func (p *Provider) projectedRent(from, to int, quote float64) float64 {
	if !p.opts.Predictive {
		return quote * float64(to-from+1)
	}
	sum := 0.0
	for t := from; t <= to; t++ {
		sum += p.opts.Trace.Prices[t]
	}
	return sum
}

// impliedValue is the λ-implied marginal welfare of node k's capacity
// over [from, to]: the mean per-unit dual across the fleet at each slot
// — the auction's current scarcity price for compute — times the node's
// per-slot capacity.
func (p *Provider) impliedValue(dr dualReader, k, from, to int) float64 {
	K := p.cl.NumNodes()
	cap := float64(p.cl.Node(k).CapWork)
	v := 0.0
	for t := from; t <= to; t++ {
		sum := 0.0
		for j := 0; j < K; j++ {
			sum += dr.Lambda(j, t)
		}
		v += sum / float64(K) * cap
	}
	return v
}

// reclaimedAt reports whether the trace reclaims node k at slot t.
func (p *Provider) reclaimedAt(k, t int) bool {
	for _, n := range p.opts.Trace.Reclaims[t] {
		if n == k {
			return true
		}
	}
	return false
}

// committed reports whether any work is committed on node k over
// [from, to].
func (p *Provider) committed(k, from, to int) bool {
	for t := from; t <= to; t++ {
		if p.cl.UsedWork(k, t) > 0 {
			return true
		}
	}
	return false
}

// compact drops leases that ended before slot s.
func (p *Provider) compact(s int) {
	kept := p.leases[:0]
	for _, l := range p.leases {
		if l.to >= s {
			kept = append(kept, l)
		}
	}
	p.leases = kept
	for k := range p.onLease {
		delete(p.onLease, k)
	}
	for i, l := range p.leases {
		p.onLease[l.node] = i
	}
}

// dropLease removes node k's live lease.
func (p *Provider) dropLease(k int) {
	li, ok := p.onLease[k]
	if !ok {
		return
	}
	p.leases = append(p.leases[:li], p.leases[li+1:]...)
	delete(p.onLease, k)
	for i, l := range p.leases {
		p.onLease[l.node] = i
	}
}

// keysInOrder returns the leased nodes in ascending order — map
// iteration must never order a welfare-affecting decision.
func (p *Provider) keysInOrder() []int {
	out := make([]int, 0, len(p.onLease))
	for k := range p.onLease {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

package zones

import (
	"math"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// Quote is one zone's published price book: the static cluster facts a
// router may read without touching the zone's live ledger (GPU specs,
// memory caps, the energy price curve) plus prefix sums of the zone's
// dual prices λ/φ at some slot boundary. A Quote is immutable — refreshes
// build a new Quote via WithDuals — so routers may read it lock-free
// (e.g. through an atomic.Pointer) while the zone's own goroutine keeps
// auctioning. This is the paper's shadow-price coordination: zones
// advertise λ/φ, and placement needs nothing else from them.
//
// The estimate is deliberately a quote, not a reservation: it prices a
// task at the mean dual + energy cost over its feasibility window,
// assuming the work runs on the zone's single best node. The zone's own
// auction (Algorithm 1) still makes the admission decision against the
// live ledger; the Quote only decides which zone gets to run it.
type Quote struct {
	key   string
	model lora.ModelConfig
	h     timeslot.Horizon

	specs  []gpu.Spec
	memCap []float64
	// energy[k][t+1] is the prefix sum of the per-unit-work energy cost
	// on node k over slots [0, t]; captured at construction (the curve is
	// immutable after cluster build).
	energy [][]float64
	// lambda/phi[k][t+1] are prefix sums of the dual prices; zero until
	// WithDuals publishes a snapshot.
	lambda [][]float64
	phi    [][]float64
}

// NewQuote captures the static half of a zone's price book from its
// cluster. Call it before the zone starts serving — it reads the cluster
// directly — and publish dual refreshes with WithDuals afterwards.
func NewQuote(key string, model lora.ModelConfig, cl *cluster.Cluster) *Quote {
	h := cl.Horizon()
	K := cl.NumNodes()
	q := &Quote{
		key:    key,
		model:  model,
		h:      h,
		specs:  make([]gpu.Spec, K),
		memCap: make([]float64, K),
		energy: make([][]float64, K),
	}
	for k := 0; k < K; k++ {
		q.specs[k] = cl.Node(k).Spec
		q.memCap[k] = cl.TaskMemCap(k)
		e := make([]float64, h.T+1)
		for t := 0; t < h.T; t++ {
			e[t+1] = e[t] + cl.UnitEnergyCost(k, t)
		}
		q.energy[k] = e
	}
	return q
}

// Key returns the zone key the quote was built for.
func (q *Quote) Key() string { return q.key }

// WithDuals returns a new Quote carrying prefix sums of ds; the static
// cluster facts are shared with the receiver. A zero-value ds (no dual
// state, e.g. a baseline scheduler) yields a quote priced on energy
// alone, which keeps placement meaningful for schedulers that publish no
// shadow prices.
func (q *Quote) WithDuals(ds core.DualState) *Quote {
	nq := *q
	K := len(q.specs)
	nq.lambda = make([][]float64, K)
	nq.phi = make([][]float64, K)
	for k := 0; k < K; k++ {
		l := make([]float64, q.h.T+1)
		p := make([]float64, q.h.T+1)
		if k < len(ds.Lambda) {
			for t := 0; t < q.h.T && t < len(ds.Lambda[k]); t++ {
				l[t+1] = l[t] + ds.Lambda[k][t]
			}
		}
		if k < len(ds.Phi) {
			for t := 0; t < q.h.T && t < len(ds.Phi[k]); t++ {
				p[t+1] = p[t] + ds.Phi[k][t]
			}
		}
		nq.lambda[k] = l
		nq.phi[k] = p
	}
	return &nq
}

// mean returns the mean of prefix-summed values over the inclusive slot
// window [s, e].
func mean(prefix []float64, s, e int) float64 {
	return (prefix[e+1] - prefix[s]) / float64(e-s+1)
}

// Surplus estimates the price-adjusted surplus of placing t in this
// zone: Bid minus the dual-price + energy cost of the task's work on the
// zone's best node, averaged over the task's feasibility window. It
// returns -Inf when no node in the zone can feasibly host the task
// (memory cap, zero throughput, or too few slots before the deadline) —
// the router's signal to look elsewhere.
func (q *Quote) Surplus(t *task.Task) float64 {
	start := int(t.Arrival)
	if start < 0 {
		start = 0
	}
	win := timeslot.Window{Start: start, End: int(t.Deadline)}.ClipTo(q.h)
	if win.Len() == 0 {
		return math.Inf(-1)
	}
	best := math.Inf(-1)
	for k := range q.specs {
		if t.MemGB > q.memCap[k] {
			continue
		}
		s := lora.TaskUnitsPerSlot(q.model, q.specs[k], int(t.Batch), q.h)
		if s <= 0 {
			continue
		}
		need := (int(t.Work) + s - 1) / s
		if need > win.Len() {
			continue
		}
		price := mean(q.energy[k], win.Start, win.End) * float64(t.Work)
		if q.lambda != nil {
			price += float64(need) * (mean(q.lambda[k], win.Start, win.End)*float64(s) +
				mean(q.phi[k], win.Start, win.End)*t.MemGB)
		}
		if sur := t.Bid - price; sur > best {
			best = sur
		}
	}
	return best
}

// tieBand is the absolute score slack within which two zones count as
// tied. Quotes are estimates, so scores equal up to floating-point noise
// must not all collapse onto the lowest-indexed zone — identical fresh
// shards publish identical duals, and a first-wins tie-break would route
// every bid to shard 0.
const tieBand = 1e-9

// Place picks the destination zone for t among the candidate indices
// cand (indices into quotes). The rule: highest estimated surplus wins;
// candidates within a relative tie band of the best are spread
// deterministically by task ID (tie[id mod n]), so equal-priced shards
// share load without any coordination and any two routers holding the
// same quotes make the same choice. When no candidate is feasible the
// bid is still placed (by ID, round-robin) so rejections are spread too.
// Returns -1 only when cand is empty.
func Place(t *task.Task, quotes []*Quote, cand []int) int {
	switch len(cand) {
	case 0:
		return -1
	case 1:
		return cand[0]
	}
	best := math.Inf(-1)
	var scoresBuf [16]float64
	scores := scoresBuf[:0]
	if len(cand) > cap(scores) {
		scores = make([]float64, 0, len(cand))
	}
	for _, i := range cand {
		s := quotes[i].Surplus(t)
		scores = append(scores, s)
		if s > best {
			best = s
		}
	}
	id := t.ID
	if id < 0 {
		id = 0
	}
	if math.IsInf(best, -1) {
		// Nowhere feasible: the zone auction will reject it; spread the
		// rejections.
		return cand[id%len(cand)]
	}
	band := tieBand
	if rel := math.Abs(best) * tieBand; rel > band {
		band = rel
	}
	var tiedBuf [16]int
	tied := tiedBuf[:0]
	for j := range scores {
		if scores[j] >= best-band {
			tied = append(tied, cand[j])
		}
	}
	if len(tied) == 1 {
		return tied[0]
	}
	return tied[id%len(tied)]
}

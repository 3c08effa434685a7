// Package trace generates fine-tuning workloads: per-slot arrival counts
// following the paper's synthetic Poisson processes and trace-shaped
// generators standing in for the MLaaS, Philly, and Helios production
// traces (Section 5.1), plus the per-task parameter sampling (dataset
// sizes uniform in [5,20]k samples, 1–5 epochs, deadline policies
// tight/medium/slack, bids, and pre-processing flags).
//
// The real traces are not redistributable; the generators reproduce each
// trace's published *shape* — smooth diurnal load for MLaaS, bursty
// heavy-tailed submissions for Philly, and a sharp day/night bimodal
// pattern for Helios — which is the property the paper's Figure 7
// exercises. See DESIGN.md Section 3.
package trace

import (
	"fmt"
	"math"

	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lfg"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// ArrivalKind selects the arrival process.
type ArrivalKind int

// Arrival processes. Poisson is the paper's synthetic workload; the *Like
// kinds mimic the real traces of Figure 7.
const (
	Poisson ArrivalKind = iota
	MLaaSLike
	PhillyLike
	HeliosLike
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case MLaaSLike:
		return "mlaas"
	case PhillyLike:
		return "philly"
	case HeliosLike:
		return "helios"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// ParseArrivalKind is String's inverse: the one place a flag or config
// value becomes an arrival process.
func ParseArrivalKind(s string) (ArrivalKind, error) {
	for k := Poisson; k <= HeliosLike; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown arrival process %q", s)
}

// DeadlinePolicy selects how much slack deadlines leave beyond the minimum
// completion time (Figure 9: tight / medium / slack).
type DeadlinePolicy int

// Deadline policies.
const (
	TightDeadlines DeadlinePolicy = iota
	MediumDeadlines
	SlackDeadlines
)

// String implements fmt.Stringer.
func (p DeadlinePolicy) String() string {
	switch p {
	case TightDeadlines:
		return "tight"
	case MediumDeadlines:
		return "medium"
	case SlackDeadlines:
		return "slack"
	default:
		return fmt.Sprintf("DeadlinePolicy(%d)", int(p))
	}
}

// ParseDeadlinePolicy is String's inverse.
func ParseDeadlinePolicy(s string) (DeadlinePolicy, error) {
	for p := TightDeadlines; p <= SlackDeadlines; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown deadline policy %q", s)
}

// slackRange returns the [lo, hi) multiplier on the minimum completion
// slots for the policy.
func (p DeadlinePolicy) slackRange() (lo, hi float64) {
	switch p {
	case TightDeadlines:
		return 1.2, 2.0
	case SlackDeadlines:
		return 4.0, 8.0
	default:
		return 2.0, 4.0
	}
}

// Config parameterizes workload generation.
type Config struct {
	// Seed drives all sampling; identical configs generate identical
	// workloads.
	Seed int64
	// Horizon is the slotted horizon tasks arrive within.
	Horizon timeslot.Horizon
	// Arrivals selects the arrival process.
	Arrivals ArrivalKind
	// RatePerSlot is the mean number of task arrivals per slot. The
	// paper's light/medium/high synthetic workloads use 30/50/80 on a
	// 50–200-node cluster; scale proportionally for smaller clusters.
	RatePerSlot float64
	// Deadlines selects the deadline slack policy.
	Deadlines DeadlinePolicy
	// Model is the shared pre-trained model every task fine-tunes.
	Model lora.ModelConfig
	// Models optionally generates a multi-model workload for the zones
	// package: each task picks one model by weight and records its
	// catalog code in Task.ModelName, so every model here must be in
	// lora's catalog. Empty means the single-model setting of the paper.
	Models []ModelShare
	// PrepProb is the probability that a task needs data pre-processing.
	PrepProb float64
	// ValuePerUnitMin/Max bound the per-work-unit valuation v from which
	// bids are drawn: b_i = v·M_i (+ an expected pre-processing
	// reimbursement for prep tasks).
	ValuePerUnitMin, ValuePerUnitMax float64
	// ArrivalCutoff stops arrivals after this slot so late tasks have
	// room before the horizon ends; 0 means 85% of the horizon.
	ArrivalCutoff int
}

// DefaultConfig returns a medium synthetic workload on a one-day horizon.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Horizon:     timeslot.Day(),
		Arrivals:    Poisson,
		RatePerSlot: 50,
		Deadlines:   MediumDeadlines,
		Model:       lora.GPT2Small(),
		PrepProb:    0.5,
		// Thin margins, as in the paper's running example (Figure 10:
		// valuation 15 against a total expense of 10): the mean A100
		// operational cost is ≈0.70 money units per work unit, so values
		// of 0.85–1.45 put the expense at roughly two thirds of the
		// valuation. In this regime cost-aware scheduling (cheap slots,
		// cheap vendors, price-based admission) separates the
		// algorithms, exactly as in the paper's evaluation.
		ValuePerUnitMin: 0.85,
		ValuePerUnitMax: 1.45,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Horizon.T <= 0:
		return fmt.Errorf("trace: non-positive horizon %d", c.Horizon.T)
	case c.Horizon.T > math.MaxInt32:
		return fmt.Errorf("trace: horizon %d does not fit a task's int32 slots", c.Horizon.T)
	case c.RatePerSlot < 0:
		return fmt.Errorf("trace: negative arrival rate %v", c.RatePerSlot)
	case c.PrepProb < 0 || c.PrepProb > 1:
		return fmt.Errorf("trace: prep probability %v outside [0,1]", c.PrepProb)
	case c.ValuePerUnitMin <= 0 || c.ValuePerUnitMax < c.ValuePerUnitMin:
		return fmt.Errorf("trace: bad value range [%v,%v]", c.ValuePerUnitMin, c.ValuePerUnitMax)
	case c.ArrivalCutoff < 0 || c.ArrivalCutoff >= c.Horizon.T:
		if c.ArrivalCutoff != 0 {
			return fmt.Errorf("trace: arrival cutoff %d outside horizon", c.ArrivalCutoff)
		}
	}
	for i, ms := range c.Models {
		if ms.Weight <= 0 {
			return fmt.Errorf("trace: model share %d has non-positive weight %v", i, ms.Weight)
		}
		if err := ms.Model.Validate(); err != nil {
			return fmt.Errorf("trace: model share %d: %w", i, err)
		}
		if _, err := ms.Model.Code(); err != nil {
			return fmt.Errorf("trace: model share %d: %w", i, err)
		}
	}
	return c.Model.Validate()
}

// ModelShare is one model's weight in a multi-model workload.
type ModelShare struct {
	Model  lora.ModelConfig
	Weight float64
}

// cutoff returns the effective last arrival slot.
func (c Config) cutoff() int {
	if c.ArrivalCutoff > 0 {
		return c.ArrivalCutoff
	}
	cut := c.Horizon.T * 85 / 100
	if cut < 1 {
		cut = 1
	}
	return cut - 1
}

// poisson draws a Poisson(lambda) variate (Knuth's algorithm for the
// per-slot rates the paper uses). Knuth's product test breaks down once
// exp(-lambda) underflows to zero — the running product hits denormal
// zero after ~750 multiplications regardless of lambda, silently capping
// high-rate draws — so large rates are split into chunks that stay well
// inside float64 range (Poisson variates are additive in lambda). Rates
// at or below the chunk size draw exactly as before, preserving every
// existing seed's workload.
func poisson(rng *lfg.Source, lambda float64) int {
	const chunk = 512 // exp(-512) ≈ 4e-223, comfortably normal
	k := 0
	for lambda > chunk {
		k += poisson(rng, chunk)
		lambda -= chunk
	}
	if lambda <= 0 {
		return k
	}
	l := math.Exp(-lambda)
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// rateAt returns the instantaneous arrival rate for slot t under the
// configured arrival kind.
func (c Config) rateAt(rng *lfg.Source, t int) float64 {
	f := c.Horizon.FractionOfDay(t)
	switch c.Arrivals {
	case MLaaSLike:
		// Smooth diurnal with a mid-day peak (MLaaS-in-the-wild shows a
		// strong recurring daily cycle).
		return c.RatePerSlot * (1 + 0.5*math.Sin(2*math.Pi*(f-0.25)))
	case PhillyLike:
		// Moderate base load with heavy-tailed submission bursts
		// (Philly's batch jobs arrive in spikes).
		rate := c.RatePerSlot * 0.8
		if rng.Float64() < 0.06 {
			burst := 1 + 4*math.Pow(rng.Float64(), -0.5) // Pareto-ish
			if burst > 12 {
				burst = 12
			}
			rate *= burst
		}
		return rate
	case HeliosLike:
		// Sharp bimodal working-hours pattern.
		if f > 0.33 && f < 0.92 {
			return c.RatePerSlot * 1.4
		}
		return c.RatePerSlot * 0.3
	default:
		return c.RatePerSlot
	}
}

// ArrivalCounts returns the per-slot arrival counts the generator will use
// for this config (deterministic per seed).
func ArrivalCounts(cfg Config) ([]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var rng lfg.Source
	rng.Seed(cfg.Seed)
	counts := make([]int, cfg.Horizon.T)
	cut := cfg.cutoff()
	for t := 0; t <= cut; t++ {
		counts[t] = poisson(&rng, cfg.rateAt(&rng, t))
	}
	return counts, nil
}

// Batch and rank menus (Section 5.1 records throughput "under different
// batch size values").
var (
	batchMenu = [4]int16{4, 8, 16, 32}
	rankMenu  = [5]int{4, 8, 16, 32, 64}
)

// Generate produces the full workload: tasks sorted by arrival slot with
// dense IDs, in a slice of exactly that length and capacity. The same
// config always generates the same workload — byte for byte, which
// TestGenerateOutputPinned holds every change of this file to.
func Generate(cfg Config) ([]task.Task, error) {
	counts, err := ArrivalCounts(cfg)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return nil, nil // SaveTasks writes an empty workload as null
	}
	g := newGenerator(&cfg)
	tasks := make([]task.Task, total)
	id := 0
	for t, n := range counts {
		for ; n > 0; n-- {
			g.sample(&tasks[id], id, t)
			id++
		}
	}
	return tasks, nil
}

// modelTable is what a task draws from once its model is picked: a task's
// memory and reference speed depend only on (model, rank, batch), and the
// menus hold five ranks and four batches.
type modelTable struct {
	code   lora.Model // Task.ModelName; zero in single-model mode
	weight float64    // ModelShare.Weight
	// memGB is r_i by rank and batch menu index.
	memGB [len(rankMenu)][len(batchMenu)]float64
	// refSpeed is the A100's units per slot at each menu batch, at least 1.
	refSpeed [len(batchMenu)]int
}

// generator samples task bodies for one Generate call. It holds the body
// stream and every quantity that is constant per config, so that sampling
// a task is seven or eight draws, two table reads and no lora arithmetic.
//
// The body stream is independent of the arrival stream (ArrivalCounts), so
// changing the arrival process does not reshuffle task parameters. Per
// task it is drawn in a fixed order — model (multi-model only), dataset
// size, epochs, batch, rank, pre-processing, deadline slack, value — and
// that order is the workload format: adding, dropping or reordering a
// draw changes every later task of every seed.
type generator struct {
	rng lfg.Source
	// single is the one model of the paper's setting; multi, when
	// non-empty, replaces it with a weighted menu (Config.Models).
	single      modelTable
	multi       []modelTable
	weightTotal float64
	// The slack factor is slackLo + U·slackSpan, the per-unit value
	// valueLo + U·valueSpan.
	slackLo, slackSpan float64
	valueLo, valueSpan float64
	prepProb           float64
	horizon            int
}

func newGenerator(cfg *Config) generator {
	lo, hi := cfg.Deadlines.slackRange()
	g := generator{
		slackLo: lo, slackSpan: hi - lo,
		valueLo: cfg.ValuePerUnitMin, valueSpan: cfg.ValuePerUnitMax - cfg.ValuePerUnitMin,
		prepProb: cfg.PrepProb,
		horizon:  cfg.Horizon.T,
	}
	g.rng.Seed(cfg.Seed ^ 0x5deece66d)
	if len(cfg.Models) == 0 {
		g.single.fill(cfg.Model, cfg.Horizon)
		return g
	}
	g.multi = make([]modelTable, len(cfg.Models))
	for i, ms := range cfg.Models {
		m := &g.multi[i]
		m.fill(ms.Model, cfg.Horizon)
		m.code, _ = ms.Model.Code() // Validate refused a model outside the catalog
		m.weight = ms.Weight
		g.weightTotal += ms.Weight
	}
	return g
}

func (m *modelTable) fill(model lora.ModelConfig, h timeslot.Horizon) {
	for b, batch := range batchMenu {
		for r, rank := range rankMenu {
			m.memGB[r][b] = lora.TaskMemoryGB(model, rank, int(batch))
		}
		m.refSpeed[b] = lora.TaskUnitsPerSlot(model, gpu.A100, int(batch), h)
		if m.refSpeed[b] < 1 {
			m.refSpeed[b] = 1
		}
	}
}

// pickModel draws a task's model by weight from Models; a single-model
// workload takes no draw and does not call it.
func (g *generator) pickModel() *modelTable {
	r := g.rng.Float64() * g.weightTotal
	for i := range g.multi {
		if r < g.multi[i].weight {
			return &g.multi[i]
		}
		r -= g.multi[i].weight
	}
	return &g.multi[len(g.multi)-1]
}

// sample draws one task arriving at slot t into tk.
func (g *generator) sample(tk *task.Task, id, t int) {
	rng := &g.rng
	model := &g.single
	if len(g.multi) != 0 {
		model = g.pickModel()
	}
	samples := 5000 + rng.Intn(15001) // U[5k, 20k] (Section 5.1)
	epochs := 1 + rng.Intn(5)         // U{1..5}   (Section 5.1)
	work := (samples*epochs + lora.SamplesPerUnit - 1) / lora.SamplesPerUnit
	b := rng.Intn(len(batchMenu))
	r := rng.Intn(len(rankMenu))
	needsPrep := rng.Float64() < g.prepProb

	// Deadline: minimum completion slots on the fastest GPU at the
	// task's own batch size, stretched by the policy's slack factor,
	// plus room for pre-processing when required.
	minSlots := int(uint32(work+model.refSpeed[b]-1) / uint32(model.refSpeed[b]))
	factor := g.slackLo + rng.Float64()*g.slackSpan
	deadline := t + int(math.Ceil(float64(minSlots)*factor))
	if needsPrep {
		deadline += 3
	}
	if deadline >= g.horizon {
		deadline = g.horizon - 1
	}

	value := g.valueLo + rng.Float64()*g.valueSpan
	bid := value * float64(work)
	if needsPrep {
		bid += 8 // expected pre-processing reimbursement
	}
	// Every narrowed value is bounded: slots by the horizon (Validate
	// holds it to int32), work by 100. The dataset size, epochs and rank
	// are spent: they gave the work and the memory, and a task carries
	// only those.
	*tk = task.Task{
		ID:        id,
		Arrival:   int32(t),
		Deadline:  int32(deadline),
		Work:      int32(work),
		MemGB:     model.memGB[r][b],
		Batch:     batchMenu[b],
		NeedsPrep: needsPrep,
		Bid:       bid,
		ModelName: model.code,
	}
}

// BySlot groups an arrival-sorted workload by arrival slot without copying
// it: element t is the sub-slice of tasks arriving at slot t (nil for a
// slot with none), capped at its own length so an append cannot reach the
// next slot's tasks. The sub-slices alias tasks; whoever needs to edit a
// slot's tasks copies that slot. It is an error for tasks to be out of
// arrival order or to arrive outside [0, T).
func BySlot(tasks []task.Task, T int) ([][]task.Task, error) {
	perSlot := make([][]task.Task, T)
	for start := 0; start < len(tasks); {
		a := int(tasks[start].Arrival)
		if a < 0 || a >= T {
			return nil, fmt.Errorf("trace: task %d arrives at slot %d, outside [0,%d)", tasks[start].ID, a, T)
		}
		end := start + 1
		for end < len(tasks) && int(tasks[end].Arrival) == a {
			end++
		}
		if end < len(tasks) && int(tasks[end].Arrival) < a {
			return nil, fmt.Errorf("trace: task %d (slot %d) follows slot %d: workload not sorted by arrival",
				tasks[end].ID, tasks[end].Arrival, a)
		}
		perSlot[a] = tasks[start:end:end]
		start = end
	}
	return perSlot, nil
}

// AlphaBeta computes the paper-literal Lemma-2 coefficients from a
// workload: α = max_i b_i/M_i and β = max_i b_i/r_i. These are what the
// paper states; they guarantee capacity control but over-price memory
// whenever r_i ≪ C_km. Production calibration should prefer
// core.CalibrateDuals, which normalizes by plan footprints and net value;
// the dual-rule ablation benchmarks compare both.
func AlphaBeta(tasks []task.Task) (alpha, beta float64) {
	for i := range tasks {
		t := &tasks[i]
		if a := t.Bid / float64(t.Work); a > alpha {
			alpha = a
		}
		if b := t.Bid / t.MemGB; b > beta {
			beta = b
		}
	}
	return alpha, beta
}

// Package config is the one stack recipe — what the paper's §5.1 is in
// code. A Config pins down the cluster composition, the workload, the
// marketplace and the scheduling algorithm; Generate draws the bid
// stream and Wire turns a Config plus a bid stream into ready-to-run
// objects (cluster, marketplace, calibrated α/β, scheduler), whole or
// partitioned into shards. Every binary, figure and benchmark that needs
// an auction stack gets it here: the JSON form is cmd/pdftsp-sim's
// -config, the flag form (StackFlags) is what pdftsp-sim, pdftspd,
// pdftspd-load and tracegen share.
package config

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// NodeGroup is a homogeneous group of compute nodes.
type NodeGroup struct {
	// GPU names a catalog spec: "A100-80G", "A40-48G", "V100-32G".
	GPU string `json:"gpu"`
	// Count is the number of nodes in the group.
	Count int `json:"count"`
}

// Workload configures trace generation.
type Workload struct {
	// Arrivals names a trace.ArrivalKind: poisson, mlaas, philly or helios.
	Arrivals string `json:"arrivals"`
	// RatePerSlot is the mean arrivals per slot.
	RatePerSlot float64 `json:"rate_per_slot"`
	// Deadlines names a trace.DeadlinePolicy: tight, medium or slack.
	Deadlines string `json:"deadlines"`
	// PrepProb is the probability a task needs pre-processing.
	PrepProb *float64 `json:"prep_prob,omitempty"`
	// ValuePerUnit optionally overrides the [min,max] valuation range.
	ValuePerUnit *[2]float64 `json:"value_per_unit,omitempty"`
}

// Algorithm selects and tunes a scheduler.
type Algorithm struct {
	// Name is "pdftsp", "pdftsp-adaptive", or a baseline that only the
	// figure side wires (WireWith): "titan", "eft", "ntm".
	Name string `json:"name"`
	// MaskFullCells enables the capacity-aware DP extension (pdftsp).
	MaskFullCells bool `json:"mask_full_cells,omitempty"`
	// ChargeEnergy includes operational cost in payments (pdftsp).
	ChargeEnergy bool `json:"charge_energy,omitempty"`
	// DualRule is "paper", "additive", or "multiplicative" (pdftsp).
	DualRule string `json:"dual_rule,omitempty"`
	// Safety is the adaptive estimator's headroom (pdftsp-adaptive).
	Safety float64 `json:"safety,omitempty"`
	// TitanBudgetMS is the per-slot MILP budget (titan).
	TitanBudgetMS int `json:"titan_budget_ms,omitempty"`
}

// Config is a complete simulation specification.
type Config struct {
	// Slots is the horizon length (default 144).
	Slots int `json:"slots"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// Model is "gpt2-small" or "gpt2-medium".
	Model string `json:"model"`
	// Nodes lists the cluster composition.
	Nodes []NodeGroup `json:"nodes"`
	// Vendors is the labor-vendor count (default 5).
	Vendors int `json:"vendors"`
	// Workload configures arrivals.
	Workload Workload `json:"workload"`
	// Algorithm selects the scheduler.
	Algorithm Algorithm `json:"algorithm"`
}

// Default returns a runnable configuration.
func Default() Config {
	return Config{
		Slots: timeslot.DefaultHorizonSlots,
		Seed:  1,
		Model: "gpt2-small",
		Nodes: []NodeGroup{
			{GPU: gpu.A100.Name, Count: 4},
			{GPU: gpu.A40.Name, Count: 4},
		},
		Vendors: 5,
		Workload: Workload{
			Arrivals:    "poisson",
			RatePerSlot: 5,
			Deadlines:   "medium",
		},
		Algorithm: Algorithm{Name: "pdftsp"},
	}
}

// Load reads a JSON config, rejecting unknown fields so typos fail loudly.
func Load(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	return c, c.Validate()
}

// LoadFile reads a JSON config from disk.
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Save writes the config as indented JSON.
func (c Config) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Validate checks the configuration before building.
func (c Config) Validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("config: slots must be positive, got %d", c.Slots)
	}
	if _, err := c.model(); err != nil {
		return err
	}
	if len(c.Nodes) == 0 {
		return fmt.Errorf("config: no node groups")
	}
	for i, g := range c.Nodes {
		if _, ok := gpu.ByName(g.GPU); !ok {
			return fmt.Errorf("config: node group %d: unknown GPU %q", i, g.GPU)
		}
		if g.Count <= 0 {
			return fmt.Errorf("config: node group %d: non-positive count %d", i, g.Count)
		}
	}
	if c.Vendors < 0 {
		return fmt.Errorf("config: negative vendor count %d", c.Vendors)
	}
	if _, err := arrivalKind(c.Workload.Arrivals); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if _, err := deadlinePolicy(c.Workload.Deadlines); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if c.Workload.RatePerSlot < 0 {
		return fmt.Errorf("config: negative arrival rate %v", c.Workload.RatePerSlot)
	}
	switch c.Algorithm.Name {
	case "pdftsp", "pdftsp-adaptive", "titan", "eft", "ntm":
	default:
		return fmt.Errorf("config: unknown algorithm %q", c.Algorithm.Name)
	}
	if _, err := dualRule(c.Algorithm.DualRule); err != nil {
		return err
	}
	return nil
}

func (c Config) model() (lora.ModelConfig, error) {
	m, err := lora.ModelNamed(c.Model)
	if err != nil {
		return lora.ModelConfig{}, fmt.Errorf("config: %w", err)
	}
	if m == 0 {
		m = lora.ModelGPT2Small
	}
	return m.Config(), nil
}

// arrivalKind and deadlinePolicy add the file format's defaults (an
// omitted field) to the trace package's name parsers.
func arrivalKind(s string) (trace.ArrivalKind, error) {
	if s == "" {
		return trace.Poisson, nil
	}
	return trace.ParseArrivalKind(s)
}

func deadlinePolicy(s string) (trace.DeadlinePolicy, error) {
	if s == "" {
		return trace.MediumDeadlines, nil
	}
	return trace.ParseDeadlinePolicy(s)
}

func dualRule(s string) (core.DualRule, error) {
	switch s {
	case "", "paper":
		return core.PaperRule, nil
	case "additive":
		return core.AdditiveOnly, nil
	case "multiplicative":
		return core.MultiplicativeOnly, nil
	default:
		return 0, fmt.Errorf("config: unknown dual rule %q", s)
	}
}

// Mix lays n nodes out as one of the paper's three compositions
// (Figure 6): "a100", "a40", or "hybrid" — A100s first, the odd node an
// A100.
func Mix(name string, n int) ([]NodeGroup, error) {
	if n < 1 {
		return nil, fmt.Errorf("config: need at least one node, got %d", n)
	}
	switch name {
	case "a100":
		return []NodeGroup{{GPU: gpu.A100.Name, Count: n}}, nil
	case "a40":
		return []NodeGroup{{GPU: gpu.A40.Name, Count: n}}, nil
	case "hybrid":
		groups := []NodeGroup{{GPU: gpu.A100.Name, Count: n/2 + n%2}}
		if n > 1 {
			groups = append(groups, NodeGroup{GPU: gpu.A40.Name, Count: n / 2})
		}
		return groups, nil
	default:
		return nil, fmt.Errorf("config: unknown mix %q", name)
	}
}

// NumNodes is K, the node count across all groups.
func (c Config) NumNodes() int {
	n := 0
	for _, g := range c.Nodes {
		n += g.Count
	}
	return n
}

// WorkloadFlags registers the flags that shape the generated workload
// (-slots -rate -arrivals -deadlines -seed) onto fs; c's current values
// are the defaults, and parsed values land in c.
func (c *Config) WorkloadFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Slots, "slots", c.Slots, "horizon length in slots")
	fs.Float64Var(&c.Workload.RatePerSlot, "rate", c.Workload.RatePerSlot, "mean task arrivals per slot (also what the dual prices are calibrated for)")
	fs.StringVar(&c.Workload.Arrivals, "arrivals", c.Workload.Arrivals, "arrival process: poisson, mlaas, philly, helios")
	fs.StringVar(&c.Workload.Deadlines, "deadlines", c.Workload.Deadlines, "deadline policy: tight, medium, slack")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "workload and marketplace seed")
}

// StackFlags registers WorkloadFlags plus the cluster and marketplace
// flags (-nodes -mix -vendors). A Config holds node groups, not a count
// and a mix name, so the binary states those two defaults here and each
// of the two flags re-derives c.Nodes as it is parsed.
func (c *Config) StackFlags(fs *flag.FlagSet, nodes int, mix string) {
	c.WorkloadFlags(fs)
	layout := func() (err error) {
		c.Nodes, err = Mix(mix, nodes)
		return err
	}
	if err := layout(); err != nil {
		panic(err) // the binary's own defaults
	}
	fs.Func("nodes", fmt.Sprintf("number of compute nodes (default %d)", nodes), func(s string) (err error) {
		if nodes, err = strconv.Atoi(s); err != nil {
			return err
		}
		return layout()
	})
	fs.Func("mix", fmt.Sprintf("cluster mix: a100, a40, hybrid (default %q)", mix), func(s string) error {
		mix = s
		return layout()
	})
	fs.IntVar(&c.Vendors, "vendors", c.Vendors, "number of labor vendors")
}

// NewCluster builds the empty cluster the node groups describe, each
// node's capacities calibrated by the LoRA throughput model.
func NewCluster(h timeslot.Horizon, model lora.ModelConfig, groups []NodeGroup) (*cluster.Cluster, error) {
	nodes, err := nodeList(h, model, groups)
	if err != nil {
		return nil, err
	}
	return newCluster(h, model, nodes)
}

func nodeList(h timeslot.Horizon, model lora.ModelConfig, groups []NodeGroup) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for i, g := range groups {
		spec, ok := gpu.ByName(g.GPU)
		if !ok {
			return nil, fmt.Errorf("config: node group %d: unknown GPU %q", i, g.GPU)
		}
		nodes = append(nodes, cluster.Uniform(g.Count, spec, lora.NodeCapUnits(model, spec, h), spec.MemGB)...)
	}
	return nodes, nil
}

func newCluster(h timeslot.Horizon, model lora.ModelConfig, nodes []cluster.Node) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, nodes)
}

// Market is the labor-vendor marketplace that goes with a workload seed.
func Market(vendors int, seed int64) (*vendor.Marketplace, error) {
	return vendor.Standard(vendors, seed+7)
}

// TraceConfig is the workload half of the recipe as the generator takes it.
func (c Config) TraceConfig() (trace.Config, error) {
	if err := c.Validate(); err != nil {
		return trace.Config{}, err
	}
	tc := trace.DefaultConfig()
	tc.Seed = c.Seed
	tc.Horizon = timeslot.NewHorizon(c.Slots)
	tc.RatePerSlot = c.Workload.RatePerSlot
	tc.Model, _ = c.model()
	tc.Arrivals, _ = arrivalKind(c.Workload.Arrivals)
	tc.Deadlines, _ = deadlinePolicy(c.Workload.Deadlines)
	if c.Workload.PrepProb != nil {
		tc.PrepProb = *c.Workload.PrepProb
	}
	if c.Workload.ValuePerUnit != nil {
		tc.ValuePerUnitMin = c.Workload.ValuePerUnit[0]
		tc.ValuePerUnitMax = c.Workload.ValuePerUnit[1]
	}
	return tc, nil
}

// Generate draws the configured bid stream.
func (c Config) Generate() ([]task.Task, error) {
	tc, err := c.TraceConfig()
	if err != nil {
		return nil, err
	}
	return trace.Generate(tc)
}

// Built is one wired auction stack: the runnable realization of a Config
// — or of one shard of it — against a bid stream.
type Built struct {
	Horizon   timeslot.Horizon
	Model     lora.ModelConfig
	Cluster   *cluster.Cluster
	Market    *vendor.Marketplace
	Tasks     []task.Task
	Scheduler sim.Scheduler
	SimConfig sim.Config
}

// BuildShards generates the workload and wires a fleet of n against it:
// see Wire.
func (c Config) BuildShards(n int) ([]*Built, error) {
	tasks, err := c.Generate()
	if err != nil {
		return nil, err
	}
	return c.Wire(tasks, n)
}

// Wire partitions the cluster round-robin into n shards — shard i owns
// nodes i, i+n, i+2n, …, so every shard gets a balanced slice of a
// heterogeneous mix — and wires each one its own cluster, marketplace
// and scheduler, the pdFTSP duals calibrated against the full bid stream
// on the shard's own nodes. One shard is the whole cluster. Everything is
// seed-determined, so wiring the same Config and tasks twice yields
// bit-identical twins: that is how a replay twin of a broker is built.
// A baseline algorithm is refused: this package builds only the pdFTSP
// family, so no serving binary links the baselines or their MILP stack.
func (c Config) Wire(tasks []task.Task, n int) ([]*Built, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("config: shards must be >= 1, got %d", n)
	}
	if k := c.NumNodes(); k < n {
		return nil, fmt.Errorf("config: %d shards need at least %d nodes, have %d", n, n, k)
	}
	h := timeslot.NewHorizon(c.Slots)
	model, _ := c.model()
	nodes, err := nodeList(h, model, c.Nodes)
	if err != nil {
		return nil, err
	}
	stacks := make([]*Built, n)
	for i := range stacks {
		var part []cluster.Node
		for g := i; g < len(nodes); g += n {
			part = append(part, nodes[g])
		}
		if stacks[i], err = c.wire(h, model, part, tasks, nil); err != nil {
			return nil, fmt.Errorf("config: shard %d: %w", i, err)
		}
	}
	return stacks, nil
}

// WireWith wires the whole cluster, as Wire does one shard, around sched:
// a baseline built on the figure side (experiments.Baseline), or nil for
// the pdFTSP scheduler the config names.
func (c Config) WireWith(tasks []task.Task, sched sim.Scheduler) (*Built, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	h := timeslot.NewHorizon(c.Slots)
	model, _ := c.model()
	nodes, err := nodeList(h, model, c.Nodes)
	if err != nil {
		return nil, err
	}
	return c.wire(h, model, nodes, tasks, sched)
}

// wire is the recipe proper, for one node list; a nil sched is the
// pdFTSP scheduler the config names.
func (c Config) wire(h timeslot.Horizon, model lora.ModelConfig, nodes []cluster.Node, tasks []task.Task, sched sim.Scheduler) (*Built, error) {
	cl, err := newCluster(h, model, nodes)
	if err != nil {
		return nil, err
	}
	nVendors := c.Vendors
	if nVendors == 0 {
		nVendors = 5
	}
	mkt, err := Market(nVendors, c.Seed)
	if err != nil {
		return nil, err
	}

	switch {
	case sched != nil:
	case c.Algorithm.Name == "pdftsp":
		opts := core.CalibrateDuals(tasks, model, cl, mkt)
		opts.MaskFullCells = c.Algorithm.MaskFullCells
		opts.ChargeEnergy = c.Algorithm.ChargeEnergy
		opts.DualRule, _ = dualRule(c.Algorithm.DualRule)
		sched, err = core.New(cl, opts)
	case c.Algorithm.Name == "pdftsp-adaptive":
		safety := c.Algorithm.Safety
		if safety == 0 {
			safety = 1.3
		}
		opts := core.Options{
			MaskFullCells: c.Algorithm.MaskFullCells,
			ChargeEnergy:  c.Algorithm.ChargeEnergy,
		}
		opts.DualRule, _ = dualRule(c.Algorithm.DualRule)
		sched, err = core.NewAdaptive(cl, opts, safety)
	default:
		return nil, fmt.Errorf("config: %q is a baseline, wired on the figure side", c.Algorithm.Name)
	}
	if err != nil {
		return nil, err
	}

	return &Built{
		Horizon:   h,
		Model:     model,
		Cluster:   cl,
		Market:    mkt,
		Tasks:     tasks,
		Scheduler: sched,
		SimConfig: sim.Config{Model: model, Market: mkt},
	}, nil
}

package config

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// build wires c as one stack.
func build(c Config) (*Built, error) {
	stacks, err := c.BuildShards(1)
	if err != nil {
		return nil, err
	}
	return stacks[0], nil
}

func TestDefaultValidatesAndBuilds(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c.Slots = 24
	c.Workload.RatePerSlot = 2
	b, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cluster.NumNodes() != 8 {
		t.Fatalf("built %d nodes, want 8", b.Cluster.NumNodes())
	}
	if b.Scheduler.Name() != "pdFTSP" {
		t.Fatalf("scheduler %q", b.Scheduler.Name())
	}
	res, err := sim.Run(b.Cluster, b.Scheduler, b.Tasks, b.SimConfig)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 {
		t.Fatal("built simulation admitted nothing")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Default()
	c.Algorithm = Algorithm{Name: "pdftsp-adaptive", Safety: 1.5, DualRule: "additive"}
	prep := 0.25
	c.Workload.PrepProb = &prep
	c.Workload.ValuePerUnit = &[2]float64{0.9, 1.3}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != c.Algorithm {
		t.Fatalf("algorithm round trip: %+v vs %+v", got.Algorithm, c.Algorithm)
	}
	if *got.Workload.PrepProb != prep || *got.Workload.ValuePerUnit != *c.Workload.ValuePerUnit {
		t.Fatal("workload round trip lost fields")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"slots": 10, "nodez": []}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero slots", func(c *Config) { c.Slots = 0 }},
		{"bad model", func(c *Config) { c.Model = "bert" }},
		{"no nodes", func(c *Config) { c.Nodes = nil }},
		{"bad gpu", func(c *Config) { c.Nodes[0].GPU = "H100" }},
		{"zero count", func(c *Config) { c.Nodes[0].Count = 0 }},
		{"negative vendors", func(c *Config) { c.Vendors = -1 }},
		{"bad arrivals", func(c *Config) { c.Workload.Arrivals = "uniform" }},
		{"bad deadlines", func(c *Config) { c.Workload.Deadlines = "loose" }},
		{"negative rate", func(c *Config) { c.Workload.RatePerSlot = -1 }},
		{"bad algorithm", func(c *Config) { c.Algorithm.Name = "fifo" }},
		{"bad dual rule", func(c *Config) { c.Algorithm.DualRule = "geometric" }},
	}
	for _, m := range muts {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validated", m.name)
		}
	}
}

// TestBuildEveryAlgorithm: every name Validate accepts either builds and
// runs (the pdFTSP family) or is refused, never wired with a nil
// scheduler, unless the figure side hands WireWith one.
func TestBuildEveryAlgorithm(t *testing.T) {
	for _, algo := range []string{"pdftsp", "pdftsp-adaptive", "titan", "eft", "ntm"} {
		c := Default()
		c.Slots = 12
		c.Workload.RatePerSlot = 1
		c.Algorithm.Name = algo
		b, err := build(c)
		if strings.HasPrefix(algo, "pdftsp") {
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if _, err := sim.Run(b.Cluster, b.Scheduler, b.Tasks, b.SimConfig); err != nil {
				t.Fatalf("%s run: %v", algo, err)
			}
			continue
		}
		if b != nil || !isBaselineRefusal(err) {
			t.Fatalf("%s: BuildShards gave %+v, %v; want a baseline refusal", algo, b, err)
		}
		if stacks, err := c.BuildShards(2); stacks != nil || !isBaselineRefusal(err) {
			t.Fatalf("%s: BuildShards gave %d stacks, %v; want a baseline refusal", algo, len(stacks), err)
		}
		tasks, err := c.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if b, err := c.WireWith(tasks, nil); b != nil || !isBaselineRefusal(err) {
			t.Fatalf("%s: WireWith without a scheduler gave %+v, %v; want a baseline refusal", algo, b, err)
		}
	}
}

func isBaselineRefusal(err error) bool {
	return err != nil && strings.Contains(err.Error(), "is a baseline")
}

func TestDefaultsApplied(t *testing.T) {
	c := Default()
	c.Slots = 12
	c.Vendors = 0 // default 5
	c.Model = ""  // default gpt2-small
	c.Workload.Arrivals = ""
	c.Workload.Deadlines = ""
	b, err := build(c)
	if err != nil {
		t.Fatal(err)
	}
	if b.Market.NumVendors() != 5 {
		t.Fatalf("default vendors = %d", b.Market.NumVendors())
	}
	if b.Model.Name != "gpt2-small" {
		t.Fatalf("default model = %q", b.Model.Name)
	}
}

// taskDigest hashes every field of every task, in order, the model by
// name (FNV-1a over fixed-width little-endian fields — trace's own
// pinned-digest function).
func taskDigest(tasks []task.Task) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range tasks {
		t := &tasks[i]
		for _, v := range []int{t.ID, int(t.Arrival), int(t.Deadline), int(t.Work), int(t.Batch)} {
			u64(uint64(v))
		}
		for _, v := range []float64{t.MemGB, t.Bid} {
			u64(math.Float64bits(v))
		}
		if t.NeedsPrep {
			u64(1)
		} else {
			u64(0)
		}
		name := t.ModelName.String()
		u64(uint64(len(name)))
		h.Write([]byte(name))
	}
	return h.Sum64()
}

// nodeNames spells a cluster's node order as "GPU/CapWork" words.
func nodeNames(cl *cluster.Cluster) string {
	var names []string
	for _, n := range cl.Nodes() {
		names = append(names, fmt.Sprintf("%s/%d", n.Spec.Name, n.CapWork))
	}
	return strings.Join(names, " ")
}

// flagConfig is what a binary's main does: its defaults, then its flags.
func flagConfig(t *testing.T, c Config, nodes int, args ...string) Config {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.StackFlags(fs, nodes, "hybrid")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

const (
	a100 = "A100-80G/32"
	a40  = "A40-48G/14"
)

// TestRecipeDigests pins what every binary's stack recipe produced before
// the recipes became this package: each row was recorded at the parent
// commit (17519b3) from that binary's own wiring code —
// cmd/pdftspd's stackConfig.buildShards, cmd/pdftspd-load's loadTasks +
// buildShardStacks, config.Default().Build() for pdftsp-sim (its flags
// branch printed the same report), cmd/tracegen's JSON output — and must
// pass unmodified: task count and stream digest, then per shard the
// calibrated α and β (as float64 bits) and the node order. The stream
// digests were re-recorded over the fields a task kept when it dropped its
// dataset size, epochs and rank, at the commit before the drop.
func TestRecipeDigests(t *testing.T) {
	type shard struct {
		alpha, beta uint64
		nodes       string
	}
	loadDefaults := Default()
	loadDefaults.Slots, loadDefaults.Workload.RatePerSlot = 24, 40
	for _, tc := range []struct {
		name   string
		cfg    Config
		shards int
		n      int
		sum    uint64
		want   []shard
	}{
		{"pdftspd", flagConfig(t, Default(), 8), 1, 578, 0xa4dc45e413d3f05c, []shard{
			{0x3ff9ff926eb26ded, 0x400a67f9302a343b, strings.Join([]string{a100, a100, a100, a100, a40, a40, a40, a40}, " ")},
		}},
		{"pdftspd -shards 2", flagConfig(t, Default(), 8), 2, 578, 0xa4dc45e413d3f05c, []shard{
			{0x3ff9ff926eb26deb, 0x400a67f9302a3438, strings.Join([]string{a100, a100, a40, a40}, " ")},
			{0x3ff9ff926eb26deb, 0x400a67f9302a3438, strings.Join([]string{a100, a100, a40, a40}, " ")},
		}},
		{"pdftspd -shards 4", flagConfig(t, Default(), 8), 4, 578, 0xa4dc45e413d3f05c, []shard{
			{0x3ff9ff926eb26deb, 0x400a67f9302a3438, a100 + " " + a40},
			{0x3ff9ff926eb26deb, 0x400a67f9302a3438, a100 + " " + a40},
			{0x3ff9ff926eb26deb, 0x400a67f9302a3438, a100 + " " + a40},
			{0x3ff9ff926eb26deb, 0x400a67f9302a3438, a100 + " " + a40},
		}},
		{"pdftspd-load (make load-smoke)", flagConfig(t, loadDefaults, 4, "-slots", "24", "-rate", "40", "-nodes", "4", "-seed", "1"), 1, 761, 0x418a530eb8d1e881, []shard{
			{0x3ffd73a7177feed8, 0x400de9ec0c0f8199, strings.Join([]string{a100, a100, a40, a40}, " ")},
		}},
		{"pdftspd-load -shards 2 (make shard-load-smoke)", flagConfig(t, loadDefaults, 4, "-slots", "24", "-rate", "40", "-nodes", "4", "-seed", "1"), 2, 761, 0x418a530eb8d1e881, []shard{
			{0x3ffd73a7177feed8, 0x400de9ec0c0f8199, a100 + " " + a40},
			{0x3ffd73a7177feed8, 0x400de9ec0c0f8199, a100 + " " + a40},
		}},
		{"pdftsp-sim", flagConfig(t, Default(), 8), 1, 578, 0xa4dc45e413d3f05c, []shard{
			{0x3ff9ff926eb26ded, 0x400a67f9302a343b, strings.Join([]string{a100, a100, a100, a100, a40, a40, a40, a40}, " ")},
		}},
	} {
		stacks, err := tc.cfg.BuildShards(tc.shards)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(stacks) != len(tc.want) {
			t.Fatalf("%s: %d shards, want %d", tc.name, len(stacks), len(tc.want))
		}
		for i, st := range stacks {
			if got := taskDigest(st.Tasks); len(st.Tasks) != tc.n || got != tc.sum {
				t.Errorf("%s shard %d: %d tasks digest %#x, recorded %d / %#x", tc.name, i, len(st.Tasks), got, tc.n, tc.sum)
			}
			o := st.Scheduler.(*core.Scheduler).Options()
			got := shard{math.Float64bits(o.Alpha), math.Float64bits(o.Beta), nodeNames(st.Cluster)}
			if got != tc.want[i] {
				t.Errorf("%s shard %d: α %#x β %#x nodes %q, recorded α %#x β %#x nodes %q", tc.name, i,
					got.alpha, got.beta, got.nodes, tc.want[i].alpha, tc.want[i].beta, tc.want[i].nodes)
			}
		}
	}

	// tracegen -arrivals helios: the workload half alone.
	c := Default()
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	c.WorkloadFlags(fs)
	if err := fs.Parse([]string{"-arrivals", "helios"}); err != nil {
		t.Fatal(err)
	}
	tasks, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if got := taskDigest(tasks); len(tasks) != 545 || got != 0xee5b1d7e674ad6fe {
		t.Errorf("tracegen -arrivals helios: %d tasks digest %#x, recorded 545 / 0xee5b1d7e674ad6fe", len(tasks), got)
	}
}

// TestFlagsAndFileAgree: a binary's default flags and that same Config
// saved and loaded back (pdftsp-sim -writeconfig | -config) build the
// same stack. cmd/pdftsp-sim's test of the same name holds the two
// routes to the same report and decision trace.
func TestFlagsAndFileAgree(t *testing.T) {
	fromFlags := flagConfig(t, Default(), 8)
	var buf bytes.Buffer
	if err := fromFlags.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fromFile, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFlags, fromFile) || !reflect.DeepEqual(fromFlags, Default()) {
		t.Fatalf("configs differ:\nflags   %+v\nfile    %+v\ndefault %+v", fromFlags, fromFile, Default())
	}
	a, err := build(fromFlags)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Tasks, b.Tasks) || a.Horizon != b.Horizon || a.Model != b.Model ||
		nodeNames(a.Cluster) != nodeNames(b.Cluster) || a.Market.NumVendors() != b.Market.NumVendors() ||
		a.Scheduler.(*core.Scheduler).Options() != b.Scheduler.(*core.Scheduler).Options() {
		t.Fatal("the flags route and the file route built different stacks")
	}

	// The two node flags compose in either order, and a bad value is a
	// parse error rather than a late panic.
	want, _ := Mix("a40", 3)
	for _, args := range [][]string{{"-nodes", "3", "-mix", "a40"}, {"-mix", "a40", "-nodes", "3"}} {
		if got := flagConfig(t, Default(), 8, args...); !reflect.DeepEqual(got.Nodes, want) {
			t.Errorf("%v: nodes %+v, want %+v", args, got.Nodes, want)
		}
	}
	for _, args := range [][]string{{"-mix", "v100"}, {"-nodes", "0"}, {"-nodes", "x"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c := Default()
		c.StackFlags(fs, 8, "hybrid")
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v parsed", args)
		}
	}
}

// TestShardPartition is the round-robin partition's contract: shard i
// holds exactly nodes i, i+n, i+2n, … of the whole cluster, in that
// order — so every node is in exactly one shard — each shard is wired
// with its own marketplace and scheduler, and more shards than nodes is
// refused.
func TestShardPartition(t *testing.T) {
	for _, mix := range []string{"a100", "a40", "hybrid"} {
		for k := 1; k <= 9; k++ {
			c := Default()
			c.Slots = 12
			c.Workload.RatePerSlot = 1
			var err error
			if c.Nodes, err = Mix(mix, k); err != nil {
				t.Fatal(err)
			}
			if c.NumNodes() != k {
				t.Fatalf("Mix(%q, %d) has %d nodes", mix, k, c.NumNodes())
			}
			tasks, err := c.Generate()
			if err != nil {
				t.Fatal(err)
			}
			whole, err := c.Wire(tasks, 1)
			if err != nil {
				t.Fatal(err)
			}
			full := whole[0].Cluster.Nodes()
			for n := 1; n <= k; n++ {
				shards, err := c.Wire(tasks, n)
				if err != nil {
					t.Fatalf("%s k=%d n=%d: %v", mix, k, n, err)
				}
				seen := 0
				for i, st := range shards {
					got := st.Cluster.Nodes()
					for j, node := range got {
						g := i + j*n
						if g >= k || node.Spec != full[g].Spec || node.CapWork != full[g].CapWork || node.CapMemGB != full[g].CapMemGB {
							t.Fatalf("%s k=%d n=%d: shard %d node %d is not global node %d", mix, k, n, i, j, g)
						}
					}
					if want := (k - i + n - 1) / n; len(got) != want {
						t.Fatalf("%s k=%d n=%d: shard %d has %d nodes, want %d", mix, k, n, i, len(got), want)
					}
					seen += len(got)
					for _, other := range shards[:i] {
						if other.Market == st.Market || other.Scheduler == st.Scheduler || other.Cluster == st.Cluster {
							t.Fatalf("%s k=%d n=%d: shards share a marketplace, scheduler or cluster", mix, k, n)
						}
					}
				}
				if seen != k {
					t.Fatalf("%s k=%d n=%d: shards hold %d nodes", mix, k, n, seen)
				}
			}
			if _, err := c.Wire(tasks, k+1); err == nil {
				t.Fatalf("%s: %d shards over %d nodes accepted", mix, k+1, k)
			}
			if _, err := c.Wire(tasks, 0); err == nil {
				t.Fatalf("%s: zero shards accepted", mix)
			}
		}
	}
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Load model shared by every workload (README, "Load model").
const (
	horizonSlots = 144
	numVendors   = 5
	submitConns  = 2
	retryBudget  = 8

	// rateScale is the one common factor applied to the issue's arrival
	// rates so that 92 driver runs fit the run-time cap; the shapes
	// (nodes, deadlines, batch, persistence, kill cadence) are unscaled.
	rateScale = 0.25

	// tailSamples is how many samples must lie beyond a percentile for
	// it to be reported at all.
	tailSamples = 10
)

// spec is one workload's shape. Only the four in workloads are
// benchmarked; the self-test runs the same shapes at toy size.
type spec struct {
	name string
	why  string

	slots     int
	nodes     int
	rate      float64 // mean Poisson arrivals per slot, already scaled
	deadlines trace.DeadlinePolicy
	batch     int

	// durable turns the persistence layer on: a checkpoint every slot
	// with a full snapshot every 8th, the write-ahead journal fsynced
	// before every ack, and the binary decision log.
	durable bool
	// killEvery > 0 crash-stops the broker after half the batches of
	// every killEvery-th slot are acked, then restores it from disk.
	killEvery int

	// minTail is the percentile guard (tailSamples outside the self-test).
	minTail int
}

var workloads = []spec{
	{
		name: "reject-flood", nodes: 4, rate: 2500 * rateScale, deadlines: trace.MediumDeadlines, batch: 64,
		why: "4 nodes under a flood: >99% of bids end surplus/no-schedule, so core's reject path is nearly all of the step phase and persistence is off",
	},
	{
		name: "admit-wide", nodes: 128, rate: 300 * rateScale, deadlines: trace.MediumDeadlines, batch: 16,
		why: "128 nodes, most bids admitted: DP over 128 candidates, dual updates, ledger commits, payments, placements in every decision",
	},
	{
		name: "durable-ack", nodes: 4, rate: 1700 * rateScale, deadlines: trace.TightDeadlines, batch: 16, durable: true,
		why: "cheap DP, checkpoint every slot, journal fsync before every ack, decision log: persistence is most of the wall clock, core barely matters",
	},
	{
		name: "crash-restore", nodes: 4, rate: 600 * rateScale, deadlines: trace.TightDeadlines, batch: 16, durable: true, killEvery: 12,
		why: "durable-ack's persistence read back: 11 kill-and-restore cycles mid-slot, so a write-side saving that slows recovery shows here",
	},
}

func init() {
	for i := range workloads {
		workloads[i].slots = horizonSlots
		workloads[i].minTail = tailSamples
	}
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// setup is one pass's input and calibration: everything the process does
// between start and the first bid, except the broker itself.
type setup struct {
	spec  spec
	seed  int64
	h     timeslot.Horizon
	model lora.ModelConfig

	tasks   []task.Task
	perSlot [][]task.Task
	maxID   int
	maxSlot int

	// mkt is the marketplace calibration ran on (its quote cache is
	// warm), coreOpts the calibrated coefficients, gen0 the stack the
	// first broker generation serves on.
	mkt      *vendor.Marketplace
	coreOpts core.Options
	gen0     *stack

	generateS  float64
	calibrateS float64
}

// stack is a wired cluster + scheduler: what cmd/pdftspd-load's wireStack
// returns. Generation 0 serves on the very cluster and marketplace the
// coefficients were calibrated on; every later generation and the twin
// get a fresh cluster and scheduler built from those coefficients.
type stack struct {
	cl    *cluster.Cluster
	sched *core.Scheduler
}

func (s *setup) nodeSpecs() []cluster.Node {
	n := s.spec.nodes
	a100 := cluster.Uniform(n/2+n%2, gpu.A100, lora.NodeCapUnits(s.model, gpu.A100, s.h), gpu.A100.MemGB)
	a40 := cluster.Uniform(n/2, gpu.A40, lora.NodeCapUnits(s.model, gpu.A40, s.h), gpu.A40.MemGB)
	return append(a100, a40...)
}

func (s *setup) newCluster() (*cluster.Cluster, error) {
	cl, err := cluster.New(cluster.Config{Horizon: s.h, BaseModelGB: lora.BaseMemoryGB(s.model)}, s.nodeSpecs())
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return cl, nil
}

func (s *setup) newMarket() (*vendor.Marketplace, error) {
	mkt, err := vendor.Standard(numVendors, s.seed+7)
	if err != nil {
		return nil, fmt.Errorf("marketplace: %w", err)
	}
	return mkt, nil
}

// newStack wires a fresh cluster and scheduler with the calibrated
// coefficients. The marketplace is shared (setup.mkt): its quotes are a
// pure function of (seed, task ID) that calibration has already computed
// and cached, exactly the state a pdftspd-load broker serves from.
func (s *setup) newStack() (*stack, error) {
	cl, err := s.newCluster()
	if err != nil {
		return nil, err
	}
	sched, err := core.New(cl, s.coreOpts)
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	return &stack{cl: cl, sched: sched}, nil
}

// newSetup generates the workload from the seed and calibrates the dual
// coefficients against it, timing both.
func newSetup(sp spec, seed int64) (*setup, error) {
	s := &setup{spec: sp, seed: seed, h: timeslot.NewHorizon(sp.slots), model: lora.GPT2Small()}

	tc := trace.DefaultConfig()
	tc.Seed = seed
	tc.Horizon = s.h
	tc.Arrivals = trace.Poisson
	tc.RatePerSlot = sp.rate
	tc.Deadlines = sp.deadlines
	t0 := time.Now()
	tasks, err := trace.Generate(tc)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	s.generateS = time.Since(t0).Seconds()
	if len(tasks) == 0 {
		return nil, fmt.Errorf("empty workload")
	}
	s.tasks = tasks
	s.perSlot = make([][]task.Task, sp.slots)
	for i := range tasks {
		t := tasks[i]
		s.perSlot[t.Arrival] = append(s.perSlot[t.Arrival], t)
		if t.ID > s.maxID {
			s.maxID = t.ID
		}
	}
	for _, sl := range s.perSlot {
		if len(sl) > s.maxSlot {
			s.maxSlot = len(sl)
		}
	}

	cl, err := s.newCluster()
	if err != nil {
		return nil, err
	}
	if s.mkt, err = s.newMarket(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	s.coreOpts = core.CalibrateDuals(tasks, s.model, cl, s.mkt)
	s.calibrateS = time.Since(t0).Seconds()
	sched, err := core.New(cl, s.coreOpts)
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	s.gen0 = &stack{cl: cl, sched: sched}
	return s, nil
}

// persistPaths names the files of one pass's persistence directory.
type persistPaths struct {
	dir, ckpt, declog string
}

func newPersistDir(base string) (persistPaths, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return persistPaths{}, err
	}
	dir, err := os.MkdirTemp(base, "pass-")
	if err != nil {
		return persistPaths{}, err
	}
	return persistPaths{dir: dir, ckpt: filepath.Join(dir, "ck.json"), declog: filepath.Join(dir, "dec.bin")}, nil
}

// Package pdftsp is the public API of the pdFTSP library: an online
// auction-based scheduler and pricer for multi-LoRA fine-tuning tasks,
// reproducing "Online Scheduling and Pricing for Multi-LoRA Fine-Tuning
// Tasks" (ICPP 2024).
//
// The flow mirrors the paper's system model (Section 2):
//
//	model  := pdftsp.GPT2Small()                      // the shared pre-trained model
//	h      := pdftsp.Day()                            // 144 ten-minute slots
//	clu, _ := pdftsp.NewCluster(h, model, pdftsp.NodeGroup{Spec: pdftsp.A100(), Count: 8})
//	mkt, _ := pdftsp.NewMarketplace(5, 42)            // labor vendors for data pre-processing
//	tasks, _ := pdftsp.GenerateWorkload(pdftsp.WorkloadConfig{...})
//	sch, _ := pdftsp.NewScheduler(clu, pdftsp.Calibrate(tasks, model, clu, mkt))
//	res, _ := pdftsp.Run(clu, sch, tasks, pdftsp.RunConfig{Model: model, Market: mkt})
//
// Each arriving task is a sealed bid {a_i, d_i, D_i, r_i, M_i, f_i, b_i};
// the scheduler answers with an irrevocable Decision: admission, a
// concrete execution plan over (node, slot) pairs, the selected
// pre-processing vendor, and a resource-price payment that makes the
// auction truthful and individually rational.
//
// The subpackages under internal/ hold the implementation: the
// primal-dual core, the GPU cluster and LoRA calibration substrates, the
// Titan/EFT/NTM baselines, a simplex+branch-and-bound MILP stack for the
// offline optimum, and the experiment harness that regenerates every
// figure of the paper (see DESIGN.md and EXPERIMENTS.md).
package pdftsp

import (
	"context"
	"time"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Core model types, aliased from the implementation packages so their
// documented fields and methods are part of the public surface.
type (
	// Task is one LoRA fine-tuning request submitted as a bid.
	Task = task.Task
	// Horizon is a slotted time horizon.
	Horizon = timeslot.Horizon
	// Window is an inclusive slot interval.
	Window = timeslot.Window
	// Cluster is the provider's GPU data center with its resource ledger.
	Cluster = cluster.Cluster
	// Node is one compute node.
	Node = cluster.Node
	// GPUSpec describes a GPU model.
	GPUSpec = gpu.Spec
	// PriceCurve modulates operational cost over time.
	PriceCurve = gpu.PriceCurve
	// ModelConfig describes the shared pre-trained transformer.
	ModelConfig = lora.ModelConfig
	// Model names a catalog model in Task.ModelName; zero names none (the
	// instance default).
	Model = lora.Model
	// Schedule is a concrete execution plan for one task.
	Schedule = schedule.Schedule
	// Placement is one (node, slot) execution cell of a plan.
	Placement = schedule.Placement
	// TaskEnv bundles the per-task inputs a scheduler consumes.
	TaskEnv = schedule.TaskEnv
	// Decision is the auction outcome for one bid. Its money is read
	// through Payment, VendorCost and EnergyCost, which are 0 on a losing
	// bid: that Decision carries no Terms.
	Decision = schedule.Decision
	// Terms is what a winning bid's Decision moves: payment, vendor cost
	// and energy cost.
	Terms = schedule.Terms
	// Marketplace is the labor-vendor market for data pre-processing.
	Marketplace = vendor.Marketplace
	// VendorQuote is one vendor's price/delay offer for one task.
	VendorQuote = vendor.Quote
	// Scheduler is the contract every algorithm implements.
	Scheduler = sim.Scheduler
	// RunConfig parameterizes a simulation run.
	RunConfig = sim.Config
	// RunResult is a simulation run's accounting.
	RunResult = sim.Result
	// SchedulerOptions configures the pdFTSP core.
	SchedulerOptions = core.Options
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = trace.Config
	// TraceModelShare weights one model in a multi-model workload.
	TraceModelShare = trace.ModelShare
	// TitanOptions tunes the Titan baseline.
	TitanOptions = baseline.TitanOptions
	// Failure is a node outage injected into a simulation run.
	Failure = sim.Failure
	// RejectReason is the typed explanation on a rejecting Decision.
	RejectReason = schedule.RejectReason
	// Observer receives a run's decision-path event stream; set it on
	// RunConfig.Observer (or BrokerOptions.Observer) to trace, audit, or
	// meter a run. Ready-made observers live in internal/obs: JSONL
	// traces, the invariant auditor, and expvar metrics.
	Observer = obs.Observer
	// Broker is the long-lived auction service: concurrent bid intake,
	// slot-batched decisions, checkpoint/restore. See NewBroker.
	Broker = service.Broker
	// BrokerOptions configures a Broker.
	BrokerOptions = service.Options
	// BrokerStatus is a broker's operational summary.
	BrokerStatus = service.Status
	// Outcome is a broker's terminal answer for one submitted bid.
	Outcome = service.Outcome
	// Checkpoint is a broker's persisted auction state.
	Checkpoint = service.Checkpoint
	// DualState is a snapshot of the scheduler's dual prices λ/φ.
	DualState = core.DualState
)

// Rejection reasons carried by Decision.Reason.
const (
	// ReasonNoSchedule: no feasible plan fits the task's window.
	ReasonNoSchedule = schedule.ReasonNoSchedule
	// ReasonSurplus: the best plan's surplus F(il) is not positive.
	ReasonSurplus = schedule.ReasonSurplus
	// ReasonCapacity: the selected plan no longer fits the ledger
	// (Lemma 1's almost-feasible case).
	ReasonCapacity = schedule.ReasonCapacity
	// ReasonFailedNode: an injected node outage broke the committed plan.
	ReasonFailedNode = schedule.ReasonFailedNode
)

// GPU catalog.
func A100() GPUSpec { return gpu.A100 }

// A40 returns the NVIDIA A40 48 GB spec.
func A40() GPUSpec { return gpu.A40 }

// V100 returns the NVIDIA V100 32 GB spec.
func V100() GPUSpec { return gpu.V100 }

// Day returns the paper's default one-day horizon of 144 ten-minute slots.
func Day() Horizon { return timeslot.Day() }

// NewHorizon returns a horizon of t slots.
func NewHorizon(t int) Horizon { return timeslot.NewHorizon(t) }

// GPT2Small returns the GPT-2 124M configuration the paper profiles.
func GPT2Small() ModelConfig { return lora.GPT2Small() }

// GPT2Medium returns the GPT-2 355M configuration.
func GPT2Medium() ModelConfig { return lora.GPT2Medium() }

// The catalog's models, as a Task names them.
const (
	ModelGPT2Small  = lora.ModelGPT2Small
	ModelGPT2Medium = lora.ModelGPT2Medium
)

// clusterSpec accumulates the functional options of NewCluster.
type clusterSpec struct {
	groups []NodeGroup
	price  PriceCurve
}

// ClusterOption configures NewCluster. Options are WithNodes and
// WithPrice; a bare NodeGroup literal is itself an option (so long-form
// callers keep compiling unchanged).
type ClusterOption interface {
	applyCluster(*clusterSpec)
}

// NodeGroup describes a homogeneous slice of a cluster. It implements
// ClusterOption, so it can be passed to NewCluster directly; WithNodes
// is the equivalent constructor form.
type NodeGroup struct {
	Spec  GPUSpec
	Count int
}

func (g NodeGroup) applyCluster(s *clusterSpec) { s.groups = append(s.groups, g) }

// WithNodes adds count nodes of the given GPU spec to the cluster.
func WithNodes(spec GPUSpec, count int) ClusterOption {
	return NodeGroup{Spec: spec, Count: count}
}

type priceOption struct{ curve PriceCurve }

func (p priceOption) applyCluster(s *clusterSpec) { s.price = p.curve }

// WithPrice sets the operational-cost multiplier curve (nil selects the
// default diurnal curve).
func WithPrice(curve PriceCurve) ClusterOption { return priceOption{curve: curve} }

// NewCluster assembles a cluster whose per-node capacities (C_kp work
// units per slot, C_km GB) are derived from the shared model's LoRA
// throughput and memory profile on each GPU type, with the base model
// replica r_b accounted per node:
//
//	cl, err := pdftsp.NewCluster(h, model,
//		pdftsp.WithNodes(pdftsp.A100(), 8),
//		pdftsp.WithNodes(pdftsp.A40(), 4),
//		pdftsp.WithPrice(pdftsp.FlatPrice(1)))
func NewCluster(h Horizon, model ModelConfig, opts ...ClusterOption) (*Cluster, error) {
	var spec clusterSpec
	for _, o := range opts {
		o.applyCluster(&spec)
	}
	var nodes []Node
	for _, g := range spec.groups {
		nodes = append(nodes, cluster.Uniform(g.Count, g.Spec,
			lora.NodeCapUnits(model, g.Spec, h), g.Spec.MemGB)...)
	}
	return cluster.New(cluster.Config{
		Horizon:     h,
		BaseModelGB: lora.BaseMemoryGB(model),
		Price:       spec.price,
	}, nodes)
}

// FlatPrice returns a constant cost multiplier.
func FlatPrice(mult float64) PriceCurve { return gpu.FlatPrice(mult) }

// DiurnalPrice returns the default day/night cost multiplier curve.
func DiurnalPrice() PriceCurve { return gpu.DefaultDiurnal() }

// NewMarketplace builds n labor vendors spanning the fast-and-expensive
// to slow-and-cheap spectrum, deterministically from the seed.
func NewMarketplace(n int, seed int64) (*Marketplace, error) {
	return vendor.Standard(n, seed)
}

// DefaultWorkload returns the paper-calibrated workload configuration
// (Poisson arrivals, [5,20]k-sample datasets, 1–5 epochs, thin margins).
func DefaultWorkload() WorkloadConfig { return trace.DefaultConfig() }

// GenerateWorkload produces a task stream sorted by arrival.
func GenerateWorkload(cfg WorkloadConfig) ([]Task, error) { return trace.Generate(cfg) }

// Calibrate derives the dual-price coefficients α, β for a workload on a
// cluster (Lemma 2 of the paper, with footprint-normalized net values).
func Calibrate(tasks []Task, model ModelConfig, cl *Cluster, mkt *Marketplace) SchedulerOptions {
	return core.CalibrateDuals(tasks, model, cl, mkt)
}

// NewScheduler builds the pdFTSP online primal-dual scheduler — the
// paper's contribution (Algorithms 1 and 2 plus the pricing rule (14)).
func NewScheduler(cl *Cluster, opts SchedulerOptions) (*core.Scheduler, error) {
	return core.New(cl, opts)
}

// NewTaskEnv prepares one arriving task for an Offer call: per-node
// throughputs s_ik from the LoRA model and vendor quotes when the task
// needs pre-processing.
func NewTaskEnv(t *Task, cl *Cluster, model ModelConfig, mkt *Marketplace) *TaskEnv {
	return schedule.NewTaskEnv(t, cl, model, mkt)
}

// Baselines of Section 5.1.
func NewEFT() Scheduler { return baseline.NewEFT() }

// NewNTM returns the no-task-merging baseline.
func NewNTM(seed int64) Scheduler { return baseline.NewNTM(seed) }

// NewTitan returns the per-slot-MILP Titan adaptation.
func NewTitan(opts TitanOptions) Scheduler { return baseline.NewTitan(opts) }

// Run replays a workload through a scheduler and accounts social welfare.
// Set RunConfig.Context (or use RunCtx) to make the run cancelable: Run
// stops between offers once the context is done and returns its error.
func Run(cl *Cluster, s Scheduler, tasks []Task, cfg RunConfig) (*RunResult, error) {
	return sim.Run(cl, s, tasks, cfg)
}

// RunCtx is Run bound to a context; cancellation stops the replay between
// offers (decisions already made are irrevocable, the partial result is
// discarded). It is the same cooperative cancellation path the parallel
// experiment engine and the auction Broker drain through.
func RunCtx(ctx context.Context, cl *Cluster, s Scheduler, tasks []Task, cfg RunConfig) (*RunResult, error) {
	cfg.Context = ctx
	return sim.Run(cl, s, tasks, cfg)
}

// NewBroker builds the long-lived auction service: bids submitted
// concurrently (Broker.Submit, or the HTTP facade from Broker.Handler)
// are batched per slot and answered with irrevocable Decisions when
// their arrival slot closes. See internal/service for the full contract
// (bounded intake, per-bid contexts, graceful drain, checkpoint/restore)
// and cmd/pdftspd for the serving daemon.
func NewBroker(opts BrokerOptions) (*Broker, error) { return service.New(opts) }

// ReadCheckpoint loads a broker checkpoint written via
// BrokerOptions.CheckpointPath; pass it to Broker.Restore before Start to
// resume a crashed broker bit-exactly.
func ReadCheckpoint(path string) (*Checkpoint, error) { return service.ReadCheckpoint(path) }

// LoadCheckpoint is ReadCheckpoint plus delta replay: with
// BrokerOptions.CheckpointFullEvery > 1 it applies the valid prefix of the
// per-slot delta sidecar on top of the full snapshot. A missing, stale or
// tail-corrupted sidecar degrades to earlier consistent state; an
// unreadable snapshot, a sidecar of it in another format version, or a
// checksummed record that does not decode is an error. Prefer this for
// restores; ReadCheckpoint reads the full snapshot alone.
func LoadCheckpoint(path string) (*Checkpoint, error) { return service.LoadCheckpoint(path) }

// DefaultTitanBudget is a sensible per-slot MILP budget for interactive
// use of the Titan baseline.
const DefaultTitanBudget = 250 * time.Millisecond

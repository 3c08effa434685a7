// Package service turns the batch pdFTSP core into a long-lived auction
// broker: bids arrive concurrently (in-process Submit or the HTTP facade
// in http.go), are serialized through a single core goroutine — the
// paper's dual updates are inherently sequential (Lemma 1), so one
// goroutine owning λ/φ and the ledger is the correctness boundary, not a
// bottleneck worked around with locks — and each caller receives the
// irrevocable Decision (admit/reject, plan, vendor, payment).
//
// Time is slotted exactly as in the paper. The broker holds each bid
// until its arrival slot closes, then runs the slot's auction round in
// (arrival, ID) order; a real-clock broker closes a slot every
// Options.SlotDuration, a virtual-clock broker whenever Step is called
// (tests and the load generator drive it deterministically). The round
// itself is sim.Engine — the same code sim.Run drives — and its order is
// deterministic, so N clients submitting concurrently reach exactly the
// same admissions, payments, and final duals as the same bids replayed
// sequentially through sim.Run; the twins in the tests check the
// transport around the round (ordering, restore, replay), not a second
// implementation of it.
//
// The broker is operable: the intake queue is bounded (ErrQueueFull maps
// to HTTP 429), every bid honors its caller's context, SIGTERM drains
// gracefully (cmd/pdftspd), and the full auction state — dual prices,
// cluster ledger, accounting, decided bids — checkpoints to a binary
// file and restores bit-exactly, so a crashed broker resumes mid-horizon.
package service

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// Service errors, each mapped to an HTTP status by the facade.
var (
	// ErrQueueFull: the bounded intake queue is full (HTTP 429).
	ErrQueueFull = errors.New("service: intake queue full")
	// ErrChannelFull: the intake channel itself rejected the send — the
	// core goroutine is behind on draining submissions. Wraps
	// ErrQueueFull, so existing errors.Is checks keep matching.
	ErrChannelFull = fmt.Errorf("%w (intake channel)", ErrQueueFull)
	// ErrHeldFull: the per-horizon held-bid budget (Options.QueueSize) is
	// exhausted — bids are arriving faster than slots close. Wraps
	// ErrQueueFull.
	ErrHeldFull = fmt.Errorf("%w (held bids at capacity)", ErrQueueFull)
	// ErrPastSlot: the bid's arrival slot has already closed (HTTP 409).
	ErrPastSlot = errors.New("service: arrival slot already closed")
	// ErrHorizonOver: the broker's horizon is exhausted (HTTP 410).
	ErrHorizonOver = errors.New("service: horizon over")
	// ErrDuplicateID: a decided or held bid already carries this ID (HTTP 409).
	ErrDuplicateID = errors.New("service: duplicate task ID")
	// ErrDraining: the broker is shutting down gracefully (HTTP 503).
	ErrDraining = errors.New("service: broker draining")
	// ErrClosed: the broker has stopped (HTTP 503).
	ErrClosed = errors.New("service: broker closed")
	// ErrRealClock: Step called on a real-clock broker (HTTP 409).
	ErrRealClock = errors.New("service: broker runs on the real clock")
	// ErrStarted: a lifecycle call that requires a stopped broker.
	ErrStarted = errors.New("service: broker already started")
)

// DualCheckpointer is implemented by schedulers whose dual state must
// survive restarts; core.Scheduler is the canonical implementation.
// Schedulers without dual state (the greedy baselines) checkpoint the
// ledger and accounting only.
type DualCheckpointer interface {
	SnapshotDuals() core.DualState
	RestoreDuals(core.DualState) error
}

// Options configures a broker.
type Options struct {
	// Cluster is the provider's data center; the broker owns its ledger
	// for the lifetime of the run. Required.
	Cluster *cluster.Cluster
	// Scheduler answers each bid; *core.Scheduler for the paper's
	// auction. It must be bound to Cluster. Required.
	Scheduler sim.Scheduler
	// Model is the shared pre-trained model (drives s_ik and r_b).
	Model lora.ModelConfig
	// Market is the labor-vendor marketplace; nil only if no bid will
	// request pre-processing.
	Market *vendor.Marketplace
	// QueueSize bounds the bids the broker will hold awaiting their
	// slot's auction round; excess submissions fail fast with
	// ErrQueueFull. Default 1024.
	QueueSize int
	// VirtualClock, when set, advances the slot clock only through Step
	// — deterministic replay for tests and the load generator. Otherwise
	// a real ticker closes a slot every SlotDuration.
	VirtualClock bool
	// SlotDuration is the real-clock slot length; default 10s. (The
	// paper's slots are 10 minutes; a serving deployment picks its own
	// granularity.)
	SlotDuration time.Duration
	// CheckpointPath, when non-empty, persists the auction state to this
	// file (atomically, via rename) at every slot close; Restore resumes
	// from it after a crash.
	CheckpointPath string
	// CheckpointFullEvery controls the full-snapshot cadence: every n-th
	// checkpoint write is the full snapshot, the writes in between append
	// binary per-slot deltas to a ".delta" sidecar (see delta.go).
	// Default 1 — every write is a full snapshot, and no sidecar is kept —
	// so ReadCheckpoint alone keeps seeing the latest state unless a
	// deployment opts into deltas (then LoadCheckpoint replays them).
	// Drain and horizon end always force a full snapshot.
	CheckpointFullEvery int
	// DropLosingPlans, when set, discards the (never again consulted)
	// candidate Schedule attached to rejected decisions instead of
	// retaining it in the decision store: a rejected bid then costs its
	// 16-byte record, its one meta byte and its slot in the position table
	// (34 B at most, append slack included) rather than that plus a plan
	// (a 40 B side entry, its 4 B position, and the plan's encoding, ~14 B
	// + ~3.5 B a placement).
	// Admitted plans are always retained (failure recovery re-plans
	// from them). Checkpoints written with this set
	// restore with the same accounting, duals, and ledger; only the
	// rejected bids' hypothetical plans are absent.
	DropLosingPlans bool
	// Observer receives the broker's decision-path event stream
	// (RunStart/Bid/Outcome/RunEnd plus the scheduler's Vendor/Dual/
	// Payment events). The broker emits from its single core goroutine,
	// so the observer needs no internal locking on its account.
	Observer obs.Observer
	// RunLabel names this broker's run in emitted events and in the
	// checkpoint; default "pdftspd".
	RunLabel string
	// CheckpointFault, when set, is consulted before each checkpoint
	// write with the slot being persisted; a non-nil return fails the
	// write (fault injection for the degraded-mode path).
	CheckpointFault func(slot int) error
	// WALPath, when non-empty, journals every held bid to a CRC-framed
	// write-ahead log before its intake ack releases, closing the
	// ack-to-slot-close durability gap: an acked bid survives a crash and
	// replays idempotently through RecoverWAL (wal.go). The journal
	// rotates on every successful checkpoint persist, so it stays one
	// checkpoint interval deep; it requires CheckpointPath (New refuses a
	// journal alone).
	WALPath string
	// WALSyncEvery batches journal fsyncs: the default 1 fsyncs before
	// every ack (an acked bid survives machine power loss); n > 1 fsyncs
	// every n-th intake message, accepting an OS-buffer-deep loss window
	// in exchange for amortizing the sync.
	WALSyncEvery int
}

// degradeAfter is the number of consecutive checkpoint-write failures
// after which /healthz reports degraded (bids keep flowing either way).
const degradeAfter = 3

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.SlotDuration <= 0 {
		o.SlotDuration = 10 * time.Second
	}
	if o.CheckpointFullEvery <= 0 {
		o.CheckpointFullEvery = 1
	}
	if o.RunLabel == "" {
		o.RunLabel = "pdftspd"
	}
	return o
}

// Outcome is the terminal answer for one submitted bid: the decision, or
// the error that prevented one (cancellation, drain).
type Outcome struct {
	Decision schedule.Decision
	Err      error
}

// submission is one intake message: the bids of one Submit, SubmitAsync,
// SubmitBatch or SubmitBatchAck call, handed to the core goroutine in one
// channel send. The core goroutine writes intake verdicts (and, for the
// collecting forms, decisions) into the submission's slices; the ack and
// completion channels provide the happens-before edges that make those
// writes visible without locks.
type submission struct {
	tasks []task.Task
	ctx   context.Context
	// outcomes collects per-bid results for the collecting forms; nil in
	// ack-only mode, where verdicts receives the intake verdicts instead.
	outcomes []Outcome
	verdicts []error
	// ack fires once intake verdicts are recorded (a non-nil value is a
	// whole-submission refusal: drain/kill caught it in the channel);
	// buffered so the core loop never blocks on a departed submitter.
	ack chan error
	// held is how many bids intake held, fixed before the ack; remaining
	// counts a collecting submission's unanswered bids down on the core
	// goroutine, and the last answer signals done (always nil) — or, for
	// SubmitAsync, delivers the one outcome on resp. Both are buffered
	// for the same reason ack is.
	held      int
	remaining int
	done      chan error
	resp      chan Outcome
	// The one-bid forms point tasks/outcomes at these, so a single bid
	// costs no slice allocations.
	task1 [1]task.Task
	out1  [1]Outcome
}

// one returns sub as a collecting submission of the single bid t.
func (sub *submission) one(t task.Task) *submission {
	sub.task1[0], sub.out1[0] = t, Outcome{}
	sub.tasks, sub.outcomes = sub.task1[:], sub.out1[:]
	return sub
}

// verdict is where bid i's intake verdict is reported.
func (sub *submission) verdict(i int) *error {
	if sub.outcomes != nil {
		return &sub.outcomes[i].Err
	}
	return &sub.verdicts[i]
}

// complete signals that every bid of a collecting submission is answered.
func (sub *submission) complete() {
	if sub.resp != nil {
		sub.resp <- sub.outcomes[0]
		return
	}
	sub.done <- nil
}

// submissionPool recycles Submit's submissions (channels included): a
// completed synchronous call has consumed the ack and the completion, so
// a recycled submission is always empty. The other forms hand slices or a
// channel to their caller and allocate fresh.
var submissionPool = sync.Pool{New: func() any {
	return &submission{ack: make(chan error, 1), done: make(chan error, 1)}
}}

// maxBidID bounds the IDs a submitter may choose (2^53-1 on 64-bit
// platforms, every integer a JSON client's float64 holds exactly). The
// broker assigns omitted IDs upward from the largest ID seen, so whatever
// a submitter picks, the range above the bound is left to assign from: no
// chosen ID can exhaust it or wrap nextID.
const maxBidID = math.MaxInt >> 10

// heldBid is one bid awaiting its arrival slot's auction round. sub is the
// collecting submission waiting for its outcome at outcomes[idx]; nil when
// nobody is (an ack-only submission, a bid replayed from the journal).
type heldBid struct {
	task task.Task
	ctx  context.Context
	sub  *submission
	idx  int
}

// Broker is the long-lived auction service. All auction state — duals,
// ledger, accounting, decided bids — is owned by the single core
// goroutine started by Start; the exported methods communicate with it
// through channels and are safe for concurrent use.
type Broker struct {
	opts    Options
	cl      *cluster.Cluster
	sched   sim.Scheduler
	horizon timeslot.Horizon
	// model is the catalog code of Options.Model: the one model a bid may
	// name here (a bid that names none fine-tunes it too).
	model lora.Model
	// eng is the round engine (sim.Engine): it owns the run accounting and
	// the observer stream, and is the only code that offers a bid to the
	// scheduler. Its capacity is the cluster's, fixed for the run: a
	// serving broker knows no outage or spot reclaim in advance, so it
	// has neither.
	eng *sim.Engine

	intake chan *submission
	ctl    chan func()
	done   chan struct{}

	started bool

	// chanFull429 counts submissions shed because the intake channel
	// itself was full; bumped by submitters (any goroutine), hence atomic.
	chanFull429 atomic.Int64

	// Everything below is owned by the core goroutine (and, before
	// Start, by the caller — Restore runs pre-Start).
	slot      int
	nextID    int
	held      map[int][]heldBid // arrival slot → bids awaiting that round
	heldIDs   map[int]struct{}
	heldCount int
	// heldFree recycles per-slot held batches (their backing arrays) so
	// steady-state intake stops allocating as batches churn.
	heldFree  [][]heldBid
	decisions *decision.Store
	canceled  int
	ckptSlot  int // slot recorded by the last checkpoint write, -1 if none
	draining  bool
	killed    bool
	ckptErr   error
	// Intake observability (core-owned; surfaced via Status/expvar).
	intakeHW    int   // deepest intake-channel backlog observed
	heldHW      int   // most bids ever held at once
	heldFull429 int64 // submissions refused because held bids hit QueueSize
	// Checkpoint delta machinery: deltas holds what the next delta diffs
	// against, sinceFull counts delta writes since the last full
	// snapshot, and wroteFull records that this process has one on disk
	// with an unbroken chain. The chain holds decisions[:saved].
	deltas    deltaWriter
	sinceFull int
	wroteFull bool
	saved     int
	// live is the round in flight — the slot's uncanceled bids in offer
	// order — and liveBase the engine's offer index of live[0], so the
	// engine's sink can find the submitter to answer; bids is the same
	// round as the engine takes it.
	live     []heldBid
	liveBase int
	bids     []*task.Task
	// ckptFails counts consecutive checkpoint-write failures; reaching
	// degradeAfter flips /healthz to degraded.
	ckptFails int
	// ckptW performs the checkpoint writes.
	ckptW *ckptWriter
	// fsys carries every checkpoint and journal write (durable.go): the
	// os, unless an in-package test swaps it before Resume or Start.
	fsys fileSys
	// wal is the open bid journal (Options.WALPath); the replay counters
	// record what RecoverWAL did (bids re-held / skipped as already
	// decided / dropped as stale), walFails counts append and rotation
	// failures, walErr the most recent one.
	wal         *walWriter
	walReplayed int
	walDeduped  int
	walStale    int
	walFails    int
	walErr      error
}

// New builds a broker; call Restore to resume from a checkpoint, then
// Start to begin serving.
func New(opts Options) (*Broker, error) {
	if opts.Cluster == nil || opts.Scheduler == nil {
		return nil, fmt.Errorf("service: nil cluster or scheduler")
	}
	if opts.WALPath != "" && opts.CheckpointPath == "" {
		return nil, fmt.Errorf("service: a journal (WALPath) needs a CheckpointPath: only a persisted checkpoint lets it forget a bid")
	}
	model, err := opts.Model.Code()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	opts = opts.withDefaults()
	b := &Broker{
		opts:      opts,
		cl:        opts.Cluster,
		sched:     opts.Scheduler,
		horizon:   opts.Cluster.Horizon(),
		model:     model,
		intake:    make(chan *submission, opts.QueueSize),
		ctl:       make(chan func()),
		done:      make(chan struct{}),
		held:      map[int][]heldBid{},
		heldIDs:   map[int]struct{}{},
		decisions: new(decision.Store),
		ckptSlot:  -1,
		fsys:      osFS{},
	}
	eng, err := sim.NewEngine(opts.Cluster, opts.Scheduler, sim.EngineConfig{
		Model: opts.Model, Market: opts.Market,
		Observer: opts.Observer, RunLabel: opts.RunLabel,
	}, b.decided)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	b.eng = eng
	return b, nil
}

// Start launches the core goroutine (and the real-clock ticker unless
// VirtualClock is set). It emits the run's RunStart event.
func (b *Broker) Start() error {
	if b.started {
		return ErrStarted
	}
	if b.opts.WALPath != "" && b.wal == nil {
		// RecoverWAL already opened (and seeded) the journal on a restored
		// broker; a fresh run opens an empty one over any stale journal.
		if err := b.openJournal(); err != nil {
			return err
		}
	}
	b.started = true
	b.eng.Start()
	b.ckptW = &ckptWriter{fsys: b.fsys, path: b.opts.CheckpointPath}
	go b.loop()
	return nil
}

// Done is closed when the core goroutine has stopped (drain, kill, or
// horizon end does not stop it; only Drain/Kill do). After Done, the
// scheduler and cluster are safe to inspect from any goroutine.
func (b *Broker) Done() <-chan struct{} { return b.done }

// SubmitAsync hands one bid to the broker and returns a channel that will
// deliver the decision when the bid's arrival slot closes. The error
// return reports intake verdicts synchronously: a full queue, a closed
// arrival slot, a duplicate ID, or an invalid task. A task with negative
// Arrival is stamped with the current slot ("bid now"); a negative ID is
// assigned the next free one (readable from the returned outcome).
func (b *Broker) SubmitAsync(ctx context.Context, t task.Task) (<-chan Outcome, error) {
	sub := (&submission{ack: make(chan error, 1), resp: make(chan Outcome, 1)}).one(t)
	if err := b.submit(ctx, sub); err != nil {
		return nil, err
	}
	if sub.held == 0 {
		// Refused at intake: the verdict is final, nothing will answer it.
		return nil, sub.out1[0].Err
	}
	return sub.resp, nil
}

// Submit is the one-bid submission plus the wait: it blocks until the
// bid's slot closes and returns the irrevocable decision. ctx bounds the
// whole round trip — a canceled bid is skipped if its round has not run
// yet (decisions already made are irrevocable and remain queryable via
// DecisionFor). Its submission comes from a pool with the one-element
// task and outcome arrays embedded, so steady-state Submit traffic
// allocates nothing on the intake path.
func (b *Broker) Submit(ctx context.Context, t task.Task) (schedule.Decision, error) {
	sub := submissionPool.Get().(*submission).one(t)
	err := b.submit(ctx, sub)
	if err == nil {
		err = b.wait(sub, sub.done)
	}
	if err != nil {
		// The core loop may still own sub (it answers at round time or
		// shutdown); the object retires instead of recycling.
		return schedule.Decision{}, err
	}
	out := sub.out1[0]
	sub.one(task.Task{}).ctx = nil // a pooled submission pins nothing
	submissionPool.Put(sub)
	return out.Decision, out.Err
}

// SubmitBatch hands a whole slice of bids to the broker in one intake
// message — the coalesced fast path the load generator and the batch
// HTTP endpoint use — and blocks until every accepted bid's slot has
// closed. It returns one Outcome per input task, positionally: an
// intake refusal (full queue, duplicate ID, past slot, validation)
// rides in that bid's Outcome.Err without failing the rest of the
// batch. A whole-batch error is returned only when the broker shuts
// down or ctx expires before the results are complete; the outcome
// slice is invalid in that case.
//
// Compared with n Submit calls, a batch costs one channel send and one
// ack wait regardless of n.
func (b *Broker) SubmitBatch(ctx context.Context, tasks []task.Task) ([]Outcome, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	sub := &submission{
		tasks:    tasks,
		outcomes: make([]Outcome, len(tasks)),
		ack:      make(chan error, 1),
		done:     make(chan error, 1),
	}
	err := b.submit(ctx, sub)
	if err == nil {
		err = b.wait(sub, sub.done)
	}
	if err != nil {
		return nil, err
	}
	return sub.outcomes, nil
}

// SubmitBatchAck is the fire-and-forget half of SubmitBatch: it returns
// as soon as the intake verdicts are in, without waiting for the slot
// to close. verdicts must have len(tasks) entries; the broker writes
// every position (nil = held for auction). The returned count is how
// many bids were held. Decisions are later readable via DecisionFor or
// an Observer. The caller must not touch tasks or verdicts again until
// the call returns.
func (b *Broker) SubmitBatchAck(ctx context.Context, tasks []task.Task, verdicts []error) (int, error) {
	if len(tasks) == 0 {
		return 0, nil
	}
	if len(verdicts) != len(tasks) {
		return 0, fmt.Errorf("service: verdicts len %d, want %d", len(verdicts), len(tasks))
	}
	sub := &submission{tasks: tasks, verdicts: verdicts, ack: make(chan error, 1)}
	if err := b.submit(ctx, sub); err != nil {
		return 0, err
	}
	return sub.held, nil
}

// submit hands sub to the core goroutine under ctx and waits for its
// intake ack.
func (b *Broker) submit(ctx context.Context, sub *submission) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sub.ctx = ctx
	select {
	case b.intake <- sub:
	case <-b.done:
		return b.closeErr()
	default:
		b.chanFull429.Add(1)
		return ErrChannelFull
	}
	return b.wait(sub, sub.ack)
}

// wait receives a sent submission's ack or completion from ch, unless its
// ctx ends or the broker stops first.
func (b *Broker) wait(sub *submission, ch <-chan error) error {
	select {
	case err := <-ch:
		return err
	case <-sub.ctx.Done():
		// The core loop may still hold the bids; its context check at
		// round time skips them.
		return sub.ctx.Err()
	case <-b.done:
		// While stopping, the loop acks every message it dequeues and
		// answers every held bid before closing done: the value is
		// buffered by now, or was never coming.
		select {
		case err := <-ch:
			return err
		default:
			return b.closeErr()
		}
	}
}

// closeErr distinguishes a drained broker from a killed one.
func (b *Broker) closeErr() error {
	if b.draining {
		return ErrDraining
	}
	return ErrClosed
}

// do runs f on the core goroutine and waits for it.
func (b *Broker) do(f func()) error {
	ran := make(chan struct{})
	select {
	case b.ctl <- func() { f(); close(ran) }:
	case <-b.done:
		return b.closeErr()
	}
	select {
	case <-ran:
		return nil
	case <-b.done:
		// The loop executes the control function it accepted even while
		// stopping, so reaching here means it ran.
		return nil
	}
}

// Step closes n slots of a virtual-clock broker — each close runs the
// slot's auction round — and returns the new current slot. Stepping past
// the horizon end is clamped.
func (b *Broker) Step(n int) (int, error) {
	if !b.opts.VirtualClock {
		return 0, ErrRealClock
	}
	if n < 0 {
		return 0, fmt.Errorf("service: negative step %d", n)
	}
	var slot int
	err := b.do(func() {
		for i := 0; i < n && b.slot < b.horizon.T; i++ {
			b.closeSlot()
		}
		slot = b.slot
	})
	return slot, err
}

// Slot returns the current slot (the one accepting bids).
func (b *Broker) Slot() (int, error) {
	var s int
	err := b.do(func() { s = b.slot })
	return s, err
}

// DecisionFor returns the decided outcome for a task ID, its Schedule a
// fresh copy the caller owns. Decided bids stay queryable after the broker
// stops: its core goroutine is gone, so direct reads are race-free.
func (b *Broker) DecisionFor(id int) (schedule.Decision, bool, error) {
	var (
		d  schedule.Decision
		ok bool
	)
	if err := b.do(func() { d, ok = b.decisions.Get(id) }); err != nil {
		d, ok = b.decisions.Get(id)
	}
	return d, ok, nil
}

// PendingFor reports whether a task ID is held awaiting its slot's
// auction round — acked but undecided. With it, GET /v1/decisions/{id}
// can distinguish "acked, pending slot close" from "never seen".
func (b *Broker) PendingFor(id int) (bool, error) {
	var ok bool
	if err := b.do(func() { _, ok = b.heldIDs[id] }); err != nil {
		// A stopped broker holds nothing (shutdown refused every held
		// bid), and its maps are race-free to read.
		_, ok = b.heldIDs[id]
	}
	return ok, nil
}

// Duals snapshots the scheduler's current dual prices, running on the
// core goroutine so it is safe on a started broker (SnapshotDuals alone
// is not — the core goroutine owns the scheduler). The second return is
// false when the scheduler publishes no dual state (greedy baselines).
// The sharded router calls this after each slot close to republish the
// shard's price quote.
func (b *Broker) Duals() (core.DualState, bool) {
	dc, ok := b.sched.(DualCheckpointer)
	if !ok {
		return core.DualState{}, false
	}
	var ds core.DualState
	if err := b.do(func() { ds = dc.SnapshotDuals() }); err != nil {
		// Stopped broker: the core goroutine is gone, direct reads are
		// race-free.
		return dc.SnapshotDuals(), true
	}
	return ds, true
}

// Status is a point-in-time operational summary.
type Status struct {
	Run         string `json:"run"`
	Scheduler   string `json:"scheduler"`
	Slot        int    `json:"slot"`
	Slots       int    `json:"horizon_slots"`
	VirtualTime bool   `json:"virtual_clock"`
	HorizonOver bool   `json:"horizon_over"`
	Held        int    `json:"held_bids"`
	QueueCap    int    `json:"queue_cap"`
	// Intake-path observability: the channel between submitters and the
	// core goroutine (depth now / deepest ever) and the held-bid high
	// water mark, plus separate shed tallies for the two 429 causes —
	// a full intake channel (core goroutine behind) vs. the held-bid
	// budget (slots not closing fast enough).
	IntakeDepth     int     `json:"intake_depth"`
	IntakeCap       int     `json:"intake_cap"`
	IntakeHighWater int     `json:"intake_high_water"`
	HeldHighWater   int     `json:"held_high_water"`
	ShedChannelFull int64   `json:"shed_channel_full"`
	ShedHeldFull    int64   `json:"shed_held_full"`
	Decided         int     `json:"decided"`
	DecisionBytes   int     `json:"decision_bytes"` // what the decided set retains
	Admitted        int     `json:"admitted"`
	Rejected        int     `json:"rejected"`
	Canceled        int     `json:"canceled"`
	Welfare         float64 `json:"welfare"`
	Revenue         float64 `json:"revenue"`
	Utilization     float64 `json:"utilization"`
	// MaxLambda/MaxPhi are the current largest dual prices across all
	// (k,t) cells — the auction's congestion signal. Zero when the
	// scheduler exposes no dual state.
	MaxLambda float64 `json:"max_lambda"`
	MaxPhi    float64 `json:"max_phi"`
	// CheckpointSlot is the slot recorded by the last checkpoint write
	// (-1 before the first); CheckpointError carries a persist failure.
	CheckpointSlot  int    `json:"checkpoint_slot"`
	CheckpointError string `json:"checkpoint_error,omitempty"`
	// CheckpointFailures counts consecutive failed checkpoint writes
	// (reset by a success); SlotsSinceCheckpoint is how many slots have
	// closed since the last persisted one. Both are zero when no
	// checkpoint path is configured.
	CheckpointFailures   int `json:"checkpoint_failures,omitempty"`
	SlotsSinceCheckpoint int `json:"slots_since_checkpoint,omitempty"`
	// Degraded mirrors /healthz: the broker keeps deciding bids but its
	// durability guarantee is broken (checkpoint writes keep failing).
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Write-ahead journal gauges (zero unless Options.WALPath is set):
	// records appended over the run, records live in the journal file
	// (its depth — one checkpoint interval of acked bids), bytes
	// written, fsync count with cumulative and worst-case latency, bids
	// re-held by RecoverWAL (and skipped as already-decided duplicates /
	// dropped as stale), and append/rotate failures with the most recent
	// error.
	WALRecords    int64  `json:"wal_records,omitempty"`
	WALDepth      int64  `json:"wal_depth,omitempty"`
	WALBytes      int64  `json:"wal_bytes,omitempty"`
	WALFsyncs     int64  `json:"wal_fsyncs,omitempty"`
	WALFsyncNanos int64  `json:"wal_fsync_ns,omitempty"`
	WALFsyncMaxNS int64  `json:"wal_fsync_max_ns,omitempty"`
	WALReplayed   int    `json:"wal_replayed,omitempty"`
	WALDeduped    int    `json:"wal_deduped,omitempty"`
	WALStale      int    `json:"wal_stale,omitempty"`
	WALFailures   int    `json:"wal_failures,omitempty"`
	WALError      string `json:"wal_error,omitempty"`
}

// Status reports the broker's current state.
func (b *Broker) Status() (Status, error) {
	var st Status
	err := b.do(func() { st = b.status() })
	if err != nil {
		// A stopped broker still has consistent state: the core loop is
		// gone, so reading directly is race-free.
		return b.status(), nil
	}
	return st, err
}

// ExposeExpvar publishes the broker's Status under the given expvar
// name (default "pdftspd"), so /debug/vars surfaces the intake-path
// gauges next to the observer metrics. Publishing the same name twice
// panics in expvar, so re-exposing is a no-op — the var reflects the
// broker it was first bound to.
func (b *Broker) ExposeExpvar(name string) {
	if name == "" {
		name = "pdftspd"
	}
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any {
		st, _ := b.Status()
		return st
	}))
}

// status builds the summary; core-goroutine (or post-Done) only.
func (b *Broker) status() Status {
	res := b.eng.Result()
	st := Status{
		Run:             b.opts.RunLabel,
		Scheduler:       b.sched.Name(),
		Slot:            b.slot,
		Slots:           b.horizon.T,
		VirtualTime:     b.opts.VirtualClock,
		HorizonOver:     b.slot >= b.horizon.T,
		Held:            b.heldCount,
		QueueCap:        b.opts.QueueSize,
		IntakeDepth:     len(b.intake),
		IntakeCap:       cap(b.intake),
		IntakeHighWater: b.intakeHW,
		HeldHighWater:   b.heldHW,
		ShedChannelFull: b.chanFull429.Load(),
		ShedHeldFull:    b.heldFull429,
		Decided:         b.decisions.Len(),
		DecisionBytes:   b.decisions.Size(),
		Admitted:        res.Admitted,
		Rejected:        res.Rejected,
		Canceled:        b.canceled,
		Welfare:         res.Welfare,
		Revenue:         res.Revenue,
		Utilization:     b.cl.Utilization(),
		CheckpointSlot:  b.ckptSlot,
	}
	if b.ckptErr != nil {
		st.CheckpointError = b.ckptErr.Error()
	}
	st.CheckpointFailures = b.ckptFails
	if b.opts.CheckpointPath != "" {
		if b.ckptSlot >= 0 {
			st.SlotsSinceCheckpoint = b.slot - b.ckptSlot
		} else {
			st.SlotsSinceCheckpoint = b.slot
		}
	}
	if h := b.health(); h.Status != "ok" {
		st.Degraded = true
		st.DegradedReason = h.Reason
	}
	if b.wal != nil {
		st.WALRecords = b.wal.records
		st.WALDepth = b.wal.depth
		st.WALBytes = b.wal.bytes
		st.WALFsyncs = b.wal.fsyncs
		st.WALFsyncNanos = b.wal.fsyncNS
		st.WALFsyncMaxNS = b.wal.fsyncMaxNS
	}
	st.WALReplayed = b.walReplayed
	st.WALDeduped = b.walDeduped
	st.WALStale = b.walStale
	st.WALFailures = b.walFails
	if b.walErr != nil {
		st.WALError = b.walErr.Error()
	}
	if dc, ok := b.sched.(DualCheckpointer); ok {
		ds := dc.SnapshotDuals()
		for k := range ds.Lambda {
			for t := range ds.Lambda[k] {
				if ds.Lambda[k][t] > st.MaxLambda {
					st.MaxLambda = ds.Lambda[k][t]
				}
				if ds.Phi[k][t] > st.MaxPhi {
					st.MaxPhi = ds.Phi[k][t]
				}
			}
		}
	}
	return st
}

// Health is the degradation verdict behind GET /healthz. Status is "ok"
// or "degraded"; Reason explains a degradation.
type Health struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Health reports whether the broker is serving at full guarantees. A
// degraded broker still decides bids — the auction does not need the
// disk — but its checkpoint durability is gone, so operators should
// route new horizons elsewhere and fix the disk. A stopped broker also
// reports degraded (with the stop reason).
func (b *Broker) Health() Health {
	var h Health
	if err := b.do(func() { h = b.health() }); err != nil {
		return Health{Status: "degraded", Reason: err.Error()}
	}
	return h
}

// health builds the verdict; core-goroutine only.
func (b *Broker) health() Health {
	if b.opts.CheckpointPath != "" && b.ckptFails >= degradeAfter {
		return Health{
			Status: "degraded",
			Reason: fmt.Sprintf("checkpoint writes failing for %d consecutive slots (last: %v)", b.ckptFails, b.ckptErr),
		}
	}
	return Health{Status: "ok"}
}

// Drain stops the broker gracefully: intake closes, bids already held
// are refused with ErrDraining (their slots have not closed, so clients
// resubmit after restart), the checkpoint is written one last time, and
// the run's RunEnd event is emitted. ctx bounds the wait.
func (b *Broker) Drain(ctx context.Context) error {
	if err := b.do(func() { b.draining = true }); err != nil {
		return nil // already stopped
	}
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Kill crash-stops the broker: no final checkpoint, no RunEnd — exactly
// what a SIGKILL mid-horizon leaves behind. Held bids are refused with
// ErrClosed. The checkpoint-restore tests use it to prove a restore from
// the last persisted slot resumes bit-exactly.
func (b *Broker) Kill() {
	_ = b.do(func() { b.killed = true })
	<-b.done
}

// loop is the core goroutine: the only owner of the auction state.
func (b *Broker) loop() {
	defer close(b.done)
	defer b.eng.Detach() // a kill never reaches Finish
	var tick <-chan time.Time
	if !b.opts.VirtualClock {
		ticker := time.NewTicker(b.opts.SlotDuration)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case sub := <-b.intake:
			b.intakeRecv(sub)
		case f := <-b.ctl:
			f()
		case <-tick:
			if b.slot < b.horizon.T {
				b.closeSlot()
			}
		}
		if b.killed {
			b.refuseHeld(ErrClosed)
			b.ckptW.closeSidecar()
			b.wal.close()
			return
		}
		if b.draining {
			// The held bids just refused stay journaled: the drain
			// checkpoint covers only closed slots, so rotation retains
			// their records and a restart re-offers them (fire-and-forget
			// submitters never see the ErrDraining answer).
			b.refuseHeld(ErrDraining)
			b.writeCheckpoint()
			b.ckptW.closeSidecar()
			b.wal.close()
			b.eng.Finish(false)
			return
		}
	}
}

// answer delivers hb's outcome to the submission collecting it, if any.
func (b *Broker) answer(hb *heldBid, out Outcome) {
	sub := hb.sub
	if sub == nil {
		return
	}
	sub.outcomes[hb.idx] = out
	sub.remaining--
	if sub.remaining == 0 {
		sub.complete()
	}
}

// refuseHeld answers every held bid with err.
func (b *Broker) refuseHeld(err error) {
	for _, batch := range b.held {
		for i := range batch {
			b.answer(&batch[i], Outcome{Err: err})
		}
	}
	b.held = map[int][]heldBid{}
	b.heldIDs = map[int]struct{}{}
	b.heldCount = 0
	// Messages still in the intake channel never got an ack; answer it.
	for {
		select {
		case sub := <-b.intake:
			sub.ack <- err
		default:
			return
		}
	}
}

// intakeRecv runs the intake checks over one submission bid by bid,
// recording per-bid verdicts. Exactly one ack answers the submitter —
// and with a journal configured, only after the held bids are on disk
// (walCommit): the ack is the durability promise.
func (b *Broker) intakeRecv(sub *submission) {
	if d := len(b.intake) + 1; d > b.intakeHW {
		b.intakeHW = d
	}
	// The ack-only form commits its bids at the ack: the submitter stops
	// listening the moment SubmitBatchAck returns (an HTTP handler's
	// request context dies with the response), so a held bid must not
	// carry a ctx that cancels it before its slot closes — and nothing
	// collects its outcome.
	hctx, collector := sub.ctx, sub
	if sub.outcomes == nil {
		hctx, collector = context.Background(), nil
	}
	held := 0
	for i := range sub.tasks {
		t := &sub.tasks[i]
		var err error
		if t.ID > maxBidID && t.ID >= b.nextID {
			// Above the bound and not one the broker assigned (a client
			// re-sending its bid after a restart presents one again, and
			// hold refuses it as a duplicate). Checked here rather than in
			// hold, because a journal replay re-holds assigned IDs too.
			err = fmt.Errorf("service: task %d: ID too large", t.ID)
		} else if err = b.hold(t, hctx, collector, i); err == nil {
			held++
		}
		*sub.verdict(i) = err
	}
	// One journal write and fsync covers the whole submission; on failure
	// the just-held bids were un-held, so their verdicts flip to the
	// journal error before the ack releases.
	if werr := b.walCommit(); werr != nil {
		for i := range sub.tasks {
			if v := sub.verdict(i); *v == nil {
				*v = werr
			}
		}
		held = 0
	}
	// Both counts reach the submitter through the ack's happens-before
	// edge; after it only answer touches remaining.
	sub.held, sub.remaining = held, held
	if collector != nil && held == 0 {
		sub.complete()
	}
	sub.ack <- nil
}

// hold performs the intake checks and holds the bid for its round. The
// task is stamped in place (assigned ID / current-slot arrival), so
// batch submitters can read the assignments back out of their slice.
func (b *Broker) hold(t *task.Task, ctx context.Context, sub *submission, idx int) error {
	if b.slot >= b.horizon.T {
		return ErrHorizonOver
	}
	if t.Arrival < 0 {
		t.Arrival = int32(b.slot) // inside the horizon, which cluster.New holds to int32
	}
	if t.ID < 0 {
		t.ID = b.nextID
	}
	if int(t.Arrival) < b.slot {
		return fmt.Errorf("%w: arrival %d, current slot %d", ErrPastSlot, t.Arrival, b.slot)
	}
	if err := t.Validate(b.horizon); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if t.ModelName != 0 && t.ModelName != b.model {
		// Priced with this broker's throughput, the bid would be decided
		// for a model it never fine-tunes.
		return fmt.Errorf("%w: %v (this broker serves %v)", ErrUnroutable, t.ModelName, b.model)
	}
	if b.decisions.Has(t.ID) {
		return fmt.Errorf("%w: %d already decided", ErrDuplicateID, t.ID)
	}
	if _, dup := b.heldIDs[t.ID]; dup {
		return fmt.Errorf("%w: %d already held", ErrDuplicateID, t.ID)
	}
	if b.heldCount >= b.opts.QueueSize {
		b.heldFull429++
		return ErrHeldFull
	}
	if b.wal != nil && b.wal.broken {
		// The journal's tail is unaccounted for; refusing keeps "acked ⇒
		// journaled" true until a rotation rewrites the file.
		return ErrWAL
	}
	if t.ID >= b.nextID {
		b.nextID = t.ID + 1
	}
	arrival := int(t.Arrival)
	slot := b.held[arrival]
	if slot == nil && len(b.heldFree) > 0 {
		slot = b.heldFree[len(b.heldFree)-1]
		b.heldFree = b.heldFree[:len(b.heldFree)-1]
	}
	b.held[arrival] = append(slot, heldBid{task: *t, ctx: ctx, sub: sub, idx: idx})
	b.heldIDs[t.ID] = struct{}{}
	b.heldCount++
	if b.heldCount > b.heldHW {
		b.heldHW = b.heldCount
	}
	if b.wal != nil {
		b.wal.stage(t)
	}
	return nil
}

// closeSlot runs the current slot's auction round — all bids with this
// arrival, in ID order, exactly the order a pre-sorted batch replay
// visits them — then advances the clock and checkpoints.
func (b *Broker) closeSlot() {
	batch := b.held[b.slot]
	delete(b.held, b.slot)
	sort.Slice(batch, func(i, j int) bool { return batch[i].task.ID < batch[j].task.ID })
	live := batch[:0]
	for i := range batch {
		hb := batch[i]
		delete(b.heldIDs, hb.task.ID)
		b.heldCount--
		if err := hb.ctx.Err(); err != nil {
			// The submitter is gone; the bid never enters the auction.
			b.canceled++
			b.answer(&hb, Outcome{Err: err})
			continue
		}
		live = append(live, hb)
	}
	// The engine runs the round: capacity changes first (only when there is
	// a bid to offer, so an empty or fully canceled slot leaves them
	// pending, as a sequential replay of the same bids would), then every
	// live bid through Algorithm 1, each handed back to b.decided. The
	// broker's own context never cancels a round.
	b.live, b.liveBase = live, b.eng.Offered()
	b.bids = b.bids[:0]
	for i := range live {
		b.bids = append(b.bids, &live[i].task)
	}
	_ = b.eng.Round(context.Background(), b.slot, b.bids)
	// The round is over; nothing may keep its bids reachable.
	b.live = nil
	clear(b.bids)
	if batch != nil {
		// The slot's backing array is dead; recycle it for a future slot,
		// zeroed so it does not pin the bids' contexts and submissions.
		clear(batch)
		b.heldFree = append(b.heldFree, batch[:0])
	}
	b.slot++
	if b.slot >= b.horizon.T {
		b.eng.Finish(true)
	}
	b.writeCheckpoint()
}

// decided is the engine's sink: it stores the irrevocable decision and
// answers the submitter.
func (b *Broker) decided(idx int, _ *schedule.TaskEnv, d *schedule.Decision, _ time.Duration) {
	hb := &b.live[idx-b.liveBase]
	dec := *d
	if b.opts.DropLosingPlans && !dec.Admitted {
		dec.Schedule = nil
	}
	if err := b.decisions.Put(hb.task.ID, &dec); err != nil {
		// Only unbounded reject reasons or 2 GiB of plans get here.
		panic(err)
	}
	b.answer(hb, Outcome{Decision: dec})
}

// Brokers returns the fleet members behind this Auctioneer — for a
// monolithic broker, itself. Callers that need per-shard detail (the
// fleet explorer, verify twins) iterate this instead of special-casing
// the fleet shape.
func (b *Broker) Brokers() []*Broker { return []*Broker{b} }

// Result returns the run accounting. Safe only after Done (the tests
// call it post-drain); a live broker reports through Status instead.
func (b *Broker) Result() *sim.Result {
	select {
	case <-b.done:
	default:
		if b.started {
			panic("service: Result on a running broker (use Status)")
		}
	}
	return b.eng.Result()
}

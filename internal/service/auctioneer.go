package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// Auctioneer is the serving API — the one surface a monolithic Broker
// and a sharded fleet (Shards) both implement. Everything above the
// service layer (cmd/pdftspd, the load generator and its verify twins,
// the FuzzFleet explorer) programs against
// this interface and never branches on the fleet shape: a fleet of one
// and a fleet of many are opened (Open), resumed (Resume), checked
// against their twins (DiffTwins), and submit, step, drain, checkpoint,
// and report identically.
//
// The contract follows Broker's semantics exactly; Shards adds routing
// (a bid lands on the shard with the best dual-price surplus) but keeps
// every per-shard guarantee, including bit-identity of each shard with
// a sequential sim.Run of the subsequence routed to it.
type Auctioneer interface {
	// Resume, before Start, loads whatever the fleet's configured
	// checkpoint and journal paths hold (see resume) and reports what it
	// found; nothing on disk is a fresh fleet, not an error.
	Resume() (Resumed, error)
	// Start launches the core goroutine(s); Drain stops gracefully with a
	// final checkpoint, Kill crash-stops (the restore tests' SIGKILL).
	Start() error
	Drain(ctx context.Context) error
	Kill()

	// SubmitBatch coalesces many bids into one intake message and blocks
	// for their slots' decisions; SubmitBatchAck is its fire-and-forget
	// half (intake verdicts only).
	SubmitBatch(ctx context.Context, tasks []task.Task) ([]Outcome, error)
	SubmitBatchAck(ctx context.Context, tasks []task.Task, verdicts []error) (int, error)

	// Step closes n slots of a virtual-clock fleet and returns the
	// current (bid-accepting) slot.
	Step(n int) (int, error)

	// DecisionFor returns a decided bid's irrevocable outcome, its plan a
	// fresh copy the caller owns (compare with Equal, not ==); PendingFor
	// reports a bid acked but awaiting its slot's round — "pending, not lost".
	DecisionFor(id int) (schedule.Decision, bool, error)
	PendingFor(id int) (bool, error)

	// Status is the fleet-level operational summary (a sharded fleet
	// aggregates its shards); Health is the /healthz verdict.
	Status() (Status, error)
	Health() Health

	// Brokers exposes the fleet members — length 1 for a monolithic
	// broker — for callers that need per-shard state (the fleet
	// explorer's kills, per-shard sim.Run verify twins, post-drain
	// Result inspection).
	Brokers() []*Broker

	// Handler serves the /v1 HTTP API (http.go); both implementations
	// share one handler over this interface.
	Handler() http.Handler

	// retryAfter is the Retry-After hint for 429 responses and
	// statusPayload the /v1/status body (a Broker serves Status, a fleet
	// the richer ShardsStatus) — unexported so the shared HTTP handler
	// stays an implementation detail of this package.
	retryAfter() string
	statusPayload() (any, error)
}

var (
	_ Auctioneer = (*Broker)(nil)
	_ Auctioneer = (*Shards)(nil)
)

// Open builds the fleet described by one Options per broker; it is the
// only place a fleet's shape is decided. One broker is a monolithic
// *Broker with its Options as given and no router on its path. Several
// are a *Shards fleet: every broker is handed the run's common
// CheckpointPath, WALPath and RunLabel, and broker i serves under
//
//	checkpoint  <CheckpointPath>.shard<i>, the manifest at CheckpointPath
//	journal     WALPath(<CheckpointPath>.shard<i>), when WALPath is set
//	run label   <RunLabel>/<i>
//	shard key   <model>/<i>
//
// so a checkpoint directory holds the same file names, and its files the
// same labels, whichever binary wrote it.
func Open(brokers ...Options) (Auctioneer, error) {
	if len(brokers) == 1 {
		b, err := New(brokers[0])
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	opts := make([]Options, len(brokers))
	manifest := ""
	for i, o := range brokers {
		o.RunLabel = fmt.Sprintf("%s/%d", o.withDefaults().RunLabel, i)
		if o.CheckpointPath != "" {
			if i == 0 {
				manifest = o.CheckpointPath
			}
			o.CheckpointPath = fmt.Sprintf("%s.shard%d", o.CheckpointPath, i)
			if o.WALPath != "" {
				o.WALPath = WALPath(o.CheckpointPath)
			}
		}
		opts[i] = o
	}
	s, err := newShards(manifest, opts)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Resumed reports what Resume loaded.
type Resumed struct {
	// Slot is the slot the fleet resumes at; 0 for a fresh fleet.
	Slot int
	// Decided counts the decided bids restored from the checkpoint
	// chain(s), Replayed the acked bids the journal(s) re-held.
	Decided, Replayed int
	// FromCheckpoint is false when no checkpoint was on disk: the fleet
	// is fresh but for what its journals, if any, re-held.
	FromCheckpoint bool
}

// Resume loads the broker's checkpoint chain and journal; see resume.
func (b *Broker) Resume() (Resumed, error) { return resume([]*Broker{b}) }

// resume loads, before Start, what the brokers' own configured paths hold.
// Every checkpoint chain present (full snapshot + delta sidecar) at one
// common slot is restored; every one absent — a run that died before its
// first persist, whatever else it left behind — is a fresh fleet. Some
// absent, or chains at different slots, is a torn fleet and refused:
// restoring the survivors would re-offer journal records their checkpoints
// already rotated away. Then each broker replays its journal (RecoverWAL,
// a no-op without one), so bids acked but undecided at the crash are held
// again.
func resume(brokers []*Broker) (Resumed, error) {
	var rep Resumed
	cks := make([]*Checkpoint, len(brokers))
	missing := 0
	for i, b := range brokers {
		if b.opts.CheckpointPath == "" {
			missing++
			continue
		}
		ck, err := LoadCheckpoint(b.opts.CheckpointPath)
		if errors.Is(err, fs.ErrNotExist) {
			missing++
			continue
		}
		if err != nil {
			return rep, fmt.Errorf("service: broker %s: %w", b.opts.RunLabel, err)
		}
		cks[i] = ck
	}
	if missing > 0 && missing < len(brokers) {
		return rep, fmt.Errorf("service: torn fleet: %d of %d checkpoints missing", missing, len(brokers))
	}
	if missing == 0 {
		for i, ck := range cks {
			if ck.Slot != cks[0].Slot {
				return rep, fmt.Errorf("service: torn fleet: broker %s checkpointed at slot %d, broker %s at %d",
					brokers[i].opts.RunLabel, ck.Slot, brokers[0].opts.RunLabel, cks[0].Slot)
			}
		}
		for i, b := range brokers {
			if err := b.Restore(cks[i]); err != nil {
				return rep, fmt.Errorf("service: broker %s: %w", b.opts.RunLabel, err)
			}
			rep.Decided += cks[i].Decisions.Len()
		}
		rep.Slot, rep.FromCheckpoint = cks[0].Slot, true
	}
	for _, b := range brokers {
		n, err := b.RecoverWAL()
		if err != nil {
			return rep, fmt.Errorf("service: broker %s: journal replay: %w", b.opts.RunLabel, err)
		}
		rep.Replayed += n
	}
	return rep, nil
}

// statusPayload serves the monolithic broker's Status on /v1/status.
func (b *Broker) statusPayload() (any, error) { return b.Status() }

// DiffTwins compares a stopped fleet, broker by broker, with sequential
// sim.Run twins. tasks is everything the fleet was offered, in offer
// order; a bid belongs to the broker that decided it, and twin runs broker
// i's twin (with CollectDecisions) over that broker's subsequence. It
// returns nil when every decision and every broker's accounting are
// bit-identical to its twin's. Plans are not compared (see
// sim.DiffDecisions), so it holds under DropLosingPlans; duals and ledgers
// stay with the caller, who owns the two stacks.
func DiffTwins(a Auctioneer, tasks []task.Task, twin func(i int, sub []task.Task) (*sim.Result, error)) error {
	brokers := a.Brokers()
	subs := make([][]task.Task, len(brokers))
	for _, t := range tasks {
		owner := -1
		for i, b := range brokers {
			if _, ok, err := b.DecisionFor(t.ID); err != nil {
				return fmt.Errorf("task %d: %w", t.ID, err)
			} else if ok {
				owner = i
				break
			}
		}
		if owner < 0 {
			return fmt.Errorf("task %d: no decision on any broker", t.ID)
		}
		subs[owner] = append(subs[owner], t)
	}
	for i, b := range brokers {
		want, err := twin(i, subs[i])
		if err != nil {
			return fmt.Errorf("broker %d twin: %w", i, err)
		}
		for j, t := range subs[i] {
			got, _, _ := b.DecisionFor(t.ID) // found above; the broker is stopped
			if msg := sim.DiffDecisions(&got, &want.Decisions[j], false); msg != "" {
				return fmt.Errorf("broker %d vs twin: %s", i, msg)
			}
		}
		if msg := sim.DiffResults(b.Result(), want); msg != "" {
			return fmt.Errorf("broker %d vs twin: accounting: %s\nbroker %+v\nsim    %+v", i, msg, b.Result(), want)
		}
	}
	return nil
}

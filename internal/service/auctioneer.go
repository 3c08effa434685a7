package service

import (
	"context"
	"fmt"
	"net/http"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// Auctioneer is the serving API — the one surface a monolithic Broker
// and a sharded fleet (Shards) both implement. Everything above the
// service layer (cmd/pdftspd's serve/chaos/verify loops, the load
// generator, the spot tier's operators) programs against this interface
// and never branches on the fleet shape: a fleet of one and a fleet of
// many submit, step, drain, checkpoint, and report identically.
//
// The contract follows Broker's semantics exactly; Shards adds routing
// (a bid lands on the shard with the best dual-price surplus) but keeps
// every per-shard guarantee, including bit-identity of each shard with
// a sequential sim.Run of the subsequence routed to it.
type Auctioneer interface {
	// Start launches the core goroutine(s); Drain stops gracefully with a
	// final checkpoint, Kill crash-stops (the restore tests' SIGKILL).
	Start() error
	Drain(ctx context.Context) error
	Kill()

	// Submit hands over one bid and blocks for its slot's decision.
	// SubmitBatch coalesces many bids into one intake message;
	// SubmitBatchAck is its fire-and-forget half (intake verdicts only).
	Submit(ctx context.Context, t task.Task) (schedule.Decision, error)
	SubmitBatch(ctx context.Context, tasks []task.Task) ([]Outcome, error)
	SubmitBatchAck(ctx context.Context, tasks []task.Task, verdicts []error) (int, error)

	// Step closes n slots of a virtual-clock fleet; Slot is the current
	// (bid-accepting) slot.
	Step(n int) (int, error)
	Slot() (int, error)

	// DecisionFor returns a decided bid's irrevocable outcome;
	// PendingFor reports a bid that is acked but awaiting its slot's
	// round — the API's "pending, not lost" answer.
	DecisionFor(id int) (schedule.Decision, bool, error)
	PendingFor(id int) (bool, error)

	// Status is the fleet-level operational summary (a sharded fleet
	// aggregates its shards); Health is the /healthz verdict.
	Status() (Status, error)
	Health() Health

	// Brokers exposes the fleet members — length 1 for a monolithic
	// broker — for callers that need per-shard state (chaos harnesses,
	// per-shard sim.Run verify twins, post-drain Result inspection).
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
	_ Auctioneer = (*Supervisor)(nil)
)

// submitOne is Submit for the Auctioneers that route or retry: the one bid
// goes through SubmitBatch, which already carries their routing refusals
// and replay resolution.
func submitOne(ctx context.Context, a Auctioneer, t task.Task) (schedule.Decision, error) {
	outs, err := a.SubmitBatch(ctx, []task.Task{t})
	if err != nil {
		return schedule.Decision{}, err
	}
	return outs[0].Decision, outs[0].Err
}

// statusPayload serves the monolithic broker's Status on /v1/status.
func (b *Broker) statusPayload() (any, error) { return b.Status() }

// DiffTwin compares a stopped broker with the sequential sim.Run twin of
// the bids it decided: sub is that subsequence in offer order, want the
// twin's result (run with CollectDecisions). It returns "" when every
// decision and the whole accounting are bit-identical, else the first
// divergence. Plans are not compared (see sim.DiffDecisions), so it holds
// under DropLosingPlans; duals and ledgers stay with the caller, who owns
// the two stacks.
func (b *Broker) DiffTwin(sub []task.Task, want *sim.Result) string {
	for i := range sub {
		got, ok, err := b.DecisionFor(sub[i].ID)
		if err != nil || !ok {
			return fmt.Sprintf("task %d: no decision (ok=%v err=%v)", sub[i].ID, ok, err)
		}
		if msg := sim.DiffDecisions(&got, &want.Decisions[i], false); msg != "" {
			return msg
		}
	}
	if msg := sim.DiffResults(b.Result(), want); msg != "" {
		return fmt.Sprintf("accounting: %s\nbroker %+v\nsim    %+v", msg, b.Result(), want)
	}
	return ""
}

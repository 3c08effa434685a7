package sim

import (
	"reflect"
	"testing"

	"github.com/pdftsp/pdftsp/internal/baseline"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func TestFailureValidation(t *testing.T) {
	tasks, tc := smallWorkload(t)
	cl := simCluster(t, 2, tc.Horizon)
	bad := [][]Failure{
		{{Node: 9, From: 1, To: 2}},
		{{Node: 0, From: -1, To: 2}},
		{{Node: 0, From: 5, To: 2}},
		{{Node: 0, From: 99, To: 100}},
	}
	for i, fs := range bad {
		if _, err := Run(cl, baseline.NewEFT(), tasks, Config{Model: tc.Model, Failures: fs}); err == nil {
			t.Errorf("bad failure set %d accepted", i)
		}
	}
}

// TestFailureTailClamp: a failure that starts inside the horizon but
// outlives it is accepted and clamped to the last slot — the ledger has
// no cells beyond the horizon, and an outage past it is indistinguishable
// from one ending there. (From at or past the horizon still errors; see
// TestFailureValidation.)
func TestFailureTailClamp(t *testing.T) {
	_, tc := smallWorkload(t)
	cl := simCluster(t, 2, tc.Horizon)
	horizon := tc.Horizon.T
	ft, err := NewFailureTracker([]Failure{{Node: 0, From: horizon - 2, To: horizon + 50}}, cl)
	if err != nil {
		t.Fatalf("overlong tail rejected: %v", err)
	}
	if got := ft.pending[0].To; got != horizon-1 {
		t.Fatalf("tail clamped to %d, want %d", got, horizon-1)
	}
	// The caller's slice must not be mutated by the clamp.
	fs := []Failure{{Node: 0, From: 1, To: horizon * 2}}
	if _, err := NewFailureTracker(fs, cl); err != nil {
		t.Fatal(err)
	}
	if fs[0].To != horizon*2 {
		t.Fatal("NewFailureTracker mutated the caller's failure slice")
	}
}

// TestFailureApplyDeterministic: when one outage breaks several plans,
// recovery re-offers run in offer-stream order — never map order — so
// repeated runs are bit-identical.
func TestFailureApplyDeterministic(t *testing.T) {
	fs := []Failure{{Node: 0, From: 5, To: 35}, {Node: 1, From: 20, To: 35}}
	_, first := failureRun(t, fs)
	if first.RecoveredTasks+first.FailedTasks < 2 {
		t.Skipf("only %d plans disturbed; determinism not exercised",
			first.RecoveredTasks+first.FailedTasks)
	}
	for run := 0; run < 3; run++ {
		_, again := failureRun(t, fs)
		if again.Welfare != first.Welfare || again.Revenue != first.Revenue ||
			again.RecoveredTasks != first.RecoveredTasks ||
			again.FailedTasks != first.FailedTasks ||
			again.RefundedValue != first.RefundedValue {
			t.Fatalf("run %d diverged:\nfirst %+v\nagain %+v", run, first, again)
		}
		for i := range first.Decisions {
			if first.Decisions[i].Admitted != again.Decisions[i].Admitted ||
				first.Decisions[i].Payment() != again.Decisions[i].Payment() {
				t.Fatalf("run %d: decision %d diverged", run, i)
			}
		}
	}
}

// failureRun executes a masked pdFTSP run with the given outages.
func failureRun(t *testing.T, failures []Failure) (*Result, *Result) {
	t.Helper()
	tc := trace.DefaultConfig()
	tc.Horizon = timeslot.NewHorizon(36)
	tc.RatePerSlot = 3
	tc.Seed = 8
	tc.PrepProb = 0
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(fs []Failure) *Result {
		cl := simCluster(t, 2, tc.Horizon)
		opts := core.CalibrateDuals(tasks, tc.Model, cl, nil)
		opts.MaskFullCells = true // recovery planning must see downed nodes
		sched, err := core.New(cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cl, sched, tasks, Config{Model: tc.Model, Failures: fs, CollectDecisions: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return run(nil), run(failures)
}

func TestFailureInjectionAccounting(t *testing.T) {
	baselineRes, failedRes := failureRun(t, []Failure{{Node: 0, From: 10, To: 25}})
	if failedRes.FailuresInjected != 1 {
		t.Fatalf("injected %d failures, want 1", failedRes.FailuresInjected)
	}
	// An outage can only hurt.
	if failedRes.Welfare > baselineRes.Welfare+1e-6 {
		t.Fatalf("outage increased welfare: %v > %v", failedRes.Welfare, baselineRes.Welfare)
	}
	// Some plans were disturbed: either recovered or failed.
	if failedRes.RecoveredTasks+failedRes.FailedTasks == 0 {
		t.Fatal("a 16-slot outage on half the cluster disturbed nothing")
	}
	if failedRes.FailedTasks > 0 && failedRes.RefundedValue <= 0 {
		t.Fatal("failed tasks without refunds")
	}
}

func TestFailureRefundReflectedInDecisions(t *testing.T) {
	_, failedRes := failureRun(t, []Failure{{Node: 0, From: 5, To: 35}, {Node: 1, From: 20, To: 35}})
	refunds := 0
	for _, d := range failedRes.Decisions {
		if d.Reason == schedule.ReasonFailedNode {
			refunds++
			if d.Admitted {
				t.Fatal("refunded decision still marked admitted")
			}
		}
	}
	if refunds != failedRes.FailedTasks {
		t.Fatalf("decision refunds %d != failed tasks %d", refunds, failedRes.FailedTasks)
	}
}

func TestFailureOnIdleNodeIsHarmless(t *testing.T) {
	tc := trace.DefaultConfig()
	tc.Horizon = timeslot.NewHorizon(36)
	tc.RatePerSlot = 1
	tc.Seed = 8
	tc.PrepProb = 0
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	// Fail a node AFTER the horizon's workload finishes: slot 35 only.
	cl := simCluster(t, 3, tc.Horizon)
	opts := core.CalibrateDuals(tasks, tc.Model, cl, nil)
	opts.MaskFullCells = true
	sched, err := core.New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cl, sched, tasks, Config{
		Model:    tc.Model,
		Failures: []Failure{{Node: 2, From: 35, To: 35}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedTasks > 0 && res.RecoveredTasks == 0 {
		// With three nodes and one late single-slot outage, recovery
		// should almost always succeed; at minimum nothing should crash.
		t.Logf("note: %d tasks failed from a late outage", res.FailedTasks)
	}
	if res.FailuresInjected != 1 {
		t.Fatalf("injected %d, want 1", res.FailuresInjected)
	}
}

func TestFailureWithGreedyScheduler(t *testing.T) {
	// EFT's planner consults CanPlace, so it routes around downed nodes
	// without any masking option.
	tasks, tc := smallWorkload(t)
	mkt, _ := vendor.Standard(3, 2)
	cl := simCluster(t, 2, tc.Horizon)
	res, err := Run(cl, baseline.NewEFT(), tasks, Config{
		Model:    tc.Model,
		Market:   mkt,
		Failures: []Failure{{Node: 1, From: 6, To: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailuresInjected != 1 {
		t.Fatal("failure not injected")
	}
	// Ledger invariant: nothing committed on the downed node inside the
	// outage window after the run.
	for tt := 6; tt <= 20; tt++ {
		if cl.UsedWork(1, tt) != 0 {
			t.Fatalf("work still committed on downed node at slot %d", tt)
		}
	}
}

// envRecorder wraps a scheduler and remembers every env it was offered
// together with a copy of that env's quotes at offer time.
type envRecorder struct {
	Scheduler
	envs   []*schedule.TaskEnv
	quotes [][]vendor.Quote
}

func (r *envRecorder) Offer(env *schedule.TaskEnv) schedule.Decision {
	r.envs = append(r.envs, env)
	r.quotes = append(r.quotes, append([]vendor.Quote(nil), env.Quotes...))
	return r.Scheduler.Offer(env)
}

// TestFailureTrackerEnvsKeepTheirQuotes checks the ownership rule on the
// failure path: the tracker retains each admitted bid's env for re-plan
// time, and an env's quotes live only until its next Refill, so with
// failures configured every bid must get an env of its own — at the end
// of the run each one still holds the quotes it was offered with.
func TestFailureTrackerEnvsKeepTheirQuotes(t *testing.T) {
	tc := trace.DefaultConfig()
	tc.Horizon = timeslot.NewHorizon(36)
	tc.RatePerSlot = 3
	tc.Seed = 8
	tc.PrepProb = 1
	tasks, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := vendor.Standard(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl := simCluster(t, 2, tc.Horizon)
	opts := core.CalibrateDuals(tasks, tc.Model, cl, mkt)
	opts.MaskFullCells = true
	sched, err := core.New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := &envRecorder{Scheduler: sched}
	res, err := Run(cl, rec, tasks, Config{
		Model: tc.Model, Market: mkt, Failures: []Failure{{Node: 0, From: 10, To: 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 || res.RecoveredTasks+res.FailedTasks == 0 {
		t.Fatalf("vacuous run: %d admitted, %d recovered, %d failed", res.Admitted, res.RecoveredTasks, res.FailedTasks)
	}
	for i, env := range rec.envs {
		if len(rec.quotes[i]) == 0 {
			continue // a recovery re-plan: no vendor is bought twice
		}
		if !reflect.DeepEqual(env.Quotes, rec.quotes[i]) {
			t.Fatalf("offer %d (task %d): retained env's quotes changed after its offer:\n got %+v\nwant %+v",
				i, env.Task.ID, env.Quotes, rec.quotes[i])
		}
		if want := mkt.QuotesFor(env.Task.ID); !reflect.DeepEqual(rec.quotes[i], want) {
			t.Fatalf("offer %d (task %d): offered quotes %+v, want %+v", i, env.Task.ID, rec.quotes[i], want)
		}
	}
}

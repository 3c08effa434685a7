package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// callLog is the one ordered record every fake in this file appends to,
// so a test reads the engine's call discipline off a single sequence.
type callLog []string

func (l *callLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

// scriptScheduler decides by task ID: task 2 is admitted onto node 1's
// last slot (and committed, so a later outage can release it), task 1 and
// recovery continuations find no schedule, everything else loses on
// surplus.
type scriptScheduler struct {
	log *callLog
	cl  *cluster.Cluster
}

func (s *scriptScheduler) Name() string { return "script" }

func (s *scriptScheduler) decide(env *schedule.TaskEnv) schedule.Decision {
	id := env.Task.ID
	d := schedule.Decision{TaskID: id}
	switch {
	case id == 2:
		last := s.cl.Horizon().T - 1
		s.cl.Commit(1, last, env.Speed[1], env.Task.MemGB)
		d.Admitted, d.Terms = true, &schedule.Terms{Payment: 3}
		d.Schedule = &schedule.Schedule{TaskID: id, Vendor: schedule.NoVendor,
			Placements: []schedule.Placement{{Node: 1, Slot: last}}}
	case id == 1 || id >= 1<<30:
		d.Reason = schedule.ReasonNoSchedule
	default:
		d.Reason = schedule.ReasonSurplus
	}
	return d
}

func (s *scriptScheduler) Offer(env *schedule.TaskEnv) schedule.Decision {
	if env.Task.ID >= 1<<30 {
		s.log.add("reoffer")
	} else {
		s.log.add("offer %d", env.Task.ID)
	}
	return s.decide(env)
}

type scriptBatcher struct{ *scriptScheduler }

func (s scriptBatcher) BatchOffer(envs []*schedule.TaskEnv) []schedule.Decision {
	s.log.add("batch %d", len(envs))
	ds := make([]schedule.Decision, len(envs))
	for i, env := range envs {
		ds[i] = s.decide(env)
	}
	return ds
}

// recordingSpot logs AdvanceTo; its state is the last slot it advanced to.
type recordingSpot struct {
	log  *callLog
	next int
}

func (r *recordingSpot) Bind(*cluster.Cluster, *FailureTracker) error { return nil }
func (r *recordingSpot) AdvanceTo(now int, _ Scheduler, _ *Result) {
	r.log.add("advance %d", now)
	r.next = now + 1
}
func (r *recordingSpot) State() SpotState { return SpotState{Next: r.next} }
func (r *recordingSpot) RestoreState(st *SpotState) error {
	r.next = st.Next
	return nil
}

// recordingObserver logs the engine's own events; ApplyUpTo shows up as
// the failure event it emits.
type recordingObserver struct {
	obs.Base
	log *callLog
}

func (r recordingObserver) OnRunStart(*obs.RunStartEvent) { r.log.add("run_start") }
func (r recordingObserver) OnBid(e *obs.BidEvent)         { r.log.add("bid %d", e.TaskID) }
func (r recordingObserver) OnOutcome(e *obs.OutcomeEvent) {
	r.log.add("outcome %d %s", e.TaskID, e.Reason)
}
func (r recordingObserver) OnFailure(e *obs.FailureEvent) { r.log.add("apply node%d", e.Node) }
func (r recordingObserver) OnRunEnd(*obs.RunEndEvent)     { r.log.add("run_end") }

// TestEngineCallDiscipline scripts one run both ways — per-bid Offer and
// a BatchScheduler — and asserts the exact call sequence the Engine doc
// comment promises.
func TestEngineCallDiscipline(t *testing.T) {
	const T = 8
	// Slot 2 carries three bids, slot 5 one.
	tasks := []task.Task{
		{ID: 0, Arrival: 2, Deadline: 7, Work: 1, MemGB: 1, Batch: 8, Bid: 5},
		{ID: 1, Arrival: 2, Deadline: 7, Work: 1, MemGB: 1, Batch: 8, Bid: 5},
		{ID: 2, Arrival: 2, Deadline: 7, Work: 1, MemGB: 1, Batch: 8, Bid: 5},
		{ID: 3, Arrival: 5, Deadline: 7, Work: 1, MemGB: 1, Batch: 8, Bid: 5},
	}
	// One outage is already due when slot 1 closes empty; one only surfaces
	// from Finish, where it breaks task 2's plan.
	failures := []Failure{{Node: 0, From: 1, To: 1}, {Node: 1, From: T - 1, To: T - 1}}

	head := []string{"run_start", "advance 2", "apply node0"}
	tail := []string{
		"advance 7", "reoffer", "refund 2", "apply node1", "run_end",
	}
	slot5 := []string{"advance 5", "bid 3", "offer 3", "outcome 3 surplus", "sink 3=3"}
	for _, tc := range []struct {
		mode string
		want []string
	}{
		{"offer", slices.Concat(head, []string{
			"bid 0", "offer 0", "outcome 0 surplus", "sink 0=0",
			"bid 1", "offer 1", "outcome 1 no-schedule", "sink 1=1",
			"bid 2", "offer 2", "outcome 2 ", "sink 2=2",
		}, slot5, tail)},
		{"batch", slices.Concat(head, []string{
			"bid 0", "bid 1", "bid 2", "batch 3",
			"outcome 0 surplus", "sink 0=0", "outcome 1 no-schedule", "sink 1=1", "outcome 2 ", "sink 2=2",
			"advance 5", "bid 3", "batch 1", "outcome 3 surplus", "sink 3=3",
		}, tail)},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			var log callLog
			cl := simCluster(t, 2, timeslot.NewHorizon(T))
			script := &scriptScheduler{log: &log, cl: cl}
			var sched Scheduler = script
			if tc.mode == "batch" {
				sched = scriptBatcher{script}
			}
			spot := &recordingSpot{log: &log}
			cfg := EngineConfig{
				Model: lora.GPT2Small(), Failures: failures,
				Spot: spot, Observer: recordingObserver{log: &log},
			}
			sunk := 0 // the engine hands latencies over; it keeps none
			sink := func(idx int, env *schedule.TaskEnv, _ *schedule.Decision, _ time.Duration) {
				log.add("sink %d=%d", idx, env.Task.ID)
				sunk++
			}
			eng, err := NewEngine(cl, sched, cfg, sink)
			if err != nil {
				t.Fatal(err)
			}
			eng.OnRefund(func(id int) { log.add("refund %d", id) })
			eng.Start()
			ctx := context.Background()
			rounds := map[int][]*task.Task{1: nil, 2: {&tasks[0], &tasks[1], &tasks[2]}, 5: {&tasks[3]}}
			for _, slot := range []int{1, 2, 5} {
				if err := eng.Round(ctx, slot, rounds[slot]); err != nil {
					t.Fatal(err)
				}
			}
			eng.Finish(true)
			eng.Finish(true)  // horizon end, then the broker's drain
			eng.Finish(false) // idempotent whatever the argument

			if !reflect.DeepEqual([]string(log), tc.want) {
				t.Fatalf("call sequence\n got  %q\n want %q", []string(log), tc.want)
			}
			res := eng.Result()
			if res.RejectReasons[schedule.ReasonNoSchedule] != 1 || res.RejectReasons[schedule.ReasonSurplus] != 2 {
				t.Fatalf("reject reasons: %v", res.RejectReasons)
			}
			if res.FailuresInjected != 2 || res.FailedTasks != 1 || eng.Offered() != 4 || sunk != 4 || res.OfferLatency != nil {
				t.Fatalf("accounting: %+v, offered %d", res, eng.Offered())
			}

			// A restored engine continues the offer index stream.
			log = nil
			cl2 := simCluster(t, 2, timeslot.NewHorizon(T))
			script.cl = cl2
			cfg.Spot = &recordingSpot{log: &log}
			eng2, err := NewEngine(cl2, sched, cfg, sink)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng2.Restore(res, eng.Offered(), eng.FaultState(), eng.SpotState()); err != nil {
				t.Fatal(err)
			}
			next := task.Task{ID: 9, Arrival: 7, Deadline: 7, Work: 1, MemGB: 1, Batch: 8, Bid: 5}
			if err := eng2.Round(ctx, 7, []*task.Task{&next}); err != nil {
				t.Fatal(err)
			}
			if got := log[len(log)-1]; got != "sink 4=9" {
				t.Fatalf("first sink call after restore: %q, want offer index 4", got)
			}
			if eng2.Result() != res || eng2.SpotState().Next != 8 {
				t.Fatalf("restore did not adopt the result / spot state (next %d)", eng2.SpotState().Next)
			}
		})
	}
}

// TestEngineRoundObservesCancellation: Round stops between offers.
func TestEngineRoundObservesCancellation(t *testing.T) {
	var log callLog
	cl := simCluster(t, 2, timeslot.NewHorizon(8))
	ctx, cancel := context.WithCancel(context.Background())
	eng, err := NewEngine(cl, &scriptScheduler{log: &log, cl: cl},
		EngineConfig{Model: lora.GPT2Small()},
		func(int, *schedule.TaskEnv, *schedule.Decision, time.Duration) { cancel() })
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	a := task.Task{ID: 0, Arrival: 0, Deadline: 7, Work: 1, MemGB: 1, Batch: 8, Bid: 5}
	b := a
	b.ID = 3
	if err := eng.Round(ctx, 0, []*task.Task{&a, &b}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Round after cancellation: %v", err)
	}
	if eng.Offered() != 1 {
		t.Fatalf("offered %d bids, want 1 (the one decided before the cancel)", eng.Offered())
	}
}

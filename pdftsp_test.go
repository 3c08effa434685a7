package pdftsp

import (
	"context"
	"errors"
	"testing"
)

// TestFacadeEndToEnd exercises the whole public API surface the way the
// README quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	model := GPT2Small()
	h := NewHorizon(48)
	cl, err := NewCluster(h, model, NodeGroup{Spec: A100(), Count: 2}, NodeGroup{Spec: A40(), Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := NewMarketplace(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWorkload()
	cfg.Horizon = h
	cfg.RatePerSlot = 3
	tasks, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewScheduler(cl, Calibrate(tasks, model, cl, mkt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cl, sch, tasks, RunConfig{Model: model, Market: mkt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 || res.Welfare <= 0 {
		t.Fatalf("facade run produced no welfare: %+v", res)
	}
}

func TestFacadeBaselines(t *testing.T) {
	model := GPT2Small()
	h := NewHorizon(24)
	cfg := DefaultWorkload()
	cfg.Horizon = h
	cfg.RatePerSlot = 2
	tasks, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkt, err := NewMarketplace(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{NewEFT(), NewNTM(1), NewTitan(TitanOptions{Seed: 1, SolveBudget: DefaultTitanBudget / 10})} {
		cl, err := NewCluster(h, model, NodeGroup{Spec: A100(), Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cl, s, tasks, RunConfig{Model: model, Market: mkt})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Admitted == 0 {
			t.Fatalf("%s admitted nothing", s.Name())
		}
	}
}

// TestFacadeClusterOptions: the functional-option constructor and the
// bare NodeGroup form assemble the same cluster.
func TestFacadeClusterOptions(t *testing.T) {
	model := GPT2Small()
	h := NewHorizon(24)
	a, err := NewCluster(h, model,
		WithNodes(A100(), 2), WithNodes(A40(), 1), WithPrice(FlatPrice(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCluster(h, model,
		NodeGroup{Spec: A100(), Count: 2}, NodeGroup{Spec: A40(), Count: 1},
		WithPrice(FlatPrice(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*Cluster{b} {
		if cl.NumNodes() != a.NumNodes() {
			t.Fatalf("node counts diverge: %d vs %d", cl.NumNodes(), a.NumNodes())
		}
		for k := 0; k < a.NumNodes(); k++ {
			if cl.Node(k).Spec.Name != a.Node(k).Spec.Name || cl.Node(k).CapWork != a.Node(k).CapWork {
				t.Fatalf("node %d diverges between constructor forms", k)
			}
		}
		if cl.UnitEnergyCost(0, 7) != a.UnitEnergyCost(0, 7) {
			t.Fatal("price curves diverge between constructor forms")
		}
	}
}

// TestFacadeRunCtx: a canceled context stops the replay with its error.
func TestFacadeRunCtx(t *testing.T) {
	model := GPT2Small()
	h := NewHorizon(24)
	cl, err := NewCluster(h, model, WithNodes(A100(), 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWorkload()
	cfg.Horizon = h
	cfg.RatePerSlot = 2
	cfg.PrepProb = 0
	tasks, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewScheduler(cl, Calibrate(tasks, model, cl, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, cl, sch, tasks, RunConfig{Model: model}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunCtx returned %v", err)
	}
	res, err := RunCtx(context.Background(), cl, sch, tasks, RunConfig{Model: model})
	if err != nil || res.Admitted == 0 {
		t.Fatalf("live RunCtx: res=%+v err=%v", res, err)
	}
}

// TestFacadeBroker drives the auction service through the public facade:
// concurrent submissions, a virtual clock, and typed rejection reasons.
func TestFacadeBroker(t *testing.T) {
	model := GPT2Small()
	h := NewHorizon(24)
	cl, err := NewCluster(h, model, WithNodes(A100(), 2))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewScheduler(cl, SchedulerOptions{Alpha: 2, Beta: 10})
	if err != nil {
		t.Fatal(err)
	}
	broker, err := NewBroker(BrokerOptions{
		Cluster: cl, Scheduler: sch, Model: model, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Start(); err != nil {
		t.Fatal(err)
	}
	good := Task{ID: 0, Arrival: 1, Deadline: 20, Work: 27, MemGB: 5, Batch: 16, Bid: 60}
	doomed := Task{ID: 1, Arrival: 1, Deadline: 1, Work: 9999, MemGB: 5, Batch: 16, Bid: 60}
	chGood, err := broker.SubmitAsync(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	chDoomed, err := broker.SubmitAsync(context.Background(), doomed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Step(2); err != nil {
		t.Fatal(err)
	}
	if out := <-chGood; out.Err != nil || !out.Decision.Admitted {
		t.Fatalf("good bid: %+v", out)
	}
	if out := <-chDoomed; out.Err != nil || out.Decision.Admitted || out.Decision.Reason != ReasonNoSchedule {
		t.Fatalf("doomed bid: %+v", out)
	}
	st, err := broker.Status()
	if err != nil || st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("status: %+v err=%v", st, err)
	}
	if err := broker.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSingleOffer(t *testing.T) {
	model := GPT2Small()
	h := Day()
	cl, err := NewCluster(h, model, WithNodes(A100(), 1), WithPrice(FlatPrice(1)))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewScheduler(cl, SchedulerOptions{Alpha: 2, Beta: 10})
	if err != nil {
		t.Fatal(err)
	}
	tk := Task{
		ID: 0, Arrival: 3, Deadline: 20, Work: 27, MemGB: 5, Batch: 16, Bid: 60,
	}
	d := sch.Offer(NewTaskEnv(&tk, cl, model, nil))
	if !d.Admitted {
		t.Fatalf("single offer rejected: %s", d.Reason)
	}
	if err := d.Schedule.Validate(NewTaskEnv(&tk, cl, model, nil)); err != nil {
		t.Fatal(err)
	}
	if DiurnalPrice() == nil || V100().Name == "" || GPT2Medium().Layers == 0 {
		t.Fatal("catalog helpers broken")
	}
}

package pdftsp_test

import (
	"context"
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp"
)

// Example runs the minimal end-to-end flow: build a cluster, generate a
// workload, schedule it with pdFTSP, and read the welfare accounting.
func Example() {
	model := pdftsp.GPT2Small()
	h := pdftsp.NewHorizon(48)
	cl, err := pdftsp.NewCluster(h, model,
		pdftsp.WithNodes(pdftsp.A100(), 2), pdftsp.WithPrice(pdftsp.FlatPrice(1)))
	if err != nil {
		log.Fatal(err)
	}
	cfg := pdftsp.DefaultWorkload()
	cfg.Horizon = h
	cfg.RatePerSlot = 2
	cfg.Seed = 7
	cfg.PrepProb = 0
	tasks, err := pdftsp.GenerateWorkload(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sch, err := pdftsp.NewScheduler(cl, pdftsp.Calibrate(tasks, model, cl, nil))
	if err != nil {
		log.Fatal(err)
	}
	res, err := pdftsp.Run(cl, sch, tasks, pdftsp.RunConfig{Model: model})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Admitted+res.Rejected == len(tasks), res.Welfare > 0)
	// Output: true true
}

// ExampleNewScheduler_offer prices a single arriving bid by hand: the
// decision carries the plan, the surplus F(il), and the payment.
func ExampleNewScheduler_offer() {
	model := pdftsp.GPT2Small()
	h := pdftsp.NewHorizon(24)
	cl, _ := pdftsp.NewCluster(h, model,
		pdftsp.WithNodes(pdftsp.A100(), 1), pdftsp.WithPrice(pdftsp.FlatPrice(1)))
	sch, _ := pdftsp.NewScheduler(cl, pdftsp.SchedulerOptions{Alpha: 2, Beta: 10})
	bid := pdftsp.Task{
		ID: 0, Arrival: 1, Deadline: 10, Work: 27, MemGB: 5, Batch: 16, Bid: 50,
	}
	d := sch.Offer(pdftsp.NewTaskEnv(&bid, cl, model, nil))
	fmt.Println(d.Admitted, d.Payment(), len(d.Schedule.Placements) > 0)
	// Output: true 0 true
}

// ExampleDecision reads a decision's money through its accessors. A
// losing bid moves none, so its Decision carries no Terms, and Payment,
// VendorCost and EnergyCost read 0 on it with no nil check.
func ExampleDecision() {
	model := pdftsp.GPT2Small()
	h := pdftsp.NewHorizon(24)
	cl, _ := pdftsp.NewCluster(h, model,
		pdftsp.WithNodes(pdftsp.A100(), 1), pdftsp.WithPrice(pdftsp.FlatPrice(1)))
	sch, _ := pdftsp.NewScheduler(cl, pdftsp.SchedulerOptions{Alpha: 2, Beta: 10})
	for _, bid := range []pdftsp.Task{
		{ID: 0, Arrival: 1, Deadline: 10, Work: 27, MemGB: 5, Batch: 16, Bid: 50},
		{ID: 1, Arrival: 1, Deadline: 10, Work: 27, MemGB: 5, Batch: 16, Bid: 0.01},
	} {
		d := sch.Offer(pdftsp.NewTaskEnv(&bid, cl, model, nil))
		fmt.Printf("bid %d: admitted=%v terms=%v energy>0=%v payment=%v vendor=%v reason=%q\n",
			d.TaskID, d.Admitted, d.Terms != nil, d.EnergyCost() > 0, d.Payment(), d.VendorCost(), d.Reason)
	}
	// Output:
	// bid 0: admitted=true terms=true energy>0=true payment=0 vendor=0 reason=""
	// bid 1: admitted=false terms=false energy>0=false payment=0 vendor=0 reason="surplus"
}

// ExampleNewCluster shows the functional-option constructor: node groups
// and the price curve compose as options, and a bare NodeGroup literal
// still works as one.
func ExampleNewCluster() {
	model := pdftsp.GPT2Small()
	h := pdftsp.NewHorizon(24)
	cl, err := pdftsp.NewCluster(h, model,
		pdftsp.WithNodes(pdftsp.A100(), 2),
		pdftsp.WithNodes(pdftsp.A40(), 1),
		pdftsp.WithPrice(pdftsp.FlatPrice(1)),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cl.NumNodes(), cl.Node(0).Spec.Name == cl.Node(2).Spec.Name)
	// Output: 3 false
}

// ExampleNewBroker runs the auction as a service: bids submitted while a
// slot is open are decided together when it closes, here on a virtual
// clock stepped by hand.
func ExampleNewBroker() {
	model := pdftsp.GPT2Small()
	h := pdftsp.NewHorizon(24)
	cl, err := pdftsp.NewCluster(h, model, pdftsp.WithNodes(pdftsp.A100(), 1))
	if err != nil {
		log.Fatal(err)
	}
	sch, err := pdftsp.NewScheduler(cl, pdftsp.SchedulerOptions{Alpha: 2, Beta: 10})
	if err != nil {
		log.Fatal(err)
	}
	broker, err := pdftsp.NewBroker(pdftsp.BrokerOptions{
		Cluster: cl, Scheduler: sch, Model: model, VirtualClock: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := broker.Start(); err != nil {
		log.Fatal(err)
	}
	bid := pdftsp.Task{
		ID: 0, Arrival: 0, Deadline: 10, Work: 27, MemGB: 5, Batch: 16, Bid: 50,
	}
	outcome, err := broker.SubmitAsync(context.Background(), bid)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := broker.Step(1); err != nil { // close slot 0 → decide the bid
		log.Fatal(err)
	}
	out := <-outcome
	fmt.Println(out.Err == nil, out.Decision.Admitted)
	if err := broker.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	// Output: true true
}

// ExampleGenerateWorkload shows deterministic workload generation.
func ExampleGenerateWorkload() {
	cfg := pdftsp.DefaultWorkload()
	cfg.Horizon = pdftsp.NewHorizon(24)
	cfg.RatePerSlot = 1
	cfg.Seed = 5
	a, _ := pdftsp.GenerateWorkload(cfg)
	b, _ := pdftsp.GenerateWorkload(cfg)
	fmt.Println(len(a) == len(b), len(a) > 0)
	// Output: true true
}

package schedule_test

import (
	"fmt"
	"log"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// ExampleDecision reads a decision's money through its accessors. A
// losing bid moves none, so its Decision carries no Terms, and Payment,
// VendorCost and EnergyCost read 0 on it with no nil check.
func ExampleDecision() {
	model := lora.GPT2Small()
	cl, err := config.NewCluster(timeslot.NewHorizon(24), model, []config.NodeGroup{{GPU: gpu.A100.Name, Count: 1}})
	if err != nil {
		log.Fatal(err)
	}
	sch, err := core.New(cl, core.Options{Alpha: 2, Beta: 10})
	if err != nil {
		log.Fatal(err)
	}
	for _, bid := range []task.Task{
		{ID: 0, Arrival: 1, Deadline: 10, Work: 27, MemGB: 5, Batch: 16, Bid: 50},
		{ID: 1, Arrival: 1, Deadline: 10, Work: 27, MemGB: 5, Batch: 16, Bid: 0.01},
	} {
		d := sch.Offer(schedule.NewTaskEnv(&bid, cl, model, nil))
		fmt.Printf("bid %d: admitted=%v terms=%v energy>0=%v payment=%v vendor=%v reason=%q\n",
			d.TaskID, d.Admitted, d.Terms != nil, d.EnergyCost() > 0, d.Payment(), d.VendorCost(), d.Reason)
	}
	// Output:
	// bid 0: admitted=true terms=true energy>0=true payment=0 vendor=0 reason=""
	// bid 1: admitted=false terms=false energy>0=false payment=0 vendor=0 reason="surplus"
}

package schedule

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func testEnv(t *testing.T, needsPrep bool) *TaskEnv {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Horizon:     timeslot.NewHorizon(20),
		BaseModelGB: lora.BaseMemoryGB(lora.GPT2Small()),
		Price:       gpu.FlatPrice(1),
	}, append(cluster.Uniform(2, gpu.A100, 86, 80), cluster.Uniform(1, gpu.A40, 35, 48)...))
	if err != nil {
		t.Fatal(err)
	}
	tk := &task.Task{
		ID: 0, Arrival: 2, Deadline: 15, Work: 20, MemGB: 5, Batch: 16, NeedsPrep: needsPrep,
		Bid: 70,
	}
	var mkt *vendor.Marketplace
	if needsPrep {
		mkt, err = vendor.Standard(3, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	return NewTaskEnv(tk, cl, lora.GPT2Small(), mkt)
}

func planFor(env *TaskEnv) *Schedule {
	// Two slots on node 0 cover 20 units at A100 batch-16 speed (10/slot).
	return &Schedule{
		TaskID:     env.Task.ID,
		Vendor:     NoVendor,
		Placements: []Placement{{Node: 0, Slot: 3}, {Node: 0, Slot: 5}},
	}
}

func TestNewTaskEnvSpeeds(t *testing.T) {
	env := testEnv(t, false)
	if len(env.Speed) != 3 {
		t.Fatalf("speed vector length %d, want 3", len(env.Speed))
	}
	if env.Speed[0] <= env.Speed[2] {
		t.Fatalf("A100 speed %d should beat A40 %d", env.Speed[0], env.Speed[2])
	}
	if env.Speed[0] != env.Speed[1] {
		t.Fatal("identical nodes should have identical speeds")
	}
	if len(env.Quotes) != 0 {
		t.Fatal("non-prep task got vendor quotes")
	}
}

func TestNewTaskEnvZeroesSpeedWhenMemoryDoesNotFit(t *testing.T) {
	env := testEnv(t, false)
	env.Task.MemGB = 60 // more than A40's 48 − r_b
	env2 := NewTaskEnv(env.Task, env.Cluster, lora.GPT2Small(), nil)
	if env2.Speed[2] != 0 {
		t.Fatal("A40 speed should be zeroed for an over-memory task")
	}
	if env2.Speed[0] == 0 {
		t.Fatal("A100 should still host the task")
	}
}

func TestNewTaskEnvQuotesForPrepTask(t *testing.T) {
	env := testEnv(t, true)
	if len(env.Quotes) != 3 {
		t.Fatalf("prep task got %d quotes, want 3", len(env.Quotes))
	}
}

func TestScheduleAccounting(t *testing.T) {
	env := testEnv(t, false)
	s := planFor(env)
	wantWork := 2 * env.Speed[0]
	if got := s.TotalWork(env); got != wantWork {
		t.Fatalf("TotalWork = %d, want %d", got, wantWork)
	}
	if got := s.TotalMem(env); got != 10 {
		t.Fatalf("TotalMem = %v, want 10", got)
	}
	wantEnergy := env.Cluster.EnergyCost(0, 3, env.Speed[0]) + env.Cluster.EnergyCost(0, 5, env.Speed[0])
	if got := s.EnergyCost(env); math.Abs(got-wantEnergy) > 1e-12 {
		t.Fatalf("EnergyCost = %v, want %v", got, wantEnergy)
	}
	if got := s.WelfareIncrement(env); math.Abs(got-(70-wantEnergy)) > 1e-12 {
		t.Fatalf("WelfareIncrement = %v", got)
	}
	wantNorm := (70 - wantEnergy) / (float64(wantWork) + 10)
	if got := s.NormalizedWelfare(env); math.Abs(got-wantNorm) > 1e-12 {
		t.Fatalf("NormalizedWelfare = %v, want %v", got, wantNorm)
	}
}

func TestNormalizedWelfareEmptyPlan(t *testing.T) {
	env := testEnv(t, false)
	s := &Schedule{TaskID: 0, Vendor: NoVendor}
	if got := s.NormalizedWelfare(env); got != 0 {
		t.Fatalf("empty plan normalized welfare = %v, want 0", got)
	}
}

func TestValidateAcceptsGoodPlan(t *testing.T) {
	env := testEnv(t, false)
	if err := planFor(env).Validate(env); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestValidateConstraints(t *testing.T) {
	cases := []struct {
		name string
		prep bool
		mut  func(env *TaskEnv, s *Schedule)
		want string
	}{
		{"wrong task id", false, func(env *TaskEnv, s *Schedule) { s.TaskID = 9 }, "task ID"},
		{"missing vendor for prep task", true, func(env *TaskEnv, s *Schedule) { s.Vendor = NoVendor }, "no vendor"},
		{"vendor on non-prep task", false, func(env *TaskEnv, s *Schedule) { s.Vendor = 1 }, "no pre-processing"},
		{"empty plan", false, func(env *TaskEnv, s *Schedule) { s.Placements = nil }, "no placements"},
		{"unsorted", false, func(env *TaskEnv, s *Schedule) {
			s.Placements = []Placement{{0, 5}, {0, 3}}
		}, "not sorted"},
		{"two nodes one slot", false, func(env *TaskEnv, s *Schedule) {
			s.Placements = []Placement{{0, 3}, {1, 3}}
		}, "two nodes"},
		{"before arrival", false, func(env *TaskEnv, s *Schedule) {
			s.Placements = []Placement{{0, 1}, {0, 3}}
		}, "outside window"},
		{"after deadline", false, func(env *TaskEnv, s *Schedule) {
			s.Placements = []Placement{{0, 3}, {0, 16}}
		}, "outside window"},
		{"unknown node", false, func(env *TaskEnv, s *Schedule) {
			s.Placements = []Placement{{7, 3}, {7, 4}}
		}, "unknown node"},
		{"insufficient work", false, func(env *TaskEnv, s *Schedule) {
			s.Placements = s.Placements[:1]
		}, "units"},
	}
	for _, c := range cases {
		env := testEnv(t, c.prep)
		s := planFor(env)
		if c.prep {
			s.Vendor = 0
			s.VendorPrice = env.Quotes[0].Price
			s.VendorDelay = env.Quotes[0].DelaySlots
			// keep the window valid for the prep delay
			for i := range s.Placements {
				s.Placements[i].Slot += env.Quotes[0].DelaySlots
			}
		}
		c.mut(env, s)
		err := s.Validate(env)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValidatePrepDelayShiftsWindow(t *testing.T) {
	env := testEnv(t, true)
	q := env.Quotes[0]
	s := &Schedule{
		TaskID: 0, Vendor: 0, VendorPrice: q.Price, VendorDelay: q.DelaySlots,
		Placements: []Placement{
			{Node: 0, Slot: int(env.Task.Arrival) + q.DelaySlots},
			{Node: 0, Slot: int(env.Task.Arrival) + q.DelaySlots + 1},
		},
	}
	if err := s.Validate(env); err != nil {
		t.Fatalf("prep plan rejected: %v", err)
	}
	// Starting during pre-processing violates (4c).
	s.Placements[0].Slot = int(env.Task.Arrival)
	if err := s.Validate(env); err == nil {
		t.Fatal("plan starting during pre-processing accepted")
	}
}

func TestValidateRejectsZeroSpeedNode(t *testing.T) {
	env := testEnv(t, false)
	env.Speed[0] = 0
	s := planFor(env)
	if err := s.Validate(env); err == nil {
		t.Fatal("plan on zero-speed node accepted")
	}
}

func TestDecisionWelfare(t *testing.T) {
	d := &Decision{Admitted: true, VendorCost: 5, EnergyCost: 10}
	if got := d.Welfare(70); got != 55 {
		t.Fatalf("Welfare = %v, want 55", got)
	}
	d.Admitted = false
	if got := d.Welfare(70); got != 0 {
		t.Fatalf("rejected Welfare = %v, want 0", got)
	}
}

// TestRefillOwnsQuoteBuffer pins the ownership rule: env.Quotes is valid
// until the next Refill on that env. Refilling for a second task reuses
// the buffer (so whoever keeps the first task's quotes must have copied
// them), and a no-prep task after a prep task sees no quotes at all.
func TestRefillOwnsQuoteBuffer(t *testing.T) {
	env := testEnv(t, true)
	mkt, err := vendor.Standard(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := env.Quotes
	kept := append([]vendor.Quote(nil), first...)

	second := *env.Task
	second.ID = 1
	env.Refill(&second, env.Cluster, lora.GPT2Small(), mkt)
	if want := mkt.QuotesFor(1); !reflect.DeepEqual(env.Quotes, want) {
		t.Fatalf("second task's quotes %+v, want %+v", env.Quotes, want)
	}
	if &env.Quotes[0] != &first[0] {
		t.Fatal("Refill allocated a new quote buffer instead of reusing the env's")
	}
	if want := mkt.QuotesFor(0); !reflect.DeepEqual(kept, want) {
		t.Fatalf("copied quotes of the first task changed: %+v, want %+v", kept, want)
	}

	noPrep := second
	noPrep.ID, noPrep.NeedsPrep = 2, false
	env.Refill(&noPrep, env.Cluster, lora.GPT2Small(), mkt)
	if env.Quotes != nil {
		t.Fatalf("no-prep task after a prep task kept quotes: %+v", env.Quotes)
	}
}

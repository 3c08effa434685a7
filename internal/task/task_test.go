package task

import (
	"math"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

func validTask() Task {
	return Task{
		ID: 1, Arrival: 2, Deadline: 10, Work: 24, MemGB: 4.5, Batch: 16, Bid: 50,
	}
}

func TestValidateAccepts(t *testing.T) {
	h := timeslot.NewHorizon(20)
	tk := validTask()
	if err := tk.Validate(h); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	h := timeslot.NewHorizon(20)
	mutations := []struct {
		name string
		mut  func(*Task)
	}{
		{"negative id", func(t *Task) { t.ID = -1 }},
		{"arrival outside horizon", func(t *Task) { t.Arrival = 20 }},
		{"negative arrival", func(t *Task) { t.Arrival = -1 }},
		{"deadline before arrival", func(t *Task) { t.Deadline = 1 }},
		{"zero work", func(t *Task) { t.Work = 0 }},
		{"zero memory", func(t *Task) { t.MemGB = 0 }},
		{"negative bid", func(t *Task) { t.Bid = -1 }},
		{"model outside the catalog", func(t *Task) { t.ModelName = lora.Model(lora.NumModels) }},
		// None of these is < 0 or <= 0, which is all Validate used to ask.
		{"NaN bid", func(t *Task) { t.Bid = math.NaN() }},
		{"infinite bid", func(t *Task) { t.Bid = math.Inf(1) }},
		{"NaN memory", func(t *Task) { t.MemGB = math.NaN() }},
		{"infinite memory", func(t *Task) { t.MemGB = math.Inf(1) }},
	}
	for _, m := range mutations {
		tk := validTask()
		m.mut(&tk)
		if err := tk.Validate(h); err == nil {
			t.Errorf("%s: not rejected", m.name)
		}
	}
}

func TestDeadlineTooTightIsStillValid(t *testing.T) {
	// A task that cannot possibly finish is a scheduling concern, not a
	// validation error: the paper's mechanism must be able to receive and
	// reject such bids.
	h := timeslot.NewHorizon(20)
	tk := validTask()
	tk.Deadline = tk.Arrival // single-slot window, 24 units of work
	if err := tk.Validate(h); err != nil {
		t.Fatalf("tight-deadline task rejected at validation: %v", err)
	}
}

func TestExecWindow(t *testing.T) {
	h := timeslot.NewHorizon(20)
	tk := validTask() // arrival 2, deadline 10
	w := tk.ExecWindow(h, 0)
	if w.Start != 2 || w.End != 10 {
		t.Fatalf("no-prep window = %v, want [2,10]", w)
	}
	w = tk.ExecWindow(h, 3)
	if w.Start != 5 || w.End != 10 {
		t.Fatalf("prep-delayed window = %v, want [5,10]", w)
	}
	// A vendor slower than the deadline empties the window.
	if w := tk.ExecWindow(h, 9); w.Len() != 0 {
		t.Fatalf("too-slow prep should empty the window, got %v", w)
	}
	// Deadline beyond the horizon clips.
	tk.Deadline = 50
	if w := tk.ExecWindow(h, 0); w.End != 19 {
		t.Fatalf("window should clip to horizon, got %v", w)
	}
}

func TestStringMentionsPrep(t *testing.T) {
	tk := validTask()
	if strings.Contains(tk.String(), "prep") {
		t.Fatal("non-prep task string mentions prep")
	}
	tk.NeedsPrep = true
	if !strings.Contains(tk.String(), "prep") {
		t.Fatal("prep task string lacks prep marker")
	}
}

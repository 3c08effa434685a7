package trace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/timeslot"
)

func TestTasksRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RatePerSlot = 3
	tasks, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTasks(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTasks(&buf, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(got), len(tasks))
	}
	for i := range got {
		if got[i] != tasks[i] {
			t.Fatalf("task %d changed in round trip:\n%+v\n%+v", i, tasks[i], got[i])
		}
	}
}

func TestLoadTasksSortsByArrival(t *testing.T) {
	in := `[
	  {"ID":1,"Arrival":9,"Deadline":12,"Work":5,"MemGB":2,"Batch":8,"Bid":10},
	  {"ID":0,"Arrival":2,"Deadline":12,"Work":5,"MemGB":2,"Batch":8,"Bid":10}
	]`
	tasks, err := LoadTasks(strings.NewReader(in), timeslot.NewHorizon(20))
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].ID != 0 || tasks[1].ID != 1 {
		t.Fatalf("not sorted by arrival: %+v", tasks)
	}
}

func TestLoadTasksRejectsInvalid(t *testing.T) {
	cases := []string{
		`[{"ID":0,"Arrival":99,"Deadline":100,"Work":5,"MemGB":2,"Batch":8,"Bid":1}]`, // outside horizon
		`[{"ID":0,"Arrival":1,"Deadline":5,"Work":0,"MemGB":2,"Batch":8,"Bid":1}]`,    // zero work
		`[{"ID":0,"Arrival":1,"Deadline":5,"Work":5,"MemGB":2,"Batch":8,"Bid":1,"Bogus":3}]`,
		`[{"ID":0,"Arrival":1,"Deadline":5,"Work":5,"MemGB":2,"Batch":8,"Bid":1,"TrueValue":1}]`, // saved before Task lost its private value
		// Saved before Task lost its dataset size, epochs and rank: each key alone is refused.
		`[{"ID":0,"Arrival":1,"Deadline":5,"Work":5,"MemGB":2,"Batch":8,"Bid":1,"DatasetSamples":5000}]`,
		`[{"ID":0,"Arrival":1,"Deadline":5,"Work":5,"MemGB":2,"Batch":8,"Bid":1,"Epochs":1}]`,
		`[{"ID":0,"Arrival":1,"Deadline":5,"Work":5,"MemGB":2,"Batch":8,"Bid":1,"Rank":8}]`,
		`not json`,
	}
	for i, in := range cases {
		if _, err := LoadTasks(strings.NewReader(in), timeslot.NewHorizon(20)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

package schedule

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// FuzzValidate builds arbitrary plans from fuzz bytes and checks that
// Validate never panics and never accepts a plan violating the paper's
// constraints (re-verified independently here).
func FuzzValidate(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5})
	f.Add([]byte{1, 2, 1, 3, 0, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cl, err := cluster.New(cluster.Config{
			Horizon:     timeslot.NewHorizon(16),
			BaseModelGB: 2,
			Price:       gpu.FlatPrice(1),
		}, cluster.Uniform(2, gpu.A100, 86, 80))
		if err != nil {
			t.Fatal(err)
		}
		tk := &task.Task{
			ID: 0, Arrival: 2, Deadline: 12, Work: 30, MemGB: 5, Batch: 16, Bid: 60,
		}
		env := NewTaskEnv(tk, cl, lora.GPT2Small(), nil)
		s := &Schedule{TaskID: 0, Vendor: NoVendor}
		for i := 0; i+1 < len(data); i += 2 {
			s.Placements = append(s.Placements, Placement{
				Node: int(data[i] % 3),    // may be out of range (node 2)
				Slot: int(data[i+1] % 18), // may fall outside the window
			})
		}
		err = s.Validate(env)
		if err != nil {
			return // rejected plans need no further checks
		}
		// Accepted plans must truly satisfy (4b)-(4e).
		seen := map[int]bool{}
		work := 0
		for _, p := range s.Placements {
			if p.Node < 0 || p.Node >= cl.NumNodes() {
				t.Fatalf("accepted out-of-range node %d", p.Node)
			}
			if seen[p.Slot] {
				t.Fatalf("accepted duplicate slot %d", p.Slot)
			}
			seen[p.Slot] = true
			if p.Slot < int(tk.Arrival) || p.Slot > int(tk.Deadline) {
				t.Fatalf("accepted slot %d outside [%d,%d]", p.Slot, tk.Arrival, tk.Deadline)
			}
			work += env.Speed[p.Node]
		}
		if work < int(tk.Work) {
			t.Fatalf("accepted plan with %d < %d work", work, tk.Work)
		}
	})
}

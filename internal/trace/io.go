package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// SaveTasks writes a workload as indented JSON — the same format
// cmd/tracegen emits, replayable via LoadTasks.
func SaveTasks(w io.Writer, tasks []task.Task) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tasks); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	return nil
}

// LoadTasks reads a JSON workload, validates every task against the
// horizon, and sorts by arrival (stable on ID) so the result is directly
// runnable. Unknown fields are rejected to catch format drift: a file
// saved while Task still carried a TrueValue key is refused, not
// migrated (drop the key by hand; the generator always set it to Bid),
// and so is one saved while it carried DatasetSamples, Epochs and Rank
// (drop those three too: Work and MemGB already hold what they gave). A
// ModelName outside lora's catalog is refused as well.
func LoadTasks(r io.Reader, h timeslot.Horizon) ([]task.Task, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tasks []task.Task
	if err := dec.Decode(&tasks); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	for i := range tasks {
		if err := tasks[i].Validate(h); err != nil {
			return nil, fmt.Errorf("trace: load: %w", err)
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].Arrival != tasks[j].Arrival {
			return tasks[i].Arrival < tasks[j].Arrival
		}
		return tasks[i].ID < tasks[j].ID
	})
	return tasks, nil
}

package cluster

import "fmt"

// Snapshot is a serializable copy of the committed resource ledger — the
// primal state of Algorithm 1. Together with core.DualState it is the
// whole auction state a broker must persist to resume mid-horizon. It
// carries no node marks (down, elastic, leased): a served broker's
// capacity is fixed.
type Snapshot struct {
	// UsedWork[k][t] mirrors the committed work units per cell.
	UsedWork [][]int `json:"used_work"`
	// UsedMem[k][t] mirrors the committed task memory per cell.
	UsedMem [][]float64 `json:"used_mem"`
	// TasksOn[k][t] mirrors the committed task-slot count per cell.
	TasksOn [][]int `json:"tasks_on"`
}

// Snapshot deep-copies the ledger.
func (c *Cluster) Snapshot() Snapshot {
	K := len(c.nodes)
	s := Snapshot{
		UsedWork: make([][]int, K),
		UsedMem:  make([][]float64, K),
		TasksOn:  make([][]int, K),
	}
	for k := 0; k < K; k++ {
		s.UsedWork[k] = append([]int(nil), c.usedWork[k]...)
		s.UsedMem[k] = append([]float64(nil), c.usedMem[k]...)
		s.TasksOn[k] = append([]int(nil), c.tasksOn[k]...)
	}
	return s
}

// Restore overwrites the ledger with a snapshot taken from a cluster of
// identical shape; node marks are left as they are. Dimensions are
// checked so a checkpoint cannot be replayed into a differently sized
// deployment.
func (c *Cluster) Restore(s Snapshot) error {
	K, T := len(c.nodes), c.horizon.T
	if len(s.UsedWork) != K || len(s.UsedMem) != K || len(s.TasksOn) != K {
		return fmt.Errorf("cluster: snapshot covers %d nodes, cluster has %d", len(s.UsedWork), K)
	}
	for k := 0; k < K; k++ {
		if len(s.UsedWork[k]) != T || len(s.UsedMem[k]) != T || len(s.TasksOn[k]) != T {
			return fmt.Errorf("cluster: snapshot node %d covers %d slots, horizon has %d",
				k, len(s.UsedWork[k]), T)
		}
	}
	for k := 0; k < K; k++ {
		copy(c.usedWork[k], s.UsedWork[k])
		copy(c.usedMem[k], s.UsedMem[k])
		copy(c.tasksOn[k], s.TasksOn[k])
	}
	// Restoring can re-open previously saturated cells.
	c.gen++
	return nil
}

package core

import "fmt"

// DualState is a serializable snapshot of the scheduler's dual prices —
// everything Algorithm 1 carries between bids besides the cluster ledger.
// JSON round-trips float64 values exactly (encoding/json emits the
// shortest representation that parses back to the same bits), so a
// restored scheduler prices subsequent bids bit-identically.
type DualState struct {
	// Lambda[k][t] is λ_kt, the compute shadow price.
	Lambda [][]float64 `json:"lambda"`
	// Phi[k][t] is φ_kt, the memory shadow price.
	Phi [][]float64 `json:"phi"`
}

// SnapshotDuals deep-copies the current dual prices. Call it only between
// Offer calls (the scheduler is single-threaded by the online model).
func (s *Scheduler) SnapshotDuals() DualState {
	K := len(s.lambda)
	ds := DualState{
		Lambda: make([][]float64, K),
		Phi:    make([][]float64, K),
	}
	for k := 0; k < K; k++ {
		ds.Lambda[k] = append([]float64(nil), s.lambda[k]...)
		ds.Phi[k] = append([]float64(nil), s.phi[k]...)
	}
	return ds
}

// RestoreDuals overwrites the scheduler's dual prices with a snapshot
// taken from a scheduler of identical cluster shape. It rejects
// mismatched dimensions so a checkpoint cannot be replayed into the
// wrong deployment.
func (s *Scheduler) RestoreDuals(ds DualState) error {
	K, T := s.cl.NumNodes(), s.cl.Horizon().T
	if len(ds.Lambda) != K || len(ds.Phi) != K {
		return fmt.Errorf("core: dual snapshot covers %d/%d nodes, scheduler has %d",
			len(ds.Lambda), len(ds.Phi), K)
	}
	for k := 0; k < K; k++ {
		if len(ds.Lambda[k]) != T || len(ds.Phi[k]) != T {
			return fmt.Errorf("core: dual snapshot node %d covers %d/%d slots, horizon has %d",
				k, len(ds.Lambda[k]), len(ds.Phi[k]), T)
		}
	}
	for k := 0; k < K; k++ {
		copy(s.lambda[k], ds.Lambda[k])
		copy(s.phi[k], ds.Phi[k])
	}
	return nil
}

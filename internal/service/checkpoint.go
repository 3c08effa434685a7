package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// checkpointVersion guards against restoring a snapshot written by an
// incompatible broker. v2 made the decision section an ordered list
// (decisions.go) and stopped carrying per-bid offer latencies.
const checkpointVersion = 2

// Checkpoint is the broker's full persisted auction state. Every number
// in it round-trips bit-exactly through encoding/json (Go prints the
// shortest float64 representation that re-parses to the same bits), so a
// restore resumes with byte-identical duals and ledger — the property
// the kill/restore tests assert.
//
// Held (undecided) bids are not part of the checkpoint: their slots have
// not closed, so no auction state depends on them, and their submitters'
// response channels cannot survive a process death anyway. Their
// durability lives in the write-ahead journal instead (Options.WALPath,
// wal.go): RecoverWAL re-holds every acked-but-undecided bid after
// Restore, so no resubmission is needed. Without a journal configured,
// the pre-WAL contract applies — clients that see ErrDraining/ErrClosed
// resubmit after restart.
type Checkpoint struct {
	Version   int    `json:"version"`
	RunLabel  string `json:"run"`
	Scheduler string `json:"scheduler"`
	// Slot is the next slot to accept bids (everything before it has
	// closed).
	Slot   int `json:"slot"`
	NextID int `json:"next_id"`
	// Nodes and Slots pin the cluster shape the snapshot belongs to.
	Nodes int `json:"nodes"`
	Slots int `json:"slots"`
	// Duals is λ/φ for dual-price schedulers; nil for baselines.
	Duals *core.DualState `json:"duals,omitempty"`
	// Ledger is the cluster's committed work/memory state.
	Ledger cluster.Snapshot `json:"ledger"`
	// Result is the run accounting so far.
	Result *sim.Result `json:"result"`
	// Decisions is every irrevocable outcome, in decision order.
	Decisions *decisionStore `json:"decisions"`
	Canceled  int            `json:"canceled"`
	// ProcIdx is the number of bids offered so far — the fault tracker's
	// offer-order index stream.
	ProcIdx int `json:"proc_idx,omitempty"`
	// Failures is the fault tracker's progress (applied outages, live
	// committed plans); nil when the broker has no fault plan.
	Failures *sim.FailureTrackerState `json:"failures,omitempty"`
	// Spot is the spot provider's progress (trace cursor, budget spent,
	// live leases); nil when no spot tier is attached. The cluster's
	// lease map itself rides in Ledger.
	Spot *sim.SpotState `json:"spot,omitempty"`
}

// snapshot captures the broker's state; core-goroutine only.
func (b *Broker) snapshot() *Checkpoint {
	ck := &Checkpoint{
		Version:   checkpointVersion,
		RunLabel:  b.opts.RunLabel,
		Scheduler: b.sched.Name(),
		Slot:      b.slot,
		NextID:    b.nextID,
		Nodes:     b.cl.NumNodes(),
		Slots:     b.horizon.T,
		Ledger:    b.cl.Snapshot(),
		Result:    b.eng.Result(),
		Decisions: b.decisions,
		Canceled:  b.canceled,
		ProcIdx:   b.eng.Offered(),
		Failures:  b.eng.FaultState(),
		Spot:      b.eng.SpotState(),
	}
	if dc, ok := b.sched.(DualCheckpointer); ok {
		ds := dc.SnapshotDuals()
		ck.Duals = &ds
	}
	return ck
}

// WriteCheckpoint marshals ck and durably replaces path with it.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("service: marshal checkpoint: %w", err)
	}
	return writeFile(osFS{}, path, nil, data)
}

// ReadCheckpoint loads a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	ck, _, err := readCheckpoint(path)
	return ck, err
}

// readCheckpoint also returns the file's bytes, which a delta sidecar is
// keyed to.
func readCheckpoint(path string) (*Checkpoint, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("service: read checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, nil, fmt.Errorf("service: parse checkpoint %s: %w", path, err)
	}
	if ck.Decisions == nil {
		ck.Decisions = newDecisionStore()
	}
	if err := ck.checkShape(); err != nil {
		return nil, nil, fmt.Errorf("service: checkpoint %s: %w", path, err)
	}
	return &ck, data, nil
}

// checkShape refuses a snapshot with a plane that is not Nodes × Slots.
// A delta record indexes its cells against Slots, so one short row would
// panic the replay; Down, Leased and the duals may be absent, not misshapen.
func (ck *Checkpoint) checkShape() error {
	K, T := ck.Nodes, ck.Slots
	led := &ck.Ledger
	err := errors.Join(
		checkPlane("used_work", led.UsedWork, K, T, false),
		checkPlane("used_mem", led.UsedMem, K, T, false),
		checkPlane("tasks_on", led.TasksOn, K, T, false),
		checkPlane("down", led.Down, K, T, true),
		checkPlane("leased", led.Leased, K, T, true),
	)
	if ck.Duals != nil {
		err = errors.Join(err,
			checkPlane("lambda", ck.Duals.Lambda, K, T, false),
			checkPlane("phi", ck.Duals.Phi, K, T, false))
	}
	return err
}

// checkPlane checks one [k][t] plane against a K × T shape.
func checkPlane[E any](name string, p [][]E, K, T int, optional bool) error {
	if optional && p == nil {
		return nil
	}
	if len(p) != K {
		return fmt.Errorf("%s has %d rows, want %d", name, len(p), K)
	}
	for k, row := range p {
		if len(row) != T {
			return fmt.Errorf("%s row %d has %d slots, want %d", name, k, len(row), T)
		}
	}
	return nil
}

// Restore loads ck into the broker — duals into the scheduler, ledger
// into the cluster, accounting and decided bids (copied) into the broker
// — and positions the clock at ck.Slot. It must run before Start, on a
// broker whose cluster and scheduler were built fresh with the same
// configuration as the run being resumed.
func (b *Broker) Restore(ck *Checkpoint) error {
	if b.started {
		return ErrStarted
	}
	if ck.Version != checkpointVersion {
		return fmt.Errorf("service: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Scheduler != b.sched.Name() {
		return fmt.Errorf("service: checkpoint from scheduler %q, broker runs %q", ck.Scheduler, b.sched.Name())
	}
	if ck.Nodes != b.cl.NumNodes() || ck.Slots != b.horizon.T {
		return fmt.Errorf("service: checkpoint shape %d nodes × %d slots, cluster is %d × %d",
			ck.Nodes, ck.Slots, b.cl.NumNodes(), b.horizon.T)
	}
	if ck.Slot < 0 || ck.Slot > b.horizon.T {
		return fmt.Errorf("service: checkpoint slot %d outside horizon [0,%d]", ck.Slot, b.horizon.T)
	}
	if ck.Duals != nil {
		dc, ok := b.sched.(DualCheckpointer)
		if !ok {
			return fmt.Errorf("service: checkpoint carries duals but scheduler %q cannot restore them", b.sched.Name())
		}
		if err := dc.RestoreDuals(*ck.Duals); err != nil {
			return err
		}
	}
	if err := b.cl.Restore(ck.Ledger); err != nil {
		return err
	}
	b.slot = ck.Slot
	b.nextID = ck.NextID
	b.canceled = ck.Canceled
	// A copy: ck stays whole for its caller to write again.
	b.decisions = newDecisionStore()
	if ck.Decisions != nil {
		b.decisions = ck.Decisions.clone()
	}
	if err := b.eng.Restore(ck.Result, ck.ProcIdx, ck.Failures, ck.Spot); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	b.ckptSlot = ck.Slot
	return nil
}

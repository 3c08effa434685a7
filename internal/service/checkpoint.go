package service

import (
	"bytes"
	"fmt"
	"os"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// checkpointVersion guards against restoring a snapshot written by an
// incompatible broker. v2 made the decision section an ordered list and
// stopped carrying per-bid offer latencies; v3 wrote that list as the
// delta sidecar's decision records; v4 is no longer JSON but the
// sidecar's framing around one delta record (encodeSnapshot); v5 dropped
// what a served broker's fixed capacity never has: the header's Down,
// Leased and Elastic planes and marks, and the record's tracker and spot
// state (delta v6).
const checkpointVersion = 5

// Checkpoint is the broker's full persisted auction state. Its file
// carries every float as its raw bits, so a restore resumes with
// byte-identical duals and ledger — the property the kill/restore tests
// assert.
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
	Version   int
	RunLabel  string
	Scheduler string
	// Slot is the next slot to accept bids (everything before it has
	// closed).
	Slot   int
	NextID int
	// Nodes and Slots pin the cluster shape the snapshot belongs to.
	Nodes int
	Slots int
	// Duals is λ/φ for dual-price schedulers; nil for baselines.
	Duals *core.DualState
	// Ledger is the cluster's committed work/memory state.
	Ledger cluster.Snapshot
	// Result is the run accounting so far.
	Result *sim.Result
	// Decisions is every irrevocable outcome, in decision order.
	Decisions *decision.Store
	Canceled  int
	// ProcIdx is the number of bids offered so far — the engine's
	// offer-order index stream.
	ProcIdx int
}

// snapshot captures the broker's state, the one capture both a full
// snapshot and a delta record are encoded from; core-goroutine only.
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
	}
	if dc, ok := b.sched.(DualCheckpointer); ok {
		ds := dc.SnapshotDuals()
		ck.Duals = &ds
	}
	return ck
}

// snapshotMagic opens every full snapshot file.
var snapshotMagic = []byte("PDFTSPC\x01")

// encodeSnapshot encodes ck as a full snapshot in the delta sidecar's
// framing: magic, version, then two CRC frames — a header naming the run
// and the shape (RunLabel, Scheduler, Nodes, Slots, whether the duals
// exist) and one record, the delta encoder's diff of ck against nothing,
// which writes every cell. It also returns the shadows the first delta
// after it diffs against.
func encodeSnapshot(ck *Checkpoint) ([]byte, deltaShadows) {
	hdr := decision.AppendStr(decision.AppendStr(nil, ck.RunLabel), ck.Scheduler)
	hdr = decision.AppendInt(decision.AppendInt(hdr, ck.Nodes), ck.Slots)
	hdr = decision.AppendBool(hdr, ck.Duals != nil)
	// One presized buffer (grown into from nil, it would be allocated several
	// times over): the record goes in behind room for its frame head.
	size := 64 + len(hdr) + ck.Nodes*ck.Slots*36 // a ledger cell takes ~14 B, its λ and φ ~22
	if ck.Decisions != nil {
		size += ck.Decisions.EncodedLen()
	}
	data := decision.AppendU64(append(make([]byte, 0, size), snapshotMagic...), uint64(ck.Version))
	data = decision.AppendFrame(data, hdr)
	at := len(data) + decision.MaxFrameHead
	rec, cur := appendRecord(data[at:at], ck, &deltaShadows{}, 0)
	return decision.AppendFrame(data, rec), cur // in place while rec is still in data's array
}

// WriteCheckpoint encodes ck and durably replaces path with it. A plane
// that is not Nodes rows of Slots cells is refused: the record keys a cell
// by its row's own length, so the file would read back with its cells
// moved. So is a ledger with Down, Leased or Elastic marks, which a
// served broker's fixed capacity never has and the file cannot carry.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	led, K, T := &ck.Ledger, ck.Nodes, ck.Slots
	if led.Down != nil || led.Leased != nil || led.Elastic != nil {
		return fmt.Errorf("service: write %s: a checkpoint carries no down, leased or elastic marks", path)
	}
	if !shaped(led.UsedWork, K, T) || !shaped(led.UsedMem, K, T) || !shaped(led.TasksOn, K, T) ||
		ck.Duals != nil && (!shaped(ck.Duals.Lambda, K, T) || !shaped(ck.Duals.Phi, K, T)) {
		return fmt.Errorf("service: write %s: a plane is not %d nodes × %d slots", path, K, T)
	}
	data, _ := encodeSnapshot(ck)
	return writeFile(osFS{}, path, data)
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
	ck, err := readSnapshot(data)
	if err != nil {
		return nil, nil, fmt.Errorf("service: checkpoint %s: %w", path, err)
	}
	return ck, data, nil
}

// readSnapshot decodes encodeSnapshot's bytes through the sidecar's
// reader: the header allocates the zero state of its shape, and
// applyDeltaRecord folds the one record into it. replaceFile wrote the
// file whole, so anything short of magic, version, header and record,
// and anything after the record, is an error, never an empty state; a
// JSON snapshot (v3 and before) is refused with ErrFormatVersion, and a
// fleet's manifest, JSON too, is named as one.
func readSnapshot(data []byte) (*Checkpoint, error) {
	if bytes.HasPrefix(data, []byte(`{"version":`)) {
		return nil, refuseJSON(data)
	}
	var ck *Checkpoint
	records := 0
	rest, err := decision.FramedPrefix(data, snapshotMagic, checkpointVersion, func(*decision.Reader) bool { return true },
		func(payload []byte) (err error) {
			if ck == nil {
				ck, err = readSnapshotHeader(payload, len(data))
				return err
			}
			records++
			return applyDeltaRecord(ck, payload)
		})
	if err == nil && (records != 1 || rest != 0) {
		err = fmt.Errorf("not a snapshot, or no intact header and one record alone: %d records, %d bytes after them", records, rest)
	}
	return ck, err
}

// readSnapshotHeader reads a snapshot header and allocates the zero state
// of its shape, for the base record to fill. Nothing is sized by a claim:
// the base record writes every cell, so a shape whose cells cannot fit in
// the file's size bytes is refused before anything is allocated (a row
// of no cells is counted as one: its header still costs memory).
func readSnapshotHeader(payload []byte, size int) (*Checkpoint, error) {
	r := &decision.Reader{B: payload}
	ck := &Checkpoint{Version: checkpointVersion, RunLabel: r.Str(), Scheduler: r.Str(),
		Nodes: r.Int(), Slots: r.Int(), Decisions: new(decision.Store)}
	ck.Result = sim.NewResult(ck.Scheduler)
	duals := r.Bool()
	// A ledger cell takes at least 11 bytes (key, work, memory bits, task
	// count), its λ and φ each a key and bits more.
	K, T, cell := ck.Nodes, ck.Slots, 11
	if duals {
		cell += 18
	}
	if r.Err != nil || K < 0 || T < 0 || T > size || K > size/(cell*max(T, 1)) {
		return nil, fmt.Errorf("snapshot header claims %d nodes × %d slots in %d bytes (err %v)", K, T, size, r.Err)
	}
	led := &ck.Ledger
	led.UsedWork, led.UsedMem, led.TasksOn = plane[int](K, T), plane[float64](K, T), plane[int](K, T)
	if duals {
		ck.Duals = &core.DualState{Lambda: plane[float64](K, T), Phi: plane[float64](K, T)}
	}
	if r.Err != nil || len(r.B) != 0 {
		return nil, fmt.Errorf("snapshot header: %d bytes left (err %v)", len(r.B), r.Err)
	}
	return ck, nil
}

// shaped reports whether p is K rows of T cells.
func shaped[E any](p [][]E, K, T int) bool {
	ok := len(p) == K
	for _, row := range p {
		ok = ok && len(row) == T
	}
	return ok
}

// plane allocates a zero K × T plane, its rows cut from one array.
func plane[E any](K, T int) [][]E {
	cells, rows := make([]E, K*T), make([][]E, K)
	for k := range rows {
		rows[k] = cells[k*T : (k+1)*T : (k+1)*T]
	}
	return rows
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
		return fmt.Errorf("%w: checkpoint version %d, want %d", ErrFormatVersion, ck.Version, checkpointVersion)
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
	// A copy: ck stays whole for its caller to write again. The copy is
	// not on disk until the next (full) checkpoint writes it.
	b.decisions, b.saved = new(decision.Store), 0
	if ck.Decisions != nil {
		b.decisions = ck.Decisions.Clone()
	}
	b.eng.Restore(ck.Result, ck.ProcIdx)
	b.ckptSlot = ck.Slot
	return nil
}

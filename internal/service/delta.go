package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"slices"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// Incremental checkpointing. With Options.CheckpointFullEvery > 1 the
// broker writes the full snapshot only at interval boundaries and
// appends one binary delta per checkpointed slot in between, to a
// ".delta" sidecar next to the checkpoint file. A delta carries only
// what changed since the previous successful persist: new decisions,
// touched dual and ledger cells and the accounting scalars —
// a few hundred bytes against the megabytes a full snapshot of a long
// horizon re-serializes every slot. A full snapshot is the same kind of
// record diffed against nothing (checkpoint.go), so one encoder writes
// both and applyDeltaRecord reads both.
//
// Crash safety is structural rather than atomic: the sidecar is
// append-only, every record is CRC-framed, and LoadCheckpoint replays
// only the valid prefix (the framing and the reader are the journal's
// too; both use durable.go) — a record half-written at crash time (or a
// corrupted tail) is detected by its length/CRC and everything after it
// is discarded, falling back to the state as of the last intact record
// (or the full snapshot alone if none survive). The header pins the
// CRC of the exact full-snapshot bytes the chain extends, so a stale
// sidecar left behind by an older run can never be applied to a newer
// snapshot.
//
// The broker diffs against in-memory shadow copies that advance as records
// are staged; a write that fails after staging breaks the chain and the
// next checkpoint restates everything as a full snapshot (ckptwriter.go).

// deltaVersion guards the sidecar record layout. v2 added the spot-tier
// accounting scalars, the lease plane of ledger cells, and the spot
// provider state block; v3 packed the decision records behind a flags
// byte, dropped the per-bid offer latencies, and closes its decision and
// cell lists with an end marker instead of counting them first; v4
// dropped the two micro-training losses from the accounting scalars; v5
// writes a reject reason as its one-byte code (schedule.RejectReason), in
// a decision and in the tally, instead of a length-prefixed name; v6
// dropped the down and lease marks of a ledger cell and the tracker and
// spot state behind the cells, which a served broker's fixed capacity
// never has.
const deltaVersion = 6

// deltaMagic opens every sidecar file.
var deltaMagic = []byte("PDFTSPD\x01")

// DeltaPath returns the delta-sidecar path for a checkpoint path.
func DeltaPath(path string) string { return path + ".delta" }

// deltaShadows is the persisted state the next record is diffed against.
// The zero value is nothing, which a full snapshot's record diffs against.
type deltaShadows struct {
	duals  *core.DualState
	ledger cluster.Snapshot
}

// deltaWriter holds the shadows, advanced as records are staged (see
// ckptwriter.go), and the scratch a record is built in.
type deltaWriter struct {
	deltaShadows
	buf []byte // the framed record, its payload built behind room for its head; reused across slots
}

// sidecarHeader builds the delta-sidecar header pinning the chain to
// the full snapshot whose serialized bytes hash to baseCRC.
func sidecarHeader(b *Broker, baseCRC uint32) []byte {
	hdr := append([]byte(nil), deltaMagic...)
	hdr = decision.AppendU64(hdr, deltaVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, baseCRC)
	hdr = decision.AppendInt(hdr, b.slot)
	hdr = decision.AppendStr(hdr, b.opts.RunLabel)
	return hdr
}

// appendRecord appends ck as one record payload: its clock and
// accounting, the decision records a chain saved up to lacks (every one
// from saved on), and every dual and ledger cell that differs from prev —
// all of them against the zero shadows. It returns the shadows of the
// state it carried.
func appendRecord(p []byte, ck *Checkpoint, prev *deltaShadows, saved int) ([]byte, deltaShadows) {
	p = decision.AppendInt(p, ck.Slot)
	p = decision.AppendInt(p, ck.NextID)
	p = decision.AppendInt(p, ck.Canceled)
	p = decision.AppendInt(p, ck.ProcIdx)
	res := ck.Result
	if res == nil {
		res = new(sim.Result)
	}
	ints, floats := resultScalars(res)
	for _, v := range ints {
		p = decision.AppendInt(p, *v)
	}
	for _, v := range floats {
		p = decision.AppendF64(p, *v)
	}

	// In code order, so one state is one byte string (a map ranges in a
	// different order each time). The array keeps the handful of reasons
	// on the stack.
	var reasonBuf [8]schedule.RejectReason
	reasons := reasonBuf[:0]
	for reason := range res.RejectReasons {
		reasons = append(reasons, reason)
	}
	slices.Sort(reasons)
	p = decision.AppendU64(p, uint64(len(reasons)))
	for _, reason := range reasons {
		p = append(p, byte(reason))
		p = decision.AppendInt(p, res.RejectReasons[reason])
	}

	// Replay appends the new decisions in this order.
	if s := ck.Decisions; s != nil {
		p = s.AppendFrom(p, saved)
	}
	p = append(p, decision.End)

	// Dual and ledger cells that moved.
	cur := deltaShadows{duals: ck.Duals, ledger: ck.Ledger}
	p = decision.AppendBool(p, cur.duals != nil)
	if cur.duals != nil {
		p = appendDualDiff(p, prev.duals, cur.duals)
	}
	return appendLedgerDiff(p, &prev.ledger, &cur.ledger), cur
}

// resultScalars lists the accounting fields a delta restates, in wire
// order. The capacity-loss and spot fields are zero on a served broker
// and cost a byte each; sim.Result has them for sim.Run.
func resultScalars(r *sim.Result) ([]*int, []*float64) {
	return []*int{
			&r.Admitted, &r.Rejected, &r.FailuresInjected, &r.RecoveredTasks, &r.FailedTasks,
			&r.SpotLeases, &r.SpotLeasedSlots, &r.SpotRevocations,
		}, []*float64{
			&r.Welfare, &r.Revenue, &r.VendorSpend, &r.EnergySpend, &r.Utilization,
			&r.RefundedValue, &r.SpotSpend,
		}
}

// appendDualDiff emits (1+cell, value) pairs for every λ/φ entry that
// differs between prev and cur, closed by a zero. Cells key as
// (k*T+t)*2 + which, which 0 for λ and 1 for φ.
func appendDualDiff(p []byte, prev, cur *core.DualState) []byte {
	for k := range cur.Lambda {
		T := len(cur.Lambda[k])
		for t := 0; t < T; t++ {
			if prev == nil || prev.Lambda[k][t] != cur.Lambda[k][t] {
				p = decision.AppendF64(decision.AppendU64(p, uint64(k*T+t)*2+1), cur.Lambda[k][t])
			}
			if prev == nil || prev.Phi[k][t] != cur.Phi[k][t] {
				p = decision.AppendF64(decision.AppendU64(p, uint64(k*T+t)*2+2), cur.Phi[k][t])
			}
		}
	}
	return append(p, 0)
}

// appendLedgerDiff emits a full cell record, keyed 1+cell, for every
// ledger cell with a committed quantity that changed — every cell when
// prev is empty — closed by a zero.
func appendLedgerDiff(p []byte, prev, cur *cluster.Snapshot) []byte {
	for k := range cur.UsedWork {
		T := len(cur.UsedWork[k])
		for t := 0; t < T; t++ {
			if prev.UsedWork != nil && prev.UsedWork[k][t] == cur.UsedWork[k][t] && prev.UsedMem[k][t] == cur.UsedMem[k][t] &&
				prev.TasksOn[k][t] == cur.TasksOn[k][t] {
				continue
			}
			p = decision.AppendU64(p, uint64(k*T+t)+1)
			p = decision.AppendInt(p, cur.UsedWork[k][t])
			p = decision.AppendF64(p, cur.UsedMem[k][t])
			p = decision.AppendInt(p, cur.TasksOn[k][t])
		}
	}
	return append(p, 0)
}

// LoadCheckpoint reads the checkpoint at path and, when a delta sidecar
// extends that exact snapshot, replays the valid prefix of per-slot
// deltas on top, returning the most recent consistent state. A missing
// sidecar, a sidecar keyed to different snapshot bytes, or a corrupted
// header all fall back to the full snapshot alone; a corrupted or
// truncated record discards itself and everything after it. A sidecar
// that extends this snapshot in another format version is refused with
// ErrFormatVersion, and a record whose CRC holds but that does not decode
// is an error too, as is a snapshot readCheckpoint refuses. Brokers
// running the default CheckpointFullEvery=1 never write deltas, so for
// them this is readCheckpoint with one extra stat.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck, data, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	side, err := os.ReadFile(DeltaPath(path))
	if err == nil {
		err = replayDeltas(ck, side, crc32.ChecksumIEEE(data))
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("service: delta sidecar %s: %w", DeltaPath(path), err)
	}
	return ck, nil
}

// replayDeltas replays the valid prefix of the sidecar's bytes onto ck in
// place. A record whose CRC passed but whose payload does not decode is
// format drift, not bitrot, and is surfaced.
func replayDeltas(ck *Checkpoint, data []byte, baseCRC uint32) error {
	_, err := decision.FramedPrefix(data, deltaMagic, deltaVersion, keyedTo(ck, baseCRC),
		func(payload []byte) error { return applyDeltaRecord(ck, payload) })
	return err
}

// keyedTo accepts a sidecar header that extends exactly ck, whose
// snapshot bytes hash to baseCRC — not a stale chain left behind by
// another snapshot.
func keyedTo(ck *Checkpoint, baseCRC uint32) func(*decision.Reader) bool {
	return func(r *decision.Reader) bool {
		crc := uint32(r.Byte()) | uint32(r.Byte())<<8 | uint32(r.Byte())<<16 | uint32(r.Byte())<<24
		return crc == baseCRC && r.Int() == ck.Slot && r.Str() == ck.RunLabel
	}
}

// splitCell resolves a wire cell index k*T+t against a plane of rows × T
// cells; the index is outside input, so it is range-checked unsigned.
func splitCell(idx uint64, T, rows int) (k, t int, ok bool) {
	if T <= 0 || idx/uint64(T) >= uint64(rows) {
		return 0, 0, false
	}
	return int(idx / uint64(T)), int(idx % uint64(T)), true
}

// applyDeltaRecord folds one decoded delta into ck.
func applyDeltaRecord(ck *Checkpoint, payload []byte) error {
	r := &decision.Reader{B: payload}
	ck.Slot = r.Int()
	ck.NextID = r.Int()
	ck.Canceled = r.Int()
	ck.ProcIdx = r.Int()
	res := ck.Result
	ints, floats := resultScalars(res)
	for _, v := range ints {
		*v = r.Int()
	}
	for _, v := range floats {
		*v = r.F64()
	}

	// Counts are claims until the bytes behind them decode: nothing below
	// sizes an allocation by one.
	nReasons := r.U64()
	if r.Err == nil {
		res.RejectReasons = map[schedule.RejectReason]int{}
		for i := uint64(0); i < nReasons && r.Err == nil; i++ {
			reason := decision.ReadReason(r)
			res.RejectReasons[reason] = r.Int()
		}
	}

	if _, err := ck.Decisions.ReadList(r); err != nil {
		return err
	}

	if r.Bool() { // dual diff present
		if ck.Duals == nil {
			return fmt.Errorf("service: delta carries duals but snapshot has none")
		}
		for key := r.U64(); key != 0 && r.Err == nil; key = r.U64() {
			v := r.F64()
			k, t, ok := splitCell((key-1)/2, ck.Slots, len(ck.Duals.Lambda))
			switch {
			case r.Err != nil:
			case !ok:
				return fmt.Errorf("service: delta dual cell %d outside snapshot shape", (key-1)/2)
			case key%2 == 1:
				ck.Duals.Lambda[k][t] = v
			default:
				ck.Duals.Phi[k][t] = v
			}
		}
	}

	led := &ck.Ledger
	for key := r.U64(); key != 0 && r.Err == nil; key = r.U64() {
		work, mem, on := r.Int(), r.F64(), r.Int()
		if r.Err != nil {
			break
		}
		k, t, ok := splitCell(key-1, ck.Slots, len(led.UsedWork))
		if !ok {
			return fmt.Errorf("service: delta ledger cell %d outside snapshot shape", key-1)
		}
		led.UsedWork[k][t], led.UsedMem[k][t], led.TasksOn[k][t] = work, mem, on
	}
	if r.Err == nil && len(r.B) != 0 {
		return fmt.Errorf("service: delta record: %d bytes after its ledger cells", len(r.B))
	}
	return r.Err
}

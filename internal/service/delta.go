package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"slices"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// Incremental checkpointing. With Options.CheckpointFullEvery > 1 the
// broker writes the full JSON snapshot only at interval boundaries and
// appends one binary delta per checkpointed slot in between, to a
// ".delta" sidecar next to the checkpoint file. A delta carries only
// what changed since the previous successful persist: new or flipped
// decisions, touched dual and ledger cells and the accounting scalars —
// a few hundred bytes against the megabytes a full snapshot of a long
// horizon re-serializes every slot.
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
// are staged. An injected fault (Options.CheckpointFault) stages nothing,
// so the next delta carries that slot's changes too; a write that fails
// after staging breaks the chain and the next checkpoint restates
// everything as a full snapshot (ckptwriter.go).

// deltaVersion guards the sidecar record layout. v2 added the spot-tier
// accounting scalars, the lease plane of ledger cells, and the spot
// provider state block; v3 packed the decision records behind a flags
// byte, dropped the per-bid offer latencies, and closes its decision and
// cell lists with an end marker instead of counting them first; v4
// dropped the two micro-training losses from the accounting scalars; v5
// writes a reject reason as its one-byte code (schedule.RejectReason), in
// a decision and in the tally, instead of a length-prefixed name.
const deltaVersion = 5

// deltaMagic opens every sidecar file.
var deltaMagic = []byte("PDFTSPD\x01")

// DeltaPath returns the delta-sidecar path for a checkpoint path.
func DeltaPath(path string) string { return path + ".delta" }

// deltaShadows is the persisted state the next delta is diffed against.
type deltaShadows struct {
	duals    *core.DualState
	ledger   cluster.Snapshot
	failJSON []byte
	spotJSON []byte
}

// deltaWriter holds the shadows, advanced as records are staged (see
// ckptwriter.go), and the scratch a record is built in.
type deltaWriter struct {
	deltaShadows
	buf   []byte // payload scratch, reused across slots
	frame []byte // the framed record: header, then the payload again
}

// sidecarHeader builds the delta-sidecar header pinning the chain to
// the full snapshot whose serialized bytes hash to baseCRC.
func sidecarHeader(b *Broker, baseCRC uint32) []byte {
	hdr := append([]byte(nil), deltaMagic...)
	hdr = appendU64(hdr, deltaVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, baseCRC)
	hdr = appendInt(hdr, b.slot)
	hdr = appendStr(hdr, b.opts.RunLabel)
	return hdr
}

// shadows captures the state a delta diffs: duals (nil for a scheduler
// without any), ledger, and the engine's tracker and spot-provider state
// as the sidecar carries them (nil for a part the run does not have).
func (b *Broker) shadows() deltaShadows {
	st := deltaShadows{ledger: b.cl.Snapshot()}
	if dc, ok := b.sched.(DualCheckpointer); ok {
		ds := dc.SnapshotDuals()
		st.duals = &ds
	}
	if fs := b.eng.FaultState(); fs != nil {
		st.failJSON, _ = json.Marshal(fs)
	}
	if ss := b.eng.SpotState(); ss != nil {
		st.spotJSON, _ = json.Marshal(ss)
	}
	return st
}

// buildDelta serializes one CRC-framed delta record (frame header plus
// payload, in the deltaWriter's reusable scratch) and re-bases the
// shadows on the state it carried. Core-goroutine only.
func (b *Broker) buildDelta() []byte {
	w := &b.deltas
	res := b.eng.Result()
	p := w.buf[:0]
	p = appendInt(p, b.slot)
	p = appendInt(p, b.nextID)
	p = appendInt(p, b.canceled)
	p = appendInt(p, b.eng.Offered())
	ints, floats := resultScalars(res)
	for _, v := range ints {
		p = appendInt(p, *v)
	}
	for _, v := range floats {
		p = appendF64(p, *v)
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
	p = appendU64(p, uint64(len(reasons)))
	for _, reason := range reasons {
		p = append(p, byte(reason))
		p = appendInt(p, res.RejectReasons[reason])
	}

	// Decisions the chain lacks; replay appends the new ones in this
	// order and rewrites a flipped one where it stands.
	p = append(b.decisions.appendUnsaved(p), decEnd)

	// Dual and ledger cells that moved since the last persist, then the
	// tracker and spot-provider state (applied outages and live plans;
	// trace cursor, budget spent, live leases), each only when it moved:
	// small, but fault-free runs should pay nothing for them.
	cur := b.shadows()
	p = appendBool(p, cur.duals != nil)
	if cur.duals != nil {
		p = appendDualDiff(p, w.duals, cur.duals)
	}
	p = appendLedgerDiff(p, &w.ledger, &cur.ledger)
	p = appendIfChanged(p, w.failJSON, cur.failJSON)
	p = appendIfChanged(p, w.spotJSON, cur.spotJSON)

	w.frame, w.buf, w.deltaShadows = appendFrame(w.frame[:0], p), p, cur
	return w.frame
}

// Flag bits of an encoded decision; the fields a flag guards are zero
// (nil, or TaskID == id) when it is clear. decEnd in a flags byte's place
// closes the list.
const (
	decAdmitted = 1 << iota
	decDualsUpdated
	decTaskID
	decMoney
	decSchedule
	decEnd = 0xff
)

// appendDecision encodes one decided bid. F rides as raw float bits, so
// the -Inf no-feasible-plan marker needs no side flag here.
func appendDecision(p []byte, id int, d *schedule.Decision) []byte {
	var flags byte
	if d.Admitted {
		flags |= decAdmitted
	}
	if d.DualsUpdated {
		flags |= decDualsUpdated
	}
	if d.TaskID != id {
		flags |= decTaskID
	}
	if d.Payment() != 0 || d.VendorCost() != 0 || d.EnergyCost() != 0 {
		flags |= decMoney
	}
	if d.Schedule != nil {
		flags |= decSchedule
	}
	p = append(p, flags)
	p = appendInt(p, id)
	p = appendF64(p, d.F)
	p = append(p, byte(d.Reason))
	if flags&decTaskID != 0 {
		p = appendInt(p, d.TaskID)
	}
	if flags&decMoney != 0 {
		p = appendF64(p, d.Payment())
		p = appendF64(p, d.VendorCost())
		p = appendF64(p, d.EnergyCost())
	}
	if d.Schedule != nil {
		p = appendSchedule(p, d.Schedule)
	}
	return p
}

// appendSchedule encodes a plan: a decision record's tail, and its form in the store.
func appendSchedule(p []byte, s *schedule.Schedule) []byte {
	p = appendInt(appendInt(p, s.TaskID), s.Vendor)
	p = appendInt(appendF64(p, s.VendorPrice), s.VendorDelay)
	p = appendU64(p, uint64(len(s.Placements)))
	for _, pl := range s.Placements {
		p = appendInt(appendInt(p, pl.Node), pl.Slot)
	}
	return p
}

func readDecision(r *binReader, flags byte, plan *schedule.Schedule) (int, schedule.Decision) {
	id := r.int()
	d := schedule.Decision{
		TaskID:       id,
		Admitted:     flags&decAdmitted != 0,
		DualsUpdated: flags&decDualsUpdated != 0,
		F:            r.f64(),
		Reason:       readReason(r),
	}
	if flags&decTaskID != 0 {
		d.TaskID = r.int()
	}
	if flags&decMoney != 0 {
		d.Terms = schedule.NewTerms(r.f64(), r.f64(), r.f64())
	}
	if flags&decSchedule != 0 {
		d.Schedule = readSchedule(r, plan)
	}
	return id, d
}

// readReason reads a one-byte reject reason. A code outside the set is
// corruption the CRC did not catch, or a newer writer: it fails the record.
func readReason(r *binReader) schedule.RejectReason {
	reason := schedule.RejectReason(r.byte())
	if !reason.Valid() && r.err == nil {
		r.err = fmt.Errorf("service: decode: unknown reject reason code %d", reason)
	}
	return reason
}

// readSchedule decodes appendSchedule's bytes into s, reusing its placement
// array, and returns s; no placements decode as nil, as finishPlan has them.
func readSchedule(r *binReader, s *schedule.Schedule) *schedule.Schedule {
	buf := s.Placements
	*s = schedule.Schedule{TaskID: r.int(), Vendor: r.int(), VendorPrice: r.f64(), VendorDelay: r.int()}
	// A placement is at least two bytes, so a count the rest of the
	// record cannot hold is a lie; refuse it before allocating.
	if n := r.u64(); n > uint64(len(r.b))/2 {
		r.fail("placements")
	} else if r.err == nil && n > 0 {
		s.Placements = slices.Grow(buf[:0], int(n))[:n]
		for i := range s.Placements {
			s.Placements[i] = schedule.Placement{Node: r.int(), Slot: r.int()}
		}
	}
	return s
}

// resultScalars lists the accounting fields a delta restates, in wire
// order.
func resultScalars(r *sim.Result) ([]*int, []*float64) {
	return []*int{
			&r.Admitted, &r.Rejected, &r.FailuresInjected, &r.RecoveredTasks, &r.FailedTasks,
			&r.SpotLeases, &r.SpotLeasedSlots, &r.SpotRevocations,
		}, []*float64{
			&r.Welfare, &r.Revenue, &r.VendorSpend, &r.EnergySpend, &r.Utilization,
			&r.RefundedValue, &r.SpotSpend,
		}
}

// appendIfChanged emits cur behind a presence byte when it differs from
// prev.
func appendIfChanged(p, prev, cur []byte) []byte {
	if string(cur) == string(prev) {
		return append(p, 0)
	}
	p = appendU64(append(p, 1), uint64(len(cur)))
	return append(p, cur...)
}

// appendDualDiff emits (1+cell, value) pairs for every λ/φ entry that
// differs between prev and cur, closed by a zero. Cells key as
// (k*T+t)*2 + which, which 0 for λ and 1 for φ.
func appendDualDiff(p []byte, prev, cur *core.DualState) []byte {
	for k := range cur.Lambda {
		T := len(cur.Lambda[k])
		for t := 0; t < T; t++ {
			if prev == nil || prev.Lambda[k][t] != cur.Lambda[k][t] {
				p = appendF64(appendU64(p, uint64(k*T+t)*2+1), cur.Lambda[k][t])
			}
			if prev == nil || prev.Phi[k][t] != cur.Phi[k][t] {
				p = appendF64(appendU64(p, uint64(k*T+t)*2+2), cur.Phi[k][t])
			}
		}
	}
	return append(p, 0)
}

// marked reads an optional plane of the ledger (Down, Leased): 0 when
// the run has none, else 1 (clear) / 2 (set), so replay knows whether to
// materialize the plane.
func marked(plane [][]bool, k, t int) byte {
	switch {
	case plane == nil:
		return 0
	case plane[k][t]:
		return 2
	}
	return 1
}

// appendLedgerDiff emits a full cell record, keyed 1+cell, for every
// ledger cell with a committed quantity that changed, closed by a zero.
func appendLedgerDiff(p []byte, prev, cur *cluster.Snapshot) []byte {
	for k := range cur.UsedWork {
		T := len(cur.UsedWork[k])
		for t := 0; t < T; t++ {
			down, leased := marked(cur.Down, k, t), marked(cur.Leased, k, t)
			if prev.UsedWork[k][t] == cur.UsedWork[k][t] && prev.UsedMem[k][t] == cur.UsedMem[k][t] &&
				prev.TasksOn[k][t] == cur.TasksOn[k][t] &&
				(marked(prev.Down, k, t) == 2) == (down == 2) && (marked(prev.Leased, k, t) == 2) == (leased == 2) {
				continue
			}
			p = appendU64(p, uint64(k*T+t)+1)
			p = appendInt(p, cur.UsedWork[k][t])
			p = appendF64(p, cur.UsedMem[k][t])
			p = appendInt(p, cur.TasksOn[k][t])
			p = append(p, down, leased)
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
// ErrFormatVersion. Brokers running the default CheckpointFullEvery=1
// never write deltas, so for them this is ReadCheckpoint with one extra
// stat.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck, data, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if err := applyDeltas(ck, DeltaPath(path), crc32.ChecksumIEEE(data)); err != nil {
		return nil, fmt.Errorf("service: delta sidecar %s: %w", DeltaPath(path), err)
	}
	return ck, nil
}

// applyDeltas replays the sidecar's valid prefix onto ck in place.
func applyDeltas(ck *Checkpoint, dpath string, baseCRC uint32) error {
	data, err := os.ReadFile(dpath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return replayDeltas(ck, data, baseCRC)
}

// replayDeltas is applyDeltas on the sidecar's bytes. A record whose CRC
// passed but whose payload does not decode is format drift, not bitrot,
// and is surfaced.
func replayDeltas(ck *Checkpoint, data []byte, baseCRC uint32) error {
	return framedPrefix(data, deltaMagic, deltaVersion, keyedTo(ck, baseCRC),
		func(payload []byte) error { return applyDeltaRecord(ck, payload) })
}

// keyedTo accepts a sidecar header that extends exactly ck, whose
// snapshot bytes hash to baseCRC — not a stale chain left behind by
// another snapshot.
func keyedTo(ck *Checkpoint, baseCRC uint32) func(*binReader) bool {
	return func(r *binReader) bool {
		crc := uint32(r.byte()) | uint32(r.byte())<<8 | uint32(r.byte())<<16 | uint32(r.byte())<<24
		return crc == baseCRC && r.int() == ck.Slot && r.str() == ck.RunLabel
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
	r := &binReader{b: payload}
	ck.Slot = r.int()
	ck.NextID = r.int()
	ck.Canceled = r.int()
	ck.ProcIdx = r.int()
	if ck.Result == nil {
		ck.Result = sim.NewResult(ck.Scheduler)
	}
	res := ck.Result
	ints, floats := resultScalars(res)
	for _, v := range ints {
		*v = r.int()
	}
	for _, v := range floats {
		*v = r.f64()
	}

	// Counts are claims until the bytes behind them decode: nothing below
	// sizes an allocation by one.
	nReasons := r.u64()
	if r.err == nil {
		res.RejectReasons = map[schedule.RejectReason]int{}
		for i := uint64(0); i < nReasons && r.err == nil; i++ {
			reason := readReason(r)
			res.RejectReasons[reason] = r.int()
		}
	}

	var plan schedule.Schedule // put copies each plan, so one decodes them all
	for flags := r.byte(); flags != decEnd && r.err == nil; flags = r.byte() {
		id, d := readDecision(r, flags, &plan)
		if r.err != nil {
			break
		}
		if err := ck.Decisions.put(id, &d); err != nil {
			return err
		}
	}

	if r.bool() { // dual diff present
		if ck.Duals == nil {
			return fmt.Errorf("service: delta carries duals but snapshot has none")
		}
		for key := r.u64(); key != 0 && r.err == nil; key = r.u64() {
			v := r.f64()
			k, t, ok := splitCell((key-1)/2, ck.Slots, len(ck.Duals.Lambda))
			switch {
			case r.err != nil:
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
	for key := r.u64(); key != 0 && r.err == nil; key = r.u64() {
		work, mem, on := r.int(), r.f64(), r.int()
		down, leased := r.byte(), r.byte()
		if r.err != nil {
			break
		}
		k, t, ok := splitCell(key-1, ck.Slots, len(led.UsedWork))
		if !ok {
			return fmt.Errorf("service: delta ledger cell %d outside snapshot shape", key-1)
		}
		led.UsedWork[k][t], led.UsedMem[k][t], led.TasksOn[k][t] = work, mem, on
		if down != 0 {
			if led.Down == nil {
				led.Down = make([][]bool, len(led.UsedWork))
				for kk := range led.Down {
					led.Down[kk] = make([]bool, len(led.UsedWork[kk]))
				}
			}
			led.Down[k][t] = down == 2
		}
		if leased != 0 {
			if led.Leased == nil {
				// The lease plane only exists alongside elastic marks, and
				// those are static from construction: a full snapshot missing
				// them cannot be extended by a lease-bearing delta.
				return fmt.Errorf("service: delta carries lease state but snapshot has none")
			}
			led.Leased[k][t] = leased == 2
		}
	}

	if r.bool() { // failure state replaced
		ck.Failures = new(sim.FailureTrackerState)
		if err := json.Unmarshal(r.bytes(), ck.Failures); r.err == nil && err != nil {
			return fmt.Errorf("service: delta failure state: %w", err)
		}
	}
	if r.bool() { // spot provider state replaced
		ck.Spot = new(sim.SpotState)
		if err := json.Unmarshal(r.bytes(), ck.Spot); r.err == nil && err != nil {
			return fmt.Errorf("service: delta spot state: %w", err)
		}
	}
	if r.err != nil {
		return r.err
	}
	return nil
}

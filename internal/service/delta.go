package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"sort"
	"time"

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
// decisions, touched dual and ledger cells, the accounting scalars, and
// the latency tail — a few hundred bytes against the megabytes a full
// snapshot of a long horizon re-serializes every slot.
//
// Crash safety is structural rather than atomic: the sidecar is
// append-only, every record is CRC-framed, and LoadCheckpoint replays
// only the valid prefix — a record half-written at crash time (or a
// corrupted tail) is detected by its length/CRC and everything after it
// is discarded, falling back to the state as of the last intact record
// (or the full snapshot alone if none survive). The header pins the
// CRC of the exact full-snapshot bytes the chain extends, so a stale
// sidecar left behind by an older run can never be applied to a newer
// snapshot.
//
// The broker diffs against in-memory shadow copies that advance only on
// successful writes, so a failed write (disk fault, chaos injection)
// leaves its changes pending and the next successful delta carries
// them — the same "no slot left behind" guarantee the full-snapshot
// path gets from rewriting everything.

// deltaVersion guards the sidecar record layout. v2 added the spot-tier
// accounting scalars, the lease plane of ledger cells, and the spot
// provider state block.
const deltaVersion = 2

// deltaMagic opens every sidecar file.
var deltaMagic = []byte("PDFTSPD\x01")

// DeltaPath returns the delta-sidecar path for a checkpoint path.
func DeltaPath(path string) string { return path + ".delta" }

// deltaWriter owns the open sidecar and the shadow state the next delta
// is diffed against.
type deltaWriter struct {
	path string
	f    *os.File
	buf  []byte // payload scratch, reused across slots
	head []byte // frame-header scratch

	// Shadows of the persisted state (advanced only on successful
	// writes).
	duals    *core.DualState
	ledger   cluster.Snapshot
	latLen   int
	failJSON []byte
	spotJSON []byte
}

func (w *deltaWriter) close() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// closeDeltas shuts the sidecar file handle; loop teardown calls it.
func (b *Broker) closeDeltas() {
	if b.deltas != nil {
		b.deltas.close()
		b.deltas = nil
	}
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

// resetDeltas starts a fresh delta chain extending the full snapshot
// whose serialized bytes hash to baseCRC, capturing the shadow state
// the first delta will diff against. Core-goroutine only.
func (b *Broker) resetDeltas(baseCRC uint32) error {
	b.closeDeltas()
	w := &deltaWriter{path: DeltaPath(b.opts.CheckpointPath)}
	f, err := os.Create(w.path)
	if err != nil {
		return fmt.Errorf("service: delta sidecar: %w", err)
	}
	if _, err := f.Write(sidecarHeader(b, baseCRC)); err != nil {
		f.Close()
		return fmt.Errorf("service: delta header: %w", err)
	}
	w.f = f
	w.captureShadows(b)
	b.deltas = w
	return nil
}

// captureShadows records the current state as the diff base.
func (w *deltaWriter) captureShadows(b *Broker) {
	w.duals = nil
	if dc, ok := b.sched.(DualCheckpointer); ok {
		ds := dc.SnapshotDuals()
		w.duals = &ds
	}
	w.ledger = b.cl.Snapshot()
	w.latLen = len(b.eng.Result().OfferLatency)
	w.failJSON, w.spotJSON = engineStateJSON(b.eng)
}

// engineStateJSON serializes the engine's tracker and spot-provider state
// the way the sidecar carries them; nil for a part the run does not have.
func engineStateJSON(e *sim.Engine) (fail, spot []byte) {
	if st := e.FaultState(); st != nil {
		fail, _ = json.Marshal(st)
	}
	if st := e.SpotState(); st != nil {
		spot, _ = json.Marshal(st)
	}
	return fail, spot
}

// deltaStage carries the shadow state a staged delta record diffed up
// to; deltaWriter.advance folds it in once the record's bytes are
// safely written (sync path) or handed to the writer goroutine (async
// path, which stages optimistically and forces a full snapshot if the
// write later fails).
type deltaStage struct {
	duals    *core.DualState
	ledger   cluster.Snapshot
	latLen   int
	failJSON []byte
	spotJSON []byte
}

// advance re-bases the diff shadows on st and clears the dirty-decision
// list the staged record carried.
func (w *deltaWriter) advance(b *Broker, st deltaStage) {
	w.duals = st.duals
	w.ledger = st.ledger
	w.latLen = st.latLen
	w.failJSON = st.failJSON
	w.spotJSON = st.spotJSON
	b.dirty = b.dirty[:0]
}

// appendDelta writes one CRC-framed delta record for the current broker
// state. Shadows and the dirty-decision list advance only when the
// write succeeds. Core-goroutine only.
func (b *Broker) appendDelta() error {
	w := b.deltas
	if w == nil {
		return fmt.Errorf("service: no delta chain open")
	}
	h, p, st := b.buildDelta()
	if _, err := w.f.Write(h); err != nil {
		return fmt.Errorf("service: delta write: %w", err)
	}
	if _, err := w.f.Write(p); err != nil {
		return fmt.Errorf("service: delta write: %w", err)
	}
	w.advance(b, st)
	return nil
}

// buildDelta serializes one CRC-framed delta record (frame header and
// payload, both in the deltaWriter's reusable scratch) and returns the
// post-record shadow state; the caller writes the bytes and calls
// advance when they land. Core-goroutine only; b.deltas must be open.
func (b *Broker) buildDelta() (h, p []byte, st deltaStage) {
	w := b.deltas
	res := b.eng.Result()
	p = w.buf[:0]
	p = appendInt(p, b.slot)
	p = appendInt(p, b.nextID)
	p = appendInt(p, b.canceled)
	p = appendInt(p, b.eng.Offered())
	p = appendF64(p, res.Welfare)
	p = appendF64(p, res.Revenue)
	p = appendF64(p, res.VendorSpend)
	p = appendF64(p, res.EnergySpend)
	p = appendF64(p, res.Utilization)
	p = appendInt(p, res.Admitted)
	p = appendInt(p, res.Rejected)
	p = appendInt(p, res.FailuresInjected)
	p = appendInt(p, res.RecoveredTasks)
	p = appendInt(p, res.FailedTasks)
	p = appendF64(p, res.RefundedValue)
	p = appendF64(p, res.TrainLossEarly)
	p = appendF64(p, res.TrainLossLate)
	p = appendF64(p, res.SpotSpend)
	p = appendInt(p, res.SpotLeases)
	p = appendInt(p, res.SpotLeasedSlots)
	p = appendInt(p, res.SpotRevocations)

	p = appendU64(p, uint64(len(res.RejectReasons)))
	for reason, n := range res.RejectReasons {
		p = appendStr(p, string(reason))
		p = appendInt(p, n)
	}

	lat := res.OfferLatency[w.latLen:]
	p = appendU64(p, uint64(len(lat)))
	for _, d := range lat {
		p = appendI64(p, int64(d))
	}

	// Changed decisions, deduplicated (a refund may flip an ID that the
	// same interval also decided).
	sort.Ints(b.dirty)
	uniq := b.dirty[:0]
	for i, id := range b.dirty {
		if i == 0 || id != b.dirty[i-1] {
			uniq = append(uniq, id)
		}
	}
	b.dirty = uniq
	p = appendU64(p, uint64(len(uniq)))
	for _, id := range uniq {
		p = appendDecision(p, id, b.decisions[id])
	}

	// Dual cells that moved since the last persist.
	var curDuals *core.DualState
	if dc, ok := b.sched.(DualCheckpointer); ok {
		ds := dc.SnapshotDuals()
		curDuals = &ds
	}
	p = appendBool(p, curDuals != nil)
	if curDuals != nil {
		p = appendDualDiff(p, w.duals, curDuals)
	}

	// Ledger cells that moved.
	curLedger := b.cl.Snapshot()
	p = appendLedgerDiff(p, &w.ledger, &curLedger)

	// Fault-tracker state, only when it changed (it is small but
	// re-serializing it every slot would dominate fault-free runs pay
	// nothing here).
	curFail, curSpot := engineStateJSON(b.eng)
	if string(curFail) != string(w.failJSON) {
		p = append(p, 1)
		p = appendU64(p, uint64(len(curFail)))
		p = append(p, curFail...)
	} else {
		p = append(p, 0)
	}

	// Spot provider state (trace cursor, budget spent, live leases), only
	// when it moved.
	if string(curSpot) != string(w.spotJSON) {
		p = append(p, 1)
		p = appendU64(p, uint64(len(curSpot)))
		p = append(p, curSpot...)
	} else {
		p = append(p, 0)
	}

	h = w.head[:0]
	h = appendU64(h, uint64(len(p)))
	h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(p))
	w.head, w.buf = h, p
	st = deltaStage{
		duals:    curDuals,
		ledger:   curLedger,
		latLen:   len(res.OfferLatency),
		failJSON: curFail,
		spotJSON: curSpot,
	}
	return h, p, st
}

// appendDecision encodes one decided bid. F rides as raw float bits, so
// the -Inf no-feasible-plan marker needs no side flag here.
func appendDecision(p []byte, id int, d schedule.Decision) []byte {
	p = appendInt(p, id)
	p = appendInt(p, d.TaskID)
	p = appendBool(p, d.Admitted)
	p = appendF64(p, d.Payment)
	p = appendF64(p, d.VendorCost)
	p = appendF64(p, d.EnergyCost)
	p = appendF64(p, d.F)
	p = appendStr(p, string(d.Reason))
	p = appendBool(p, d.DualsUpdated)
	p = appendBool(p, d.Schedule != nil)
	if s := d.Schedule; s != nil {
		p = appendInt(p, s.TaskID)
		p = appendInt(p, s.Vendor)
		p = appendF64(p, s.VendorPrice)
		p = appendInt(p, s.VendorDelay)
		p = appendU64(p, uint64(len(s.Placements)))
		for _, pl := range s.Placements {
			p = appendInt(p, pl.Node)
			p = appendInt(p, pl.Slot)
		}
	}
	return p
}

func readDecision(r *binReader) (int, schedule.Decision) {
	id := r.int()
	var d schedule.Decision
	d.TaskID = r.int()
	d.Admitted = r.bool()
	d.Payment = r.f64()
	d.VendorCost = r.f64()
	d.EnergyCost = r.f64()
	d.F = r.f64()
	d.Reason = schedule.RejectReason(r.str())
	d.DualsUpdated = r.bool()
	if r.bool() {
		s := &schedule.Schedule{}
		s.TaskID = r.int()
		s.Vendor = r.int()
		s.VendorPrice = r.f64()
		s.VendorDelay = r.int()
		n := int(r.u64())
		if r.err == nil && n > 0 {
			s.Placements = make([]schedule.Placement, n)
			for i := range s.Placements {
				s.Placements[i] = schedule.Placement{Node: r.int(), Slot: r.int()}
			}
		}
		d.Schedule = s
	}
	return id, d
}

// appendDualDiff emits (cell, value) pairs for every λ/φ entry that
// differs between prev and cur. Cells key as (k*T+t)*2 + which, which 0
// for λ and 1 for φ.
func appendDualDiff(p []byte, prev, cur *core.DualState) []byte {
	count := 0
	for k := range cur.Lambda {
		T := len(cur.Lambda[k])
		for t := 0; t < T; t++ {
			if prev == nil || prev.Lambda[k][t] != cur.Lambda[k][t] {
				count++
			}
			if prev == nil || prev.Phi[k][t] != cur.Phi[k][t] {
				count++
			}
		}
	}
	p = appendU64(p, uint64(count))
	for k := range cur.Lambda {
		T := len(cur.Lambda[k])
		for t := 0; t < T; t++ {
			if prev == nil || prev.Lambda[k][t] != cur.Lambda[k][t] {
				p = appendU64(p, uint64(k*T+t)*2)
				p = appendF64(p, cur.Lambda[k][t])
			}
			if prev == nil || prev.Phi[k][t] != cur.Phi[k][t] {
				p = appendU64(p, uint64(k*T+t)*2+1)
				p = appendF64(p, cur.Phi[k][t])
			}
		}
	}
	return p
}

// ledgerCellChanged reports whether any committed quantity of cell
// (k,t) differs between the two snapshots.
func ledgerCellChanged(prev, cur *cluster.Snapshot, k, t int) bool {
	if prev.UsedWork[k][t] != cur.UsedWork[k][t] ||
		prev.UsedMem[k][t] != cur.UsedMem[k][t] ||
		prev.TasksOn[k][t] != cur.TasksOn[k][t] {
		return true
	}
	return downAt(prev, k, t) != downAt(cur, k, t) ||
		leasedAt(prev, k, t) != leasedAt(cur, k, t)
}

func downAt(s *cluster.Snapshot, k, t int) bool {
	return s.Down != nil && s.Down[k][t]
}

func leasedAt(s *cluster.Snapshot, k, t int) bool {
	return s.Leased != nil && s.Leased[k][t]
}

// appendLedgerDiff emits full cell records for every ledger cell that
// changed. The down byte is 0 when the run has no outage info, else
// 1 (up) / 2 (down), so replay knows whether to materialize the Down
// plane.
func appendLedgerDiff(p []byte, prev, cur *cluster.Snapshot) []byte {
	count := 0
	for k := range cur.UsedWork {
		T := len(cur.UsedWork[k])
		for t := 0; t < T; t++ {
			if ledgerCellChanged(prev, cur, k, t) {
				count++
			}
		}
	}
	p = appendU64(p, uint64(count))
	for k := range cur.UsedWork {
		T := len(cur.UsedWork[k])
		for t := 0; t < T; t++ {
			if !ledgerCellChanged(prev, cur, k, t) {
				continue
			}
			p = appendU64(p, uint64(k*T+t))
			p = appendInt(p, cur.UsedWork[k][t])
			p = appendF64(p, cur.UsedMem[k][t])
			p = appendInt(p, cur.TasksOn[k][t])
			switch {
			case cur.Down == nil:
				p = append(p, 0)
			case cur.Down[k][t]:
				p = append(p, 2)
			default:
				p = append(p, 1)
			}
			switch {
			case cur.Leased == nil:
				p = append(p, 0)
			case cur.Leased[k][t]:
				p = append(p, 2)
			default:
				p = append(p, 1)
			}
		}
	}
	return p
}

// LoadCheckpoint reads the checkpoint at path and, when a delta sidecar
// extends that exact snapshot, replays the valid prefix of per-slot
// deltas on top, returning the most recent consistent state. A missing
// sidecar, a sidecar keyed to different snapshot bytes, or a corrupted
// header all fall back to the full snapshot alone; a corrupted or
// truncated record discards itself and everything after it. Brokers
// running the default CheckpointFullEvery=1 never write deltas, so for
// them this is ReadCheckpoint with one extra stat.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: read checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("service: parse checkpoint %s: %w", path, err)
	}
	if err := applyDeltas(&ck, DeltaPath(path), crc32.ChecksumIEEE(data)); err != nil {
		return nil, err
	}
	return &ck, nil
}

// applyDeltas replays the sidecar's valid prefix onto ck in place.
func applyDeltas(ck *Checkpoint, dpath string, baseCRC uint32) error {
	data, err := os.ReadFile(dpath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: read delta sidecar: %w", err)
	}
	if len(data) < len(deltaMagic) || string(data[:len(deltaMagic)]) != string(deltaMagic) {
		return nil // foreign or corrupt header: full snapshot stands alone
	}
	r := &binReader{b: data[len(deltaMagic):]}
	version := r.u64()
	if len(r.b) < 4 {
		r.fail("base crc")
	}
	var crc uint32
	if r.err == nil {
		crc = binary.LittleEndian.Uint32(r.b)
		r.b = r.b[4:]
	}
	baseSlot := r.int()
	label := r.str()
	if r.err != nil || version != deltaVersion || crc != baseCRC ||
		baseSlot != ck.Slot || label != ck.RunLabel {
		// Stale chain (it extends some other snapshot) or unreadable
		// header: the full snapshot is the most recent consistent state.
		return nil
	}
	for len(r.b) > 0 && r.err == nil {
		payload := frameNext(r)
		if payload == nil {
			return nil // truncated/corrupt tail: keep the prefix
		}
		if err := applyDeltaRecord(ck, payload); err != nil {
			// The CRC passed but the payload does not decode: that is
			// format drift, not bitrot — surface it.
			return err
		}
	}
	return nil
}

// frameNext extracts the next CRC-framed payload, or nil when the tail
// is truncated or fails its checksum.
func frameNext(r *binReader) []byte {
	n, w := binary.Uvarint(r.b)
	if w <= 0 {
		return nil
	}
	rest := r.b[w:]
	if uint64(len(rest)) < n+4 {
		return nil
	}
	crc := binary.LittleEndian.Uint32(rest)
	payload := rest[4 : 4+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil
	}
	r.b = rest[4+n:]
	return payload
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
	res.Welfare = r.f64()
	res.Revenue = r.f64()
	res.VendorSpend = r.f64()
	res.EnergySpend = r.f64()
	res.Utilization = r.f64()
	res.Admitted = r.int()
	res.Rejected = r.int()
	res.FailuresInjected = r.int()
	res.RecoveredTasks = r.int()
	res.FailedTasks = r.int()
	res.RefundedValue = r.f64()
	res.TrainLossEarly = r.f64()
	res.TrainLossLate = r.f64()
	res.SpotSpend = r.f64()
	res.SpotLeases = r.int()
	res.SpotLeasedSlots = r.int()
	res.SpotRevocations = r.int()

	nReasons := int(r.u64())
	if r.err == nil {
		reasons := make(map[schedule.RejectReason]int, nReasons)
		for i := 0; i < nReasons && r.err == nil; i++ {
			reason := schedule.RejectReason(r.str())
			reasons[reason] = r.int()
		}
		res.RejectReasons = reasons
	}

	nLat := int(r.u64())
	for i := 0; i < nLat && r.err == nil; i++ {
		res.OfferLatency = append(res.OfferLatency, time.Duration(r.i64()))
	}

	nDec := int(r.u64())
	if r.err == nil && ck.Decisions == nil {
		ck.Decisions = make(map[int]CheckpointDecision, nDec)
	}
	for i := 0; i < nDec && r.err == nil; i++ {
		id, d := readDecision(r)
		if r.err == nil {
			ck.Decisions[id] = wireDecision(d)
		}
	}

	if r.bool() { // dual diff present
		n := int(r.u64())
		if r.err == nil && ck.Duals == nil {
			return fmt.Errorf("service: delta carries duals but snapshot has none")
		}
		T := ck.Slots
		for i := 0; i < n && r.err == nil; i++ {
			key := r.u64()
			v := r.f64()
			if r.err != nil {
				break
			}
			cell := int(key / 2)
			k, t := cell/T, cell%T
			if k >= len(ck.Duals.Lambda) || t >= len(ck.Duals.Lambda[k]) {
				return fmt.Errorf("service: delta dual cell (%d,%d) outside snapshot shape", k, t)
			}
			if key%2 == 0 {
				ck.Duals.Lambda[k][t] = v
			} else {
				ck.Duals.Phi[k][t] = v
			}
		}
	}

	nCells := int(r.u64())
	T := ck.Slots
	for i := 0; i < nCells && r.err == nil; i++ {
		idx := int(r.u64())
		work := r.int()
		mem := r.f64()
		on := r.int()
		var down, leased byte
		if r.err == nil {
			if len(r.b) < 2 {
				r.fail("down/leased bytes")
			} else {
				down, leased = r.b[0], r.b[1]
				r.b = r.b[2:]
			}
		}
		if r.err != nil {
			break
		}
		k, t := idx/T, idx%T
		if k >= len(ck.Ledger.UsedWork) || t >= len(ck.Ledger.UsedWork[k]) {
			return fmt.Errorf("service: delta ledger cell (%d,%d) outside snapshot shape", k, t)
		}
		ck.Ledger.UsedWork[k][t] = work
		ck.Ledger.UsedMem[k][t] = mem
		ck.Ledger.TasksOn[k][t] = on
		if down != 0 {
			if ck.Ledger.Down == nil {
				ck.Ledger.Down = make([][]bool, len(ck.Ledger.UsedWork))
				for kk := range ck.Ledger.Down {
					ck.Ledger.Down[kk] = make([]bool, len(ck.Ledger.UsedWork[kk]))
				}
			}
			ck.Ledger.Down[k][t] = down == 2
		}
		if leased != 0 {
			if ck.Ledger.Leased == nil {
				// The lease plane only exists alongside elastic marks, and
				// those are static from construction: a full snapshot missing
				// them cannot be extended by a lease-bearing delta.
				return fmt.Errorf("service: delta carries lease state but snapshot has none")
			}
			ck.Ledger.Leased[k][t] = leased == 2
		}
	}

	if r.bool() { // failure state replaced
		blob := r.bytes()
		if r.err == nil {
			var st sim.FailureTrackerState
			if err := json.Unmarshal(blob, &st); err != nil {
				return fmt.Errorf("service: delta failure state: %w", err)
			}
			ck.Failures = &st
		}
	}
	if r.bool() { // spot provider state replaced
		blob := r.bytes()
		if r.err == nil {
			var st sim.SpotState
			if err := json.Unmarshal(blob, &st); err != nil {
				return fmt.Errorf("service: delta spot state: %w", err)
			}
			ck.Spot = &st
		}
	}
	if r.err != nil {
		return r.err
	}
	return nil
}

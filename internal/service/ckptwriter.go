package service

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"
)

// Checkpoint writing. The core goroutine serializes every checkpoint at
// slot close — the bytes capture exactly that slot's state — and hands
// them to the one ckptWriter as a job: the tmp+rename of a full snapshot
// (which also re-keys or removes the delta sidecar) or one appended delta
// record. Without Options.AsyncCheckpoint the job runs then and there;
// with it, a dedicated goroutine runs the jobs in staging order and the
// file I/O overlaps the next auction round.
//
// The async pipeline is bounded at two in-flight writes: before staging a
// new checkpoint the broker harvests completions until at most one write
// remains outstanding, so a slot cannot close until the write staged two
// checkpoints ago has landed. Two staging buffers rotate under that
// bound — the buffer being refilled always belongs to a completed write.
//
// Delta shadows and the decision store's saved mark advance at stage
// time. If the write fails, what was staged against them never made it
// into a consistent chain, so folding the failure marks the chain broken
// (wroteFull = false): the next checkpoint is forced full and restates
// everything the lost records carried. After a failed append the record
// may be half on disk, so the writer stops extending the chain and fails
// subsequent delta jobs fast until a full snapshot re-keys it.

// ckptJob is one staged checkpoint write.
type ckptJob struct {
	slot int
	full bool
	// data is the full JSON snapshot, or the framed delta record
	// (header + payload).
	data []byte
	// Full snapshots only: a non-nil sidecarHdr re-keys the delta chain to
	// this snapshot, nil removes the sidecar (full-every-write cadence).
	sidecarHdr []byte
}

// ckptDone reports one completed write back to the core goroutine.
type ckptDone struct {
	slot int
	err  error
}

// ckptWriter performs the writes and owns the sidecar file handle for the
// broker's lifetime. In async mode jobs flow to its goroutine and
// completions flow back, the core goroutine tracking how many are in
// flight; both channels hold the full pipeline bound, so neither side
// ever blocks except at the intended backpressure points.
type ckptWriter struct {
	path     string // the checkpoint file; the sidecar is DeltaPath(path)
	async    bool
	jobs     chan ckptJob
	done     chan ckptDone
	inflight int
	sidecar  *os.File
	// bufs are the rotating delta staging buffers; full snapshots use
	// json.Marshal's fresh allocation instead.
	bufs [2][]byte
	cur  int
	// stall, when set, delays each write — the backpressure tests' hook.
	stall func(slot int, full bool)
	// superseded is the owning broker's supersession flag: a job whose
	// write stalled across a supervisor swap (the wedge scenario) must
	// fail instead of renaming a stale snapshot over the successor's
	// checkpoint or scribbling on its sidecar.
	superseded *atomic.Bool
}

func newCkptWriter(path string, async bool, stall func(slot int, full bool), superseded *atomic.Bool) *ckptWriter {
	w := &ckptWriter{path: path, async: async, stall: stall, superseded: superseded}
	if async {
		w.jobs = make(chan ckptJob, 2)
		w.done = make(chan ckptDone, 2)
		go w.run()
	}
	return w
}

// run is the writer goroutine; it exits (closing done) when the jobs
// channel closes.
func (w *ckptWriter) run() {
	for j := range w.jobs {
		w.done <- ckptDone{slot: j.slot, err: w.exec(j)}
	}
	close(w.done)
}

func (w *ckptWriter) closeSidecar() {
	if w.sidecar != nil {
		w.sidecar.Close()
		w.sidecar = nil
	}
}

func (w *ckptWriter) guard() error {
	if w.superseded.Load() {
		return errSuperseded
	}
	return nil
}

// exec performs one write.
func (w *ckptWriter) exec(j ckptJob) error {
	if w.stall != nil {
		w.stall(j.slot, j.full)
	}
	if err := w.guard(); err != nil {
		// Superseded mid-flight: drop the write (and the sidecar — this
		// generation will never extend the chain again) without touching
		// the successor's files.
		w.closeSidecar()
		return err
	}
	if !j.full {
		if w.sidecar == nil {
			return fmt.Errorf("service: delta chain broken by an earlier write failure")
		}
		if _, err := w.sidecar.Write(j.data); err != nil {
			// The record may be half on disk; nothing appended after it
			// would replay, so stop extending the chain.
			w.closeSidecar()
			return fmt.Errorf("service: delta write: %w", err)
		}
		return nil
	}
	err := writeCheckpointBytes(w.path, j.data, w.guard)
	// Whatever happens, the old chain ends here: it extends the previous
	// snapshot, not this one.
	w.closeSidecar()
	if err != nil {
		return err
	}
	if j.sidecarHdr == nil {
		os.Remove(DeltaPath(w.path))
		return nil
	}
	f, err := os.Create(DeltaPath(w.path))
	if err != nil {
		return fmt.Errorf("service: delta sidecar: %w", err)
	}
	if _, err := f.Write(j.sidecarHdr); err != nil {
		f.Close()
		return fmt.Errorf("service: delta header: %w", err)
	}
	w.sidecar = f
	return nil
}

// writeCheckpoint persists the broker state: the full JSON snapshot
// (atomically, tmp + rename, so a crash mid-write leaves the previous
// one intact), or — between full-snapshot boundaries when
// CheckpointFullEvery > 1 — one appended binary delta (delta.go).
// Drain and horizon end always force a full snapshot, so the plain
// checkpoint file is final-state-complete whenever the broker stops
// cleanly. Failures are recorded in Status rather than stopping the
// auction; core-goroutine only.
func (b *Broker) writeCheckpoint() {
	// Once superseded, a newer generation owns the checkpoint chain; a
	// zombie must not rename its stale snapshot over that one's progress.
	if b.opts.CheckpointPath == "" || b.superseded.Load() {
		return
	}
	w := b.ckptW
	b.reapCkpt(false)
	for w.inflight > 1 {
		b.reapCkpt(true)
	}
	if f := b.opts.CheckpointFault; f != nil {
		if err := f(b.slot); err != nil {
			b.ckptErr = err
			b.ckptFails++
			return
		}
	}
	full := b.opts.CheckpointFullEvery <= 1 || !b.wroteFull ||
		b.sinceFull >= b.opts.CheckpointFullEvery-1 ||
		b.draining || b.slot >= b.horizon.T
	job := ckptJob{slot: b.slot, full: full}
	if full {
		data, err := json.Marshal(b.snapshot())
		if err != nil {
			b.ckptErr = fmt.Errorf("service: marshal checkpoint: %w", err)
			b.ckptFails++
			return
		}
		job.data = data
		if b.opts.CheckpointFullEvery > 1 {
			job.sidecarHdr = sidecarHeader(b, crc32.ChecksumIEEE(data))
			b.deltas.deltaShadows = b.shadows() // the first delta diffs against this snapshot
		}
		b.wroteFull = true
		b.sinceFull = 0
	} else {
		h, p := b.buildDelta()
		buf := append(w.bufs[w.cur][:0], h...)
		buf = append(buf, p...)
		w.bufs[w.cur] = buf
		w.cur ^= 1
		job.data = buf
		b.sinceFull++
	}
	b.decisions.markSaved()
	if !w.async {
		b.foldCkptDone(ckptDone{slot: job.slot, err: w.exec(job)})
		return
	}
	w.jobs <- job
	w.inflight++
}

// reapCkpt folds completed async writes into the broker's durability
// state, one pipeline stage after they were staged. With block set it
// waits for at least one completion (the backpressure point); it then
// drains whatever else already finished.
func (b *Broker) reapCkpt(block bool) {
	w := b.ckptW
	for w.inflight > 0 {
		var d ckptDone
		if block {
			d = <-w.done
			block = false
		} else {
			select {
			case d = <-w.done:
			default:
				return
			}
		}
		w.inflight--
		b.foldCkptDone(d)
	}
}

// foldCkptDone applies one completion's verdict.
func (b *Broker) foldCkptDone(d ckptDone) {
	if d.err != nil {
		b.ckptErr = d.err
		b.ckptFails++
		// The on-disk chain no longer extends cleanly; force the next
		// checkpoint to restate everything as a full snapshot.
		b.wroteFull = false
		return
	}
	b.ckptErr = nil
	b.ckptFails = 0
	b.ckptSlot = d.slot
	// The persisted chain covers decisions before d.slot (which may trail
	// b.slot by the pipeline depth); rotation keeps every journal chunk
	// with an arrival at or past it — held bids and bids decided since.
	b.rotateWAL(d.slot)
}

// closeCkptWriter flushes the pipeline and stops the writer; loop
// teardown calls it so every staged write lands (or surfaces its
// failure) before the broker reports done.
func (b *Broker) closeCkptWriter() {
	w := b.ckptW
	if w == nil {
		return
	}
	if w.async {
		close(w.jobs)
		for d := range w.done {
			w.inflight--
			b.foldCkptDone(d)
		}
	}
	w.closeSidecar() // the writer goroutine, if any, has exited
	b.ckptW = nil
}

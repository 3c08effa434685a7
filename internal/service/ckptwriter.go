package service

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Checkpoint writing. The core goroutine serializes every checkpoint at
// slot close — the bytes capture exactly that slot's state — and hands
// them to the one ckptWriter as a job, which runs then and there: a full
// snapshot through replaceFile (durable.go), which also replaces or
// removes the delta sidecar, or one appended delta record. There is no
// second, background writer: measured against this one it won 21 of 44
// interleaved pairs (EXPERIMENTS.md, "Why there is one writer").
//
// Delta shadows and the decision store's saved mark advance when the job
// is staged, immediately before it runs. If the write fails, what was
// staged against them never made it into a consistent chain, so the
// failure marks the chain broken (wroteFull = false): the next
// checkpoint is forced full and restates everything the lost records
// carried. After a failed append the record may be half on disk, so the
// writer stops extending the chain and fails subsequent delta jobs fast
// until a full snapshot re-keys it.

// ckptJob is one staged checkpoint write.
type ckptJob struct {
	full bool
	// data is the full JSON snapshot, or the framed delta record
	// (header + payload).
	data []byte
	// Full snapshots only: a non-nil sidecarHdr re-keys the delta chain to
	// this snapshot, nil removes the sidecar (full-every-write cadence).
	sidecarHdr []byte
}

// ckptWriter performs the writes and owns the sidecar file handle for the
// broker's lifetime.
type ckptWriter struct {
	fsys    fileSys
	path    string // the checkpoint file; the sidecar is DeltaPath(path)
	sidecar durableFile
	// guard is the owning broker's supersession fence: a write that
	// stalled across a supervisor swap (the wedge scenario) must fail
	// instead of renaming a stale snapshot or sidecar over the successor's.
	guard func() error
}

func (w *ckptWriter) closeSidecar() {
	if w.sidecar != nil {
		w.sidecar.Close()
		w.sidecar = nil
	}
}

// exec performs one write and makes it durable: the caller lets the
// journal forget what the checkpoint covers as soon as this returns nil.
func (w *ckptWriter) exec(j ckptJob) error {
	if !j.full {
		if w.sidecar == nil {
			return fmt.Errorf("service: delta chain broken by an earlier write failure")
		}
		_, err := w.sidecar.Write(j.data)
		if err == nil {
			err = w.sidecar.Sync()
		}
		if err != nil {
			// The record may be half on disk; nothing appended after it
			// would replay, so stop extending the chain.
			w.closeSidecar()
			return fmt.Errorf("service: delta write: %w", err)
		}
		return nil
	}
	// Whatever happens, the old chain ends here: it extends the previous
	// snapshot, not this one.
	w.closeSidecar()
	if err := writeFile(w.fsys, w.path, w.guard, j.data); err != nil {
		return err
	}
	if j.sidecarHdr == nil {
		_ = w.fsys.Remove(DeltaPath(w.path)) // usually absent; a stale one is keyed to another snapshot
		return nil
	}
	// A fresh sidecar holding only the header; each delta record is
	// appended to the handle and fsynced.
	var err error
	w.sidecar, err = replaceFile(w.fsys, DeltaPath(w.path), w.guard, j.sidecarHdr)
	if err != nil {
		w.closeSidecar()
	}
	return err
}

// writeCheckpoint persists the broker state: the full JSON snapshot
// (through replaceFile, so a crash mid-write leaves the previous one
// intact), or — between full-snapshot boundaries when
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
	job := ckptJob{full: full}
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
		job.data = b.buildDelta()
		b.sinceFull++
	}
	b.decisions.markSaved()
	if err := b.ckptW.exec(job); err != nil {
		b.ckptErr = err
		b.ckptFails++
		// The on-disk chain no longer extends cleanly; force the next
		// checkpoint to restate everything as a full snapshot.
		b.wroteFull = false
		return
	}
	b.ckptErr = nil
	b.ckptFails = 0
	b.ckptSlot = b.slot
	// exec returned with the snapshot (and its directory entry) or the
	// delta record fsynced, so the journal may now forget every arrival
	// the chain covers. TestPersistCrashPoints holds that order at every
	// operation of the protocol.
	b.rotateWAL(b.slot)
}

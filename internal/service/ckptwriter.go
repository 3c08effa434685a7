package service

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Checkpoint writing. The core goroutine serializes every checkpoint at
// slot close — the bytes capture exactly that slot's state — and hands
// them to the one ckptWriter as a job, which runs then and there: the
// tmp+rename of a full snapshot (which also re-keys or removes the delta
// sidecar) or one appended delta record. There is no second, background
// writer: measured against this one it won 21 of 44 interleaved pairs
// (EXPERIMENTS.md, "Why there is one writer").
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
	slot int
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
	path    string // the checkpoint file; the sidecar is DeltaPath(path)
	sidecar *os.File
	// stall, when set, delays each write — the supersession test's hook.
	stall func(slot int, full bool)
	// superseded is the owning broker's supersession flag: a job whose
	// write stalled across a supervisor swap (the wedge scenario) must
	// fail instead of renaming a stale snapshot over the successor's
	// checkpoint or scribbling on its sidecar.
	superseded *atomic.Bool
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

// exec performs one write and makes it durable: the caller lets the
// journal forget what the checkpoint covers as soon as this returns nil.
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
	_, err = f.Write(j.sidecarHdr)
	if err == nil {
		// The file's bytes are fsynced with each delta record; its
		// directory entry must be durable before the first of them is.
		err = syncDir(filepath.Dir(w.path))
	}
	if err != nil {
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
	b.ckptSlot = job.slot
	// exec returned with the snapshot (and its directory entry) or the
	// delta record fsynced, so the journal may now forget every arrival
	// the chain covers. That order — checkpoint durable, then journal
	// rewritten — holds by reading exec: no unit test can observe an fsync
	// until the persistence layer has a filesystem seam (ROADMAP item 2).
	b.rotateWAL(job.slot)
}

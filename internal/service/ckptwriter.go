package service

import (
	"fmt"
	"hash/crc32"

	"github.com/pdftsp/pdftsp/internal/decision"
)

// Checkpoint writing. The core goroutine serializes every checkpoint at
// slot close — the bytes capture exactly that slot's state — and hands
// them to the one ckptWriter as a job, which runs then and there: a full
// snapshot through replaceFile (durable.go), which also replaces or
// removes the delta sidecar, or one appended delta record. There is no
// second, background writer: measured against this one it won 21 of 44
// interleaved pairs (EXPERIMENTS.md, "Why there is one writer").
//
// Delta shadows and the broker's saved mark on its decisions advance
// when the job is staged, immediately before it runs. If the write fails,
// what was staged against them never made it into a consistent chain, so
// the failure marks the chain broken (wroteFull = false): the next
// checkpoint is forced full and restates everything the lost records
// carried. After a failed append the record may be half on disk, so the
// writer stops extending the chain and fails subsequent delta jobs fast
// until a full snapshot re-keys it.

// ckptJob is one staged checkpoint write.
type ckptJob struct {
	full bool
	// data is the full snapshot, or the framed delta record (header +
	// payload).
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
	if err := writeFile(w.fsys, w.path, j.data); err != nil {
		return err
	}
	if j.sidecarHdr == nil {
		_ = w.fsys.Remove(DeltaPath(w.path)) // usually absent; a stale one is keyed to another snapshot
		return nil
	}
	// A fresh sidecar holding only the header; each delta record is
	// appended to the handle and fsynced.
	var err error
	w.sidecar, err = replaceFile(w.fsys, DeltaPath(w.path), j.sidecarHdr)
	if err != nil {
		w.closeSidecar()
	}
	return err
}

// writeCheckpoint persists the broker state: the full snapshot
// (through replaceFile, so a crash mid-write leaves the previous one
// intact), or — between full-snapshot boundaries when
// CheckpointFullEvery > 1 — one appended binary delta (delta.go).
// Drain and horizon end always force a full snapshot, so the plain
// checkpoint file is final-state-complete whenever the broker stops
// cleanly. Failures are recorded in Status rather than stopping the
// auction; core-goroutine only.
func (b *Broker) writeCheckpoint() {
	if b.opts.CheckpointPath == "" {
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
	job, ck, w := ckptJob{full: full}, b.snapshot(), &b.deltas
	if full {
		// A fresh buffer, not the delta scratch: the broker keeps none of
		// a full snapshot once it is written.
		var cur deltaShadows
		job.data, cur = encodeSnapshot(ck)
		if b.opts.CheckpointFullEvery > 1 {
			job.sidecarHdr = sidecarHeader(b, crc32.ChecksumIEEE(job.data))
			w.deltaShadows = cur // the first delta diffs against this snapshot
		}
		b.wroteFull = true
		b.sinceFull = 0
	} else {
		var p []byte
		head := append(w.buf[:0], make([]byte, decision.MaxFrameHead)...) // room for the frame's head
		p, w.deltaShadows = appendRecord(head, ck, &w.deltaShadows, b.saved)
		w.buf = decision.AppendFrame(p[:0], p[decision.MaxFrameHead:]) // in place, as encodeSnapshot frames
		job.data = w.buf
		b.sinceFull++
	}
	b.markSaved()
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

// markSaved records that the checkpoint being staged holds every decision.
func (b *Broker) markSaved() { b.saved = b.decisions.Len() }

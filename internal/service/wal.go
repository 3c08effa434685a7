package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/pdftsp/pdftsp/internal/task"
)

// Durable bid intake. With Options.WALPath set, the broker journals every
// bid it holds to a CRC-framed write-ahead log *before* releasing the
// intake ack, so an acked bid survives a process death between ack and
// slot close — the gap the checkpoint chain deliberately leaves open
// (decisions persist at slot close; held bids used to die with the
// process). The contract the supervisor and the chaos harness verify:
// every acked bid is either decided in the persisted checkpoint chain or
// replayable from the journal's valid prefix.
//
// The framing is the delta sidecar's (delta.go): a header pinning magic,
// version, and run label, then uvarint-length + CRC32 frames. One intake
// message — a whole batch — stages all its records into one buffer,
// lands with one write syscall, and fsyncs before any of its acks go out
// (Options.WALSyncEvery batches the fsync across messages for
// deployments that accept an OS-buffer-deep window). If the append or
// sync fails, the staged bids are un-held and refused with ErrWAL: the
// guarantee is never weakened to "acked but maybe journaled". A failed
// fsync additionally marks the journal broken — the kernel may have
// discarded dirty pages of earlier acked messages in the batching
// window, and later fsyncs can falsely report success — so intake
// refuses until a rotation rewrites the file from the committed
// in-memory chunks (attempted immediately, and again at every
// checkpoint persist).
//
// The journal stays O(one checkpoint interval): every successful
// checkpoint persist covering slot s rewrites it (tmp + fsync + rename)
// to just the records whose arrivals s does not cover — the currently-held
// bids. Replay (RecoverWAL) reads the valid prefix — torn or
// corrupt tails degrade to the last intact record, never error, matching
// LoadCheckpoint — and re-holds each surviving bid idempotently: IDs
// already in the restored decision map (the bid decided before death)
// and arrivals behind the restored clock are skipped, so nothing is
// double-offered.

// ErrWAL: the write-ahead journal could not record an acked bid; the
// bid was refused rather than acked undurably (HTTP 503, retryable).
var ErrWAL = errors.New("service: write-ahead journal append failed")

// errSuperseded refuses journal I/O on a broker the supervisor has
// replaced: the successor owns the on-disk journal now, and a wedged
// old generation that un-wedges must not write past this point. It
// wraps ErrClosed so a supervised submitter retries against the
// successor instead of seeing an error.
var errSuperseded = fmt.Errorf("%w: superseded by a newer generation", ErrClosed)

// walVersion guards the journal record layout.
const walVersion = 1

// walMagic opens every journal file (distinct from the delta sidecar's).
var walMagic = []byte("PDFTSPW\x01")

// WALPath returns the conventional journal path derived from a
// checkpoint path; cmd/pdftspd uses it for per-shard journal naming.
func WALPath(checkpoint string) string { return checkpoint + ".wal" }

// walRef identifies one staged-but-uncommitted record, so a failed
// commit can un-hold exactly the bids this intake message held.
type walRef struct {
	arrival int
	id      int
}

// walChunk is one committed intake message's frames, retained in memory
// until a persisted checkpoint covers every arrival in it; rotation
// rewrites the journal from these.
type walChunk struct {
	maxArrival int
	records    int
	data       []byte
}

// walWriter owns the open journal and its staging buffers. Core-
// goroutine only (and pre-Start, the recovering caller).
type walWriter struct {
	path  string
	label string
	f     *os.File
	size  int64 // committed file size, the truncate point for a failed append
	// tmp is the staging file's name between newWALWriter and install:
	// the journal is always created as a temp file and renamed into
	// place once its contents (header, and on recovery the reseeded
	// survivors) are durable, so the previous journal outlives every
	// step of its replacement and each (re)open lands on a fresh inode.
	tmp string
	// superseded, when non-nil, is the owning broker's supersession
	// flag: once the supervisor replaces the broker, commit and rotate
	// refuse — a wedged old generation that un-wedges must not write to
	// (or rename over) the journal its successor now owns.
	superseded *atomic.Bool
	// lastCovered is the slot the most recent rotation was keyed to
	// (initially the slot the journal was opened at) — the rewrite point
	// for healing a failed fsync.
	lastCovered int

	// msg accumulates the current intake message's frames; buf is the
	// per-record payload scratch; refs the bids staged so far. All three
	// reuse their backing arrays across messages.
	msg        []byte
	buf        []byte
	refs       []walRef
	maxArrival int

	// retain keeps committed chunks for rotation; off when no checkpoint
	// path is configured (nothing ever covers the journal, so it only
	// appends and the full acked history replays on restore).
	retain bool
	chunks []walChunk

	// syncEvery batches fsyncs: 1 (the default) syncs before every ack,
	// n > 1 syncs every n-th intake message (and at rotation).
	syncEvery int
	sinceSync int

	// broken marks a journal whose failed append could not be truncated
	// away: the on-disk tail may hold refused bids, so intake refuses
	// until the next rotation rewrites the file from committed chunks.
	broken bool

	// Counters surfaced through Status/expvar.
	records    int64
	depth      int64 // records live in the journal file
	bytes      int64
	fsyncs     int64
	fsyncNS    int64
	fsyncMaxNS int64
}

// walHeader serializes the journal header: magic, version, the slot the
// file was (re)opened at, and the run label the replayer must match.
func walHeader(label string, slot int) []byte {
	h := append([]byte(nil), walMagic...)
	h = appendU64(h, walVersion)
	h = appendInt(h, slot)
	h = appendStr(h, label)
	return h
}

// appendWALTask encodes one held bid's full stamped task.
func appendWALTask(p []byte, t *task.Task) []byte {
	p = appendInt(p, t.ID)
	p = appendInt(p, int(t.Arrival))
	p = appendInt(p, int(t.Deadline))
	p = appendInt(p, int(t.DatasetSamples))
	p = appendInt(p, int(t.Epochs))
	p = appendInt(p, int(t.Work))
	p = appendF64(p, t.MemGB)
	p = appendInt(p, int(t.Rank))
	p = appendInt(p, int(t.Batch))
	p = appendBool(p, t.NeedsPrep)
	p = appendF64(p, t.Bid)
	p = appendF64(p, t.TrueValue)
	p = appendStr(p, t.ModelName)
	return p
}

func readWALTask(r *binReader) task.Task {
	var t task.Task
	t.ID = r.int()
	t.Arrival = readNarrow[int32](r)
	t.Deadline = readNarrow[int32](r)
	t.DatasetSamples = readNarrow[int32](r)
	t.Epochs = readNarrow[int16](r)
	t.Work = readNarrow[int32](r)
	t.MemGB = r.f64()
	t.Rank = readNarrow[int16](r)
	t.Batch = readNarrow[int16](r)
	t.NeedsPrep = r.bool()
	t.Bid = r.f64()
	t.TrueValue = r.f64()
	t.ModelName = r.str()
	return t
}

// stage frames one just-held bid into the current message buffer; the
// frames land (and the acks release) at commit.
func (w *walWriter) stage(t *task.Task) {
	w.buf = appendWALTask(w.buf[:0], t)
	w.msg = appendU64(w.msg, uint64(len(w.buf)))
	w.msg = binary.LittleEndian.AppendUint32(w.msg, crc32.ChecksumIEEE(w.buf))
	w.msg = append(w.msg, w.buf...)
	arrival := int(t.Arrival)
	w.refs = append(w.refs, walRef{arrival: arrival, id: t.ID})
	if arrival > w.maxArrival {
		w.maxArrival = arrival
	}
}

func (w *walWriter) resetMsg() {
	w.msg = w.msg[:0]
	w.refs = w.refs[:0]
	w.maxArrival = -1
}

// sync fsyncs the journal, tracking latency.
func (w *walWriter) sync() error {
	start := time.Now()
	err := w.f.Sync()
	ns := time.Since(start).Nanoseconds()
	w.fsyncs++
	w.fsyncNS += ns
	if ns > w.fsyncMaxNS {
		w.fsyncMaxNS = ns
	}
	w.sinceSync = 0
	return err
}

// commit writes the staged message with one syscall and fsyncs per the
// batching knob. On failure the staged frames are rolled back (the file
// truncated to its last committed size) and the error is returned with
// the refs still staged — the caller un-holds them.
func (w *walWriter) commit() error {
	if len(w.refs) == 0 {
		return nil
	}
	if w.broken {
		return fmt.Errorf("journal broken by an earlier failed append")
	}
	if w.superseded != nil && w.superseded.Load() {
		return errSuperseded
	}
	if _, err := w.f.Write(w.msg); err != nil {
		// Roll the partial/unacked tail back off the disk; if even that
		// fails, the file may replay bids whose submitters were refused —
		// stop appending until rotation rewrites it from committed chunks.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = true
		}
		return err
	}
	w.sinceSync++
	if w.sinceSync >= w.syncEvery {
		if err := w.sync(); err != nil {
			// A failed fsync may have discarded the dirty pages of *earlier*
			// committed-and-acked messages in the batching window, and later
			// fsyncs on this descriptor can report success without those
			// pages ever reaching disk — the whole file is suspect, not just
			// this message. Mark the journal broken (intake refuses) and try
			// to restore durability right away by rewriting it from the
			// committed in-memory chunks; if the rewrite fails too, the next
			// rotation heals it. Only an installed journal may heal this way:
			// a staged one (mid-reseed) must not rename over the old journal
			// it has not replaced yet.
			w.broken = true
			_ = w.f.Truncate(w.size)
			if w.retain && w.tmp == "" {
				_ = w.rotate(w.lastCovered) // success clears broken
			}
			return err
		}
	}
	w.size += int64(len(w.msg))
	w.records += int64(len(w.refs))
	w.depth += int64(len(w.refs))
	w.bytes += int64(len(w.msg))
	if w.retain {
		w.chunks = append(w.chunks, walChunk{
			maxArrival: w.maxArrival,
			records:    len(w.refs),
			data:       append([]byte(nil), w.msg...),
		})
	}
	w.resetMsg()
	return nil
}

// rotate rewrites the journal to the chunks a persisted checkpoint at
// slot covered does not cover (tmp + fsync + rename, so a crash
// mid-rotation leaves the previous journal intact), then swaps the open
// handle to the new file. Chunks whose every arrival is covered are
// pruned first — safe even if the rewrite then fails, because the
// persisted checkpoint already carries their decisions.
func (w *walWriter) rotate(covered int) error {
	if w.superseded != nil && w.superseded.Load() {
		return errSuperseded
	}
	w.lastCovered = covered
	keep := w.chunks[:0]
	for _, c := range w.chunks {
		if c.maxArrival >= covered {
			keep = append(keep, c)
		}
	}
	for i := len(keep); i < len(w.chunks); i++ {
		w.chunks[i] = walChunk{}
	}
	w.chunks = keep
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("service: wal rotate: %w", err)
	}
	defer os.Remove(tmp.Name())
	hdr := walHeader(w.label, covered)
	size, depth := int64(len(hdr)), 0
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return fmt.Errorf("service: wal rotate: %w", err)
	}
	for _, c := range w.chunks {
		if _, err := tmp.Write(c.data); err != nil {
			tmp.Close()
			return fmt.Errorf("service: wal rotate: %w", err)
		}
		size += int64(len(c.data))
		depth += c.records
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("service: wal rotate: %w", err)
	}
	if w.superseded != nil && w.superseded.Load() {
		// Re-checked at the last gate before the rename: a generation
		// swapped out mid-rotation must not rename its stale rewrite over
		// the journal its successor just reseeded.
		tmp.Close()
		return errSuperseded
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		tmp.Close()
		return fmt.Errorf("service: wal rotate: %w", err)
	}
	old := w.f
	w.f = tmp
	w.size = size
	w.depth = int64(depth)
	w.broken = false
	w.sinceSync = 0
	if old != nil {
		old.Close()
	}
	return nil
}

// newWALWriter stages a fresh journal as a temp file in the journal's
// directory: header written, nothing published at Options.WALPath yet.
// install() fsyncs the staged contents and renames them into place, so
// the previous journal — a crashed run's only recovery record —
// survives intact until its replacement (reseeded survivors included)
// is durable, and every (re)open lands on a fresh inode: a wedged old
// generation that un-wedges still holds a descriptor to its own
// orphaned file, where nothing it writes can corrupt the live journal.
func (b *Broker) newWALWriter(slot int) (*walWriter, error) {
	w := &walWriter{
		path:        b.opts.WALPath,
		label:       b.opts.RunLabel,
		retain:      b.opts.CheckpointPath != "",
		syncEvery:   b.opts.WALSyncEvery,
		maxArrival:  -1,
		superseded:  &b.superseded,
		lastCovered: slot,
	}
	if w.syncEvery <= 0 {
		w.syncEvery = 1
	}
	f, err := os.CreateTemp(filepath.Dir(w.path), ".wal-open-*")
	if err != nil {
		return nil, fmt.Errorf("service: wal open: %w", err)
	}
	hdr := walHeader(w.label, slot)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("service: wal header: %w", err)
	}
	w.f = f
	w.tmp = f.Name()
	w.size = int64(len(hdr))
	return w, nil
}

// install publishes a staged journal: fsync, then rename over
// Options.WALPath. Only after this returns is the previous journal
// gone; a crash before the rename leaves it untouched for the next
// recovery attempt.
func (w *walWriter) install() error {
	if err := w.f.Sync(); err != nil {
		w.abort()
		return fmt.Errorf("service: wal sync: %w", err)
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		w.abort()
		return fmt.Errorf("service: wal install: %w", err)
	}
	w.tmp = ""
	return nil
}

// abort discards a staged journal that never installed.
func (w *walWriter) abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.tmp != "" {
		os.Remove(w.tmp)
		w.tmp = ""
	}
}

// openWAL creates and publishes a fresh journal at Options.WALPath,
// headed at slot. A pre-existing file (a stale journal from a run that
// was not recovered) is replaced at the rename — a fresh run must not
// replay foreign bids.
func (b *Broker) openWAL(slot int) error {
	w, err := b.newWALWriter(slot)
	if err != nil {
		return err
	}
	if err := w.install(); err != nil {
		return err
	}
	b.wal = w
	return nil
}

// closeWAL shuts the journal file handle; loop teardown calls it. The
// file itself stays on disk — it is the crash-recovery record.
func (b *Broker) closeWAL() {
	if b.wal != nil && b.wal.f != nil {
		b.wal.f.Close()
		b.wal.f = nil
	}
}

// walCommit lands the bids this intake message staged, before any of
// their acks release. On failure every staged bid is un-held (they are
// the tails of their arrival batches, popped in reverse stage order)
// and the caller rewrites their verdicts with the returned ErrWAL —
// an ack is never released for a bid the journal did not record.
func (b *Broker) walCommit() error {
	w := b.wal
	if w == nil || len(w.refs) == 0 {
		return nil
	}
	err := w.commit()
	if err == nil {
		return nil
	}
	for i := len(w.refs) - 1; i >= 0; i-- {
		ref := w.refs[i]
		batch := b.held[ref.arrival]
		if n := len(batch); n > 0 && batch[n-1].task.ID == ref.id {
			batch[n-1] = heldBid{}
			b.held[ref.arrival] = batch[:n-1]
			delete(b.heldIDs, ref.id)
			b.heldCount--
		}
	}
	w.resetMsg()
	if errors.Is(err, ErrClosed) {
		// Superseded, not a journal fault: the successor owns intake now,
		// and the ErrClosed verdict sends supervised submitters there.
		return err
	}
	b.walErr = err
	b.walFails++
	return fmt.Errorf("%w: %v", ErrWAL, err)
}

// rotateWAL rewrites the journal after a checkpoint persist succeeded;
// covered is the slot that checkpoint recorded (every decision for
// arrivals before it is durable there). A rotation failure keeps the
// old journal — a superset, so recovery stays correct — and surfaces
// through the WAL failure counters.
func (b *Broker) rotateWAL(covered int) {
	if b.wal == nil || !b.wal.retain {
		return
	}
	if err := b.wal.rotate(covered); err != nil {
		if errors.Is(err, ErrClosed) {
			return // superseded: the successor owns the journal now
		}
		b.walErr = err
		b.walFails++
	}
}

// readWALPrefix decodes the journal's valid prefix: every intact record
// up to the first torn or corrupt frame. A missing file, a foreign or
// truncated header, or a run-label mismatch all degrade to "no records"
// — the journal never makes a restore fail, matching LoadCheckpoint.
func readWALPrefix(path, label string) []task.Task {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		return nil
	}
	r := &binReader{b: data[len(walMagic):]}
	version := r.u64()
	_ = r.int() // header slot: informational; staleness is judged per record
	hlabel := r.str()
	if r.err != nil || version != walVersion || hlabel != label {
		return nil
	}
	var tasks []task.Task
	for len(r.b) > 0 && r.err == nil {
		payload := frameNext(r)
		if payload == nil {
			break // torn/corrupt tail: keep the prefix
		}
		pr := &binReader{b: payload}
		t := readWALTask(pr)
		if pr.err != nil {
			// The CRC passed but the payload does not decode — format
			// drift from an incompatible writer; stop here, keep the prefix.
			break
		}
		tasks = append(tasks, t)
	}
	return tasks
}

// ReadWAL reads the valid prefix of the journal at path for the given
// run label — the bids acked but not covered by any persisted
// checkpoint. Exported for tooling and the chaos harness's acked-bid
// audits; brokers recover through RecoverWAL.
func ReadWAL(path, label string) []task.Task { return readWALPrefix(path, label) }

// RecoverWAL replays the journal at Options.WALPath into the broker:
// each surviving record is re-held for its original arrival slot as an
// adopted bid (no submitter is waiting; its decision lands in the
// decision map like any other). Replay is idempotent — records whose ID
// the restored decision map already holds decided before the crash and
// are skipped, as are duplicate records and arrivals behind the restored
// clock (covered by the checkpoint that rotation keyed the journal to).
// It then opens a fresh journal seeded with the surviving held set —
// staged as a temp file and renamed over the old journal only after
// the survivors are durably rewritten, so a second crash mid-recovery
// still finds a journal to replay — and the re-held bids stay as
// durable as they were before the crash.
//
// Call after Restore and before Start. Runs with no journal configured
// are a no-op. The returned count is how many bids were re-held.
func (b *Broker) RecoverWAL() (int, error) {
	if b.started {
		return 0, ErrStarted
	}
	if b.opts.WALPath == "" {
		return 0, nil
	}
	tasks := readWALPrefix(b.opts.WALPath, b.opts.RunLabel)
	replayed := 0
	for i := range tasks {
		t := tasks[i]
		if int(t.Arrival) < b.slot {
			b.walStale++
			continue
		}
		if err := b.hold(&t, context.Background(), nil, 0); err != nil {
			if errors.Is(err, ErrDuplicateID) {
				b.walDeduped++
			} else {
				b.walStale++
			}
			continue
		}
		replayed++
	}
	b.walReplayed = replayed
	// Reseed a fresh journal with the surviving held set, staged as a
	// temp file and renamed over the old journal only once the survivors
	// are durably rewritten — a second crash anywhere during recovery
	// (the scenario -supervise exists for) still finds the old journal
	// intact and replays it again.
	w, err := b.newWALWriter(b.slot)
	if err != nil {
		return replayed, err
	}
	for _, batch := range b.held {
		for i := range batch {
			w.stage(&batch[i].task)
		}
	}
	if err := w.commit(); err != nil {
		w.abort()
		return replayed, fmt.Errorf("service: wal reseed: %w", err)
	}
	if err := w.install(); err != nil {
		return replayed, fmt.Errorf("service: wal reseed: %w", err)
	}
	b.wal = w
	return replayed, nil
}

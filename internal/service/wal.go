package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/task"
)

// Durable bid intake. With Options.WALPath set, the broker journals every
// bid it holds to a CRC-framed write-ahead log *before* releasing the
// intake ack, so an acked bid survives a process death between ack and
// slot close — the gap the checkpoint chain deliberately leaves open
// (decisions persist at slot close; held bids used to die with the
// process). The contract a restart (Open + Resume) keeps and FuzzFleet
// checks: every acked bid is either decided in the persisted checkpoint chain or
// replayable from the journal's valid prefix.
//
// The journal and the delta sidecar both use durable.go: a header pinning
// magic, version, and run label, then uvarint-length + CRC32 frames. One
// intake message — a whole batch — stages all its records into one
// buffer, lands with one write syscall at the committed size, and fsyncs
// before any of its acks go out (Options.WALSyncEvery batches the fsync
// across messages for deployments that accept an OS-buffer-deep window).
// If the append or sync fails, the staged bids are un-held and refused
// with ErrWAL: the guarantee is never weakened to "acked but maybe
// journaled". A failed fsync additionally marks the journal broken — the
// kernel may have discarded dirty pages of earlier acked messages in the
// batching window, and later fsyncs can falsely report success — so
// intake refuses until a rotation rewrites the file from the committed
// in-memory chunks (attempted immediately, and again at every checkpoint
// persist).
//
// The journal's file is only ever written whole by rotate (a replaceFile
// of the header and the retained chunks) and appended to by commit. Every
// successful checkpoint persist covering slot s rotates it to just the
// records whose arrivals s does not cover — the currently-held bids — so
// it stays O(one checkpoint interval); opening it is a rotation with no
// chunks, recovery's reseed a rotation of the survivors. Replay
// (RecoverWAL) reads the valid prefix — torn or corrupt tails degrade to
// the last intact record, matching LoadCheckpoint; only a journal of
// another format version is refused (ErrFormatVersion) — and
// re-holds each surviving bid idempotently: IDs already in the restored
// decision map and arrivals behind the restored clock are skipped, so
// nothing is double-offered.

// ErrWAL: the write-ahead journal could not record an acked bid; the
// bid was refused rather than acked undurably (HTTP 503, retryable).
var ErrWAL = errors.New("service: write-ahead journal append failed")

// walVersion guards the journal record layout. v2 dropped the task's
// private value (8 bytes a record): a bid is what the bidder declared. v3
// dropped the dataset size, epochs and rank, and writes the model as one
// catalog code byte instead of a length-prefixed name.
const walVersion = 3

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
	fsys  fileSys
	path  string
	label string
	f     durableFile
	size  int64 // committed file size: where the next message lands
	// lastCovered is the slot the most recent rotation was keyed to — the
	// rewrite point for healing a failed fsync.
	lastCovered int

	// msg accumulates the current intake message's frames; buf is the
	// per-record payload scratch; refs the bids staged so far. All three
	// reuse their backing arrays across messages.
	msg        []byte
	buf        []byte
	refs       []walRef
	maxArrival int

	// chunks are the committed messages no persisted checkpoint covers yet.
	chunks []walChunk

	// syncEvery batches fsyncs: 1 (the default) syncs before every ack,
	// n > 1 syncs every n-th intake message (and at rotation).
	syncEvery int
	sinceSync int

	// broken marks a journal whose on-disk state is unaccounted for (an
	// append not truncated away, a failed fsync, a rotation whose name may
	// not survive a power cut): intake refuses until a rotation lands whole.
	broken bool

	// Counters surfaced through Status/expvar; fsyncs counts the commits'
	// fsyncs of the journal file, not rotation's.
	records    int64
	depth      int64 // records live in the journal file
	bytes      int64
	fsyncs     int64
	fsyncNS    int64
	fsyncMaxNS int64
}

// openJournal rotates the held bids — none on a fresh run, the replayed
// survivors on recovery — staged as one chunk into a fresh journal at
// Options.WALPath, replacing whatever is there only once they are durable.
func (b *Broker) openJournal() error {
	w := &walWriter{
		fsys:       b.fsys,
		path:       b.opts.WALPath,
		label:      b.opts.RunLabel,
		syncEvery:  max(b.opts.WALSyncEvery, 1),
		maxArrival: -1,
	}
	for _, batch := range b.held {
		for i := range batch {
			w.stage(&batch[i].task)
		}
	}
	w.seal()
	if err := w.rotate(b.slot); err != nil {
		w.close()
		return err
	}
	b.wal = w
	return nil
}

// walHeader serializes the journal header: magic, version, the slot the
// file was (re)opened at, and the run label the replayer must match.
func walHeader(label string, slot int) []byte {
	h := append(make([]byte, 0, 32+len(label)), walMagic...) // magic, three varints, label
	h = decision.AppendU64(h, walVersion)
	h = decision.AppendInt(h, slot)
	h = decision.AppendStr(h, label)
	return h
}

// appendWALTask encodes one held bid's full stamped task.
func appendWALTask(p []byte, t *task.Task) []byte {
	p = decision.AppendInt(p, t.ID)
	p = decision.AppendInt(p, int(t.Arrival))
	p = decision.AppendInt(p, int(t.Deadline))
	p = decision.AppendInt(p, int(t.Work))
	p = decision.AppendF64(p, t.MemGB)
	p = decision.AppendInt(p, int(t.Batch))
	p = decision.AppendBool(p, t.NeedsPrep)
	p = decision.AppendF64(p, t.Bid)
	return append(p, byte(t.ModelName))
}

// readWALTask decodes appendWALTask's record. A model code outside the
// catalog fails the record, as a number too wide for its field does.
func readWALTask(r *decision.Reader) task.Task {
	var t task.Task
	t.ID = r.Int()
	t.Arrival = decision.ReadNarrow[int32](r)
	t.Deadline = decision.ReadNarrow[int32](r)
	t.Work = decision.ReadNarrow[int32](r)
	t.MemGB = r.F64()
	t.Batch = decision.ReadNarrow[int16](r)
	t.NeedsPrep = r.Bool()
	t.Bid = r.F64()
	t.ModelName = lora.Model(r.Byte())
	if !t.ModelName.Valid() && r.Err == nil {
		r.Err = fmt.Errorf("service: decode: %v is not in the model catalog", t.ModelName)
	}
	return t
}

// stage frames one just-held bid into the current message buffer; the
// frames land (and the acks release) at commit.
func (w *walWriter) stage(t *task.Task) {
	w.buf = appendWALTask(w.buf[:0], t)
	w.msg = decision.AppendFrame(w.msg, w.buf)
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

// seal retains the staged message as a committed chunk (an empty one
// holds no arrival, so the next rotation prunes it).
func (w *walWriter) seal() {
	w.records += int64(len(w.refs))
	w.depth += int64(len(w.refs))
	w.bytes += int64(len(w.msg))
	w.chunks = append(w.chunks, walChunk{
		maxArrival: w.maxArrival,
		records:    len(w.refs),
		data:       append([]byte(nil), w.msg...),
	})
	w.resetMsg()
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

// commit writes the staged message with one syscall at the committed
// size and fsyncs per the batching knob. On failure the staged frames
// are rolled back (the file truncated to its committed size; the next
// message lands there, so a short write leaves no gap for the reader to
// stop at) and the error is returned with the refs still staged — the
// caller un-holds them.
func (w *walWriter) commit() error {
	if len(w.refs) == 0 {
		return nil // hold stages nothing while the journal is broken
	}
	if _, err := w.f.WriteAt(w.msg, w.size); err != nil {
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
			// rotation heals it.
			w.broken = true
			_ = w.f.Truncate(w.size)
			_ = w.rotate(w.lastCovered) // success clears broken
			return err
		}
	}
	w.size += int64(len(w.msg))
	w.seal()
	return nil
}

// rotate rewrites the journal to the chunks a persisted checkpoint at
// slot covered does not cover (through replaceFile, so a crash
// mid-rotation leaves the previous journal intact), then swaps the open
// handle to the new file. Chunks whose every arrival is covered are
// pruned first — safe even if the rewrite then fails, because the
// persisted checkpoint already carries their decisions.
func (w *walWriter) rotate(covered int) error {
	w.lastCovered = covered
	keep := w.chunks[:0]
	for _, c := range w.chunks {
		if c.maxArrival >= covered {
			keep = append(keep, c)
		}
	}
	clear(w.chunks[len(keep):])
	w.chunks = keep
	parts := [][]byte{walHeader(w.label, covered)}
	size, depth := int64(len(parts[0])), 0
	for _, c := range w.chunks {
		parts = append(parts, c.data)
		size += int64(len(c.data))
		depth += c.records
	}
	f, err := replaceFile(w.fsys, w.path, parts...)
	if f == nil {
		return err
	}
	w.close()
	w.f, w.size, w.depth, w.sinceSync = f, size, int64(depth), 0
	// A journal whose name may not survive a power cut must not take acks.
	w.broken = err != nil
	return err
}

// close shuts the journal's file handle, if there is one; the file stays
// on disk — it is the crash-recovery record.
func (w *walWriter) close() {
	if w != nil && w.f != nil {
		w.f.Close()
		w.f = nil
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
	if b.wal == nil {
		return
	}
	if err := b.wal.rotate(covered); err != nil {
		b.walErr = err
		b.walFails++
	}
}

// walRecords decodes a journal's valid prefix: every intact record up to
// the first torn or corrupt frame. A foreign or truncated header or a
// run-label mismatch degrades to "no records"; only this run's journal in
// another format version fails, with ErrFormatVersion.
func walRecords(data []byte, label string) ([]task.Task, error) {
	var tasks []task.Task
	_, err := decision.FramedPrefix(data, walMagic, walVersion, func(r *decision.Reader) bool {
		_ = r.Int() // header slot: informational; staleness is judged per record
		return r.Str() == label
	}, func(payload []byte) error {
		// A payload whose CRC passed but that does not decode is format
		// drift from an incompatible writer: the prefix ends here.
		r := &decision.Reader{B: payload}
		t := readWALTask(r)
		if r.Err == nil {
			tasks = append(tasks, t)
		}
		return r.Err
	})
	if errors.Is(err, ErrFormatVersion) {
		return nil, err
	}
	return tasks, nil
}

// ReadWAL reads the valid prefix of the journal at path for the given
// run label — the bids acked but not covered by any persisted
// checkpoint. A missing file holds none, and so does one RecoverWAL
// refuses. Exported for tooling and the fleet explorer's acked-bid
// audits; brokers recover through RecoverWAL.
func ReadWAL(path, label string) []task.Task {
	data, _ := os.ReadFile(path)
	tasks, _ := walRecords(data, label)
	return tasks
}

// RecoverWAL replays the journal at Options.WALPath into the broker:
// each surviving record is re-held for its original arrival slot as an
// adopted bid (no submitter is waiting; its decision lands in the
// decision map like any other). Replay is idempotent — records whose ID
// the restored decision map already holds decided before the crash and
// are skipped, as are duplicate records and arrivals behind the restored
// clock (covered by the checkpoint that rotation keyed the journal to).
// It then rotates the surviving held set, staged as one chunk, into a
// fresh journal: the old one is replaced only once the survivors are
// durable, so a second crash anywhere during recovery (a restart that
// dies before it serves) still finds a journal to replay.
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
	data, _ := os.ReadFile(b.opts.WALPath)
	tasks, err := walRecords(data, b.opts.RunLabel)
	if err != nil {
		return 0, fmt.Errorf("service: journal %s: %w", b.opts.WALPath, err)
	}
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
	if err := b.openJournal(); err != nil {
		return replayed, fmt.Errorf("service: wal reseed: %w", err)
	}
	return replayed, nil
}

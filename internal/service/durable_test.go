package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/task"
)

// powerFS is a fileSys over one real directory that numbers every
// operation passing through the seam and faults the one numbered at:
// "fail" returns EIO without running it, "short" lands half the bytes of
// the first write from there and returns ENOSPC, and "cut" loses power —
// that operation and every later one fail without touching the disk, and
// image is the directory as a strict POSIX reading of power loss leaves
// it: each file at its last-fsynced contents, the directory at its
// entries as of its last fsync. "zombie" supersedes gen, the generation
// writing, at the first temp-file create from there, as a supervisor
// swap mid-write does. The model is the durability, so Sync and SyncDir
// never reach the disk.
//
// A failed fsync is fsyncgate's: the kernel drops the file's dirty pages
// and marks them clean, so the bytes written since the last fsync stay
// readable but no later fsync on that file persists them. A later
// successful one persists only what was written after the failure (and
// the file's length, so the dropped bytes read back from disk as zeros).
type powerFS struct {
	mu    sync.Mutex
	at    int    // the operation to fault; -1 for none
	again int    // the operation to fault once at's has gone off; -1 for none
	mode  string // "fail", "short", "cut" or "zombie"
	ops   []string
	fired []string // the modes of the faults that went off
	cut   bool
	image map[string][]byte
	gen   []*Broker
	// names are the directory's entries now, synced as of its last fsync.
	names, synced map[string]*inode
	// crossed lists what a superseded broker attempted past the fence.
	crossed []string
}

// inode is one file's contents now and as of its last fsync, and the
// byte ranges written since the last fsync, good or failed.
type inode struct {
	data, synced []byte
	dirty        [][2]int
}

// persist is a successful fsync: the file's length and its dirty bytes
// reach the disk, nothing else.
func (ino *inode) persist() {
	synced := make([]byte, len(ino.data))
	copy(synced, ino.synced)
	for _, r := range ino.dirty {
		if lo, hi := r[0], min(r[1], len(ino.data)); lo < hi {
			copy(synced[lo:hi], ino.data[lo:hi])
		}
	}
	ino.synced, ino.dirty = synced, nil
}

var errPowerCut = errors.New("power cut")

func newPowerFS(at int, mode string) *powerFS {
	return &powerFS{at: at, again: -1, mode: mode, names: map[string]*inode{}, synced: map[string]*inode{}}
}

func (p *powerFS) isCut() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cut
}

// arm faults the operation after operations from now in the given mode;
// after < 0 disarms.
func (p *powerFS) arm(after int, mode string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at, p.again, p.mode = -1, -1, mode
	if after >= 0 {
		p.at = len(p.ops) + after
	}
}

// armTwice arms arm's fault and a second one in the same mode, then
// operations after the first.
func (p *powerFS) armTwice(after, then int, mode string) {
	p.arm(after, mode)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.again = p.at + then
}

// restore lays the directory out as the power cut left it and turns the
// power back on, each surviving file its own inode.
func (p *powerFS) restore(dir string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		os.Remove(filepath.Join(dir, e.Name()))
	}
	p.names, p.synced = map[string]*inode{}, map[string]*inode{}
	for name, data := range p.image {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
		p.names[name] = &inode{data: bytes.Clone(data), synced: data}
		p.synced[name] = p.names[name]
	}
	p.cut, p.image, p.at, p.again = false, nil, -1, -1
	return nil
}

// brokerFS is one broker's view of a powerFS: it knows whose operations
// it carries, so one from a superseded generation is caught.
type brokerFS struct {
	p     *powerFS
	owner *Broker
}

// do numbers one operation and runs fn (short: land half a write) unless
// the operation is faulted or the power is out. private, when non-nil,
// reports an operation on a temp file no other name reaches yet: a
// superseded broker may finish or discard one, never publish it.
func (fs brokerFS) do(kind string, private func() bool, fn func(short bool) error) error {
	p := fs.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if kind != "close" && fs.owner.superseded.Load() && (private == nil || !private()) {
		p.crossed = append(p.crossed, kind)
	}
	if p.cut {
		return errPowerCut
	}
	p.ops = append(p.ops, kind)
	if n := len(p.ops) - 1; p.at < 0 || n < p.at ||
		p.mode == "short" && kind != "write" || p.mode == "zombie" && kind != "create" {
		return fn(false)
	}
	p.at, p.again, p.fired = p.again, -1, append(p.fired, p.mode)
	switch p.mode {
	case "zombie":
		for _, b := range p.gen {
			b.Supersede()
		}
		return fn(false)
	case "cut":
		p.cut = true
		p.image = map[string][]byte{}
		for name, ino := range p.synced {
			p.image[name] = ino.synced
		}
		return errPowerCut
	case "short":
		fn(true)
		return syscall.ENOSPC
	}
	return syscall.EIO
}

func isTemp(name string) bool { return strings.HasPrefix(filepath.Base(name), ".") }

func (fs brokerFS) CreateTemp(dir, pattern string) (durableFile, error) {
	var pf *powerFile
	err := fs.do("create", func() bool { return true }, func(bool) error {
		f, err := os.CreateTemp(dir, pattern)
		if err == nil {
			pf = &powerFile{fs: fs, f: f, ino: &inode{}}
			fs.p.names[filepath.Base(f.Name())] = pf.ino
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return pf, nil
}

func (fs brokerFS) Rename(oldpath, newpath string) error {
	return fs.do("rename", nil, func(bool) error {
		if err := os.Rename(oldpath, newpath); err != nil {
			return err
		}
		fs.p.names[filepath.Base(newpath)] = fs.p.names[filepath.Base(oldpath)]
		delete(fs.p.names, filepath.Base(oldpath))
		return nil
	})
}

func (fs brokerFS) Remove(name string) error {
	return fs.do("remove", func() bool { return isTemp(name) }, func(bool) error {
		delete(fs.p.names, filepath.Base(name))
		return os.Remove(name)
	})
}

func (fs brokerFS) SyncDir(string) error {
	return fs.do("syncdir", nil, func(bool) error {
		fs.p.synced = maps.Clone(fs.p.names)
		return nil
	})
}

// powerFile is a real file whose contents the powerFS mirrors.
type powerFile struct {
	fs  brokerFS
	f   *os.File
	ino *inode
	off int64
}

func (f *powerFile) Name() string { return f.f.Name() }

// private reports whether the file is still reachable only by its temp name.
func (f *powerFile) private() bool { return f.fs.p.names[filepath.Base(f.f.Name())] == f.ino }

func (f *powerFile) Write(b []byte) (int, error) {
	n, err := f.WriteAt(b, f.off)
	f.off += int64(n)
	return n, err
}

func (f *powerFile) WriteAt(b []byte, off int64) (int, error) {
	n := 0
	err := f.fs.do("write", f.private, func(short bool) error {
		if short {
			b = b[:len(b)/2]
		}
		var err error
		n, err = f.f.WriteAt(b, off)
		if end := int(off) + n; end > len(f.ino.data) {
			f.ino.data = append(f.ino.data, make([]byte, end-len(f.ino.data))...)
		}
		copy(f.ino.data[off:], b[:n])
		f.ino.dirty = append(f.ino.dirty, [2]int{int(off), int(off) + n})
		return err
	})
	return n, err
}

func (f *powerFile) Sync() error {
	err := f.fs.do("sync", f.private, func(bool) error {
		f.ino.persist()
		return nil
	})
	if errors.Is(err, syscall.EIO) { // the dirty pages are dropped
		f.fs.p.mu.Lock()
		f.ino.dirty = nil
		f.fs.p.mu.Unlock()
	}
	return err
}

func (f *powerFile) Truncate(size int64) error {
	return f.fs.do("truncate", f.private, func(bool) error {
		if err := f.f.Truncate(size); err != nil {
			return err
		}
		if int(size) <= len(f.ino.data) {
			f.ino.data = f.ino.data[:size]
		} else {
			f.ino.data = append(f.ino.data, make([]byte, int(size)-len(f.ino.data))...)
		}
		return nil
	})
}

func (f *powerFile) Close() error {
	err := f.fs.do("close", nil, func(bool) error { return nil })
	f.f.Close() // whatever the fault, the descriptor goes
	return err
}

// TestPowerFSFsyncgate pins the model a failed fsync follows: the bytes
// written since the last good fsync stay readable but never reach the
// disk, a retried fsync succeeds without them, and what is written after
// the failure is persisted by the next good one, the dropped range
// reading back from disk as zeros.
func TestPowerFSFsyncgate(t *testing.T) {
	p := newPowerFS(-1, "")
	df, err := brokerFS{p, new(Broker)}.CreateTemp(t.TempDir(), ".gate")
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	f := df.(*powerFile)
	step := func(write string, fault bool, wantErr error, data, onDisk string) {
		t.Helper()
		if _, err := f.Write([]byte(write)); err != nil {
			t.Fatal(err)
		}
		if fault {
			p.arm(0, "fail")
		}
		if err := f.Sync(); !errors.Is(err, wantErr) {
			t.Fatalf("after writing %q: fsync returned %v, want %v", write, err, wantErr)
		}
		if string(f.ino.data) != data || string(f.ino.synced) != onDisk {
			t.Fatalf("after writing %q: reads %q, disk holds %q; want %q and %q", write, f.ino.data, f.ino.synced, data, onDisk)
		}
	}
	step("aaaa", false, nil, "aaaa", "aaaa")
	step("bbbb", true, syscall.EIO, "aaaabbbb", "aaaa")
	step("", false, nil, "aaaabbbb", "aaaa\x00\x00\x00\x00") // the retry
	step("cccc", false, nil, "aaaabbbbcccc", "aaaa\x00\x00\x00\x00cccc")
}

// crashOutcome is what one run of the crash scenario left behind.
type crashOutcome struct {
	fs              *powerFS
	acked, refused  []int // bids acked before the fault / refused with ErrWAL
	dir, ckpt, wal  string
	label           string
	resumeErr       error
	lost, resurrect []int
}

// TestPersistCrashPoints enumerates every filesystem operation of the
// persistence protocol — journal open, commits and their fsyncs, full
// snapshots, sidecar replacements and delta appends, rotations, a
// superseded generation's refused writes, a kill and a Resume that
// reseeds the journal — and at each operation N runs the scenario three
// ways: N fails (EIO), N is a write that lands short (ENOSPC after half
// its bytes, the truncate succeeding), and the power is cut at N. After
// each, a fresh broker must Resume on what survived, every bid whose ack
// was released before N must be decided in the chain or replayed from the
// journal, no bid refused with ErrWAL may come back, and no superseded
// generation may write past its fence. It generalizes
// TestWALValidPrefixProperty from every byte of one file to every
// operation of the protocol.
func TestPersistCrashPoints(t *testing.T) {
	const slots, killAt, seed = 8, 3, 8
	tasks := newStack(t, slots, 2, 3, seed).tasks
	perSlot, last := bySlot(t, tasks, slots), int(tasks[len(tasks)-1].Arrival) // last: the last slot with bids
	if len(perSlot[killAt]) < 2 || len(perSlot[last]) < 2 || last <= killAt {
		t.Fatal("workload too thin: the kill slot and the last slot need two intake messages each")
	}
	ctx := context.Background()

	// run drives one journaled broker (deltas between full snapshots every
	// fourth write) slot by slot, each slot's bids in two intake messages;
	// at killAt it is superseded, tries to write, is killed and a successor
	// resumes. The last slot's bids stay acked and undecided.
	run := func(t *testing.T, at int, mode string) *crashOutcome {
		o := &crashOutcome{fs: newPowerFS(at, mode), dir: t.TempDir(), label: "crash"}
		o.ckpt = filepath.Join(o.dir, "crash.ckpt")
		o.wal = WALPath(o.ckpt)
		newBroker := func() *Broker {
			opts := newStack(t, slots, 2, 3, seed).brokerOptions()
			opts.CheckpointPath, opts.WALPath, opts.RunLabel = o.ckpt, o.wal, o.label
			opts.CheckpointFullEvery = 4
			b, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		open := func() (*Broker, error) {
			b := newBroker()
			b.fsys = brokerFS{o.fs, b}
			if _, err := b.Resume(); err != nil {
				b.wal.close()
				return nil, err
			}
			return b, b.Start()
		}
		submit := func(b *Broker, batch []task.Task) []error {
			batch = append([]task.Task(nil), batch...)
			verdicts := make([]error, len(batch))
			if _, err := b.SubmitBatchAck(ctx, batch, verdicts); err != nil {
				t.Fatal(err)
			}
			for i, v := range verdicts {
				switch {
				case v == nil && !o.fs.isCut():
					o.acked = append(o.acked, batch[i].ID)
				case errors.Is(v, ErrWAL):
					o.refused = append(o.refused, batch[i].ID)
				}
			}
			return verdicts
		}

		b, err := open()
		for s := 0; err == nil && s <= last && !o.fs.isCut(); s++ {
			half := len(perSlot[s]) / 2
			submit(b, perSlot[s][:half])
			submit(b, perSlot[s][half:])
			if s == killAt {
				b.Supersede()
				late := task.Task{ID: 1 << 40, Arrival: int32(s), Deadline: slots - 1, Work: 5, MemGB: 2, Batch: 8, Bid: 5}
				if v := submit(b, []task.Task{late}); v[0] == nil {
					t.Fatal("a superseded broker acked a bid")
				}
				if _, err := b.Step(1); err != nil { // would persist a checkpoint and rotate
					t.Fatal(err)
				}
				b.Kill()
				if b, err = open(); err != nil {
					break
				}
			}
			if s < last {
				if _, err := b.Step(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if b != nil {
			if b.started {
				b.Kill()
			} else {
				b.wal.close()
			}
		}

		if o.fs.isCut() {
			if err := o.fs.restore(o.dir); err != nil {
				t.Fatal(err)
			}
		}
		fresh := newBroker()
		_, o.resumeErr = fresh.Resume()
		defer fresh.wal.close()
		known := func(id int) bool {
			_, held := fresh.heldIDs[id]
			return held || fresh.decisions.Has(id)
		}
		for _, id := range o.acked {
			if !known(id) {
				o.lost = append(o.lost, id)
			}
		}
		for _, id := range o.refused {
			if known(id) {
				o.resurrect = append(o.resurrect, id)
			}
		}
		return o
	}
	check := func(t *testing.T, o *crashOutcome) {
		t.Helper()
		if o.resumeErr != nil {
			t.Errorf("Resume on the surviving files: %v", o.resumeErr)
		}
		if len(o.lost) > 0 {
			t.Errorf("%d of %d acked bids neither decided nor journaled: %v", len(o.lost), len(o.acked), o.lost)
		}
		if len(o.resurrect) > 0 {
			t.Errorf("bids refused with ErrWAL came back: %v", o.resurrect)
		}
		if len(o.fs.crossed) > 0 {
			t.Errorf("a superseded broker wrote past its fence: %v", o.fs.crossed)
		}
	}

	clean := run(t, -1, "")
	check(t, clean)
	total := 0
	for _, batch := range perSlot {
		total += len(batch)
	}
	if len(clean.acked) != total || len(clean.refused) != 0 {
		t.Fatalf("fault-free run acked %d of %d bids, refused %d", len(clean.acked), total, len(clean.refused))
	}
	ops := clean.fs.ops
	cases := 0
	for n, kind := range ops {
		for _, mode := range []string{"fail", "short", "cut"} {
			if mode == "short" && kind != "write" {
				continue
			}
			cases++
			t.Run(fmt.Sprintf("%s@%d-%s", mode, n, kind), func(t *testing.T) { check(t, run(t, n, mode)) })
		}
	}
	t.Logf("%d operation points covered (%d cases: every operation failed and power-cut, every write also short)", len(ops), cases)
}

// FuzzFramedPrefix feeds arbitrary bytes to both framed decoders — the
// journal's (walRecords) and the delta sidecar's (decision.FramedPrefix
// keyed to a real snapshot, applying each record) — seeded with a real
// journal and a real sidecar. Neither may panic or allocate by a claimed
// count, and decoding data[:k] must yield a prefix of what decoding data
// yields.
func FuzzFramedPrefix(f *testing.F) {
	s := newStack(f, 8, 2, 3, 5)
	opts := walOptions(f, s)
	b := startBroker(f, opts)
	ackBatch(f, b, s.tasks)
	b.Kill()
	journal, err := os.ReadFile(opts.WALPath)
	if err != nil {
		f.Fatal(err)
	}
	// A small snapshot (8 slots × 4 nodes) and the two deltas its sidecar
	// carries: every exec decodes a fresh copy of the snapshot twice.
	path := filepath.Join(f.TempDir(), "ck.json")
	deltaStack(f, path, 4, 8, 3, 23)
	_, snapshot, err := readCheckpoint(path)
	if err != nil {
		f.Fatal(err)
	}
	baseCRC := crc32.ChecksumIEEE(snapshot)
	sidecar, err := os.ReadFile(DeltaPath(path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal, uint16(len(journal)/2))
	f.Add(sidecar, uint16(len(sidecar)-5))

	type decoded struct {
		tasks   []task.Task
		records []string
	}
	decode := func(data []byte, ck *Checkpoint) decoded {
		var d decoded
		d.tasks, _ = walRecords(data, opts.RunLabel)
		_, _ = decision.FramedPrefix(data, deltaMagic, deltaVersion, keyedTo(ck, baseCRC), func(p []byte) error {
			if err := applyDeltaRecord(ck, p); err != nil {
				return err
			}
			d.records = append(d.records, string(p))
			return nil
		})
		return d
	}
	fresh := func(t *testing.T) *Checkpoint {
		ck, err := readSnapshot(snapshot)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		ck := fresh(t)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		all := decode(data, ck)
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		k := int(cut) % (len(data) + 1)
		part := decode(data[:k], fresh(t))
		if len(part.tasks) > len(all.tasks) || len(part.records) > len(all.records) {
			t.Fatalf("data[:%d] decodes to %d bids and %d deltas, data to only %d and %d",
				k, len(part.tasks), len(part.records), len(all.tasks), len(all.records))
		}
		for i := range part.tasks {
			if part.tasks[i] != all.tasks[i] {
				t.Fatalf("data[:%d]'s bid %d differs from data's", k, i)
			}
		}
		for i := range part.records {
			if part.records[i] != all.records[i] {
				t.Fatalf("data[:%d]'s delta %d differs from data's", k, i)
			}
		}
	})
}

package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/pdftsp/pdftsp/internal/decision"
)

// One way to make a file durable: the snapshot, the shard manifest, the
// delta sidecar and the journal are all (re)written by replaceFile, and
// the two framed formats (wal.go, delta.go) share appendFrame and
// framedPrefix.

// fileSys is the filesystem seam under every durable write: the os by
// default (Broker.fsys), one that fails or cuts the power at any
// operation in TestPersistCrashPoints.
type fileSys interface {
	CreateTemp(dir, pattern string) (durableFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// durableFile is an open file behind the seam: what replaceFile writes and
// returns, the journal commits at, and the sidecar appends to.
type durableFile interface {
	Name() string
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the seam's production implementation.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (durableFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// replaceFile makes parts the contents of path, durably and atomically: a
// temp file in path's directory is written, fsynced, renamed over path,
// and the directory fsynced, so a crash or power cut at any point leaves
// the old file or the new one, whole — and once it returns nil, the new
// one survives power loss. guard, when non-nil, runs at the last gate
// before the rename: the supersession fence, so a write that stalled
// across a generation swap never publishes. The open handle comes back
// positioned after the parts. If only the directory fsync fails, the file
// is in place but its name may not survive a power cut: the handle comes
// back with the error, and the caller decides.
func replaceFile(fsys fileSys, path string, guard func() error, parts ...[]byte) (durableFile, error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return nil, fmt.Errorf("service: write %s: %w", path, err)
	}
	for i := 0; err == nil && i < len(parts); i++ {
		_, err = f.Write(parts[i])
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil && guard != nil {
		err = guard()
	}
	if err == nil {
		err = fsys.Rename(f.Name(), path)
	}
	if err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return nil, fmt.Errorf("service: write %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return f, fmt.Errorf("service: write %s: directory: %w", path, err)
	}
	return f, nil
}

// writeFile is replaceFile for a file nothing appends to.
func writeFile(fsys fileSys, path string, guard func() error, data []byte) error {
	f, err := replaceFile(fsys, path, guard, data)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendFrame appends payload to dst as one frame: uvarint length, CRC32
// (IEEE) of the payload, payload.
func appendFrame(dst, payload []byte) []byte {
	dst = decision.AppendU64(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// frameNext extracts the next CRC-framed payload, or nil when the tail
// is truncated or fails its checksum.
func frameNext(r *decision.Reader) []byte {
	n, w := binary.Uvarint(r.B)
	if w <= 0 {
		return nil
	}
	rest := r.B[w:]
	if len(rest) < 4 || n > uint64(len(rest)-4) { // not n+4: a hostile n wraps
		return nil
	}
	crc := binary.LittleEndian.Uint32(rest)
	payload := rest[4 : 4+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil
	}
	r.B = rest[4+n:]
	return payload
}

// ErrFormatVersion refuses a snapshot in another version of its format,
// and a journal or delta sidecar of this run (its magic, and a whole
// header naming this run and, for a sidecar, this snapshot) written in
// another version of its format: read as absent, it would silently drop
// every slot or acked bid it holds.
var ErrFormatVersion = errors.New("service: unsupported file format version")

// framedPrefix reads the valid prefix of a framed file: magic, a uvarint
// version, the rest of the header — which header reads, then accepts or
// refuses — and frames, whose payloads go to record in order. A foreign
// magic, a torn header or a refused one yields no records: the file
// belongs to something else. A header it accepts that names another
// version is ErrFormatVersion. The prefix ends silently at the first torn
// or corrupt frame (a crash's half-written tail, or bitrot), or at the
// first error record returns, which framedPrefix returns.
func framedPrefix(data, magic []byte, version uint64, header func(*decision.Reader) bool, record func([]byte) error) error {
	if !bytes.HasPrefix(data, magic) {
		return nil
	}
	r := &decision.Reader{B: data[len(magic):]}
	v := r.U64()
	if !header(r) || r.Err != nil {
		return nil
	}
	if v != version {
		return fmt.Errorf("%w: version %d, want %d", ErrFormatVersion, v, version)
	}
	for len(r.B) > 0 {
		payload := frameNext(r)
		if payload == nil {
			return nil
		}
		if err := record(payload); err != nil {
			return err
		}
	}
	return nil
}

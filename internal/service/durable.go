package service

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/pdftsp/pdftsp/internal/decision"
)

// One way to make a file durable: the snapshot, the shard manifest, the
// delta sidecar and the journal are all (re)written by replaceFile, and
// the framed formats (wal.go, delta.go, checkpoint.go) share
// internal/decision's frame.

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
// one survives power loss. The open handle comes back positioned after
// the parts. If only the directory fsync fails, the file
// is in place but its name may not survive a power cut: the handle comes
// back with the error, and the caller decides.
func replaceFile(fsys fileSys, path string, parts ...[]byte) (durableFile, error) {
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
func writeFile(fsys fileSys, path string, data []byte) error {
	f, err := replaceFile(fsys, path, data)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ErrFormatVersion refuses a snapshot, a journal or a delta sidecar of
// this run written in another version of its format; it is the frame's
// own (decision.FramedPrefix), so errors.Is holds for either name.
var ErrFormatVersion = decision.ErrFormatVersion

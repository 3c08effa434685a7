package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pdftsp/pdftsp/internal/config"
)

// smallStack is the seconds-long stack the serve-path tests run on: the
// flag defaults of main() cut to 24 slots at three bids a slot, on two
// nodes a broker (four for a lone broker).
func smallStack(t *testing.T, n int) config.Config {
	t.Helper()
	cfg := config.Default()
	cfg.Slots = 24
	cfg.Workload.RatePerSlot = 3
	nodes := 4
	if n > 1 {
		nodes = 2 * n
	}
	var err error
	if cfg.Nodes, err = config.Mix("hybrid", nodes); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRestoreFlag drives main()'s build path through a drain and a
// -restore: the run resumes at the drained slot for either shape, and
// -restore with nothing on disk is refused unless a journal could have
// been all the run left behind. -wal and -restore without -checkpoint are
// refused before anything is opened.
func TestRestoreFlag(t *testing.T) {
	for _, c := range []struct {
		name string
		so   serveOpts
	}{
		{"wal-without-checkpoint", serveOpts{virtual: true, wal: true}},
		{"restore-without-checkpoint", serveOpts{virtual: true, restore: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := buildAuctioneer(smallStack(t, 1), 1, spotConfig{}, c.so)
			if err == nil || !strings.Contains(err.Error(), "requires -checkpoint") {
				t.Fatalf("err %v, want a refusal naming -checkpoint", err)
			}
		})
	}
	for _, n := range []int{1, 2} {
		for _, wal := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards-%d-wal-%v", n, wal), func(t *testing.T) {
				cfg := smallStack(t, n)
				so := serveOpts{
					virtual: true, queue: 64, fullEvery: 2, wal: wal,
					ckpt: filepath.Join(t.TempDir(), "state.json"),
				}
				restore := so
				restore.restore = true
				if _, err := buildAuctioneer(cfg, n, spotConfig{}, restore); (err == nil) != wal {
					t.Fatalf("-restore on an empty directory: err %v with -wal=%v", err, wal)
				}
				a, err := buildAuctioneer(cfg, n, spotConfig{}, so)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Start(); err != nil {
					t.Fatal(err)
				}
				if _, err := a.Step(3); err != nil {
					t.Fatal(err)
				}
				if err := a.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				b, err := buildAuctioneer(cfg, n, spotConfig{}, restore)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				defer b.Kill()
				if slot, err := b.Slot(); err != nil || slot != 3 {
					t.Fatalf("restored at slot %d, err %v; want 3", slot, err)
				}
			})
		}
	}
}

// TestSupervisedSlotZeroCrash: a run killed before its first slot close,
// then restarted by a process supervisor with -restore, through main()'s
// build path. With -wal it resumes at slot 0; without it -restore is
// refused the same way for either shape (a fleet's Start wrote its
// manifest, which is not a checkpoint).
func TestSupervisedSlotZeroCrash(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			cfg := smallStack(t, n)
			for _, wal := range []bool{false, true} {
				so := serveOpts{
					virtual: true, queue: 64, fullEvery: 1, wal: wal,
					ckpt: filepath.Join(t.TempDir(), "state.json"),
				}
				a, err := buildAuctioneer(cfg, n, spotConfig{}, so)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Start(); err != nil {
					t.Fatal(err)
				}
				a.Kill()
				restore := so
				restore.restore = true
				b, err := buildAuctioneer(cfg, n, spotConfig{}, restore)
				if !wal {
					if want := "-restore: no checkpoint at " + so.ckpt; err == nil || err.Error() != want {
						t.Fatalf("-restore after a slot-0 kill without -wal: err %v, want %q", err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("-wal -restore after a slot-0 kill: %v", err)
				}
				if err := b.Start(); err != nil {
					t.Fatal(err)
				}
				slot, err := b.Slot()
				h := b.Health()
				b.Kill()
				if err != nil || slot != 0 || h.Status != "ok" {
					t.Fatalf("-wal -restore after a slot-0 kill: slot %d (err %v), health %+v; want slot 0, ok", slot, err, h)
				}
			}
		})
	}
}

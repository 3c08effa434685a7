package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/service"
)

// TestSmokeMatrix runs the self-test harnesses behind -smoke, -chaos,
// -spot-smoke and -wal-chaos with exactly the matrix `make check` runs
// via `go run`, so tier-1 (`go test ./...`) drives plain, faulted, spot
// and restored rounds against their sim.Run twins. The Makefile targets
// stay: they are how a failing seed is replayed by hand.
func TestSmokeMatrix(t *testing.T) {
	// The flag defaults of main(); every harness shrinks them the same way
	// it does for the command line.
	cfg := config.Default()
	sc := spotConfig{seed: 11}
	chaos := func(seed int64, shards int) func() error {
		return func() error { _, err := runChaos(cfg, seed, shards, sc); return err }
	}
	walChaos := func(seed int64, shards int) func() error {
		return func() error { _, err := runWALChaos(cfg, seed, shards); return err }
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"serve-smoke", func() error { return runSmoke(cfg) }},
		{"chaos-1", chaos(1, 1)},
		{"chaos-7", chaos(7, 1)},
		{"chaos-42", chaos(42, 1)},
		{"chaos-1-shards-2", chaos(1, 2)},
		{"chaos-7-shards-4", chaos(7, 4)},
		{"spot-smoke", func() error { return runSpotSmoke(cfg, sc.seed, sc) }},
		{"wal-chaos-1", walChaos(1, 1)},
		{"wal-chaos-7-shards-2", walChaos(7, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPostBidCarriesModelName: the smoke client posts a task in full. It
// used to build the wire bid field by field and left ModelName out, so
// every -smoke bid was a bid for the default model; the journal holds the
// held bid as the broker stamped it.
func TestPostBidCarriesModelName(t *testing.T) {
	cfg := config.Default()
	cfg.Slots = 8
	cfg.Workload.RatePerSlot = 1
	var err error
	if cfg.Nodes, err = config.Mix("hybrid", 2); err != nil {
		t.Fatal(err)
	}
	st, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "bids.ckpt")
	wal := service.WALPath(ckpt)
	opts := stackOptions(st)
	opts.VirtualClock, opts.CheckpointPath, opts.WALPath, opts.RunLabel = true, ckpt, wal, "model-name"
	broker, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Start(); err != nil {
		t.Fatal(err)
	}
	defer broker.Kill()
	srv := httptest.NewServer(broker.Handler())
	defer srv.Close()

	bid := st.Tasks[0]
	bid.ModelName = "llama-7b"
	done := make(chan error, 1)
	go func() {
		_, err := smokeClient{base: srv.URL}.postBid(bid)
		done <- err
	}()
	for {
		s, err := broker.Status()
		if err != nil {
			t.Fatal(err)
		}
		if s.Held == 1 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("bid answered before it was held: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	if held := service.ReadWAL(wal, "model-name"); len(held) != 1 || held[0] != bid {
		t.Fatalf("held bid %+v, want %+v", held, bid)
	}
	if _, err := broker.Step(8); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSupervisedSlotZeroCrash: a supervised run without a journal whose
// first generation dies before its first slot close has nothing on disk
// worth restoring (a fleet's Start has already written its manifest) and
// must restart fresh, whatever its shape. The auctioneer is built the way
// main() builds it.
func TestSupervisedSlotZeroCrash(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			so := serveOpts{
				virtual: true, queue: 64, ckptEvery: 1, fullEvery: 1, supervise: true,
				ckpt: filepath.Join(t.TempDir(), "state.json"),
			}
			a, err := buildAuctioneer(quick(config.Default(), n), n, spotConfig{}, so)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Start(); err != nil {
				t.Fatal(err)
			}
			defer a.Kill()
			for _, b := range a.Brokers() {
				b.Kill()
			}
			// Slot waits out the swap (bounded by the supervisor's RestartWait).
			if slot, err := a.Slot(); err != nil || slot != 0 {
				t.Fatalf("after the crash: slot %d, err %v; want a fresh generation at slot 0", slot, err)
			}
			if h := a.Health(); h.Status != "ok" {
				t.Fatalf("after the crash: %s: %s", h.Status, h.Reason)
			}
		})
	}
}

// TestRestoreFlag drives main()'s build path through a drain and a
// -restore: the run resumes at the drained slot for either shape, and
// -restore with nothing on disk is refused unless a journal could have
// been all the run left behind.
func TestRestoreFlag(t *testing.T) {
	for _, n := range []int{1, 2} {
		for _, wal := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards-%d-wal-%v", n, wal), func(t *testing.T) {
				cfg := quick(config.Default(), n)
				so := serveOpts{
					virtual: true, queue: 64, ckptEvery: 1, fullEvery: 2, wal: wal, walSyncEvery: 1,
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

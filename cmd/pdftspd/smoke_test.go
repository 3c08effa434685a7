package main

import (
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
	wal := filepath.Join(t.TempDir(), "bids.wal")
	opts := stackOptions(st)
	opts.VirtualClock, opts.WALPath, opts.RunLabel = true, wal, "model-name"
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

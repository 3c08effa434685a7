package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
)

// serveOpts carries the serving flags into the unified serve path.
type serveOpts struct {
	addr         string
	virtual      bool
	slotDur      time.Duration
	queue        int
	ckpt         string
	ckptEvery    int
	fullEvery    int
	restore      bool
	serveDebug   string
	observer     obs.Observer
	wal          bool
	walSyncEvery int
	supervise    bool
}

// brokerOptions wires broker i of n's options from the common serving
// flags. In a fleet, checkpoint paths get a ".shard<i>" suffix (the
// manifest at the base path ties them together), run labels a "/<i>"
// suffix, and the intake queue is split evenly so the fleet's total
// admission capacity matches the monolithic broker's; a fleet of one
// keeps the flags as given. Each broker gets its own spot provider over
// its own cluster's elastic tail when the tier is on.
func brokerOptions(st *config.Built, i, n int, sc spotConfig, o serveOpts) (service.Options, error) {
	opts := stackOptions(st)
	opts.QueueSize = o.queue
	opts.VirtualClock = o.virtual
	opts.SlotDuration = o.slotDur
	opts.CheckpointPath = o.ckpt
	opts.CheckpointEvery = o.ckptEvery
	opts.CheckpointFullEvery = o.fullEvery
	opts.Observer = o.observer
	if n > 1 {
		opts.QueueSize = o.queue/n + 1
		opts.RunLabel = fmt.Sprintf("pdftspd/%d", i)
		if o.ckpt != "" {
			opts.CheckpointPath = fmt.Sprintf("%s.shard%d", o.ckpt, i)
		}
	}
	if o.wal {
		opts.WALPath = service.WALPath(opts.CheckpointPath)
		opts.WALSyncEvery = o.walSyncEvery
	}
	prov, err := sc.provider(st.Cluster, st.Cluster.Horizon().T, i)
	if err != nil {
		return opts, err
	}
	if prov != nil {
		opts.Spot = prov
	}
	return opts, nil
}

// buildAuctioneer wires the serving fleet for the flag set — a
// monolithic Broker for -shards 1, a Shards fleet otherwise — restored
// from its checkpoint (or manifest) when asked, and returns it behind
// the one service.Auctioneer surface the serve loop drives.
func buildAuctioneer(cfg config.Config, n int, sc spotConfig, o serveOpts) (service.Auctioneer, error) {
	if o.wal && o.ckpt == "" {
		return nil, fmt.Errorf("-wal requires -checkpoint (the journal lives next to the checkpoint chain)")
	}
	if o.supervise {
		return buildSupervised(cfg, n, sc, o)
	}
	stacks, err := cfg.BuildShards(n)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		opts, err := brokerOptions(stacks[0], 0, 1, sc, o)
		if err != nil {
			return nil, err
		}
		broker, err := service.New(opts)
		if err != nil {
			return nil, fmt.Errorf("broker: %w", err)
		}
		if o.restore {
			if o.ckpt == "" {
				return nil, fmt.Errorf("-restore requires -checkpoint")
			}
			switch ck, err := service.LoadCheckpoint(o.ckpt); {
			case err == nil:
				if err := broker.Restore(ck); err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "restored checkpoint: slot %d, %d decided bids\n", ck.Slot, ck.Decisions.Len())
			case o.wal && errors.Is(err, fs.ErrNotExist):
				// A crash before the first checkpoint persist leaves only the
				// journal; replaying onto a fresh broker (slot 0, empty
				// decision map) re-offers every acked bid.
				fmt.Fprintln(os.Stderr, "no checkpoint on disk; recovering from journal alone")
			default:
				return nil, err
			}
			if o.wal {
				replayed, err := recoverJournals(broker)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(os.Stderr, "replayed journal: %d acked bid(s) re-offered\n", replayed)
			}
		}
		return broker, nil
	}

	specs := make([]service.ShardSpec, n)
	for i, st := range stacks {
		opts, err := brokerOptions(st, i, n, sc, o)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		specs[i] = service.ShardSpec{Key: fmt.Sprintf("%s/%d", st.Model.Name, i), Options: opts}
	}
	fleet, err := service.NewShards(service.ShardsOptions{ManifestPath: o.ckpt}, specs...)
	if err != nil {
		return nil, fmt.Errorf("shards: %w", err)
	}
	if o.restore {
		if o.ckpt == "" {
			return nil, fmt.Errorf("-restore requires -checkpoint")
		}
		switch m, err := service.ReadShardManifest(o.ckpt); {
		case err == nil:
			switch rerr := fleet.RestoreFromManifest(m); {
			case rerr == nil:
				slot := 0
				if ck, err := service.LoadCheckpoint(m.Paths[0]); err == nil {
					slot = ck.Slot
				}
				fmt.Fprintf(os.Stderr, "restored %d-shard manifest at slot %d\n", m.Shards, slot)
			case o.wal && errors.Is(rerr, service.ErrNoCheckpoints):
				// Start writes the manifest before the first checkpoint wave,
				// so a crash in that window leaves a manifest with no shard
				// checkpoints — the journals carry every acked bid.
				fmt.Fprintln(os.Stderr, "manifest on disk but no shard checkpoints; recovering from journals alone")
			default:
				return nil, rerr
			}
		case o.wal && errors.Is(err, fs.ErrNotExist):
			fmt.Fprintln(os.Stderr, "no shard manifest on disk; recovering from journals alone")
		default:
			return nil, err
		}
		if o.wal {
			replayed, err := recoverJournals(fleet)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "replayed journals: %d acked bid(s) re-offered across %d shard(s)\n", replayed, n)
		}
	}
	return fleet, nil
}

// recoverJournals replays every broker's write-ahead journal after its
// checkpoint restore: each acked-but-undecided bid is re-held (decided
// bids dedup against the restored decision map) and a fresh journal is
// seeded with the survivors. Returns the total re-offered count.
func recoverJournals(a service.Auctioneer) (int, error) {
	total := 0
	for _, b := range a.Brokers() {
		replayed, err := b.RecoverWAL()
		if err != nil {
			return total, fmt.Errorf("journal replay: %w", err)
		}
		total += replayed
	}
	return total, nil
}

// walOnDisk reports whether any of the run's journal files exist — the
// monolithic one next to ckpt, or any shard's when n > 1.
func walOnDisk(ckpt string, n int) bool {
	if n == 1 {
		_, err := os.Stat(service.WALPath(ckpt))
		return err == nil
	}
	for i := 0; i < n; i++ {
		if _, err := os.Stat(service.WALPath(fmt.Sprintf("%s.shard%d", ckpt, i))); err == nil {
			return true
		}
	}
	return false
}

// buildSupervised wraps the flag set's fleet in a service.Supervisor:
// Build constructs a generation exactly as buildAuctioneer would —
// restoring whenever persisted state exists on disk (the checkpoint
// chain, or just the journal when the run died before its first
// checkpoint persist), so the first generation honors -restore and
// every later one resumes the crashed run — replays the journals, and
// starts it. The watchdog then turns any in-process crash or wedge
// into a bounded restart instead of an outage.
func buildSupervised(cfg config.Config, n int, sc spotConfig, o serveOpts) (service.Auctioneer, error) {
	inner := o
	inner.supervise = false
	build := func() (service.Auctioneer, error) {
		ro := inner
		if ro.ckpt != "" {
			if _, err := os.Stat(ro.ckpt); err == nil {
				ro.restore = true
			} else if ro.wal && walOnDisk(ro.ckpt, n) {
				ro.restore = true
			}
		}
		a, err := buildAuctioneer(cfg, n, sc, ro)
		if err != nil {
			return nil, err
		}
		if err := a.Start(); err != nil {
			return nil, err
		}
		return a, nil
	}
	sup, err := service.NewSupervisor(service.SupervisorOptions{
		Build: build,
		OnRestart: func(gen int, reason string) {
			fmt.Fprintf(os.Stderr, "pdftspd: supervisor restored generation %d (%s)\n", gen, reason)
		},
	})
	if err != nil {
		return nil, err
	}
	return sup, nil
}

// serveAuctioneer is the one serve loop: Start, expvar exposure, the
// HTTP listener, and the signal-driven graceful drain — identical for a
// fleet of one and a fleet of many (supervised or not).
func serveAuctioneer(a service.Auctioneer, cfg config.Config, n int, sc spotConfig, o serveOpts) {
	if err := a.Start(); err != nil {
		fail("start: %v", err)
	}
	if o.serveDebug != "" {
		// After Start so a supervisor has a generation to expose; across
		// restarts the expvar bindings keep reporting generation 0's
		// final (race-free) state — live metrics flow through /v1/status.
		brokers := a.Brokers()
		for i, b := range brokers {
			name := "pdftspd_broker"
			if len(brokers) > 1 {
				name = fmt.Sprintf("pdftspd_broker_%d", i)
			}
			b.ExposeExpvar(name)
		}
	}

	srv := &http.Server{Addr: o.addr, Handler: a.Handler()}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fail("listen: %v", err)
	}
	clock := "real clock"
	if o.virtual {
		clock = "virtual clock"
	}
	nodes := cfg.NumNodes()
	shape := fmt.Sprintf("%d nodes", nodes)
	if n > 1 {
		shape = fmt.Sprintf("%d shards × ~%d nodes = %d", n, nodes/n, nodes)
	}
	tier := ""
	if sc.enabled() {
		tier = fmt.Sprintf(", spot tier %d node(s)/broker", sc.nodes)
	}
	if o.wal {
		tier += ", journaled intake"
	}
	if o.supervise {
		tier += ", supervised"
	}
	fmt.Fprintf(os.Stderr, "pdftspd serving on http://%s (%s, %s, %d slots%s)\n",
		ln.Addr(), clock, shape, cfg.Slots, tier)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		fail("serve: %v", err)
	case <-ctx.Done():
	}
	if o.wal {
		fmt.Fprintln(os.Stderr, "pdftspd: draining (held bids refused but journaled; a -restore restart re-offers them)")
	} else {
		fmt.Fprintln(os.Stderr, "pdftspd: draining (held bids refused; clients resubmit after restart)")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Drain(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
	}
	_ = srv.Shutdown(shutCtx)
}

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

// shardSpecs wires the per-shard broker options from the common serving
// flags: checkpoint paths get a ".shard<i>" suffix (the manifest at the
// base path ties them together), run labels a "/<i>" suffix, and the
// intake queue is split evenly so the fleet's total admission capacity
// matches the monolithic broker's. Each shard also gets its own spot
// provider over its own cluster's elastic tail when the tier is on.
func shardSpecs(stacks []*stack, sc spotConfig, o serveOpts) ([]service.ShardSpec, error) {
	specs := make([]service.ShardSpec, len(stacks))
	queue := o.queue/len(stacks) + 1
	for i, st := range stacks {
		opts := service.Options{
			Cluster:             st.cl,
			Scheduler:           st.sched,
			Model:               st.model,
			Market:              st.mkt,
			QueueSize:           queue,
			VirtualClock:        o.virtual,
			SlotDuration:        o.slotDur,
			CheckpointEvery:     o.ckptEvery,
			CheckpointFullEvery: o.fullEvery,
			Observer:            o.observer,
			RunLabel:            fmt.Sprintf("pdftspd/%d", i),
		}
		if o.ckpt != "" {
			opts.CheckpointPath = fmt.Sprintf("%s.shard%d", o.ckpt, i)
			if o.wal {
				opts.WALPath = service.WALPath(opts.CheckpointPath)
				opts.WALSyncEvery = o.walSyncEvery
			}
		}
		prov, err := sc.provider(st.cl, st.cl.Horizon().T, i)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if prov != nil {
			opts.Spot = prov
		}
		specs[i] = service.ShardSpec{
			Key:     fmt.Sprintf("%s/%d", st.model.Name, i),
			Options: opts,
		}
	}
	return specs, nil
}

// buildAuctioneer wires the serving fleet for the flag set — a
// monolithic Broker for -shards 1, a Shards fleet otherwise — restored
// from its checkpoint (or manifest) when asked, and returns it behind
// the one service.Auctioneer surface the serve loop drives. The second
// return is the total node count, for the banner.
func buildAuctioneer(cfg stackConfig, n int, sc spotConfig, o serveOpts) (service.Auctioneer, int, error) {
	if o.wal && o.ckpt == "" {
		return nil, 0, fmt.Errorf("-wal requires -checkpoint (the journal lives next to the checkpoint chain)")
	}
	if o.supervise {
		return buildSupervised(cfg, n, sc, o)
	}
	if n == 1 {
		st, err := cfg.build()
		if err != nil {
			return nil, 0, err
		}
		opts := service.Options{
			Cluster:             st.cl,
			Scheduler:           st.sched,
			Model:               st.model,
			Market:              st.mkt,
			QueueSize:           o.queue,
			VirtualClock:        o.virtual,
			SlotDuration:        o.slotDur,
			CheckpointPath:      o.ckpt,
			CheckpointEvery:     o.ckptEvery,
			CheckpointFullEvery: o.fullEvery,
			Observer:            o.observer,
		}
		if o.wal {
			opts.WALPath = service.WALPath(o.ckpt)
			opts.WALSyncEvery = o.walSyncEvery
		}
		prov, err := sc.provider(st.cl, cfg.slots, 0)
		if err != nil {
			return nil, 0, err
		}
		if prov != nil {
			opts.Spot = prov
		}
		broker, err := service.New(opts)
		if err != nil {
			return nil, 0, fmt.Errorf("broker: %w", err)
		}
		if o.restore {
			if o.ckpt == "" {
				return nil, 0, fmt.Errorf("-restore requires -checkpoint")
			}
			switch ck, err := service.LoadCheckpoint(o.ckpt); {
			case err == nil:
				if err := broker.Restore(ck); err != nil {
					return nil, 0, err
				}
				fmt.Fprintf(os.Stderr, "restored checkpoint: slot %d, %d decided bids\n", ck.Slot, ck.Decisions.Len())
			case o.wal && errors.Is(err, fs.ErrNotExist):
				// A crash before the first checkpoint persist leaves only the
				// journal; replaying onto a fresh broker (slot 0, empty
				// decision map) re-offers every acked bid.
				fmt.Fprintln(os.Stderr, "no checkpoint on disk; recovering from journal alone")
			default:
				return nil, 0, err
			}
			if o.wal {
				replayed, err := recoverJournals(broker)
				if err != nil {
					return nil, 0, err
				}
				fmt.Fprintf(os.Stderr, "replayed journal: %d acked bid(s) re-offered\n", replayed)
			}
		}
		return broker, st.cl.NumNodes(), nil
	}

	stacks, err := cfg.buildShards(n)
	if err != nil {
		return nil, 0, err
	}
	specs, err := shardSpecs(stacks, sc, o)
	if err != nil {
		return nil, 0, err
	}
	fleet, err := service.NewShards(service.ShardsOptions{ManifestPath: o.ckpt}, specs...)
	if err != nil {
		return nil, 0, fmt.Errorf("shards: %w", err)
	}
	if o.restore {
		if o.ckpt == "" {
			return nil, 0, fmt.Errorf("-restore requires -checkpoint")
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
				return nil, 0, rerr
			}
		case o.wal && errors.Is(err, fs.ErrNotExist):
			fmt.Fprintln(os.Stderr, "no shard manifest on disk; recovering from journals alone")
		default:
			return nil, 0, err
		}
		if o.wal {
			replayed, err := recoverJournals(fleet)
			if err != nil {
				return nil, 0, err
			}
			fmt.Fprintf(os.Stderr, "replayed journals: %d acked bid(s) re-offered across %d shard(s)\n", replayed, n)
		}
	}
	nodes := 0
	for _, st := range stacks {
		nodes += st.cl.NumNodes()
	}
	return fleet, nodes, nil
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
func buildSupervised(cfg stackConfig, n int, sc spotConfig, o serveOpts) (service.Auctioneer, int, error) {
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
		a, _, err := buildAuctioneer(cfg, n, sc, ro)
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
		return nil, 0, err
	}
	return sup, cfg.nodes, nil
}

// serveAuctioneer is the one serve loop: Start, expvar exposure, the
// HTTP listener, and the signal-driven graceful drain — identical for a
// fleet of one and a fleet of many (supervised or not).
func serveAuctioneer(a service.Auctioneer, cfg stackConfig, n int, sc spotConfig, o serveOpts, nodes int) {
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
		ln.Addr(), clock, shape, cfg.slots, tier)

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

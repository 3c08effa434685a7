package main

import (
	"context"
	"fmt"
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
	addr       string
	virtual    bool
	slotDur    time.Duration
	queue      int
	ckpt       string
	fullEvery  int
	restore    bool
	serveDebug string
	observer   obs.Observer
	wal        bool
}

// brokerOptions wires the options of one of n brokers from the common
// serving flags; service.Open derives a fleet's per-broker paths and labels from
// them. A fleet splits the intake queue evenly so its total admission
// capacity matches the monolithic broker's.
func brokerOptions(st *config.Built, n int, o serveOpts) service.Options {
	opts := stackOptions(st)
	opts.QueueSize = o.queue
	if n > 1 {
		opts.QueueSize = o.queue/n + 1
	}
	opts.VirtualClock = o.virtual
	opts.SlotDuration = o.slotDur
	opts.CheckpointPath = o.ckpt
	opts.CheckpointFullEvery = o.fullEvery
	opts.Observer = o.observer
	if o.wal {
		opts.WALPath = service.WALPath(o.ckpt)
	}
	return opts
}

// openFleet opens the flag set's fleet on fresh stacks and, under
// -restore, loads whatever its checkpoint chain and journals hold.
// -restore with nothing to restore from is an error, except that a
// journaled run which died before its first checkpoint persist restarts
// from the journal alone.
func openFleet(cfg config.Config, n int, o serveOpts) (service.Auctioneer, error) {
	stacks, err := cfg.BuildShards(n)
	if err != nil {
		return nil, err
	}
	opts := make([]service.Options, n)
	for i, st := range stacks {
		opts[i] = brokerOptions(st, n, o)
	}
	a, err := service.Open(opts...)
	if err != nil || !o.restore {
		return a, err
	}
	rep, err := a.Resume()
	switch {
	case err != nil:
		return nil, err
	case rep.FromCheckpoint:
		fmt.Fprintf(os.Stderr, "restored checkpoint: slot %d, %d decided bids\n", rep.Slot, rep.Decided)
	case !o.wal:
		return nil, fmt.Errorf("-restore: no checkpoint at %s", o.ckpt)
	case o.wal:
		fmt.Fprintln(os.Stderr, "no checkpoint on disk; recovering from the journal alone")
	}
	if o.wal {
		fmt.Fprintf(os.Stderr, "replayed journal: %d acked bid(s) re-offered\n", rep.Replayed)
	}
	return a, nil
}

// buildAuctioneer returns the flag set's fleet behind the one
// service.Auctioneer surface the serve loop drives: opened and, under
// -restore, resumed. Coming back from a crash or a wedge is a process
// restart with -restore, so no two generations ever share a process.
func buildAuctioneer(cfg config.Config, n int, o serveOpts) (service.Auctioneer, error) {
	if o.wal && o.ckpt == "" {
		return nil, fmt.Errorf("-wal requires -checkpoint (the journal lives next to the checkpoint chain)")
	}
	if o.restore && o.ckpt == "" {
		return nil, fmt.Errorf("-restore requires -checkpoint")
	}
	return openFleet(cfg, n, o)
}

// serveAuctioneer is the one serve loop: Start, expvar exposure, the
// HTTP listener, and the signal-driven graceful drain — identical for a
// fleet of one and a fleet of many.
func serveAuctioneer(a service.Auctioneer, cfg config.Config, n int, o serveOpts) {
	if err := a.Start(); err != nil {
		fail("start: %v", err)
	}
	if o.serveDebug != "" {
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
	intake := ""
	if o.wal {
		intake = ", journaled intake"
	}
	fmt.Fprintf(os.Stderr, "pdftspd serving on http://%s (%s, %s, %d slots%s)\n",
		ln.Addr(), clock, shape, cfg.Slots, intake)

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

// Command pdftspd serves the pdFTSP auction as a long-lived broker: bids
// arrive over HTTP, are batched per slot, and each client receives the
// irrevocable auction decision when its arrival slot closes.
//
// Usage:
//
//	pdftspd -addr :8080 -nodes 8 -mix hybrid -slots 144
//	pdftspd -virtual-clock               # slots advance via POST /v1/clock/step
//	pdftspd -checkpoint state.ckpt       # persist duals+ledger each slot
//	pdftspd -checkpoint state.ckpt -restore   # resume a crashed broker
//	pdftspd -checkpoint state.ckpt -wal  # journal acked bids: no acked bid is ever lost
//	pdftspd -checkpoint state.ckpt -wal -supervise  # in-process watchdog restarts a crashed broker
//
// Endpoints: POST /v1/bids, GET /v1/status, GET /v1/decisions/{id},
// POST /v1/clock/step (virtual clock only), GET /healthz. SIGTERM drains
// gracefully: held bids are refused (without -wal clients resubmit after
// restart; with it their journaled bids are re-offered on the next
// -restore), a final checkpoint is written, and the run's RunEnd event
// is emitted.
//
// The scheduler's dual prices are calibrated against a synthetic workload
// drawn from the -rate/-arrivals/-deadlines flags, mirroring how the
// batch simulator calibrates against its real workload; a restored broker
// must be launched with the same flags as the original.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	// The stack flags describe the cluster, the marketplace and the
	// workload the dual prices are calibrated against.
	cfg := config.Default()
	cfg.StackFlags(flag.CommandLine, 8, "hybrid")
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	virtual := flag.Bool("virtual-clock", false, "advance slots only via POST /v1/clock/step")
	slotDur := flag.Duration("slot", 10*time.Second, "real-clock slot duration")
	queue := flag.Int("queue", 1024, "bounded intake queue size (429 when full)")
	ckpt := flag.String("checkpoint", "", "persist auction state to this file at every slot close")
	fullEvery := flag.Int("full-every", 1, "write a full snapshot every n checkpoints and binary deltas to a .delta sidecar in between (1 = always full, no sidecar)")
	restore := flag.Bool("restore", false, "resume from -checkpoint (full snapshot + delta sidecar) before serving")
	wal := flag.Bool("wal", false, "journal every acked bid to <checkpoint>.wal, fsynced before its ack releases; -restore replays the journal (requires -checkpoint)")
	supervise := flag.Bool("supervise", false, "run the fleet under an in-process watchdog: a crashed or wedged generation is restored from its checkpoint and journal automatically")
	decLog := flag.String("decision-log", "", "stream every decision to this binary log: one CRC-framed decision record per bid, not synced, flushed at run end (read with obs.ReadDecisionLog)")
	obsTrace := flag.String("trace", "", "write a JSONL event trace to this file (analyze with cmd/trace)")
	audit := flag.Bool("audit", false, "validate auction invariants online; non-zero exit on any violation")
	serveDebug := flag.String("serve", "", "serve live expvar metrics and pprof on this address")
	shards := flag.Int("shards", 1, "partition the cluster into this many shard brokers behind a dual-price router")
	spotNodes := flag.Int("spot-nodes", 0, "rent this many revocable spot-market nodes per broker (the cluster's tail indices; market seed 11, 6-slot leases, rent capped at base price x horizon x nodes); 0 disables the elastic tier")
	spotDiscount := flag.Float64("spot-discount", 0, "mean spot quote as a fraction of the on-demand reference cost (0 = default 0.4)")
	spotPredictive := flag.Bool("spot-predictive", false, "oracle: admission reads the spot trace's future quotes and reclaims instead of the current quote, knowledge a live market does not give")
	flag.Parse()
	if *shards < 1 {
		fail("-shards must be >= 1")
	}
	sc := spotConfig{nodes: *spotNodes, discount: *spotDiscount, predictive: *spotPredictive}

	var observers []obs.Observer
	var jsonlSink *obs.JSONL
	if *obsTrace != "" {
		var err error
		jsonlSink, err = obs.NewJSONLFile(*obsTrace)
		if err != nil {
			fail("trace: %v", err)
		}
		observers = append(observers, jsonlSink)
	}
	var auditor *obs.Audit
	if *audit {
		auditor = obs.NewAudit()
		observers = append(observers, auditor)
	}
	var decSink *obs.DecisionLog
	if *decLog != "" {
		var err error
		decSink, err = obs.NewDecisionLogFile(*decLog)
		if err != nil {
			fail("decision-log: %v", err)
		}
		observers = append(observers, decSink)
	}
	if *serveDebug != "" {
		m := obs.NewMetrics()
		m.Expose("pdftspd")
		observers = append(observers, m)
		a, err := obs.Serve(*serveDebug)
		if err != nil {
			fail("serve: %v", err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/debug/vars (pprof under /debug/pprof/)\n", a)
	}
	observer := obs.Multi(observers...)

	so := serveOpts{
		addr: *addr, virtual: *virtual, slotDur: *slotDur, queue: *queue,
		ckpt: *ckpt, fullEvery: *fullEvery,
		restore: *restore, serveDebug: *serveDebug, observer: observer,
		wal: *wal, supervise: *supervise,
	}
	a, err := buildAuctioneer(cfg, *shards, sc, so)
	if err != nil {
		fail("%v", err)
	}
	serveAuctioneer(a, cfg, *shards, sc, so)
	finishObs(jsonlSink, auditor, decSink)
}

// finishObs flushes the JSONL trace and decision log and reports the
// audit verdict.
func finishObs(j *obs.JSONL, a *obs.Audit, d *obs.DecisionLog) {
	if j != nil {
		if err := j.Close(); err != nil {
			fail("trace: %v", err)
		}
	}
	if d != nil {
		if err := d.Close(); err != nil {
			fail("decision-log: %v", err)
		}
	}
	if a != nil {
		if err := a.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "audit: zero invariant violations")
	}
}

// stackOptions starts a broker's options from its wired stack.
func stackOptions(st *config.Built) service.Options {
	return service.Options{Cluster: st.Cluster, Scheduler: st.Scheduler, Model: st.Model, Market: st.Market}
}

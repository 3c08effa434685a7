// Command pdftspd serves the pdFTSP auction as a long-lived broker: bids
// arrive over HTTP, are batched per slot, and each client receives the
// irrevocable auction decision when its arrival slot closes.
//
// Usage:
//
//	pdftspd -addr :8080 -nodes 8 -mix hybrid -slots 144
//	pdftspd -virtual-clock               # slots advance via POST /v1/clock/step
//	pdftspd -checkpoint state.json       # persist duals+ledger each slot
//	pdftspd -checkpoint state.json -restore   # resume a crashed broker
//	pdftspd -checkpoint state.json -wal  # journal acked bids: no acked bid is ever lost
//	pdftspd -checkpoint state.json -wal -supervise  # in-process watchdog restarts a crashed broker
//	pdftspd -smoke                       # self-test: HTTP fan-in vs sim.Run
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
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
	ckpt := flag.String("checkpoint", "", "persist auction state to this JSON file as slots close")
	ckptEvery := flag.Int("checkpoint-every", 1, "checkpoint every n closed slots")
	fullEvery := flag.Int("full-every", 1, "write a full JSON snapshot every n checkpoints and binary deltas in between (1 = always full)")
	restore := flag.Bool("restore", false, "resume from -checkpoint (full snapshot + delta sidecar) before serving")
	wal := flag.Bool("wal", false, "journal every acked bid to <checkpoint>.wal before releasing its ack; -restore replays the journal (requires -checkpoint)")
	walSyncEvery := flag.Int("wal-sync-every", 1, "fsync the journal every n intake messages (1 = every ack batch; higher trades crash-window for throughput)")
	supervise := flag.Bool("supervise", false, "run the fleet under an in-process watchdog: a crashed or wedged generation is restored from its checkpoint and journal automatically")
	decLog := flag.String("decision-log", "", "stream every decision to this binary log (read with obs.ReadDecisionLog)")
	obsTrace := flag.String("trace", "", "write a JSONL event trace to this file (analyze with cmd/trace)")
	audit := flag.Bool("audit", false, "validate auction invariants online; non-zero exit on any violation")
	serveDebug := flag.String("serve", "", "serve live expvar metrics and pprof on this address")
	smoke := flag.Bool("smoke", false, "run the in-process serve-smoke self-test and exit")
	chaos := flag.Int64("chaos", -1, "run the seeded chaos self-test (outages, vendor faults, kill/restore) with this seed and exit")
	walChaos := flag.Int64("wal-chaos", -1, "run the durable-intake self-test (ack-boundary kills, torn journals, supervised recovery) with this seed and exit")
	shards := flag.Int("shards", 1, "partition the cluster into this many shard brokers behind a dual-price router")
	spotNodes := flag.Int("spot-nodes", 0, "rent this many revocable spot-market nodes per broker (the cluster's tail indices); 0 disables the elastic tier")
	spotBudget := flag.Float64("spot-budget", 0, "cap each broker's cumulative spot rent (0 auto-sizes to base price x horizon x nodes)")
	spotSeed := flag.Int64("spot-seed", 11, "spot price/reclaim trace seed (shards decorrelate from it deterministically)")
	spotDiscount := flag.Float64("spot-discount", 0, "mean spot quote as a fraction of the on-demand reference cost (0 = default 0.4)")
	spotLease := flag.Int("spot-lease", 0, "spot lease length in slots (0 = provider default)")
	spotPredictive := flag.Bool("spot-predictive", false, "admission uses the trace's future quotes and known reclaims instead of the current quote")
	spotSmoke := flag.Bool("spot-smoke", false, "run the spot-tier self-test (chaos harness + lease/revocation activity, monolithic and 2-shard) and exit")
	flag.Parse()
	if *shards < 1 {
		fail("-shards must be >= 1")
	}
	sc := spotConfig{
		nodes: *spotNodes, budget: *spotBudget, seed: *spotSeed,
		discount: *spotDiscount, leaseLen: *spotLease, predictive: *spotPredictive,
	}

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

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fail("smoke: %v", err)
		}
		fmt.Println("serve-smoke: concurrent HTTP fan-in matches sequential sim.Run (welfare, payments, duals)")
		finishObs(jsonlSink, auditor, decSink)
		return
	}
	if *spotSmoke {
		if err := runSpotSmoke(cfg, *spotSeed, sc); err != nil {
			fail("spot-smoke: %v", err)
		}
		fmt.Println("spot-smoke: elastic spot tier rented, was revoked, and survived chaos bit-identical to sim.Run (monolithic and 2-shard)")
		finishObs(jsonlSink, auditor, decSink)
		return
	}
	if *chaos >= 0 {
		if _, err := runChaos(cfg, *chaos, *shards, sc); err != nil {
			fail("chaos: %v", err)
		}
		if *shards > 1 {
			fmt.Printf("chaos-smoke(seed %d, %d shards): fleet survived the fault schedule, kill/restore of the full manifest, and matches per-shard sim.Run\n", *chaos, *shards)
		} else {
			fmt.Printf("chaos-smoke(seed %d): broker survived the fault schedule and matches sim.Run (decisions, refunds, duals, ledger)\n", *chaos)
		}
		finishObs(jsonlSink, auditor, decSink)
		return
	}
	if *walChaos >= 0 {
		if _, err := runWALChaos(cfg, *walChaos, *shards); err != nil {
			fail("wal-chaos: %v", err)
		}
		fmt.Printf("wal-smoke(seed %d, %d shard(s)): every acked bid survived ack-boundary kills, torn journals, and supervised recovery, bit-identical to sim.Run\n", *walChaos, *shards)
		finishObs(jsonlSink, auditor, decSink)
		return
	}

	so := serveOpts{
		addr: *addr, virtual: *virtual, slotDur: *slotDur, queue: *queue,
		ckpt: *ckpt, ckptEvery: *ckptEvery, fullEvery: *fullEvery,
		restore: *restore, serveDebug: *serveDebug, observer: observer,
		wal: *wal, walSyncEvery: *walSyncEvery, supervise: *supervise,
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

// quick shrinks the flag defaults to the seconds-long stack the
// self-tests run on — a fleet of n gets two nodes a shard — and leaves
// alone whatever the user overrode.
func quick(cfg config.Config, n int) config.Config {
	d := config.Default()
	if cfg.Slots == d.Slots {
		cfg.Slots = 24
	}
	if reflect.DeepEqual(cfg.Nodes, d.Nodes) {
		nodes := 4
		if n > 1 {
			nodes = 2 * n
		}
		cfg.Nodes, _ = config.Mix("hybrid", nodes)
	}
	if cfg.Workload.RatePerSlot == d.Workload.RatePerSlot {
		cfg.Workload.RatePerSlot = 3
	}
	return cfg
}

// stackOptions starts a broker's options from its wired stack.
func stackOptions(st *config.Built) service.Options {
	return service.Options{Cluster: st.Cluster, Scheduler: st.Scheduler, Model: st.Model, Market: st.Market}
}

// twinConfig is the sim.Run configuration a stack's replay twin runs under.
func twinConfig(st *config.Built) sim.Config {
	c := st.SimConfig
	c.CollectDecisions = true
	return c
}

// duals reads a pdFTSP stack's current prices.
func duals(st *config.Built) core.DualState {
	return st.Scheduler.(*core.Scheduler).SnapshotDuals()
}

// errSmoke tags self-test mismatches.
var errSmoke = errors.New("mismatch")

// runSmoke is the serve-smoke self-test: it starts a virtual-clock broker
// on a loopback HTTP server, POSTs the calibration workload from eight
// concurrent clients, steps the clock over the horizon via the HTTP
// endpoint, and diffs every decision — and the final duals — against a
// sequential sim.Run replay of the same workload on a twin stack.
func runSmoke(cfg config.Config) error {
	cfg = quick(cfg, 1)
	// Building twice yields bit-identical twins: one serves, one replays.
	serveStack, err := cfg.Build()
	if err != nil {
		return err
	}
	replayStack, err := cfg.Build()
	if err != nil {
		return err
	}
	tasks := serveStack.Tasks

	opts := stackOptions(serveStack)
	opts.QueueSize = len(tasks) + 8
	opts.VirtualClock = true
	broker, err := service.New(opts)
	if err != nil {
		return err
	}
	if err := broker.Start(); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: broker.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	client := smokeClient{base: base}
	if err := client.check("GET", "/healthz", nil, nil); err != nil {
		return err
	}

	// Every bid is its own concurrent client: POST /v1/bids blocks until
	// the bid's slot closes, so each needs its own goroutine (a client
	// POSTing sequentially would wait forever for a clock that only
	// steps once all bids are in). All of them race into the broker
	// while the clock holds at slot 0.
	type reply struct {
		idx  int
		resp service.DecisionResponse
		err  error
	}
	replies := make(chan reply, len(tasks))
	for i := range tasks {
		go func(i int) {
			resp, err := client.postBid(tasks[i])
			replies <- reply{idx: i, resp: resp, err: err}
		}(i)
	}

	// Wait until the broker holds every bid, then close the horizon. A
	// reply arriving before the clock moves means an intake failure —
	// surface it instead of polling forever.
	deadline := time.Now().Add(30 * time.Second)
	held := 0
	for held < len(tasks) {
		select {
		case r := <-replies:
			if r.err == nil {
				r.err = fmt.Errorf("%w: decision before the clock moved", errSmoke)
			}
			return fmt.Errorf("bid %d: %w", tasks[r.idx].ID, r.err)
		default:
		}
		var st service.Status
		if err := client.check("GET", "/v1/status", nil, &st); err != nil {
			return err
		}
		held = st.Held
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: only %d/%d bids held after 30s", errSmoke, held, len(tasks))
		}
		time.Sleep(5 * time.Millisecond)
	}
	var stepResp map[string]int
	if err := client.check("POST", "/v1/clock/step", map[string]int{"slots": cfg.Slots}, &stepResp); err != nil {
		return err
	}

	decisions := make(map[int]service.DecisionResponse, len(tasks))
	for range tasks {
		r := <-replies
		if r.err != nil {
			return fmt.Errorf("bid %d: %w", tasks[r.idx].ID, r.err)
		}
		decisions[r.resp.TaskID] = r.resp
	}

	// Sequential ground truth on the twin stack.
	res, err := sim.Run(replayStack.Cluster, replayStack.Scheduler, tasks, twinConfig(replayStack))
	if err != nil {
		return err
	}

	for i, t := range tasks {
		want := res.Decisions[i]
		got, ok := decisions[t.ID]
		if !ok {
			return fmt.Errorf("%w: no service decision for task %d", errSmoke, t.ID)
		}
		if got.Admitted != want.Admitted || got.Payment != want.Payment {
			return fmt.Errorf("%w: task %d service (admitted=%v payment=%v) vs replay (admitted=%v payment=%v)",
				errSmoke, t.ID, got.Admitted, got.Payment, want.Admitted, want.Payment)
		}
	}
	var st service.Status
	if err := client.check("GET", "/v1/status", nil, &st); err != nil {
		return err
	}
	if st.Welfare != res.Welfare || st.Revenue != res.Revenue ||
		st.Admitted != res.Admitted || st.Rejected != res.Rejected {
		return fmt.Errorf("%w: service welfare=%v revenue=%v %d/%d vs replay welfare=%v revenue=%v %d/%d",
			errSmoke, st.Welfare, st.Revenue, st.Admitted, st.Rejected,
			res.Welfare, res.Revenue, res.Admitted, res.Rejected)
	}

	// Drain (establishes the happens-before edge), then diff the duals.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := broker.Drain(drainCtx); err != nil {
		return err
	}
	if !duals(serveStack).Equal(duals(replayStack)) {
		return fmt.Errorf("%w: final dual prices differ between service and replay", errSmoke)
	}
	fmt.Fprintf(os.Stderr, "smoke: %d concurrent bids, %d admitted, welfare %.2f\n",
		len(tasks), res.Admitted, res.Welfare)
	return nil
}

// smokeClient is a tiny JSON-over-HTTP helper for the self-test.
type smokeClient struct{ base string }

func (c smokeClient) check(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// postBid submits one task as POST /v1/bids, in the wire form a dumped
// workload replays with, and blocks until its slot closes.
func (c smokeClient) postBid(t task.Task) (service.DecisionResponse, error) {
	var resp service.DecisionResponse
	err := c.check("POST", "/v1/bids", service.BidRequestFor(t), &resp)
	return resp, err
}

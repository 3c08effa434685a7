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
	"time"

	"github.com/pdftsp/pdftsp/internal/cluster"
	"github.com/pdftsp/pdftsp/internal/core"
	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	nodes := flag.Int("nodes", 8, "number of compute nodes")
	mix := flag.String("mix", "hybrid", "cluster mix: a100, a40, hybrid")
	slots := flag.Int("slots", timeslot.DefaultHorizonSlots, "horizon length in slots")
	rate := flag.Float64("rate", 5, "expected arrivals per slot (dual calibration)")
	arrivals := flag.String("arrivals", "poisson", "calibration arrival process: poisson, mlaas, philly, helios")
	deadlines := flag.String("deadlines", "medium", "calibration deadline policy: tight, medium, slack")
	vendors := flag.Int("vendors", 5, "number of labor vendors")
	seed := flag.Int64("seed", 1, "calibration workload seed")
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

	cfg := stackConfig{
		nodes: *nodes, mix: *mix, slots: *slots, rate: *rate,
		arrivals: *arrivals, deadlines: *deadlines, vendors: *vendors, seed: *seed,
	}

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
	a, totalNodes, err := buildAuctioneer(cfg, *shards, sc, so)
	if err != nil {
		fail("%v", err)
	}
	serveAuctioneer(a, cfg, *shards, sc, so, totalNodes)
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

// stackConfig captures the flags an auction stack is built from; the
// smoke harness builds two identical stacks from one config.
type stackConfig struct {
	nodes, slots, vendors int
	mix                   string
	rate                  float64
	arrivals, deadlines   string
	seed                  int64
	// mask makes the Algorithm-2 DP skip full/downed cells; the chaos
	// harness sets it so outage recovery routes around dead nodes.
	mask bool
}

// stack is one fully wired auction: cluster, marketplace, calibrated
// scheduler, and the calibration workload.
type stack struct {
	cl    *cluster.Cluster
	sched *core.Scheduler
	model lora.ModelConfig
	mkt   *vendor.Marketplace
	tasks []task.Task
}

// workload generates the calibration (and smoke/chaos driving) bid
// stream for this config.
func (c stackConfig) workload(h timeslot.Horizon) ([]task.Task, error) {
	tc := trace.DefaultConfig()
	tc.Seed = c.seed
	tc.Horizon = h
	tc.RatePerSlot = c.rate
	switch c.arrivals {
	case "poisson":
		tc.Arrivals = trace.Poisson
	case "mlaas":
		tc.Arrivals = trace.MLaaSLike
	case "philly":
		tc.Arrivals = trace.PhillyLike
	case "helios":
		tc.Arrivals = trace.HeliosLike
	default:
		return nil, fmt.Errorf("unknown arrival process %q", c.arrivals)
	}
	switch c.deadlines {
	case "tight":
		tc.Deadlines = trace.TightDeadlines
	case "medium":
		tc.Deadlines = trace.MediumDeadlines
	case "slack":
		tc.Deadlines = trace.SlackDeadlines
	default:
		return nil, fmt.Errorf("unknown deadline policy %q", c.deadlines)
	}
	tasks, err := trace.Generate(tc)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return tasks, nil
}

// nodeSpecs lays out the full cluster's node list for this config.
func (c stackConfig) nodeSpecs(model lora.ModelConfig, h timeslot.Horizon) ([]cluster.Node, error) {
	var specs []cluster.Node
	add := func(n int, spec gpu.Spec) {
		specs = append(specs, cluster.Uniform(n, spec, lora.NodeCapUnits(model, spec, h), spec.MemGB)...)
	}
	switch c.mix {
	case "a100":
		add(c.nodes, gpu.A100)
	case "a40":
		add(c.nodes, gpu.A40)
	case "hybrid":
		add(c.nodes/2+c.nodes%2, gpu.A100)
		add(c.nodes/2, gpu.A40)
	default:
		return nil, fmt.Errorf("unknown mix %q", c.mix)
	}
	return specs, nil
}

// wire turns a node list into a calibrated stack.
func (c stackConfig) wire(model lora.ModelConfig, h timeslot.Horizon, specs []cluster.Node, tasks []task.Task) (*stack, error) {
	cl, err := cluster.New(cluster.Config{Horizon: h, BaseModelGB: lora.BaseMemoryGB(model)}, specs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	mkt, err := vendor.Standard(c.vendors, c.seed+7)
	if err != nil {
		return nil, fmt.Errorf("marketplace: %w", err)
	}
	copts := core.CalibrateDuals(tasks, model, cl, mkt)
	copts.MaskFullCells = c.mask
	sched, err := core.New(cl, copts)
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}
	return &stack{cl: cl, sched: sched, model: model, mkt: mkt, tasks: tasks}, nil
}

// build wires a fresh stack; calling it twice with the same config yields
// byte-identical twins (all generation is seed-deterministic).
func (c stackConfig) build() (*stack, error) {
	h := timeslot.NewHorizon(c.slots)
	model := lora.GPT2Small()
	tasks, err := c.workload(h)
	if err != nil {
		return nil, err
	}
	specs, err := c.nodeSpecs(model, h)
	if err != nil {
		return nil, err
	}
	return c.wire(model, h, specs, tasks)
}

// buildShards wires n shard stacks over a round-robin partition of the
// cluster: shard i owns global nodes i, i+n, i+2n, … so every shard gets
// a balanced slice of a heterogeneous mix. Each shard carries its own
// marketplace and scheduler, calibrated against the full workload on the
// shard's own nodes — exactly how a twin shard is rebuilt for replay.
func (c stackConfig) buildShards(n int) ([]*stack, error) {
	if n < 1 {
		return nil, fmt.Errorf("shards must be >= 1, got %d", n)
	}
	if c.nodes < n {
		return nil, fmt.Errorf("%d shards need at least %d nodes, have %d", n, n, c.nodes)
	}
	h := timeslot.NewHorizon(c.slots)
	model := lora.GPT2Small()
	tasks, err := c.workload(h)
	if err != nil {
		return nil, err
	}
	specs, err := c.nodeSpecs(model, h)
	if err != nil {
		return nil, err
	}
	out := make([]*stack, n)
	for i := 0; i < n; i++ {
		var part []cluster.Node
		for g := i; g < len(specs); g += n {
			part = append(part, specs[g])
		}
		st, err := c.wire(model, h, part, tasks)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// errSmoke tags self-test mismatches.
var errSmoke = errors.New("mismatch")

// runSmoke is the serve-smoke self-test: it starts a virtual-clock broker
// on a loopback HTTP server, POSTs the calibration workload from eight
// concurrent clients, steps the clock over the horizon via the HTTP
// endpoint, and diffs every decision — and the final duals — against a
// sequential sim.Run replay of the same workload on a twin stack.
func runSmoke(cfg stackConfig) error {
	// Smoke wants a quick horizon; shrink unless the user overrode.
	if cfg.slots == timeslot.DefaultHorizonSlots {
		cfg.slots = 24
	}
	if cfg.nodes == 8 {
		cfg.nodes = 4
	}
	if cfg.rate == 5 {
		cfg.rate = 3
	}

	serveStack, err := cfg.build()
	if err != nil {
		return err
	}
	replayStack, err := cfg.build()
	if err != nil {
		return err
	}
	tasks := serveStack.tasks

	broker, err := service.New(service.Options{
		Cluster:      serveStack.cl,
		Scheduler:    serveStack.sched,
		Model:        serveStack.model,
		Market:       serveStack.mkt,
		QueueSize:    len(tasks) + 8,
		VirtualClock: true,
	})
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
	if err := client.check("POST", "/v1/clock/step", map[string]int{"slots": cfg.slots}, &stepResp); err != nil {
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
	res, err := sim.Run(replayStack.cl, replayStack.sched, tasks, sim.Config{
		Model:            replayStack.model,
		Market:           replayStack.mkt,
		CollectDecisions: true,
	})
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
	if !serveStack.sched.SnapshotDuals().Equal(replayStack.sched.SnapshotDuals()) {
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

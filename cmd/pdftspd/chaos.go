package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/faults"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/trace"
	"github.com/pdftsp/pdftsp/internal/vendor"
)

// errChaos tags chaos-harness assertion failures.
var errChaos = fmt.Errorf("chaos invariant violated")

// chaosSummary is the completed harness's measured outcome, for the
// caller's banner and for the spot smoke's activity assertions.
type chaosSummary struct {
	bids, generations, degraded int
	recovered, refunded         int
	refundedValue               float64
	welfare                     float64
	spotSpend                   float64
	spotLeases, spotLeasedSlots int
	spotRevocations             int
}

// runChaos is the seeded chaos self-test behind `pdftspd -chaos <seed>`
// (add -shards <n> for a fleet, -spot-nodes for the elastic tier). It
// derives a deterministic fault schedule from the seed — node outages,
// vendor quote failures and latency spikes, checkpoint-write I/O errors,
// kill/restore cycles, and clock stalls — and drives one
// service.Auctioneer through it slot by slot over loopback HTTP. The
// same loop serves a monolithic broker and a sharded fleet; nothing
// below branches on the shape, construction and restore included
// (service.Open, Resume), which is the point of the interface. Asserted
// along the way:
//
//   - every kill is survivable: the next generation resumes from the
//     checkpoint chain mid-outage without losing a decision, each
//     decision still on the broker that made it;
//   - sustained checkpoint-write failures flip /healthz to 503 with a
//     reason while bids keep being decided (degraded ≠ down), and the
//     aggregate Status agrees;
//   - the auction invariants (obs.Audit) hold across every generation;
//   - the completed run is bit-identical, broker by broker — decisions,
//     refunds, spot rent, welfare, revenue, duals, ledger — to a
//     sequential sim.Run of the subsequence each broker was fed, under
//     the same outages, vendor plan, and spot trace.
//
// The same seed always yields the same schedule and the same final
// state, so a chaos failure is replayable with the flags that produced it.
func runChaos(cfg config.Config, seed int64, n int, sc spotConfig) (chaosSummary, error) {
	var sum chaosSummary
	cfg = quick(cfg, n)
	cfg.Seed = seed
	cfg.Algorithm.MaskFullCells = true // recovery planning must route around downed nodes

	plan := faults.Generate(seed, cfg.NumNodes(), cfg.Slots, cfg.Vendors)
	if err := plan.Validate(cfg.NumNodes(), cfg.Slots, cfg.Vendors); err != nil {
		return sum, fmt.Errorf("generated plan invalid: %w", err)
	}
	// Outages land on the broker owning the failed node: global node g
	// lives on shard g%n at local index g/n under the round-robin
	// partition. With one shard that's the identity mapping.
	shardFailures := make([][]sim.Failure, n)
	for _, o := range plan.Outages {
		si := o.Node % n
		shardFailures[si] = append(shardFailures[si], sim.Failure{Node: o.Node / n, From: o.From, To: o.To})
	}
	kills := map[int]bool{}
	for _, k := range plan.Kills {
		kills[k] = true
	}
	stalls := map[int]bool{}
	for _, s := range plan.Stalls {
		stalls[s] = true
	}
	fmt.Fprintf(os.Stderr, "chaos(seed %d, %d shard(s)): %d outages, %d vendor fault windows, %d checkpoint fault windows, kills at %v, stalls at %v\n",
		seed, n, len(plan.Outages), len(plan.Vendor), len(plan.Checkpoint), plan.Kills, plan.Stalls)

	// The vendor chain every engine uses: seeded fault windows under a
	// capped-backoff retrier. Sleeps are stubbed — the spikes and
	// backoffs are logical, the harness should run in milliseconds.
	noSleep := func(time.Duration) {}
	chain := func(mkt *vendor.Marketplace) vendor.Caller {
		return vendor.NewRetrier(
			vendor.NewFlaky(mkt, plan.Vendor, noSleep),
			vendor.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Budget: time.Second, Seed: seed, Sleep: noSleep},
		)
	}
	ckptFault := func(slot int) error {
		if plan.CheckpointFaultAt(slot) {
			return fmt.Errorf("chaos: injected checkpoint write failure at slot %d", slot)
		}
		return nil
	}

	dir, err := os.MkdirTemp("", "pdftspd-chaos-")
	if err != nil {
		return sum, err
	}
	defer os.RemoveAll(dir)
	// One shard is the whole cluster, so one code path covers both shapes.
	stacks, err := cfg.BuildShards(n)
	if err != nil {
		return sum, err
	}
	tasks := stacks[0].Tasks
	perSlot, err := trace.BySlot(tasks, cfg.Slots)
	if err != nil {
		return sum, err
	}

	// One auditor spans every generation: its checks are per-event, so a
	// mid-run restore does not confuse it.
	auditor := obs.NewAudit()
	mk := func(stacks []*config.Built) (service.Auctioneer, error) {
		opts := make([]service.Options, n)
		for i, st := range stacks {
			o := stackOptions(st)
			o.QueueSize = len(tasks) + 16
			o.VirtualClock = true
			// Full JSON snapshot every 4th slot, binary deltas between:
			// every kill/restore below exercises the incremental chain.
			o.CheckpointPath = filepath.Join(dir, "chaos.ckpt")
			o.CheckpointEvery = 1
			o.CheckpointFullEvery = 4
			o.Failures = shardFailures[i]
			o.Quotes = chain(st.Market)
			o.CheckpointFault = ckptFault
			o.Observer = auditor
			o.RunLabel = "chaos"
			prov, err := sc.provider(st.Cluster, cfg.Slots, i)
			if err != nil {
				return nil, err
			}
			if prov != nil {
				o.Spot = prov
			}
			opts[i] = o
		}
		return service.Open(opts...)
	}

	// Each generation serves real HTTP on loopback so the harness
	// exercises the operator-facing contract, not just the Go API.
	type generation struct {
		srv  *http.Server
		base string
	}
	serve := func(a service.Auctioneer) (*generation, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: a.Handler()}
		go srv.Serve(ln)
		return &generation{srv: srv, base: "http://" + ln.Addr().String()}, nil
	}
	get := func(gen *generation, path string, out any) (int, error) {
		resp, err := http.Get(gen.base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	a, err := mk(stacks)
	if err != nil {
		return sum, err
	}
	if err := a.Start(); err != nil {
		return sum, err
	}
	gen, err := serve(a)
	if err != nil {
		return sum, err
	}
	generations := 1
	degradedSeen := 0
	decidedBids := 0 // tasks[:decidedBids] arrived in closed slots

	for s := 0; s < cfg.Slots; s++ {
		if kills[s] {
			// Crash-stop the whole fleet mid-run (possibly mid-outage,
			// possibly mid-lease) and restore a new generation on fresh
			// stacks.
			a.Kill()
			gen.srv.Close()
			freshStacks, err := cfg.Wire(tasks, n)
			if err != nil {
				return sum, err
			}
			na, err := mk(freshStacks)
			if err != nil {
				return sum, err
			}
			switch rep, err := na.Resume(); {
			case err != nil:
				return sum, fmt.Errorf("%w: restore after kill at slot %d: %v", errChaos, s, err)
			case !rep.FromCheckpoint:
				return sum, fmt.Errorf("%w: no checkpoint to restore after kill at slot %d", errChaos, s)
			case rep.Slot != s || rep.Decided != decidedBids:
				return sum, fmt.Errorf("%w: restored slot %d with %d decisions after kill at slot %d with %d (stale write)",
					errChaos, rep.Slot, rep.Decided, s, decidedBids)
			}
			if err := na.Start(); err != nil {
				return sum, err
			}
			// Every decision the killed generation had made survived the
			// restore, on the broker that made it. (A decision may still
			// change later — an outage or spot revocation can flip an
			// admission to failed-node — so decisions are only compared at
			// like-for-like instants: kill vs restore, and final vs sim.)
			restored := na.Brokers()
			for i, ob := range a.Brokers() {
				for _, tk := range tasks[:decidedBids] {
					want, ok, _ := ob.DecisionFor(tk.ID)
					if !ok {
						continue
					}
					got, ok, err := restored[i].DecisionFor(tk.ID)
					switch {
					case err != nil || !ok:
						return sum, fmt.Errorf("%w: decision %d lost across restore (ok=%v err=%v)", errChaos, tk.ID, ok, err)
					case got.Admitted != want.Admitted || got.Payment != want.Payment || got.Reason != want.Reason:
						return sum, fmt.Errorf("%w: decision %d mutated across restore on broker %d: got %+v, want %+v",
							errChaos, tk.ID, i, got, want)
					}
				}
			}
			stacks = freshStacks
			a = na
			gen, err = serve(a)
			if err != nil {
				return sum, err
			}
			generations++
		}
		if stalls[s] {
			// A stalled clock: the slot refuses to close for a while.
			// Status must keep answering with the stalled slot — the
			// "slot" field is common to both status payload shapes.
			for i := 0; i < 3; i++ {
				var st struct {
					Slot int `json:"slot"`
				}
				if code, err := get(gen, "/v1/status", &st); err != nil || code != http.StatusOK {
					return sum, fmt.Errorf("%w: status during clock stall at slot %d: code=%d err=%v", errChaos, s, code, err)
				}
				if st.Slot != s {
					return sum, fmt.Errorf("%w: clock moved during a stall: slot %d, want %d", errChaos, st.Slot, s)
				}
			}
		}

		arriving := perSlot[s]
		if len(arriving) > 0 {
			batch := append([]task.Task(nil), arriving...)
			verdicts := make([]error, len(batch))
			if _, err := a.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
				return sum, fmt.Errorf("submit batch at slot %d: %w", s, err)
			}
			for i, v := range verdicts {
				if v != nil {
					return sum, fmt.Errorf("task %d at slot %d refused: %w", batch[i].ID, s, v)
				}
			}
		}
		if _, err := a.Step(1); err != nil {
			return sum, fmt.Errorf("step at slot %d: %w", s, err)
		}
		for _, tk := range arriving {
			if _, ok, err := a.DecisionFor(tk.ID); err != nil || !ok {
				return sum, fmt.Errorf("%w: task %d undecided after slot %d closed (ok=%v err=%v)", errChaos, tk.ID, s, ok, err)
			}
		}
		decidedBids += len(arriving)

		var h service.Health
		code, err := get(gen, "/healthz", &h)
		if err != nil {
			return sum, fmt.Errorf("healthz after slot %d: %w", s, err)
		}
		switch code {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			if h.Reason == "" {
				return sum, fmt.Errorf("%w: degraded healthz without a reason at slot %d", errChaos, s)
			}
			degradedSeen++
			// Degraded ≠ down: the aggregate Status keeps serving and
			// agrees with the health verdict, whatever the fleet shape.
			st, err := a.Status()
			if err != nil {
				return sum, fmt.Errorf("%w: degraded fleet stopped serving status at slot %d: %v", errChaos, s, err)
			}
			if !st.Degraded || st.CheckpointFailures == 0 {
				return sum, fmt.Errorf("%w: healthz degraded but status says %+v", errChaos, st)
			}
		default:
			return sum, fmt.Errorf("%w: healthz returned %d at slot %d", errChaos, code, s)
		}
	}

	if len(plan.Checkpoint) > 0 && degradedSeen == 0 {
		return sum, fmt.Errorf("%w: checkpoint fault windows %v never degraded /healthz", errChaos, plan.Checkpoint)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Drain(drainCtx); err != nil {
		return sum, fmt.Errorf("drain: %w", err)
	}
	gen.srv.Close()
	if err := auditor.Err(); err != nil {
		return sum, fmt.Errorf("%w: %v", errChaos, err)
	}

	// Ground truth, broker by broker: a fresh twin of each broker's stack
	// replays the subsequence the router fed it (everything, for a
	// monolith) under the same outages, vendor plan, and spot trace.
	twins, err := cfg.Wire(tasks, n)
	if err != nil {
		return sum, err
	}
	spread := 0
	var liveW, twinW float64
	err = service.DiffTwins(a, tasks, func(si int, sub []task.Task) (*sim.Result, error) {
		if len(sub) > 0 {
			spread++
		}
		tw := twins[si]
		simCfg := twinConfig(tw)
		simCfg.Failures = shardFailures[si]
		simCfg.Quotes = chain(tw.Market)
		prov, err := sc.provider(tw.Cluster, cfg.Slots, si)
		if err != nil {
			return nil, err
		}
		if prov != nil {
			simCfg.Spot = prov
		}
		want, err := sim.Run(tw.Cluster, tw.Scheduler, sub, simCfg)
		if err == nil {
			twinW += want.Welfare
		}
		return want, err
	})
	if err != nil {
		return sum, fmt.Errorf("%w: %v", errChaos, err)
	}
	for si, b := range a.Brokers() {
		tw, res := twins[si], b.Result()
		if !duals(stacks[si]).Equal(duals(tw)) {
			return sum, fmt.Errorf("%w: broker %d final dual prices diverge from sim.Run", errChaos, si)
		}
		if !reflect.DeepEqual(stacks[si].Cluster.Snapshot(), tw.Cluster.Snapshot()) {
			return sum, fmt.Errorf("%w: broker %d final cluster ledgers diverge from sim.Run", errChaos, si)
		}
		liveW += res.Welfare
		sum.recovered += res.RecoveredTasks
		sum.refunded += res.FailedTasks
		sum.refundedValue += res.RefundedValue
		sum.spotSpend += res.SpotSpend
		sum.spotLeases += res.SpotLeases
		sum.spotLeasedSlots += res.SpotLeasedSlots
		sum.spotRevocations += res.SpotRevocations
	}
	if n > 1 && spread < 2 && len(tasks) >= 2*n {
		return sum, fmt.Errorf("%w: router collapsed the whole workload onto one shard", errChaos)
	}
	if liveW != twinW {
		return sum, fmt.Errorf("%w: fleet welfare %v, per-broker sim.Run sum %v", errChaos, liveW, twinW)
	}

	sum.bids = len(tasks)
	sum.generations = generations
	sum.degraded = degradedSeen
	sum.welfare = liveW
	fmt.Fprintf(os.Stderr,
		"chaos(seed %d): %d bids over %d slots across %d broker(s), %d generations, %d recovered, %d refunded (%.2f returned), degraded %d slot(s), welfare %.2f\n",
		seed, sum.bids, cfg.Slots, n, generations, sum.recovered, sum.refunded, sum.refundedValue, degradedSeen, liveW)
	return sum, nil
}

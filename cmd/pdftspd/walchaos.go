package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/trace"
)

// errWALChaos tags durable-intake assertion failures.
var errWALChaos = fmt.Errorf("wal-chaos invariant violated")

// walChaosSummary is the completed harness's measured outcome.
type walChaosSummary struct {
	bids, acked, replayed int
	restarts              int
	welfare               float64
}

// runWALChaos is the durable-intake self-test behind `pdftspd
// -wal-chaos <seed>` (add -shards 2 for a fleet). Where -chaos attacks
// the decided state (checkpoints), this harness attacks the acked state:
// it runs a supervised fleet with write-ahead journaling and kills
// generations at the worst possible instant — after bids are acked but
// before their slot closes — then asserts the headline guarantee: **no
// acked bid is ever lost.**
//
// Kill points, all between ack release and slot close:
//
//   - an early kill at slot 0, before the first checkpoint ever
//     persists: the journal is the only state on disk, and recovery
//     must replay it onto a fresh broker (slot 0, empty decision map)
//     rather than skip the restore because no checkpoint exists;
//   - a plain ack-boundary kill: bids acked, fleet crash-stopped before
//     Step — the journal is the only place those bids exist;
//   - a double kill at one slot: the second crash lands right after the
//     first recovery's replay, so re-replaying the same journal must be
//     idempotent (no double-offer, no duplicate decision);
//   - a torn-journal kill: before the restore, garbage is appended to
//     every shard's journal (a torn final write); replay must take the
//     valid prefix and carry on, never error.
//
// Every kill is absorbed by the in-process Supervisor: the watchdog
// notices the dead generation, opens and resumes the next one exactly as
// the serve path does (service.Open, Resume: checkpoint chain, then each
// broker's journal), and API calls in flight retry against it. Along the
// way the HTTP contract is checked too: an acked, undecided bid answers
// 202 "pending" on /v1/decisions/{id} and flips to 200 once its slot
// closes.
//
// The final state must be bit-identical — decisions, welfare, revenue,
// duals, ledgers — to a sequential sim.Run of the acked stream on twin
// stacks, broker by broker: durability may cost latency, never outcome.
func runWALChaos(cfg config.Config, seed int64, n int) (walChaosSummary, error) {
	var sum walChaosSummary
	cfg = quick(cfg, n)
	cfg.Seed = seed

	// Ack-boundary kill schedule: fixed slots (the seed varies the
	// workload around them), each with its flavor of crash.
	const (
		killEarly  = 0
		killPlain  = 5
		killDouble = 11
		killTorn   = 17
	)
	kills := map[int]int{killEarly: 1, killPlain: 1, killDouble: 2, killTorn: 1}
	fmt.Fprintf(os.Stderr, "wal-chaos(seed %d, %d shard(s)): pre-checkpoint kill at slot %d, ack-boundary kills at slot %d, double kill at %d, torn-journal kill at %d\n",
		seed, n, killEarly, killPlain, killDouble, killTorn)

	dir, err := os.MkdirTemp("", "pdftspd-walchaos-")
	if err != nil {
		return sum, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "wal-chaos.ckpt")

	// The workload is generated once; every generation's stacks are
	// rebuilt fresh (seed-deterministic, so they are twins).
	tasks, err := cfg.Generate()
	if err != nil {
		return sum, err
	}
	perSlot, err := trace.BySlot(tasks, cfg.Slots)
	if err != nil {
		return sum, err
	}

	// Build constructs one generation: fresh stacks, journaled brokers,
	// resume (checkpoint chain if persisted, then journal replay), start.
	// The supervisor calls it once up front and once per crash.
	type generation struct {
		a      service.Auctioneer
		stacks []*config.Built
	}
	var (
		cur           atomic.Pointer[generation]
		replayedTotal atomic.Int64
		corruptNext   atomic.Bool
		restarted     = make(chan int, 16)
	)
	build := func() (service.Auctioneer, error) {
		stacks, err := cfg.Wire(tasks, n)
		if err != nil {
			return nil, err
		}
		opts := make([]service.Options, n)
		for i, st := range stacks {
			opts[i] = stackOptions(st)
			opts[i].QueueSize = len(tasks) + 16
			opts[i].VirtualClock = true
			// Full snapshot every 4th slot, deltas between, journal
			// alongside: every restore exercises the chain + replay.
			opts[i].CheckpointPath = ckpt
			opts[i].CheckpointEvery = 1
			opts[i].CheckpointFullEvery = 4
			opts[i].WALPath = service.WALPath(ckpt)
			opts[i].RunLabel = "wal-chaos"
		}
		a, err := service.Open(opts...)
		if err != nil {
			return nil, err
		}
		rep, err := a.Resume()
		if err != nil {
			return nil, err
		}
		replayedTotal.Add(int64(rep.Replayed))
		if err := a.Start(); err != nil {
			return nil, err
		}
		cur.Store(&generation{a, stacks})
		return a, nil
	}
	sup, err := service.NewSupervisor(service.SupervisorOptions{
		Build: build,
		PreRestore: func(gen int, reason string) {
			if !corruptNext.CompareAndSwap(true, false) {
				return
			}
			// A torn final write: garbage after the committed frames of
			// every journal. Replay must keep the valid prefix and ignore
			// the tail.
			journals, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
			for _, p := range journals {
				f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					continue
				}
				f.Write([]byte("\xff\xfe\xfdtorn-tail-garbage\x00\x01"))
				f.Close()
			}
		},
		OnRestart: func(gen int, reason string) {
			fmt.Fprintf(os.Stderr, "wal-chaos: generation %d serving after restart (%s)\n", gen, reason)
			restarted <- gen
		},
	})
	if err != nil {
		return sum, err
	}
	if err := sup.Start(); err != nil {
		return sum, err
	}
	defer sup.Kill()

	// The supervisor outlives every generation, so one HTTP server spans
	// the whole run — requests racing a crash retry, they don't fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sum, err
	}
	srv := &http.Server{Handler: sup.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	crash := func(s int) error {
		// Kill the raw generation out from under the supervisor — the
		// in-process stand-in for a crash — and wait for the watchdog to
		// bring up its successor.
		for _, b := range sup.Brokers() {
			b.Kill()
		}
		select {
		case <-restarted:
		case <-time.After(15 * time.Second):
			return fmt.Errorf("%w: no restart within 15s of the kill at slot %d (health: %s)",
				errWALChaos, s, sup.Health().Reason)
		}
		slot, err := sup.Slot()
		if err != nil {
			return fmt.Errorf("slot after restart at %d: %w", s, err)
		}
		if slot != s {
			return fmt.Errorf("%w: generation restored at slot %d, want %d", errWALChaos, slot, s)
		}
		return nil
	}

	acked := 0
	checkedPending := false
	for s := 0; s < cfg.Slots; s++ {
		arriving := perSlot[s]
		if len(arriving) > 0 {
			batch := append([]task.Task(nil), arriving...)
			verdicts := make([]error, len(batch))
			if _, err := sup.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
				return sum, fmt.Errorf("submit batch at slot %d: %w", s, err)
			}
			for i, v := range verdicts {
				if v != nil {
					return sum, fmt.Errorf("task %d at slot %d refused: %w", batch[i].ID, s, v)
				}
				// The ack has been released; from here on this bid must
				// never be lost, whatever crashes.
				acked++
			}
		}
		if !checkedPending && len(arriving) > 0 {
			// Satellite contract: an acked, undecided bid is "pending",
			// not the same 404 as a bid never seen.
			id := arriving[0].ID
			var body struct {
				Status string `json:"status"`
			}
			code, err := walChaosGet(base+fmt.Sprintf("/v1/decisions/%d", id), &body)
			if err != nil {
				return sum, err
			}
			if code != http.StatusAccepted || body.Status != "pending" {
				return sum, fmt.Errorf("%w: held bid %d answered %d %q, want 202 \"pending\"", errWALChaos, id, code, body.Status)
			}
			checkedPending = true
		}

		if nKills := kills[s]; nKills > 0 {
			if s == killTorn {
				corruptNext.Store(true)
			}
			for k := 0; k < nKills; k++ {
				if err := crash(s); err != nil {
					return sum, err
				}
			}
		}

		if _, err := sup.Step(1); err != nil {
			return sum, fmt.Errorf("step at slot %d: %w", s, err)
		}
		// The headline guarantee: every acked bid has a decision.
		for _, tk := range arriving {
			if _, ok, err := sup.DecisionFor(tk.ID); err != nil || !ok {
				return sum, fmt.Errorf("%w: acked bid %d undecided after slot %d closed (ok=%v err=%v)", errWALChaos, tk.ID, s, ok, err)
			}
		}
		if checkedPending && s == 0 && len(arriving) > 0 {
			id := arriving[0].ID
			code, err := walChaosGet(base+fmt.Sprintf("/v1/decisions/%d", id), nil)
			if err != nil {
				return sum, err
			}
			if code != http.StatusOK {
				return sum, fmt.Errorf("%w: decided bid %d answered %d, want 200", errWALChaos, id, code)
			}
		}
	}

	// The final generation's fleet outlives the supervisor's Drain (a
	// drained broker's state reads race-free).
	last := cur.Load()
	restarts := sup.Restarts()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sup.Drain(drainCtx); err != nil {
		return sum, fmt.Errorf("drain: %w", err)
	}
	srv.Close()

	wantRestarts := 0
	for _, k := range kills {
		wantRestarts += k
	}
	if restarts != wantRestarts {
		return sum, fmt.Errorf("%w: %d restarts, want %d", errWALChaos, restarts, wantRestarts)
	}
	ackedAtKills := 0
	for s := range kills {
		ackedAtKills += len(perSlot[s])
	}
	if ackedAtKills > 0 && replayedTotal.Load() == 0 {
		return sum, fmt.Errorf("%w: kills landed on %d acked bids but the journal never replayed any", errWALChaos, ackedAtKills)
	}

	// Ground truth, broker by broker: a twin of each broker's stack
	// replays the acked subsequence it ended up owning (every bid was
	// acked: a refused one fails the run above).
	twins, err := cfg.Wire(tasks, n)
	if err != nil {
		return sum, err
	}
	var liveW, twinW float64
	err = service.DiffTwins(last.a, tasks, func(si int, sub []task.Task) (*sim.Result, error) {
		tw := twins[si]
		want, err := sim.Run(tw.Cluster, tw.Scheduler, sub, twinConfig(tw))
		if err == nil {
			twinW += want.Welfare
		}
		return want, err
	})
	if err != nil {
		return sum, fmt.Errorf("%w: %v", errWALChaos, err)
	}
	for si, b := range last.a.Brokers() {
		if !duals(last.stacks[si]).Equal(duals(twins[si])) {
			return sum, fmt.Errorf("%w: broker %d final dual prices diverge from sim.Run", errWALChaos, si)
		}
		liveW += b.Result().Welfare
	}
	if liveW != twinW {
		return sum, fmt.Errorf("%w: fleet welfare %v, per-broker sim.Run sum %v", errWALChaos, liveW, twinW)
	}

	sum.bids = len(tasks)
	sum.acked = acked
	sum.replayed = int(replayedTotal.Load())
	sum.restarts = restarts
	sum.welfare = liveW
	fmt.Fprintf(os.Stderr,
		"wal-chaos(seed %d): %d bids acked across %d broker(s), %d supervised restarts, %d journal replays, 0 acked bids lost, welfare %.2f\n",
		seed, sum.acked, n, sum.restarts, sum.replayed, liveW)
	return sum, nil
}

// walChaosGet is a tiny GET helper that tolerates non-2xx codes (the
// harness asserts on them).
func walChaosGet(url string, out any) (int, error) {
	resp, err := http.Get(url)
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

// Command pdftspd-load replays trace-generated fine-tuning workloads as
// bid streams against a loopback pdftspd broker and reports what the
// serving stack sustains: bids/sec, intake and decision latency
// percentiles, queue high-water marks, and allocations per served bid.
//
// The harness drives the broker exactly as a production deployment
// would — bids arrive over HTTP (the batch endpoint, one POST per
// -batch bids), the virtual clock steps a slot once the slot's arrivals
// are in — so the measured path is wire decode → intake → slot-close
// auction → decision, not a shortcut around it.
//
// Two load modes:
//
//	-mode closed   (default) -conns workers keep exactly one batch in
//	               flight each; 429s honor Retry-After and retry, so
//	               nothing is shed and the run stays replay-equivalent
//	               to sim.Run (checked with -verify).
//	-mode open     batches fire on a fixed schedule derived from
//	               -target bids/sec regardless of broker progress;
//	               429s shed the batch (counted, not retried) — the
//	               overload regime, where the queue-depth gauges and
//	               shed tallies are the interesting output.
//
// A million-bid horizon fits in one run: -rate scales the Poisson
// arrival process (e.g. -slots 144 -rate 7000 ≈ 1M bids) and -repeat
// replicates a smaller trace N× with fresh IDs.
//
//	pdftspd-load -slots 24 -rate 40 -verify            # quick, checked
//	pdftspd-load -slots 144 -rate 7000 -nodes 4        # ~1M bids
//	pdftspd-load -bids bids.json -slots 144            # tracegen -bids output
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pdftsp/pdftsp/internal/config"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
	"github.com/pdftsp/pdftsp/internal/timeslot"
	"github.com/pdftsp/pdftsp/internal/trace"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pdftspd-load: "+format+"\n", args...)
	os.Exit(1)
}

type flags struct {
	// stack is the cluster, marketplace and workload under load.
	stack    config.Config
	repeat   int
	bidsFile string

	mode    string
	target  float64
	conns   int
	batch   int
	retries int

	queue        int
	ckpt         string
	fullEvery    int
	wal          bool
	walSyncEvery int
	decLog       string
	keepPlans    bool

	cpuProfile string
	memProfile string

	shards int
	scale  string

	verify  bool
	minRate float64
	jsonOut bool
}

func main() {
	f := flags{stack: config.Default()}
	f.stack.Slots = 24
	f.stack.Workload.RatePerSlot = 40
	f.stack.StackFlags(flag.CommandLine, 4, "hybrid")
	flag.IntVar(&f.repeat, "repeat", 1, "replicate the generated workload n× with fresh IDs")
	flag.StringVar(&f.bidsFile, "bids", "", "replay broker-ready bid JSON (tracegen -bids) instead of generating")
	flag.StringVar(&f.mode, "mode", "closed", "load mode: closed (retry on 429) or open (shed on 429)")
	flag.Float64Var(&f.target, "target", 0, "open-loop submission target in bids/sec (0 = unpaced)")
	flag.IntVar(&f.conns, "conns", 8, "concurrent submitter connections")
	flag.IntVar(&f.batch, "batch", 64, "bids per POST /v1/bids/batch")
	flag.IntVar(&f.retries, "retries", 8, "closed-mode retry budget per batch before shedding")
	flag.IntVar(&f.queue, "queue", 0, "broker queue size (0 = auto-size to the largest slot)")
	flag.StringVar(&f.ckpt, "checkpoint", "", "checkpoint the broker to this path while loading")
	flag.IntVar(&f.fullEvery, "full-every", 1, "full snapshot every n checkpoint writes (binary deltas between)")
	flag.BoolVar(&f.wal, "wal", false, "journal every acked bid to <checkpoint>.wal before its ack releases (requires -checkpoint); the report adds journal depth and fsync latency rows")
	flag.IntVar(&f.walSyncEvery, "wal-sync-every", 1, "fsync the journal every n intake messages (1 = every ack batch)")
	flag.StringVar(&f.decLog, "decision-log", "", "stream the binary decision log to this path")
	flag.BoolVar(&f.keepPlans, "keep-losing-plans", false, "retain rejected bids' candidate plans (more memory)")
	flag.StringVar(&f.cpuProfile, "profile", "", "write a CPU profile of the whole run to this path")
	flag.StringVar(&f.memProfile, "memprofile", "", "write a heap profile at the end of the run to this path")
	flag.IntVar(&f.shards, "shards", 1, "partition the cluster into this many shard brokers behind the dual-price router")
	flag.StringVar(&f.scale, "scale", "", "comma-separated shard counts (e.g. 1,2,4): run the same workload per count and print a scaling table")
	flag.BoolVar(&f.verify, "verify", false, "diff the broker's decisions and accounting against sim.Run (per shard when -shards > 1)")
	flag.Float64Var(&f.minRate, "min-rate", 0, "exit non-zero if sustained bids/sec falls below this")
	flag.BoolVar(&f.jsonOut, "json", false, "emit the report as JSON on stdout")
	flag.Parse()

	if f.mode != "closed" && f.mode != "open" {
		fail("unknown -mode %q", f.mode)
	}
	if f.batch < 1 {
		f.batch = 1
	}
	if f.conns < 1 {
		f.conns = 1
	}
	if f.shards < 1 {
		fail("-shards must be >= 1")
	}
	if f.wal && f.ckpt == "" {
		fail("-wal requires -checkpoint (the journal lives next to the checkpoint chain)")
	}

	if err := execute(f); err != nil {
		fail("%v", err)
	}
}

// execute runs the harness with the profile hooks installed; keeping it
// out of main lets the deferred profile flushes run before any exit.
func execute(f flags) error {
	if f.cpuProfile != "" {
		pf, err := os.Create(f.cpuProfile)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return fmt.Errorf("profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if f.memProfile != "" {
		defer func() {
			mf, err := os.Create(f.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdftspd-load: memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "pdftspd-load: memprofile: %v\n", err)
			}
			mf.Close()
		}()
	}

	if f.scale != "" {
		return runScale(f)
	}

	rep, err := run(f)
	if err != nil {
		return err
	}
	rep.print(os.Stdout, f.jsonOut)
	if f.minRate > 0 && rep.SustainedBidsPerSec < f.minRate {
		return fmt.Errorf("sustained %.0f bids/s below -min-rate %.0f", rep.SustainedBidsPerSec, f.minRate)
	}
	if f.verify && !rep.Verified {
		return fmt.Errorf("verification failed: %s", rep.VerifyNote)
	}
	return nil
}

// runScale runs the same workload once per shard count and prints the
// scaling table: throughput speedup and the welfare gap versus the first
// (reference) count — the quantified cost of partitioned dual prices.
func runScale(f flags) error {
	var counts []int
	for _, part := range strings.Split(f.scale, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -scale entry %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return fmt.Errorf("-scale lists no shard counts")
	}
	reps := make([]*report, len(counts))
	for i, n := range counts {
		fn := f
		fn.shards = n
		rep, err := run(fn)
		if err != nil {
			return fmt.Errorf("%d shards: %w", n, err)
		}
		if f.verify && !rep.Verified {
			return fmt.Errorf("%d shards: verification failed: %s", n, rep.VerifyNote)
		}
		reps[i] = rep
	}
	if f.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reps)
	}
	ref := reps[0]
	fmt.Printf("pdftspd-load scaling: %d bids over %d slots, %d nodes (%s loop, batch %d, %d conns)\n",
		ref.Bids, ref.Slots, ref.Nodes, ref.Mode, ref.Batch, ref.Conns)
	fmt.Printf("  %7s  %12s  %8s  %12s  %12s  %9s\n", "shards", "bids/s", "speedup", "welfare", "admitted", "gap")
	for i, rep := range reps {
		gap := 0.0
		if ref.Welfare != 0 {
			gap = (ref.Welfare - rep.Welfare) / ref.Welfare * 100
		}
		verified := ""
		if rep.Verified {
			verified = "  verified"
		}
		fmt.Printf("  %7d  %12.0f  %7.2fx  %12.2f  %12d  %8.2f%%%s\n",
			counts[i], rep.SustainedBidsPerSec,
			rep.SustainedBidsPerSec/ref.SustainedBidsPerSec,
			rep.Welfare, rep.Admitted, gap, verified)
	}
	if f.minRate > 0 && reps[len(reps)-1].SustainedBidsPerSec < f.minRate {
		return fmt.Errorf("sustained %.0f bids/s below -min-rate %.0f at %d shards",
			reps[len(reps)-1].SustainedBidsPerSec, f.minRate, counts[len(counts)-1])
	}
	return nil
}

// loadTasks produces the replayable workload: generated from the trace
// flags (optionally replicated) or loaded from a tracegen -bids file.
func loadTasks(f flags) ([]task.Task, error) {
	h := timeslot.NewHorizon(f.stack.Slots)
	if f.bidsFile != "" {
		data, err := os.ReadFile(f.bidsFile)
		if err != nil {
			return nil, err
		}
		var reqs []service.BidRequest
		if err := json.Unmarshal(data, &reqs); err != nil {
			return nil, fmt.Errorf("parse %s: %w", f.bidsFile, err)
		}
		tasks := make([]task.Task, 0, len(reqs))
		for i := range reqs {
			t := reqs[i].Task()
			if t.ID < 0 || t.Arrival < 0 {
				return nil, fmt.Errorf("bid %d: replay needs explicit id and arrival", i)
			}
			if err := t.Validate(h); err != nil {
				return nil, fmt.Errorf("bid %d: %w", i, err)
			}
			tasks = append(tasks, t)
		}
		sortTasks(tasks)
		return tasks, nil
	}
	tasks, err := f.stack.Generate()
	if err != nil {
		return nil, err
	}
	if f.repeat > 1 {
		// Copy r re-IDs the workload by +r·n, so emitting the copies slot
		// by slot yields (arrival, ID) order with no sort.
		perSlot, err := trace.BySlot(tasks, h.T)
		if err != nil {
			return nil, err
		}
		n := len(tasks)
		out := make([]task.Task, 0, n*f.repeat)
		for _, chunk := range perSlot {
			for r := 0; r < f.repeat; r++ {
				for i := range chunk {
					t := chunk[i]
					t.ID += r * n
					out = append(out, t)
				}
			}
		}
		tasks = out
	}
	return tasks, nil
}

func sortTasks(tasks []task.Task) {
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].Arrival != tasks[j].Arrival {
			return tasks[i].Arrival < tasks[j].Arrival
		}
		return tasks[i].ID < tasks[j].ID
	})
}

// latObserver timestamps each decision on the broker's core goroutine;
// per-task cells are disjoint, and the drain barrier publishes them to
// the reporting code.
type latObserver struct {
	obs.Base
	epoch time.Time
	dec   []int64 // decision time (ns since epoch) per task ID, 0 = undecided
}

func (l *latObserver) OnOutcome(e *obs.OutcomeEvent) {
	if e.TaskID >= 0 && e.TaskID < len(l.dec) {
		l.dec[e.TaskID] = int64(time.Since(l.epoch))
	}
}

// report is the run's measured outcome.
type report struct {
	Bids      int    `json:"bids"`
	Slots     int    `json:"slots"`
	Nodes     int    `json:"nodes"`
	Shards    int    `json:"shards"`
	Mode      string `json:"mode"`
	Batch     int    `json:"batch"`
	Conns     int    `json:"conns"`
	Submitted int    `json:"submitted"`
	Decided   int    `json:"decided"`
	Shed      int    `json:"shed"`
	Retries   int    `json:"retries"`

	WallSeconds         float64 `json:"wall_seconds"`
	SustainedBidsPerSec float64 `json:"sustained_bids_per_sec"`

	IntakeP50Ms     float64 `json:"intake_p50_ms"`
	IntakeP90Ms     float64 `json:"intake_p90_ms"`
	IntakeP99Ms     float64 `json:"intake_p99_ms"`
	IntakeMaxMs     float64 `json:"intake_max_ms"`
	DecisionP50Ms   float64 `json:"decision_p50_ms"`
	DecisionP90Ms   float64 `json:"decision_p90_ms"`
	DecisionP99Ms   float64 `json:"decision_p99_ms"`
	DecisionMaxMs   float64 `json:"decision_max_ms"`
	IntakeHighWater int     `json:"intake_high_water"`
	HeldHighWater   int     `json:"held_high_water"`
	ShedChannelFull int64   `json:"shed_channel_full"`
	ShedHeldFull    int64   `json:"shed_held_full"`
	AllocsPerBid    float64 `json:"allocs_per_bid"`
	WALRecords      int64   `json:"wal_records,omitempty"`
	WALBytes        int64   `json:"wal_bytes,omitempty"`
	WALFsyncs       int64   `json:"wal_fsyncs,omitempty"`
	WALFsyncAvgMs   float64 `json:"wal_fsync_avg_ms,omitempty"`
	WALFsyncMaxMs   float64 `json:"wal_fsync_max_ms,omitempty"`
	WALReplayed     int     `json:"wal_replayed,omitempty"`
	WALFailures     int     `json:"wal_failures,omitempty"`
	Welfare         float64 `json:"welfare"`
	Revenue         float64 `json:"revenue"`
	Admitted        int     `json:"admitted"`
	Rejected        int     `json:"rejected"`
	Verified        bool    `json:"verified"`
	VerifyNote      string  `json:"verify_note,omitempty"`
}

func (r *report) print(w io.Writer, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r)
		return
	}
	shards := ""
	if r.Shards > 1 {
		shards = fmt.Sprintf(", %d shards", r.Shards)
	}
	fmt.Fprintf(w, "pdftspd-load: %d bids over %d slots, %d nodes%s (%s loop, batch %d, %d conns)\n",
		r.Bids, r.Slots, r.Nodes, shards, r.Mode, r.Batch, r.Conns)
	fmt.Fprintf(w, "  submitted %d  decided %d  shed %d  retries %d\n", r.Submitted, r.Decided, r.Shed, r.Retries)
	fmt.Fprintf(w, "  wall %.2fs  sustained %.0f bids/s\n", r.WallSeconds, r.SustainedBidsPerSec)
	fmt.Fprintf(w, "  intake RTT    p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.1fms\n",
		r.IntakeP50Ms, r.IntakeP90Ms, r.IntakeP99Ms, r.IntakeMaxMs)
	fmt.Fprintf(w, "  decision lat  p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.0fms\n",
		r.DecisionP50Ms, r.DecisionP90Ms, r.DecisionP99Ms, r.DecisionMaxMs)
	fmt.Fprintf(w, "  intake high-water %d  held high-water %d  shed: channel %d held %d\n",
		r.IntakeHighWater, r.HeldHighWater, r.ShedChannelFull, r.ShedHeldFull)
	fmt.Fprintf(w, "  allocs/served bid (whole process, both sides of the wire) %.1f\n", r.AllocsPerBid)
	if r.WALRecords > 0 || r.WALFsyncs > 0 {
		fmt.Fprintf(w, "  journal  records %d  bytes %d  fsyncs %d  avg %.3fms  max %.3fms  replayed %d  failures %d\n",
			r.WALRecords, r.WALBytes, r.WALFsyncs, r.WALFsyncAvgMs, r.WALFsyncMaxMs, r.WALReplayed, r.WALFailures)
	}
	fmt.Fprintf(w, "  welfare %.2f  revenue %.2f  admitted %d  rejected %d\n",
		r.Welfare, r.Revenue, r.Admitted, r.Rejected)
	if r.Verified {
		fmt.Fprintln(w, "  verify: broker output matches sequential sim.Run (decisions + accounting)")
	} else if r.VerifyNote != "" {
		fmt.Fprintf(w, "  verify: %s\n", r.VerifyNote)
	}
}

func run(f flags) (*report, error) {
	slots := f.stack.Slots
	tasks, err := loadTasks(f)
	if err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("empty workload")
	}

	// Group per arrival slot; the submit loop feeds slot s's bids while
	// the broker clock sits at s, then steps.
	perSlot, err := trace.BySlot(tasks, slots)
	if err != nil {
		return nil, err
	}
	maxID := 0
	for i := range tasks {
		if tasks[i].ID > maxID {
			maxID = tasks[i].ID
		}
	}
	maxSlot := 0
	for _, s := range perSlot {
		if len(s) > maxSlot {
			maxSlot = len(s)
		}
	}
	queue := f.queue
	if queue <= 0 {
		queue = maxSlot + f.conns*f.batch + 16
	}

	lat := &latObserver{epoch: time.Now(), dec: make([]int64, maxID+1)}
	observers := []obs.Observer{lat}
	var decLog *obs.DecisionLog
	if f.decLog != "" {
		if decLog, err = obs.NewDecisionLogFile(f.decLog); err != nil {
			return nil, err
		}
		observers = append(observers, decLog)
	}

	// One shard is the whole cluster: the same recipe cmd/pdftspd serves,
	// opened the same way, and everything downstream drives the
	// service.Auctioneer interface.
	stacks, err := f.stack.Wire(tasks, f.shards)
	if err != nil {
		return nil, err
	}
	opts := make([]service.Options, len(stacks))
	for i, st := range stacks {
		opts[i] = service.Options{
			Cluster:             st.Cluster,
			Scheduler:           st.Scheduler,
			Model:               st.Model,
			Market:              st.Market,
			QueueSize:           queue,
			VirtualClock:        true,
			CheckpointPath:      f.ckpt,
			CheckpointFullEvery: f.fullEvery,
			Observer:            obs.Multi(observers...),
			RunLabel:            "pdftspd-load",
			DropLosingPlans:     !f.keepPlans,
		}
		if f.wal {
			opts[i].WALPath = service.WALPath(f.ckpt)
			opts[i].WALSyncEvery = f.walSyncEvery
		}
	}
	a, err := service.Open(opts...)
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: a.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        f.conns * 2,
		MaxIdleConnsPerHost: f.conns * 2,
	}}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		intakeRTT []time.Duration
		submitNs  = make([]int64, maxID+1)
		shed      int
		retried   int
		submitted int
		workerErr error
	)
	jobs := make(chan []task.Task, f.conns*2)
	for w := 0; w < f.conns; w++ {
		go func() {
			body := &bytes.Buffer{}
			for chunk := range jobs {
				rtt, retries, jshed, err := postBatch(client, base, chunk, f, body, lat.epoch, submitNs)
				mu.Lock()
				intakeRTT = append(intakeRTT, rtt)
				retried += retries
				shed += jshed
				submitted += len(chunk) - jshed
				if err != nil && workerErr == nil {
					workerErr = err
				}
				mu.Unlock()
				wg.Done()
			}
		}()
	}

	var pace <-chan time.Time
	if f.mode == "open" && f.target > 0 {
		interval := time.Duration(float64(f.batch) / f.target * float64(time.Second))
		if interval > 0 {
			t := time.NewTicker(interval)
			pace = t.C
			defer t.Stop()
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for s := 0; s < slots; s++ {
		chunk := perSlot[s]
		for len(chunk) > 0 {
			n := f.batch
			if n > len(chunk) {
				n = len(chunk)
			}
			if pace != nil {
				<-pace
			}
			wg.Add(1)
			jobs <- chunk[:n]
			chunk = chunk[n:]
		}
		wg.Wait()
		mu.Lock()
		err := workerErr
		mu.Unlock()
		if err != nil {
			return nil, err
		}
		if err := step(client, base); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	close(jobs)

	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := a.Drain(drainCtx); err != nil {
		return nil, err
	}
	if decLog != nil {
		if err := decLog.Close(); err != nil {
			return nil, fmt.Errorf("decision log: %w", err)
		}
	}
	// The aggregate Status reports worst-shard high-waters and fleet-summed
	// sheds and journal counters, so one reading serves both shapes.
	st, err := a.Status()
	if err != nil {
		return nil, err
	}

	decided := 0
	var decLat []time.Duration
	for id, dNs := range lat.dec {
		if dNs == 0 {
			continue
		}
		decided++
		if sNs := submitNs[id]; sNs > 0 && dNs > sNs {
			decLat = append(decLat, time.Duration(dNs-sNs))
		}
	}

	rep := &report{
		Bids: len(tasks), Slots: slots, Nodes: f.stack.NumNodes(), Shards: f.shards, Mode: f.mode,
		Batch: f.batch, Conns: f.conns,
		Submitted: submitted, Decided: decided, Shed: shed, Retries: retried,
		WallSeconds:         wall.Seconds(),
		SustainedBidsPerSec: float64(decided) / wall.Seconds(),
		IntakeHighWater:     st.IntakeHighWater,
		HeldHighWater:       st.HeldHighWater,
		ShedChannelFull:     st.ShedChannelFull,
		ShedHeldFull:        st.ShedHeldFull,
		Welfare:             st.Welfare,
		Revenue:             st.Revenue,
		Admitted:            st.Admitted,
		Rejected:            st.Rejected,
	}
	if decided > 0 {
		rep.AllocsPerBid = float64(m1.Mallocs-m0.Mallocs) / float64(decided)
	}
	rep.WALRecords, rep.WALBytes, rep.WALFsyncs = st.WALRecords, st.WALBytes, st.WALFsyncs
	rep.WALReplayed, rep.WALFailures = st.WALReplayed, st.WALFailures
	if st.WALFsyncs > 0 {
		rep.WALFsyncAvgMs = float64(st.WALFsyncNanos) / float64(st.WALFsyncs) / 1e6
	}
	rep.WALFsyncMaxMs = float64(st.WALFsyncMaxNS) / 1e6
	rep.IntakeP50Ms, rep.IntakeP90Ms, rep.IntakeP99Ms, rep.IntakeMaxMs = percentilesMs(intakeRTT)
	rep.DecisionP50Ms, rep.DecisionP90Ms, rep.DecisionP99Ms, rep.DecisionMaxMs = percentilesMs(decLat)

	if f.verify {
		rep.Verified, rep.VerifyNote = verifyFleet(f.stack, tasks, a, shed)
	}
	return rep, nil
}

// postBatch submits one chunk via POST /v1/bids/batch?ack=1, honoring
// Retry-After in closed mode and shedding in open mode. It returns the
// final attempt's ack round trip.
func postBatch(client *http.Client, base string, chunk []task.Task, f flags, body *bytes.Buffer, epoch time.Time, submitNs []int64) (rtt time.Duration, retries, shed int, err error) {
	reqs := make([]service.BidRequest, len(chunk))
	for i := range chunk {
		reqs[i] = service.BidRequestFor(chunk[i])
	}
	body.Reset()
	if err := json.NewEncoder(body).Encode(reqs); err != nil {
		return 0, 0, 0, err
	}
	payload := append([]byte(nil), body.Bytes()...)

	for attempt := 0; ; attempt++ {
		for i := range chunk {
			if id := chunk[i].ID; id >= 0 && id < len(submitNs) && submitNs[id] == 0 {
				submitNs[id] = int64(time.Since(epoch))
			}
		}
		t0 := time.Now()
		resp, err := client.Post(base+"/v1/bids/batch?ack=1", "application/json", bytes.NewReader(payload))
		rtt = time.Since(t0)
		if err != nil {
			return rtt, retries, 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if f.mode == "open" || attempt >= f.retries {
				return rtt, retries, len(chunk), nil
			}
			retries++
			// The harness always drives a loopback virtual-clock broker,
			// whose queue drains at the next slot close — milliseconds away.
			time.Sleep(retryDelay(ra, attempt, true))
			continue
		}
		var results []struct {
			TaskID int    `json:"task_id"`
			Error  string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&results)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return rtt, retries, len(chunk), fmt.Errorf("batch POST: HTTP %d", resp.StatusCode)
		}
		if decErr != nil {
			return rtt, retries, 0, decErr
		}
		for _, r := range results {
			if r.Error != "" {
				shed++
			}
		}
		return rtt, retries, shed, nil
	}
}

// retryDelay picks the closed-mode backoff after a 429. The broker
// quantizes Retry-After to whole seconds, which is a sane floor for a
// real-clock deployment but absurd against a loopback virtual-clock
// broker whose queue drains at the next slot close — sleeping the full
// advertised second there serializes the generator on the retry path.
// So: exponential jittered millisecond backoff (4ms base, capped at
// 64ms, jitter in [base/2, 3·base/2)), with the Retry-After header
// enforced as a floor only on real-clock runs.
func retryDelay(retryAfter string, attempt int, virtual bool) time.Duration {
	if attempt > 4 {
		attempt = 4
	}
	base := 4 * time.Millisecond << uint(attempt)
	d := base/2 + time.Duration(rand.Int63n(int64(base)))
	if !virtual {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
			if floor := time.Duration(secs) * time.Second; d < floor {
				d = floor
			}
		}
	}
	return d
}

func step(client *http.Client, base string) error {
	resp, err := client.Post(base+"/v1/clock/step", "application/json", bytes.NewReader([]byte(`{"slots":1}`)))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("clock step: HTTP %d", resp.StatusCode)
	}
	return nil
}

// verifyFleet checks every broker behind the Auctioneer against its own
// sequential sim.Run twin (service.DiffTwins): each broker's subsequence
// replays on a freshly wired twin of that broker's cluster slice, and
// decisions and per-broker accounting must match bit for bit.
func verifyFleet(stack config.Config, tasks []task.Task, a service.Auctioneer, shed int) (bool, string) {
	if shed > 0 {
		return false, fmt.Sprintf("skipped: %d bids were shed, replay would diverge", shed)
	}
	twins, err := stack.Wire(tasks, len(a.Brokers()))
	if err == nil {
		err = service.DiffTwins(a, tasks, func(i int, sub []task.Task) (*sim.Result, error) {
			simCfg := twins[i].SimConfig
			simCfg.CollectDecisions = true
			return sim.Run(twins[i].Cluster, twins[i].Scheduler, sub, simCfg)
		})
	}
	if err != nil {
		return false, err.Error()
	}
	return true, ""
}

// percentilesMs reports p50/p90/p99/max in milliseconds using the
// nearest-rank definition: p-q is the ceil(q·n)-th smallest sample, so
// p99 of 10 samples is the max, not the 9th. (The old floor-indexed
// interpolation point systematically under-reported tail latency on
// small samples.)
func percentilesMs(d []time.Duration) (p50, p90, p99, max float64) {
	if len(d) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(d)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(d) {
			i = len(d) - 1
		}
		return float64(d[i]) / float64(time.Millisecond)
	}
	return at(0.5), at(0.9), at(0.99), float64(d[len(d)-1]) / float64(time.Millisecond)
}

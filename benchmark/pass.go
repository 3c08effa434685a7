package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/task"
)

const runLabel = "benchmark"

// counters are the Status() tallies that restart from zero with every
// broker generation; a pass sums them over its generations (high-water
// marks and the worst fsync take the maximum).
type counters struct {
	intakeHW, heldHW                      int
	shedChan, shedHeld                    int64
	walRecords, walBytes                  int64
	walFsyncs, walFsyncNS, walFsyncMaxNS  int64
	walReplayed, walFailures, ckptFailure int
}

func (c *counters) fold(st service.Status) {
	c.intakeHW = max(c.intakeHW, st.IntakeHighWater)
	c.heldHW = max(c.heldHW, st.HeldHighWater)
	c.shedChan += st.ShedChannelFull
	c.shedHeld += st.ShedHeldFull
	c.walRecords += st.WALRecords
	c.walBytes += st.WALBytes
	c.walFsyncs += st.WALFsyncs
	c.walFsyncNS += st.WALFsyncNanos
	c.walFsyncMaxNS = max(c.walFsyncMaxNS, st.WALFsyncMaxNS)
	c.walReplayed += st.WALReplayed
	c.walFailures += st.WALFailures
	c.ckptFailure += st.CheckpointFailures
}

// pass is one measured horizon on a fresh broker: its own set-up, its
// own persistence directory, and everything observed from outside.
type pass struct {
	su    *setup
	paths persistPaths

	// setupS is pass start → first bid sent. It is the set-up time only
	// on a pass that made its own set-up (fullSetup); a pass on a reused
	// one pays for the wiring alone.
	setupS    float64
	fullSetup bool

	// The generator is sequential per slot, so these three sum to wallS.
	wallS, submitS, stepS, restoreS float64
	restores                        int
	recoverS                        float64

	// Latency samples. slotNs, slotCloseNs and decisionNs are in slot and
	// task order, so the same index is the same slot or bid in every pass
	// of a run: slotNs[s] is slot s from its first POST to the return of
	// its step, restore cycle included.
	ackNs, decisionNs, slotNs, slotCloseNs []int64

	attempted, decided, failed, retries int
	bodyBytes                           int64
	welfare, heapMB                     float64
	mallocs                             uint64
	gcCycles                            uint32
	gcPauseNs                           uint64
	counters
	deltaBytes int64

	rec     *recorder
	dualOps int64
	dpRuns  int64

	// broker is the last generation, kept for verification and the
	// post-run layer calls; declogCount the records the sink wrote.
	broker      *service.Broker
	declogCount int64
}

// client is the closed-loop bid generator: submitConns workers, one
// batch in flight each.
type client struct {
	http     *http.Client
	base     string
	rec      *recorder
	epoch    time.Time
	submitNs []int64

	mu        sync.Mutex
	ackNs     []int64
	retries   int
	failed    int
	bodyBytes int64
	err       error
}

type job struct {
	chunk []task.Task
	slot  int
}

func (p *pass) brokerOptions(st *stack, o obs.Observer) service.Options {
	sp := p.su.spec
	opts := service.Options{
		Cluster:         st.cl,
		Scheduler:       st.sched,
		Model:           p.su.model,
		Market:          p.su.mkt,
		QueueSize:       p.su.maxSlot + submitConns*sp.batch + 16,
		VirtualClock:    true,
		Observer:        o,
		RunLabel:        runLabel,
		DropLosingPlans: true,
	}
	if sp.durable {
		opts.CheckpointPath = p.paths.ckpt
		opts.CheckpointFullEvery = 8
		opts.WALPath = service.WALPath(p.paths.ckpt)
		opts.WALSyncEvery = 1
	}
	return opts
}

// runPass sets the stack up from the seed, serves the whole horizon over
// loopback HTTP, drains, and returns what was observed. The caller
// verifies the pass against the twin and then releases it. With reuse
// set, the pass skips trace generation and calibration and serves the
// same bids on a fresh cluster and scheduler built from reuse's
// coefficients, as every restored generation and the twin do.
func runPass(sp spec, seed int64, traced bool, persistBase string, reuse *setup) (p *pass, err error) {
	t0 := time.Now()
	su := reuse
	if su == nil {
		if su, err = newSetup(sp, seed); err != nil {
			return nil, err
		}
	}
	st := su.gen0
	su.gen0 = nil // a stack serves one horizon
	if st == nil {
		if st, err = su.newStack(); err != nil {
			return nil, err
		}
	}
	p = &pass{su: su, attempted: len(su.tasks), fullSetup: reuse == nil}
	if sp.durable {
		if p.paths, err = newPersistDir(persistBase); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				os.RemoveAll(p.paths.dir)
			}
		}()
	}

	epoch := time.Now()
	door := &frontDoor{}
	door.step.Store(-1)
	var (
		lat  *latObserver
		so   *spanObserver
		sink obs.Observer
	)
	if traced {
		// Per bid: an offer, a commit and one DP per quote; per batch: a
		// post, an attempt and a handler; per slot: two step spans.
		capacity := len(su.tasks)*(2+numVendors) + 3*(len(su.tasks)/sp.batch+sp.slots)*(retryBudget+1) + 4*sp.slots + 64
		p.rec = newRecorder(epoch, capacity)
		door.rec = p.rec
		so = &spanObserver{rec: p.rec, step: &door.step}
		so.latObserver = latObserver{epoch: epoch, dec: make([]int64, su.maxID+1)}
		lat, sink = &so.latObserver, so
	} else {
		lat = &latObserver{epoch: epoch, dec: make([]int64, su.maxID+1)}
		sink = lat
	}
	var declog *obs.DecisionLog
	if sp.durable {
		if declog, err = obs.NewDecisionLogFile(p.paths.declog); err != nil {
			return nil, err
		}
		defer declog.Close() // error paths only; the success path checks Close below
		sink = obs.Multi(sink, declog)
	}

	if p.broker, err = service.New(p.brokerOptions(st, sink)); err != nil {
		return nil, err
	}
	if err = p.broker.Start(); err != nil {
		return nil, err
	}
	// From here the broker runs a goroutine; every error path stops it.
	defer func() {
		if err != nil {
			p.broker.Kill()
		}
	}()
	door.swap(p.broker.Handler())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: door}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
		door.inflight.Wait()
	}()

	cl := &client{
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        submitConns * 2,
			MaxIdleConnsPerHost: submitConns * 2,
		}},
		base:     "http://" + ln.Addr().String(),
		rec:      p.rec,
		epoch:    epoch,
		submitNs: make([]int64, su.maxID+1),
	}
	defer cl.http.CloseIdleConnections()

	var inflight, workers sync.WaitGroup
	jobs := make(chan job, submitConns*2) // one queued batch per worker keeps both busy
	for w := 0; w < submitConns; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			body := &bytes.Buffer{}
			for j := range jobs {
				cl.postBatch(j, body)
				inflight.Done()
			}
		}()
	}
	stopWorkers := sync.OnceFunc(func() {
		close(jobs)
		workers.Wait()
	})
	defer stopWorkers()
	submit := func(chunks [][]task.Task, slot int) error {
		for _, c := range chunks {
			inflight.Add(1)
			jobs <- job{chunk: c, slot: slot}
		}
		inflight.Wait()
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.err
	}

	p.setupS = time.Since(t0).Seconds()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var submitD, stepD, restoreD time.Duration
	p.slotCloseNs = make([]int64, 0, sp.slots)
	p.slotNs = make([]int64, 0, sp.slots)
	lastDelta := int64(0)
	start := time.Now()
	for s := 0; s < sp.slots; s++ {
		chunks := chunk(su.perSlot[s], sp.batch)
		tSlot := time.Now()
		slotStart := tSlot
		kill := sp.killEvery > 0 && s > 0 && s%sp.killEvery == 0
		first := len(chunks)
		if kill {
			first = len(chunks) / 2
		}
		if err = submit(chunks[:first], s); err != nil {
			return nil, err
		}
		if kill {
			tKill := time.Now()
			submitD += tKill.Sub(tSlot)
			if err = p.restore(s, sink, door); err != nil {
				return nil, fmt.Errorf("restore at slot %d: %w", s, err)
			}
			tSlot = time.Now()
			restoreD += tSlot.Sub(tKill)
			if err = submit(chunks[first:], s); err != nil {
				return nil, err
			}
		}
		tStep := time.Now()
		submitD += tStep.Sub(tSlot)
		if err = cl.step(s); err != nil {
			return nil, err
		}
		d := time.Since(tStep)
		stepD += d
		p.slotCloseNs = append(p.slotCloseNs, int64(d))
		p.slotNs = append(p.slotNs, int64(tStep.Add(d).Sub(slotStart)))
		if traced && sp.durable {
			// The delta sidecar restarts at every full snapshot; summing
			// its growth gives the bytes appended over the run.
			if fi, serr := os.Stat(service.DeltaPath(p.paths.ckpt)); serr == nil {
				sz := fi.Size()
				if sz < lastDelta {
					lastDelta = 0
				}
				p.deltaBytes += sz - lastDelta
				lastDelta = sz
			}
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	stopWorkers()

	p.wallS, p.submitS, p.stepS, p.restoreS = wall.Seconds(), submitD.Seconds(), stepD.Seconds(), restoreD.Seconds()
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err = p.broker.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if declog != nil {
		if err = declog.Close(); err != nil {
			return nil, fmt.Errorf("decision log: %w", err)
		}
		p.declogCount = declog.Count()
	}
	final, err := p.broker.Status()
	if err != nil {
		return nil, err
	}
	p.fold(final)
	p.welfare = final.Welfare
	if final.CheckpointError != "" || p.ckptFailure > 0 {
		return nil, fmt.Errorf("checkpoint write failed (%d): %s", p.ckptFailure, final.CheckpointError)
	}
	if p.walFailures > 0 {
		return nil, fmt.Errorf("journal write failed (%d): %s", p.walFailures, final.WALError)
	}

	p.ackNs, p.retries, p.bodyBytes = cl.ackNs, cl.retries, cl.bodyBytes
	p.decisionNs = make([]int64, 0, len(su.tasks))
	for id, dNs := range lat.dec {
		if dNs == 0 {
			continue
		}
		p.decided++
		if sNs := cl.submitNs[id]; sNs > 0 && dNs > sNs {
			p.decisionNs = append(p.decisionNs, dNs-sNs)
		}
	}
	// Shed and refused bids are never decided, so the undecided count
	// covers all three ways a bid can fail.
	p.failed = max(cl.failed, p.attempted-p.decided)
	if so != nil {
		p.dualOps, p.dpRuns = so.dualOps, so.vendors
	}

	// What the broker retains for the horizon, with the harness's own
	// task slice and sample arrays on top (whole-process numbers).
	// (Two collections: a sync.Pool's contents survive the first.)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(p.broker)
	return p, nil
}

// release removes the pass's persistence directory.
func (p *pass) release() {
	if p.paths.dir != "" {
		os.RemoveAll(p.paths.dir)
	}
}

// restore is one crash cycle: the serving generation is killed with
// acked bids still held, and a fresh stack comes up from the checkpoint
// chain and the journal, exactly as a restarted daemon would.
func (p *pass) restore(slot int, sink obs.Observer, door *frontDoor) error {
	st, err := p.broker.Status()
	if err != nil {
		return err
	}
	p.fold(st)
	sp := p.rec.open(spanRestore, -1, int32(slot))
	p.broker.Kill()
	stk, err := p.su.newStack()
	if err != nil {
		return err
	}
	b, err := service.New(p.brokerOptions(stk, sink))
	if err != nil {
		return err
	}
	ck, err := service.LoadCheckpoint(p.paths.ckpt)
	if err != nil {
		return err
	}
	if err := b.Restore(ck); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := b.RecoverWAL(); err != nil {
		return err
	}
	p.recoverS += time.Since(t0).Seconds()
	if err := b.Start(); err != nil {
		return err
	}
	p.broker = b
	door.swap(b.Handler())
	p.rec.close(sp)
	p.restores++
	if got, err := b.Slot(); err != nil || got != slot {
		return fmt.Errorf("restored at slot %d (err %v), want %d", got, err, slot)
	}
	return nil
}

func chunk(ts []task.Task, n int) [][]task.Task {
	var out [][]task.Task
	for len(ts) > 0 {
		k := min(n, len(ts))
		out = append(out, ts[:k])
		ts = ts[k:]
	}
	return out
}

func (c *client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// encodeBatch writes the wire form of a chunk, as cmd/pdftspd-load does.
func encodeBatch(body *bytes.Buffer, chunk []task.Task) error {
	reqs := make([]service.BidRequest, len(chunk))
	for i := range chunk {
		reqs[i] = service.BidRequestFor(chunk[i])
	}
	body.Reset()
	return json.NewEncoder(body).Encode(reqs)
}

// postBatch submits one chunk via POST /v1/bids/batch?ack=1 and retries
// 429s with the jittered millisecond backoff. The ack latency runs from
// the first attempt to the final ack, so retry waits are inside it.
func (c *client) postBatch(j job, body *bytes.Buffer) {
	if err := encodeBatch(body, j.chunk); err != nil {
		c.fail(err)
		return
	}
	payload := body.Bytes()
	post := c.rec.open(spanPost, -1, int32(j.slot))
	t0 := time.Now()
	first := int64(t0.Sub(c.epoch))
	for i := range j.chunk {
		if id := j.chunk[i].ID; id >= 0 && id < len(c.submitNs) && c.submitNs[id] == 0 {
			c.submitNs[id] = first
		}
	}
	retries, failed := 0, 0
	for attempt := 0; ; attempt++ {
		status, verdictErrs, err := c.attempt(payload, post, j.slot)
		if err != nil {
			c.fail(err)
			return
		}
		if status == http.StatusTooManyRequests {
			if attempt >= retryBudget {
				failed = len(j.chunk)
				break
			}
			retries++
			time.Sleep(retryDelay(attempt))
			continue
		}
		if status != http.StatusOK {
			c.fail(fmt.Errorf("batch POST: HTTP %d", status))
			return
		}
		failed = verdictErrs
		break
	}
	ack := time.Since(t0)
	c.rec.close(post)
	c.mu.Lock()
	c.ackNs = append(c.ackNs, int64(ack))
	c.retries += retries
	c.failed += failed
	c.bodyBytes += int64(len(payload))
	c.mu.Unlock()
}

// attempt is one HTTP POST of a batch; it returns the status and how
// many bids the broker refused in an otherwise accepted batch.
func (c *client) attempt(payload []byte, post int32, slot int) (status, verdictErrs int, err error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/bids/batch?ack=1", bytes.NewReader(payload))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := c.rec.open(spanAttempt, post, int32(slot))
	if sp >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		c.rec.close(sp)
		return resp.StatusCode, 0, nil
	}
	var results []struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		return 0, 0, fmt.Errorf("batch ack: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	c.rec.close(sp)
	for _, r := range results {
		if r.Error != "" {
			verdictErrs++
		}
	}
	return resp.StatusCode, verdictErrs, nil
}

// retryDelay is cmd/pdftspd-load's closed-loop backoff on a virtual-clock
// broker: 4 ms base doubling to 64 ms, jittered to [base/2, 3·base/2).
func retryDelay(attempt int) time.Duration {
	base := 4 * time.Millisecond << uint(min(attempt, 4))
	return base/2 + time.Duration(rand.Int63n(int64(base)))
}

func (c *client) step(slot int) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/clock/step", bytes.NewReader([]byte(`{"slots":1}`)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := c.rec.open(spanStep, -1, int32(slot))
	if sp >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.rec.close(sp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("clock step: HTTP %d", resp.StatusCode)
	}
	return nil
}

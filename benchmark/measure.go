package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/sim"
)

// twin is the sequential sim.Run of the same inputs on a freshly wired
// stack: the ground truth every pass must equal bit for bit. It makes its
// own set-up from the seed, as every pass does.
type twin struct {
	res     *sim.Result
	seconds float64
	slots   int
}

func runTwin(sp spec, seed int64) (*twin, error) {
	su, err := newSetup(sp, seed)
	if err != nil {
		return nil, err
	}
	st, err := su.newStack()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := sim.Run(st.cl, st.sched, su.tasks, sim.Config{Model: su.model, Market: su.mkt, CollectDecisions: true})
	if err != nil {
		return nil, fmt.Errorf("twin: %w", err)
	}
	tw := &twin{res: res, seconds: time.Since(t0).Seconds(), slots: sp.slots}
	// The broker drops losing plans and the outcome diff never reads a
	// plan, so the twin's need not stay on the heap for later passes.
	for i := range res.Decisions {
		res.Decisions[i].Schedule = nil
	}
	return tw, nil
}

// verify is the correctness gate: no bid failed, the drained broker's
// accounting and every decision equal the twin's, every acked bid is
// decided, the decision log holds one record per decision, and nothing
// is left in the journal.
func (p *pass) verify(tw *twin) error {
	if p.failed > 0 {
		return fmt.Errorf("%d of %d bids shed, refused or undecided", p.failed, p.attempted)
	}
	if len(p.decisionNs) != p.attempted || len(p.slotNs) != tw.slots || len(p.slotCloseNs) != tw.slots {
		return fmt.Errorf("%d decision, %d slot and %d step samples for %d bids in %d slots",
			len(p.decisionNs), len(p.slotNs), len(p.slotCloseNs), p.attempted, tw.slots)
	}
	if msg := sim.DiffResults(p.broker.Result(), tw.res); msg != "" {
		return fmt.Errorf("accounting differs from sim.Run: %s", msg)
	}
	for i := range p.su.tasks {
		id := p.su.tasks[i].ID
		d, ok, err := p.broker.DecisionFor(id)
		if err != nil || !ok {
			return fmt.Errorf("acked bid %d has no decision (err %v)", id, err)
		}
		if msg := sim.DiffDecisions(&d, &tw.res.Decisions[i], false); msg != "" {
			return fmt.Errorf("decision differs from sim.Run: %s", msg)
		}
	}
	if p.su.spec.durable {
		if int(p.declogCount) != p.decided {
			return fmt.Errorf("decision log holds %d records, %d bids decided", p.declogCount, p.decided)
		}
		if left := service.ReadWAL(service.WALPath(p.paths.ckpt), runLabel); len(left) != 0 {
			return fmt.Errorf("%d bids left in the journal after drain", len(left))
		}
	}
	if want := p.wantRestores(); p.restores != want {
		return fmt.Errorf("%d restore cycles, want %d", p.restores, want)
	}
	sum := p.submitS + p.stepS + p.restoreS
	if math.Abs(sum-p.wallS) > 0.01*p.wallS {
		return fmt.Errorf("phases sum to %.4fs, wall clock is %.4fs", sum, p.wallS)
	}
	return nil
}

func (p *pass) wantRestores() int {
	sp := p.su.spec
	if sp.killEvery <= 0 {
		return 0
	}
	return (sp.slots - 1) / sp.killEvery
}

// runResult is one benchmark run of one workload: several passes on the
// same seed, aggregated.
type runResult struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Traced    bool           `json:"traced"`
	Passes    int            `json:"passes"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Bids      int            `json:"bids_per_pass"`
	Samples   map[string]int `json:"samples_per_pass"`
	// StealShare is the share of this run's CPU time the hypervisor gave
	// to other guests (/proc/stat): a run that reads slow and shows steal
	// was disturbed from outside.
	StealShare float64            `json:"cpu_steal_share"`
	Values     map[string]float64 `json:"values"`
}

// floor is the undisturbed time of every sample of a run. The passes of
// a run replay identical inputs, so slot s and bid i do the same work in
// each, and whatever else the host does in the meantime can only add to
// what the clock reads. The element-wise minimum over the passes is
// therefore each sample's best estimate of the code's own time; it is
// what the serving-phase timings are computed from (README, "Steadiness").
// The arrays are allocated before the first pass, so that every pass
// finds the same harness heap.
type floor struct {
	slotNs, slotCloseNs, decisionNs []int64
}

func newFloor(slots, bids int) *floor {
	f := &floor{slotNs: make([]int64, slots), slotCloseNs: make([]int64, slots), decisionNs: make([]int64, bids)}
	for _, a := range [][]int64{f.slotNs, f.slotCloseNs, f.decisionNs} {
		for i := range a {
			a[i] = math.MaxInt64
		}
	}
	return f
}

func (f *floor) fold(p *pass) {
	for _, pair := range [][2][]int64{{f.slotNs, p.slotNs}, {f.slotCloseNs, p.slotCloseNs}, {f.decisionNs, p.decisionNs}} {
		for i, ns := range pair[1] {
			pair[0][i] = min(pair[0][i], ns)
		}
	}
}

// serving is a run's serving metrics, with the sample count behind each
// percentile.
func (f *floor) serving(minTail int) (map[string]float64, map[string]int, error) {
	var horizonNs int64
	for _, ns := range f.slotNs {
		horizonNs += ns
	}
	v := map[string]float64{"harness.bids_per_s": float64(len(f.decisionNs)) / (float64(horizonNs) / 1e9)}
	n := map[string]int{"decision": len(f.decisionNs), "slot_close": len(f.slotCloseNs)}
	for _, m := range []struct {
		name    string
		samples []int64
	}{
		{"harness.decision_p50_ms", f.decisionNs},
		{"harness.slot_close_p50_ms", f.slotCloseNs},
	} {
		ns, err := percentile(m.samples, 0.50, minTail)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", m.name, err)
		}
		v[m.name] = ns / 1e6
	}
	return v, n, nil
}

// setupPasses is how many passes of a run make their own set-up; the
// later ones reuse the last of these, so that more of the run's time
// replays the serving phase. setup_s is the median over these.
const setupPasses = 3

// measure runs passes of one workload for the given number of seconds:
// it starts another pass (on a traced run, another pair: untraced and
// traced passes alternate, so that the tracing overhead is measured on
// the same inputs) while one more like the last still fits, and makes at
// least three (two pairs) whatever they take. Set-up and serving phase
// both count; the twin does not. Per-pass numbers — set-up time, heap,
// every layer's metrics — are reported as the median over the passes; the
// three serving metrics come from the floor of the run's untraced passes.
func measure(sp spec, seed int64, seconds float64, traced bool, outDir string, verbose bool) (*runResult, error) {
	persistBase := filepath.Join(outDir, "persist")
	steal0, total0 := cpuJiffies()
	// The twin comes first, so that its decisions are on the heap of every
	// pass alike: live_heap_mb then reads the same harness share whichever
	// pass it is and however many there are.
	tw, err := runTwin(sp, seed)
	if err != nil {
		return nil, err
	}
	var (
		plain    []*pass // scalars only, once the loop has moved on
		withSpan []*pass
		perPass  []map[string]float64 // the reported kind's per-pass metrics
		samples  map[string]int
		post     map[string]float64
		measured float64 // set-up and serving phases so far
		lastCost float64 // of the pass before this one
		fl       = newFloor(sp.slots, len(tw.res.Decisions))
		setups   []float64
		reuse    *setup
	)
	for n, done := 0, false; !done; n++ {
		tracePass := traced && n%2 == 1
		p, err := runPass(sp, seed, tracePass, persistBase, reuse)
		if err != nil {
			return nil, err
		}
		if p.fullSetup {
			setups = append(setups, p.setupS)
		}
		if n == setupPasses-1 {
			reuse = p.su
		}
		err = func() error {
			defer p.release()
			if err := p.verify(tw); err != nil {
				return err
			}
			cost := p.setupS + p.wallS
			measured += cost
			if verbose {
				fmt.Fprintf(os.Stderr, "  pass %d traced=%v: setup %.3fs wall %.3fs (submit %.3f step %.3f restore %.3f) %.0f bids/s heap %.1f MB gc %d\n",
					n, tracePass, p.setupS, p.wallS, p.submitS, p.stepS, p.restoreS, float64(p.decided)/p.wallS, p.heapMB, p.gcCycles)
			}
			if traced {
				// A traced run ends on a traced pass.
				done = tracePass && n >= 3 && measured+lastCost+cost > seconds
			} else {
				done = n >= 2 && measured+cost > seconds
			}
			lastCost = cost
			if !tracePass {
				plain = append(plain, p)
				fl.fold(p)
				if !traced {
					perPass = append(perPass, map[string]float64{"live_heap_mb": p.heapMB, "welfare": p.welfare})
				}
				return nil
			}
			withSpan = append(withSpan, p)
			v, cnt, err := p.layerMetrics()
			if err != nil {
				return err
			}
			perPass, samples = append(perPass, v), cnt
			if done {
				// The one-shot layer calls and the span file come from
				// the last traced pass's artefacts.
				if post, err = p.postRun(); err != nil {
					return err
				}
				return p.rec.writeJSONL(filepath.Join(outDir, sp.name+".spans.jsonl"))
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
		// Only scalars outlive a pass.
		p.su, p.broker, p.rec = nil, nil, nil
		p.ackNs, p.decisionNs, p.slotNs, p.slotCloseNs = nil, nil, nil, nil
	}

	res := &runResult{
		Workload: sp.name, Seed: seed, Traced: traced, Passes: len(plain) + len(withSpan),
		Bids: plain[0].attempted, Samples: samples, Values: map[string]float64{},
	}
	if steal1, total1 := cpuJiffies(); total1 > total0 {
		res.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	for _, p := range append(plain, withSpan...) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.welfare != plain[0].welfare {
			return nil, fmt.Errorf("welfare differs between passes of one seed: %v vs %v", p.welfare, plain[0].welfare)
		}
	}
	for _, def := range metricsFor(traced) {
		if _, ok := perPass[0][def.Name]; !ok {
			continue // a whole-run metric, filled in below
		}
		vals := make([]float64, len(perPass))
		for i, v := range perPass {
			vals[i] = v[def.Name]
		}
		res.Values[def.Name] = median(vals)
	}
	// The serving metrics of either kind of run come from the floor of its
	// untraced passes.
	v, cnt, err := fl.serving(sp.minTail)
	if err != nil {
		return nil, err
	}
	for k, x := range v {
		res.Values[k] = x
	}
	if !traced {
		res.Values["setup_s"] = median(setups)
		res.Samples = cnt
		return res, nil
	}

	// On top of the per-pass medians: the one-shot layer calls, and what
	// only a run as a whole can say.
	for k, v := range post {
		res.Values[k] = v
	}
	// The phases of the ledger's top line come from one pass, the one
	// with the median wall clock, so that they still sum to it.
	mid := medianPass(withSpan, func(p *pass) float64 { return p.wallS })
	res.Values["harness.wall_s"] = mid.wallS
	res.Values["harness.submit_phase_s"] = mid.submitS
	res.Values["harness.step_phase_s"] = mid.stepS
	res.Values["harness.restore_phase_s"] = mid.restoreS
	plainWall := medianOf(plain, func(p *pass) float64 { return p.wallS })
	res.Values["harness.trace_overhead_share"] = medianOf(withSpan, func(p *pass) float64 { return p.wallS })/plainWall - 1
	res.Values["sim.twin_s"] = tw.seconds
	res.Values["sim.twin_bids_per_s"] = float64(res.Bids) / tw.seconds
	res.Values["sim.serving_overhead_ratio"] = plainWall / tw.seconds // twin bids/s ÷ broker bids/s, same bids
	res.Values["runtime.peak_rss_mb"] = peakRSSMB()
	res.Values["runtime.cpu_steal_share"] = res.StealShare
	return res, nil
}

// percentile is the nearest-rank q-quantile (the ceil(q·n)-th smallest)
// of ns, refused when fewer than minTail samples lie beyond it.
func percentile(ns []int64, q float64, minTail int) (float64, error) {
	n := len(ns)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(max(i, 0), n-1)
	if beyond := n - 1 - i; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	return float64(s[i]), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []*pass, f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

// medianPass returns the pass whose f is the median (the lower one of
// an even count).
func medianPass(ps []*pass, f func(*pass) float64) *pass {
	s := append([]*pass(nil), ps...)
	sort.Slice(s, func(i, j int) bool { return f(s[i]) < f(s[j]) })
	return s[(len(s)-1)/2]
}

// peakRSSMB is the process's high-water resident set, from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuJiffies reads the machine-wide steal and total CPU time from the
// first line of /proc/stat; zeros where that file does not exist.
func cpuJiffies() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// loadGOMAXPROCS pins the load model's parallelism: min(nproc, 2).
func loadGOMAXPROCS() int {
	n := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(n)
	return n
}

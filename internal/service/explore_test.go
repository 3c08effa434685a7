package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pdftsp/pdftsp/internal/faults"
	"github.com/pdftsp/pdftsp/internal/lora"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// FuzzFleet is the one seeded explorer of the fleet's promises: an input
// expands into a fleet from Open over a 24-slot workload drawn from seed
// (shape bits 0-1 pick 1, 2 or 4 brokers, the value 3 reading as 4; bits 3
// and 4 are unused; the others are the fleet* bits below) and a script of
// fleetOps run against it. Between operations it waits for quiescence and
// brokers close slots one after another, so the seam numbers its
// operations the same on every replay. After every operation every acked
// bid must be decided or held (and, with a journal, in ReadWAL field for
// field), no bid refused with ErrWAL may come back, and a degraded
// /healthz must carry a reason Status agrees with. At the end
// DiffTwins holds every drained broker to a sim.Run twin, duals, ledgers
// and welfare bit-equal, and one obs.Audit across every generation is
// clean.
func FuzzFleet(f *testing.F) {
	for _, e := range fleetCorpus {
		f.Add(e.seed, e.shape, e.script)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, script string) {
		if len(script) > 96 {
			script = script[:96]
		}
		recordCorpusRun(t, exploreFleet(t, seed, shape, script))
	})
}

// Shape bits of a FuzzFleet input.
const (
	fleetJournal = 1 << 2
	fleetDeltas  = 1 << 5 // CheckpointFullEvery 4 instead of 1
	fleetFaults  = 1 << 6 // a faults.Generate plan's checkpoint-fault window
)

// fleetOps are the script's operations:
//
//	a-g      the current slot's unsent bids through the form fleetForms
//	         names; a, b and c are all SubmitBatch, so that the committed
//	         corpus keeps its letters
//	s        the rest through SubmitBatchAck, then close the slot
//	z        a clock stall: /v1/status keeps answering with the slot
//	k        the whole fleet dies and resumes on fresh stacks, as a restarted
//	         process does
//	t        tear every journal's tail before the next resume
//	F W P    fail or power-cut seam operation now+(next byte % 32), or short
//	         the first write from there
const fleetOps = "abcdefgszktFWP"

var fleetSeamModes = map[byte]string{'F': "fail", 'W': "short", 'P': "cut"}

var fleetForms = map[byte]string{
	'a': "SubmitBatch", 'b': "SubmitBatch", 'c': "SubmitBatch", 'd': "SubmitBatchAck",
	'e': "POST /v1/bids", 'f': "POST /v1/bids/batch", 'g': "POST /v1/bids/batch?ack=1",
}

// fleetCorpus is FuzzFleet's seed corpus, seed#0 onward in this order:
// the nine rows of the retired pdftspd self-tests (#6 was the spot smoke:
// a served broker's capacity is fixed now, so it keeps its index as a
// two-shard chaos row, its reclaims read as steps), then one input aimed
// at each journal and checkpoint fix that has a seam-level form, then
// inputs the fuzzer found.
var fleetCorpus = []struct {
	name   string
	seed   int64
	shape  uint8
	script string
}{
	{"serve-smoke", 1, 0, strings.Repeat("es", 24)},
	{"chaos-1", 1, fleetDeltas | fleetFaults, "ssasbssssszssssk"},
	{"chaos-7", 7, fleetDeltas | fleetFaults, "sscsfsszsssssssk"},
	{"chaos-42", 42, fleetDeltas | fleetFaults, "ssgsessssssksz"},
	{"chaos-1-shards-2", 1, 1 | fleetDeltas | fleetFaults, "ssescssssszssssk"},
	{"chaos-7-shards-4", 7, 2 | fleetDeltas | fleetFaults, "ssgsfsszsssssssk"},
	{"chaos-11-shards-2", 11, 1 | fleetDeltas | fleetFaults, "sssssssksssssssssssssssssskz"},
	{"wal-chaos-1", 1, fleetJournal | fleetDeltas, "dksssssakssssssekkssssssgtks"},
	{"wal-chaos-7-shards-2", 7, 1 | fleetJournal | fleetDeltas, "dksssssakssssssfkkssssssdtks"},
	{"seam-1", 1, fleetJournal | fleetDeltas, "sssW\x00dkssdP\x00ssdF\x00sksdssstkss"},
}

const fleetSlots = 24 // every explored fleet's horizon; bids arrive at three a slot

// fleetBid is one workload bid's fate so far.
type fleetBid struct {
	task    task.Task
	acked   bool           // held by the fleet (its ack released)
	refused bool           // refused with ErrWAL: it must never come back
	reply   chan formReply // a blocking form's answer, in flight
}

// fleetStats is what one run saw, for the corpus checks.
type fleetStats struct {
	fired                 map[string]int
	degraded              int
	diedOnAcked, replayed int
	torn                  bool
}

// fleetRun is one input's run: its configuration, then its state.
type fleetRun struct {
	t                   *testing.T
	seed                int64
	n, nodes, fullEvery int
	journal, faulty     bool
	dir, ckpt           string
	tasks               []task.Task
	perSlot             [][]task.Task
	bids                map[int]*fleetBid
	plan                faults.Plan
	fs                  *powerFS
	auditor             *obs.Audit
	// The serving generation — its fleet, the stacks under it, what its
	// Resume found — and the HTTP server in front of it. After a resume
	// refusal a is the dead generation.
	a      Auctioneer
	stacks []*testStack
	rep    Resumed
	srv    *httptest.Server
	slot   int
	tear   bool
	stats  fleetStats
}

// fleetStep is one script operation and its argument.
type fleetStep struct {
	op  byte
	arg int
}

func exploreFleet(t *testing.T, seed int64, shape uint8, script string) fleetStats {
	r := &fleetRun{
		t: t, seed: seed, n: []int{1, 2, 4, 4}[shape&3], nodes: 2, fullEvery: 1,
		journal: shape&fleetJournal != 0, faulty: shape&fleetFaults != 0,
		dir: t.TempDir(), fs: newPowerFS(-1, ""), auditor: obs.NewAudit(),
		bids:  map[int]*fleetBid{},
		stats: fleetStats{fired: map[string]int{}},
	}
	if r.n == 1 {
		r.nodes = 4
	}
	if shape&fleetDeltas != 0 {
		r.fullEvery = 4
	}
	r.ckpt = filepath.Join(r.dir, "fleet.ckpt")
	r.tasks = shardWorkload(t, fleetSlots, 3, seed)
	for i := range r.tasks {
		r.tasks[i].ModelName = lora.ModelGPT2Small // the served model: a form that drops the field shows in the journal
		r.bids[r.tasks[i].ID] = &fleetBid{task: r.tasks[i]}
	}
	r.perSlot = bySlot(t, r.tasks, fleetSlots)
	if r.faulty {
		// Only the plan's checkpoint-fault windows are used: a served
		// broker's capacity is fixed. Generate draws the outages first, so
		// the windows fall where they did when the brokers took outages.
		r.plan = faults.Generate(seed, r.n*r.nodes, fleetSlots)
	}
	var steps []fleetStep
	for i := 0; i < len(script); i++ {
		st := fleetStep{op: script[i]}
		if strings.IndexByte(fleetOps, st.op) < 0 {
			st.op = fleetOps[int(st.op)%len(fleetOps)]
		}
		if fleetSeamModes[st.op] != "" && i+1 < len(script) {
			i++
			st.arg = int(script[i]) % 32
		}
		steps = append(steps, st)
	}

	if err := r.serve(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r.a != nil {
			r.a.Kill()
			r.srv.Close()
		}
	}()
	// The script runs until the horizon closes; past its end, every slot is
	// closed by a plain step.
	for pc := 0; r.slot < fleetSlots; pc++ {
		st := fleetStep{op: 's'}
		if pc < len(steps) {
			st = steps[pc]
		}
		switch st.op {
		case 's':
			r.step()
		case 'z':
			r.stats.fired["stall"]++
			for i := 0; i < 3; i++ {
				var status struct{ Slot int }
				if httpJSON(t, r.srv, "GET", "/v1/status", nil, http.StatusOK, &status); status.Slot != r.slot {
					t.Fatalf("the clock moved during a stall: slot %d, want %d", status.Slot, r.slot)
				}
			}
		case 'k':
			r.stats.fired["kill"]++
			if !r.die() {
				return r.stats
			}
		case 't':
			r.tear = r.journal
		case 'F', 'W', 'P':
			r.fs.arm(st.arg, fleetSeamModes[st.op])
		default:
			r.offer(formNamed(fleetForms[st.op]))
		}
		if !r.after() {
			return r.stats
		}
	}
	r.finish()
	return r.stats
}

// open wires a generation on fresh stacks over the run's directory and
// seam, resumes whatever the last one left there, and starts it.
func (r *fleetRun) open() (Auctioneer, error) {
	stacks := make([]*testStack, r.n)
	opts := make([]Options, r.n)
	for i := range opts {
		stacks[i] = newShardStack(r.t, fleetSlots, r.nodes, r.seed+int64(i), r.tasks)
		o := stacks[i].brokerOptions()
		o.CheckpointPath, o.CheckpointFullEvery, o.RunLabel, o.Observer = r.ckpt, r.fullEvery, "fleet", r.auditor
		if r.journal {
			o.WALPath = WALPath(r.ckpt)
		}
		opts[i] = o
	}
	a, err := Open(opts...)
	if err != nil {
		return nil, err
	}
	brokers := a.Brokers()
	for _, b := range brokers {
		b.fsys = r.fs
		if r.faulty {
			// A full disk fails the checkpoint's full writes in the plan's
			// window; a slot's close writes its checkpoint at the next slot.
			b.fsys = hookFS{r.fs, ckptPrefix(b.opts.CheckpointPath), func(string) error {
				if r.plan.CheckpointFaultAt(r.slot + 1) {
					return errDiskFull
				}
				return nil
			}}
		}
	}
	rep, err := a.Resume()
	if err == nil {
		err = a.Start()
	}
	if err != nil {
		for _, b := range brokers {
			if b.started {
				b.Kill()
			} else {
				b.wal.close()
			}
		}
		return nil, err
	}
	r.stacks, r.rep = stacks, rep
	return a, nil
}

// serve opens a generation with an HTTP server in front.
func (r *fleetRun) serve() error {
	a, err := r.open()
	if err != nil {
		return err
	}
	r.a, r.srv = a, httptest.NewServer(a.Handler())
	return nil
}

// held is the fleet's held-bid count.
func (r *fleetRun) held() int {
	st, _ := r.a.Status()
	return st.Held
}

// await collects a blocking form's answer.
func (r *fleetRun) await(b *fleetBid) formReply {
	select {
	case rep := <-b.reply:
		b.reply = nil
		return rep
	case <-time.After(5 * time.Second):
		r.t.Fatalf("bid %d: its blocking form never answered", b.task.ID)
		return formReply{}
	}
}

// offer sends the current slot's unsent bids through form f, one call
// each, and waits for each verdict: a reply, or — for a blocking form,
// which answers when the slot closes — the fleet's held count moving.
func (r *fleetRun) offer(f intakeForm) {
	for _, tk := range r.perSlot[r.slot] {
		b := r.bids[tk.ID]
		if b.acked || b.refused {
			continue
		}
		r.stats.fired[f.name]++
		before := r.held()
		done := make(chan formReply, 1)
		a, srv := r.a, r.srv
		go func() { done <- f.offer(a, srv, tk) }()
		for start := time.Now(); !b.acked && !b.refused; time.Sleep(100 * time.Microsecond) {
			if time.Since(start) > 5*time.Second {
				r.t.Fatalf("bid %d via %s: no verdict in 5s", tk.ID, f.name)
			}
			select {
			case rep := <-done:
				switch {
				case rep.refusal == "" && f.ackOnly:
					b.acked = true
				case rep.refusal == "":
					r.t.Fatalf("bid %d via %s: answered %s before its slot closed", tk.ID, f.name, rep.decision)
				case !strings.Contains(rep.refusal, ErrWAL.Error()):
					r.t.Fatalf("bid %d via %s refused: %s", tk.ID, f.name, rep.refusal)
				default:
					b.refused = true
				}
				continue
			default:
			}
			if !f.ackOnly && r.held() != before {
				b.acked, b.reply = true, done
			}
		}
	}
}

// step closes the current slot: the rest of its bids go in through
// SubmitBatchAck; one held bid answers 202 pending before the close and
// 200 after; every acked bid is decided, as its blocking form answered.
func (r *fleetRun) step() {
	r.offer(formNamed("SubmitBatchAck"))
	r.stats.fired["step"]++
	probe := ""
	for _, tk := range r.perSlot[r.slot] {
		if r.bids[tk.ID].acked {
			probe = fmt.Sprintf("/v1/decisions/%d", tk.ID)
			var body struct{ Status string }
			if httpJSON(r.t, r.srv, "GET", probe, nil, http.StatusAccepted, &body); body.Status != "pending" {
				r.t.Fatalf("held bid %d: status %q, want pending", tk.ID, body.Status)
			}
			break
		}
	}
	// A fleet's brokers close one after another, so the seam's operations
	// keep their numbers; its Step(0) then republishes the quotes.
	n := 1
	if brokers := r.a.Brokers(); len(brokers) > 1 {
		for _, b := range brokers {
			if _, err := b.Step(1); err != nil {
				r.t.Fatal(err)
			}
		}
		n = 0
	}
	if _, err := r.a.Step(n); err != nil {
		r.t.Fatalf("step at slot %d: %v", r.slot, err)
	}
	r.slot++
	for _, tk := range r.perSlot[r.slot-1] {
		if b := r.bids[tk.ID]; b.acked {
			d, ok, _ := r.a.DecisionFor(tk.ID)
			if !ok {
				r.t.Fatalf("acked bid %d undecided after slot %d closed", tk.ID, r.slot-1)
			}
			if want := string(AppendDecision(nil, tk.ID, &d)); b.reply != nil {
				if rep := r.await(b); rep.decision != want {
					r.t.Fatalf("bid %d answered %q %s, want its decision %s", tk.ID, rep.refusal, rep.decision, want)
				}
			}
		}
	}
	if probe != "" {
		httpJSON(r.t, r.srv, "GET", probe, nil, http.StatusOK, nil)
	}
}

// after handles what the operation set off in the seam — a power cut is
// the whole fleet's death — then checks the invariants. False ends the
// run.
func (r *fleetRun) after() bool {
	r.fs.mu.Lock()
	for _, mode := range r.fs.fired {
		r.stats.fired[mode]++
	}
	r.fs.fired = nil
	r.fs.mu.Unlock()
	if r.fs.isCut() && !r.die() {
		return false
	}
	r.check()
	return true
}

// check holds the steady-state invariants.
func (r *fleetRun) check() {
	brokers := r.a.Brokers()
	journals := make([]map[int]task.Task, len(brokers))
	for i, b := range brokers {
		journals[i] = map[int]task.Task{}
		for _, tk := range ReadWAL(b.opts.WALPath, b.opts.RunLabel) {
			journals[i][tk.ID] = tk
		}
	}
	for id, b := range r.bids {
		decided, holder := r.fate(id)
		switch {
		case b.refused && (decided || holder >= 0):
			r.t.Fatalf("refused bid %d came back", id)
		case b.acked && !decided && holder < 0:
			r.t.Fatalf("acked bid %d is neither decided nor held", id)
		case r.journal && holder >= 0 && journals[holder][id] != b.task:
			r.t.Fatalf("held bid %d journaled as %+v, submitted as %+v", id, journals[holder][id], b.task)
		}
	}
	h, wire := r.a.Health(), Health{}
	httpJSON(r.t, r.srv, "GET", "/healthz", nil, map[bool]int{true: http.StatusOK, false: http.StatusServiceUnavailable}[h.Status == "ok"], &wire)
	st, err := r.a.Status()
	if degraded := h.Status != "ok"; err != nil || wire != h || st.Degraded != degraded ||
		degraded && (h.Reason == "" || st.DegradedReason == "") {
		r.t.Fatalf("/healthz %+v, Health %+v, Status degraded=%v %q (err %v)", wire, h, st.Degraded, st.DegradedReason, err)
	}
	if st.Degraded {
		r.stats.degraded++
	}
}

// fate reports whether the fleet has decided bid id and which broker
// holds it, if any; one bid known to two brokers fails the run.
func (r *fleetRun) fate(id int) (decided bool, holder int) {
	owners, holder := 0, -1
	for i, b := range r.a.Brokers() {
		_, d, _ := b.DecisionFor(id)
		if p, _ := b.PendingFor(id); p {
			holder = i
		}
		if d || holder == i {
			owners++
		}
		decided = decided || d
	}
	if owners > 1 {
		r.t.Fatalf("bid %d is held or decided on %d brokers", id, owners)
	}
	return decided, holder
}

// die kills the whole serving fleet (after a power cut, with the disk as
// the cut left it), opens its successor on fresh stacks and checks what
// it resumed: at a slot no older than every broker's last durable
// checkpoint, every acked bid decided or held again with a journal, and
// without one resubmitted by its client.
func (r *fleetRun) die() bool {
	r.fs.arm(-1, "") // faults go off while the fleet serves, not while it resumes
	durable, inFlight := fleetSlots, 0
	for _, b := range r.a.Brokers() {
		st, _ := b.Status()
		durable = min(durable, st.CheckpointSlot)
		inFlight += st.Held
	}
	if inFlight > 0 {
		r.stats.diedOnAcked++
	}
	r.a.Kill()
	r.srv.Close()
	for _, b := range r.bids {
		if b.reply != nil && r.await(b).refusal == "" {
			r.t.Fatalf("bid %d held by a dead fleet was decided", b.task.ID)
		}
	}
	if r.fs.isCut() {
		if err := r.fs.restore(r.dir); err != nil {
			r.t.Fatal(err)
		}
	}
	r.tearJournals()
	if err := r.serve(); err != nil {
		return r.refused(err)
	}
	rep := r.rep
	if rep.Slot > r.slot || durable >= 0 && (!rep.FromCheckpoint || rep.Slot < durable) {
		r.t.Fatalf("resumed %+v with slot %d durable and slot %d serving", rep, durable, r.slot)
	}
	r.slot = rep.Slot
	r.stats.replayed += rep.Replayed
	want := 0
	for _, b := range r.bids {
		if r.journal && b.acked && int(b.task.Arrival) >= r.slot {
			want++
		}
	}
	for deadline := time.Now().Add(5 * time.Second); r.held() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.check() // names the bid lost, or the one two brokers hold
			r.t.Fatalf("resumed at slot %d holding %d bids, want %d", r.slot, r.held(), want)
		}
	}
	if !r.journal {
		for id, b := range r.bids {
			if decided, holder := r.fate(id); b.acked && !decided && holder < 0 {
				if int(b.task.Arrival) < r.slot {
					r.t.Fatalf("bid %d decided behind the resumed checkpoint is gone", id)
				}
				b.acked = false
			}
		}
	}
	return true
}

// refused accepts a resume refusal only for a fleet whose checkpoint
// chains on disk are at different slots, which Resume refuses to fork
// (see resume), and ends the run.
func (r *fleetRun) refused(err error) bool {
	slots := map[int]bool{}
	for _, b := range r.a.Brokers() {
		slot := -1
		if ck, err := LoadCheckpoint(b.opts.CheckpointPath); err == nil {
			slot = ck.Slot
		}
		slots[slot] = true
	}
	if err == nil || !strings.Contains(err.Error(), "torn fleet") || len(slots) < 2 {
		r.t.Fatalf("resume refused (checkpoints at slots %v): %v", slots, err)
	}
	r.stats.torn = true
	return false
}

// tearJournals appends a torn final write to every journal, if asked to.
func (r *fleetRun) tearJournals() {
	if !r.tear {
		return
	}
	r.tear = false
	journals, _ := filepath.Glob(filepath.Join(r.dir, "*.wal"))
	for _, p := range journals {
		if f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0); err == nil {
			f.Write([]byte("\xff\xfe\xfdtorn-tail\x00\x01"))
			f.Close()
			r.stats.fired["torn"]++
		}
	}
}

// finish drains the fleet and holds it to its sim.Run twins.
func (r *fleetRun) finish() {
	r.fs.arm(-1, "")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.a.Drain(ctx); err != nil {
		r.t.Fatal(err)
	}
	var acked []task.Task
	for _, tk := range r.tasks {
		if r.bids[tk.ID].acked {
			acked = append(acked, tk)
		}
	}
	twins := make([]*testStack, r.n)
	var liveW, twinW float64
	err := DiffTwins(r.a, acked, func(i int, sub []task.Task) (*sim.Result, error) {
		twins[i] = newShardStack(r.t, fleetSlots, r.nodes, r.seed+int64(i), r.tasks)
		want, err := sim.Run(twins[i].cl, twins[i].sched, sub, sim.Config{
			Model: twins[i].model, Market: twins[i].mkt, CollectDecisions: true,
		})
		if err == nil {
			twinW += want.Welfare
		}
		return want, err
	})
	if err != nil {
		r.t.Fatal(err)
	}
	for i, b := range r.a.Brokers() {
		res := b.Result()
		liveW += res.Welfare
		if !reflect.DeepEqual(r.stacks[i].sched.SnapshotDuals(), twins[i].sched.SnapshotDuals()) {
			r.t.Fatalf("broker %d: final duals diverge from sim.Run", i)
		}
		if !reflect.DeepEqual(r.stacks[i].cl.Snapshot(), twins[i].cl.Snapshot()) {
			r.t.Fatalf("broker %d: final ledger diverges from sim.Run", i)
		}
	}
	if liveW != twinW {
		r.t.Fatalf("fleet welfare %v, twins' %v", liveW, twinW)
	}
	if err := r.auditor.Err(); err != nil {
		r.t.Fatal(err)
	}
}

// corpusRuns collects the seed corpus's runs by index; once every entry
// has run, the corpus as a whole is held to its coverage.
var corpusRuns = struct {
	sync.Mutex
	stats map[int]fleetStats
}{stats: map[int]fleetStats{}}

func recordCorpusRun(t *testing.T, st fleetStats) {
	var i int
	if _, err := fmt.Sscanf(t.Name(), "FuzzFleet/seed#%d", &i); err != nil {
		return // an input the fuzzer made
	}
	corpusRuns.Lock()
	defer corpusRuns.Unlock()
	if corpusRuns.stats[i] = st; len(corpusRuns.stats) < len(fleetCorpus) {
		return
	}
	total := map[string]int{}
	for i, e := range fleetCorpus {
		st := corpusRuns.stats[i]
		for kind, n := range st.fired {
			total[kind] += n
		}
		switch {
		case st.torn:
			t.Errorf("%s: ended on a torn fleet", e.name)
		case e.shape&fleetFaults != 0 && st.degraded == 0:
			t.Errorf("%s: checkpoint-fault windows never degraded /healthz", e.name)
		case e.shape&fleetJournal != 0 && st.diedOnAcked > 0 && st.replayed == 0:
			t.Errorf("%s: %d deaths on acked bids replayed no journaled bid", e.name, st.diedOnAcked)
		}
	}
	kinds := []string{"step", "stall", "kill", "torn", "fail", "short", "cut"}
	for _, f := range intakeForms {
		kinds = append(kinds, f.name)
	}
	for _, kind := range kinds {
		if total[kind] == 0 {
			t.Errorf("no corpus entry fired %s", kind)
		}
	}
	t.Logf("corpus coverage: %v", total)
}

package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/sim"
	"github.com/pdftsp/pdftsp/internal/task"
)

// TestRecordSizes pins what one bid costs at rest: the task a workload and
// a held bid carry, the decision a collecting run keeps, and the record the
// broker files it as. A field added or widened without thought shows here
// before it shows as megabytes in the benchmark's live_heap_mb.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
		exact     bool
	}{
		{"task.Task", unsafe.Sizeof(task.Task{}), 40, true},
		{"schedule.Decision", unsafe.Sizeof(schedule.Decision{}), 40, true},
		{"heldBid", unsafe.Sizeof(heldBid{}), 72, true},
		{"decisionRec", unsafe.Sizeof(decisionRec{}), 16, true},
		{"decisionExtra", unsafe.Sizeof(decisionExtra{}), 40, true},
	} {
		if r.got > r.want || r.exact && r.got != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.got, r.want)
		}
	}
	// A plan lives in the store's byte arena, so the side slice gives the
	// collector nothing to scan and no Schedule to keep alive.
	extra := reflect.TypeOf(decisionExtra{})
	for i := range extra.NumField() {
		switch f := extra.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int32, reflect.Float64:
		default:
			t.Errorf("decisionExtra.%s is a %s; the side entry holds numbers only, no pointer", f.Name, f.Type)
		}
	}
}

// TestDecisionStoreSize: Status.DecisionBytes is Σ cap × element size over
// every slice the store keeps, found by reflection, so a slice added to
// the store or a record resized cannot leave the reported figure behind.
func TestDecisionStoreSize(t *testing.T) {
	s := new(decisionStore)
	rng := rand.New(rand.NewSource(3))
	for id := range 200 {
		putRandom(t, s, rng, id)
	}
	s.markSaved()
	s.refund(0)
	want := 0
	v := reflect.ValueOf(s).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			if f.Cap() == 0 {
				t.Fatalf("decisionStore.%s is empty; the draw is meant to fill every slice", v.Type().Field(i).Name)
			}
			want += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	if got := s.size(); got != want {
		t.Fatalf("size() = %d, the store's slices hold %d bytes", got, want)
	}
}

// randomDecision draws from every shape the store distinguishes: plain
// rejections, F = −Inf, a retained losing plan, TaskID ≠ id, and
// admissions with money and a plan — and one it refuses, a reason code
// outside schedule.RejectReason's set (see putRandom).
func randomDecision(rng *rand.Rand, id int) schedule.Decision {
	plan := func() *schedule.Schedule {
		s := &schedule.Schedule{TaskID: id, Vendor: rng.Intn(4) - 1, VendorPrice: rng.Float64(), VendorDelay: rng.Intn(3)}
		for n, slot := rng.Intn(4), 0; n > 0; n-- {
			slot += 1 + rng.Intn(3)
			s.Placements = append(s.Placements, schedule.Placement{Node: rng.Intn(8), Slot: slot})
		}
		return s
	}
	d := schedule.Decision{TaskID: id, F: -rng.Float64(), Reason: schedule.ReasonSurplus}
	switch rng.Intn(8) {
	case 0:
		d.F, d.Reason = math.Inf(-1), schedule.ReasonNoSchedule
	case 1:
		d.Reason = schedule.ReasonVendorDown + 1 + schedule.RejectReason(rng.Intn(250))
	case 2:
		d.Schedule = plan() // DropLosingPlans off
	case 3:
		d.TaskID = id + 1 + rng.Intn(5)
	case 4:
		d.Reason, d.DualsUpdated, d.F = schedule.ReasonCapacity, true, rng.Float64()
	case 5, 6:
		d = schedule.Decision{
			TaskID: id, Admitted: true, Schedule: plan(), DualsUpdated: true, F: rng.Float64() * 10,
			Terms: &schedule.Terms{Payment: rng.Float64() * 5, VendorCost: rng.Float64(), EnergyCost: rng.Float64()},
		}
	}
	return d
}

// putRandom puts a randomDecision under id and returns what the store
// holds. A draw with an unknown reason must be refused with the store
// untouched; the same decision with a known reason then goes in.
func putRandom(t *testing.T, s *decisionStore, rng *rand.Rand, id int) schedule.Decision {
	t.Helper()
	d := randomDecision(rng, id)
	if !d.Reason.Valid() {
		n, had := s.Len(), s.has(id)
		if err := s.put(id, &d); err == nil || s.Len() != n || s.has(id) != had {
			t.Fatalf("put(%d) with reason code %d: err %v, %d decisions (had %d)", id, d.Reason, err, s.Len(), n)
		}
		d.Reason = schedule.ReasonSurplus
	}
	if err := s.put(id, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// requireStoreEquals holds s to the reference map and decision order, and
// the delta records s builds (stored plans copied, not re-encoded) to
// appendDecision of the decisions it materialises, byte for byte.
func requireStoreEquals(t *testing.T, label string, s *decisionStore, ref map[int]schedule.Decision, order []int) {
	t.Helper()
	if s.Len() != len(order) {
		t.Fatalf("%s: %d decisions, want %d", label, s.Len(), len(order))
	}
	i := 0
	var enc []byte
	s.Each(func(id int, d schedule.Decision) {
		if id != order[i] {
			t.Fatalf("%s: position %d holds id %d, want %d", label, i, id, order[i])
		}
		want := ref[id]
		if msg := sim.DiffDecisions(&d, &want, true); msg != "" {
			t.Fatalf("%s: id %d: %s", label, id, msg)
		}
		enc = appendDecision(enc, id, &d)
		i++
	})
	// A clone has nothing marked saved, so it encodes every record in order.
	if got := s.clone().appendUnsaved(nil); !bytes.Equal(got, enc) {
		t.Fatalf("%s: the store's delta records differ from appendDecision's:\n%x\n%x", label, got, enc)
	}
	for id := range ref {
		got, ok := s.get(id)
		want := ref[id]
		if !ok || !s.has(id) || sim.DiffDecisions(&got, &want, true) != "" {
			t.Fatalf("%s: get(%d) = %+v, %v; want %+v", label, id, got, ok, want)
		}
	}
}

// TestDecisionStoreMatchesMap drives random put / refund / get / has
// interleavings against a reference map, persisting at random points
// either as a full snapshot (JSON round trip) or as a delta (the sidecar's
// decision encoding applied to a replica), and requires the replica built
// from full + N deltas to equal the reference, in decision order.
func TestDecisionStoreMatchesMap(t *testing.T) {
	// The last three are what a multiplicative hash could take badly:
	// IDs that differ only above bit 20, runs of consecutive IDs at
	// scattered bases, and IDs counting down from the largest allowed.
	for _, ids := range []string{"sequential", "sparse", "assigned", "strided", "runs", "top"} {
		t.Run(ids, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(ids))))
			s, replica := new(decisionStore), new(decisionStore)
			ref := map[int]schedule.Decision{}
			var order []int
			nextID := 0 // the broker's assignment: one past the largest seen
			runLeft, runAt := 0, 0
			newID := func() int {
				id := nextID
				switch {
				case ids == "sparse", ids == "assigned" && rng.Intn(3) == 0:
					for id = int(rng.Int63()) - rng.Intn(2)*math.MaxInt32; ref[id].TaskID != 0 || s.has(id); {
						id++
					}
				case ids == "strided":
					id = len(order) << 20
				case ids == "runs":
					if runLeft == 0 {
						runLeft, runAt = 1+rng.Intn(64), rng.Intn(1<<40)<<10
					}
					runLeft--
					id, runAt = runAt, runAt+1
				case ids == "top":
					id = maxBidID - len(order)
				}
				if id >= nextID && id < math.MaxInt64 {
					nextID = id + 1
				}
				return id
			}
			put := func() int {
				id := newID()
				ref[id] = putRandom(t, s, rng, id)
				order = append(order, id)
				return id
			}
			refund := func(id int) {
				s.refund(id)
				d := ref[id]
				d.Admitted, d.Reason = false, schedule.ReasonFailedNode
				ref[id] = d
			}
			persist := func(full bool) {
				if full {
					data, err := json.Marshal(s)
					if err != nil {
						t.Fatal(err)
					}
					replica = new(decisionStore)
					if err := json.Unmarshal(data, replica); err != nil {
						t.Fatal(err)
					}
				} else {
					r := &binReader{b: s.appendUnsaved(nil)}
					for len(r.b) > 0 {
						id, d := readDecision(r, r.byte(), new(schedule.Schedule))
						if r.err != nil {
							t.Fatal(r.err)
						}
						if err := replica.put(id, &d); err != nil {
							t.Fatal(err)
						}
					}
				}
				s.markSaved()
				requireStoreEquals(t, "replica", replica, ref, order)
			}

			persist(true) // an empty store round-trips too
			growths, table := 0, 0
			for step := 0; step < 4000; step++ {
				if len(s.index) != table {
					growths, table = growths+1, len(s.index)
				}
				switch op := rng.Intn(20); {
				case op < 12 || len(order) == 0:
					put()
				case op < 14:
					refund(order[rng.Intn(len(order))]) // any age: saved or not
				case op == 14:
					refund(put()) // decided and flipped within one interval
				case op < 18:
					id := order[rng.Intn(len(order))]
					if rng.Intn(2) == 0 {
						id = int(rng.Int63()) // almost surely unseen
					}
					got, ok := s.get(id)
					want, wantOK := ref[id]
					if ok != wantOK || s.has(id) != wantOK || sim.DiffDecisions(&got, &want, true) != "" {
						t.Fatalf("get(%d) = %+v, %v; want %+v, %v", id, got, ok, want, wantOK)
					}
				default:
					persist(rng.Intn(8) == 0)
				}
			}
			persist(false)
			if growths < 3 {
				t.Fatalf("the index grew %d times; the script is meant to cross at least three rebuilds", growths)
			}
			requireStoreEquals(t, "live store", s, ref, order)

			// A clone and its original share nothing. Plans first: with
			// spare room in the original's arena, a shared backing array
			// would put the original's next plan and the clone's on the
			// same bytes.
			s.plans = slices.Grow(s.plans, 1<<10)
			c := s.clone()
			requireStoreEquals(t, "clone", c, ref, order)
			cloneRef, cloneOrder := maps.Clone(ref), slices.Clone(order)
			for _, side := range []struct {
				st    *decisionStore
				id    int
				ref   map[int]schedule.Decision
				order *[]int
			}{{s, newID(), ref, &order}, {c, -1, cloneRef, &cloneOrder}} { // the clone's own IDs are negative
				d := schedule.Decision{TaskID: side.id, Admitted: true, F: 1, Schedule: &schedule.Schedule{
					TaskID: side.id, Vendor: schedule.NoVendor, Placements: []schedule.Placement{{Node: len(*side.order), Slot: 1}},
				}}
				if err := side.st.put(side.id, &d); err != nil {
					t.Fatal(err)
				}
				side.ref[side.id], *side.order = d, append(*side.order, side.id)
			}
			requireStoreEquals(t, "original, after both put a plan", s, ref, order)
			requireStoreEquals(t, "clone, after both put a plan", c, cloneRef, cloneOrder)

			// Then the rest: the original doubles (its index is rebuilt at
			// least once) and flips its oldest decision, then the clone
			// does the same with other bids, and each still answers for
			// its own.
			for n := len(order); n > 0; n-- {
				put()
			}
			refund(order[0])
			requireStoreEquals(t, "clone, after its original moved on", c, cloneRef, cloneOrder)
			for n := len(cloneOrder); n > 0; n-- {
				id := -1 - n // no kind draws a negative ID
				cloneRef[id], cloneOrder = putRandom(t, c, rng, id), append(cloneOrder, id)
			}
			c.refund(cloneOrder[1])
			d := cloneRef[cloneOrder[1]]
			d.Admitted, d.Reason = false, schedule.ReasonFailedNode
			cloneRef[cloneOrder[1]] = d
			requireStoreEquals(t, "clone, after moving on itself", c, cloneRef, cloneOrder)
			persist(false)
			requireStoreEquals(t, "live store, after its clone moved on", s, ref, order)

			// The same through the real file pair.
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := WriteCheckpoint(path, &Checkpoint{Version: checkpointVersion, Decisions: s}); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			requireStoreEquals(t, "LoadCheckpoint", ck.Decisions, ref, order)
		})
	}
}

// TestDecisionStoreRestateAddsSideEntry: a restated record that gains a
// side entry gets it in position order, between its neighbours' entries,
// and every record still reads back as put.
func TestDecisionStoreRestateAddsSideEntry(t *testing.T) {
	s := new(decisionStore)
	ref := map[int]schedule.Decision{}
	put := func(d schedule.Decision) {
		if err := s.put(d.TaskID, &d); err != nil {
			t.Fatal(err)
		}
		ref[d.TaskID] = d
	}
	money := func(id int) schedule.Decision {
		return schedule.Decision{TaskID: id, Admitted: true, F: 1, Terms: &schedule.Terms{Payment: 1 + float64(id)}}
	}
	for id := range 6 {
		d := schedule.Decision{TaskID: id, F: -1, Reason: schedule.ReasonSurplus}
		if id%5 == 0 {
			d = money(id)
		}
		put(d)
	}
	put(money(3)) // restated between the side entries of 0 and 5
	if !slices.Equal(s.extraAt, []int32{0, 3, 5}) {
		t.Fatalf("side entries at positions %v, want [0 3 5]", s.extraAt)
	}
	requireStoreEquals(t, "restated", s, ref, []int{0, 1, 2, 3, 4, 5})
}

// TestDecisionStoreReasonLimit: a record has one byte for its reason, the
// code itself. Every code in the set comes back as put; every other code
// is an error, not a wrong reason.
func TestDecisionStoreReasonLimit(t *testing.T) {
	s := new(decisionStore)
	for code := 0; code <= math.MaxUint8; code++ {
		reason := schedule.RejectReason(code)
		err := s.put(code, &schedule.Decision{TaskID: code, Reason: reason})
		if (err == nil) != reason.Valid() {
			t.Fatalf("put with reason code %d: err %v", code, err)
		}
		if d, ok := s.get(code); ok != reason.Valid() || ok && d.Reason != reason {
			t.Fatalf("reason code %d came back as %d (stored %v)", code, d.Reason, ok)
		}
	}
	if s.Len() != int(schedule.ReasonVendorDown)+1 {
		t.Fatalf("%d decisions stored, want the zero code and the five reasons", s.Len())
	}
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDecisionStoreMemoryBudget holds the store to 34 B per rejected bid —
// record, meta byte and index, whatever the IDs look like — and to 150 B
// per admitted bid, its plan included: each 10-placement Schedule is built
// inside the measured window, as the scheduler hands one over, and is
// garbage once put returns. At 100,000 bids the index has just doubled,
// which is its worst case: 17 B of record and meta byte, about a fifth of
// that again in append slack, and 10.5 B of table. The map of
// schedule.Decision this replaced cost 174 B per rejected bid, the
// map[int]int32 index beside the records 53, and a 24-byte record with
// its side-entry index inline 40; keeping the *Schedule itself cost 305 B
// per admitted bid.
func TestDecisionStoreMemoryBudget(t *testing.T) {
	const budget, admittedBudget = 34, 150
	perBid := func(n int, id func(i int) int, decision func(i, id int) schedule.Decision) float64 {
		before := liveHeap()
		s := new(decisionStore)
		for i := 0; i < n; i++ {
			d := decision(i, id(i))
			if err := s.put(id(i), &d); err != nil {
				t.Fatal(err)
			}
		}
		after := liveHeap()
		if s.Len() != n {
			t.Fatalf("%d of %d stored", s.Len(), n)
		}
		return (float64(after) - float64(before)) / float64(n)
	}
	rejected := func(i, id int) schedule.Decision {
		return schedule.Decision{TaskID: id, F: -float64(i), Reason: schedule.ReasonSurplus}
	}
	random := make([]int, 100_000)
	rng := rand.New(rand.NewSource(1))
	for i := range random {
		random[i] = int(rng.Int63())
	}
	for name, id := range map[string]func(int) int{
		"sequential": func(i int) int { return i },
		"random":     func(i int) int { return random[i] },
	} {
		if got := perBid(len(random), id, rejected); got > budget {
			t.Errorf("%s IDs: %.1f B per rejected bid, budget %d", name, got, budget)
		} else {
			t.Logf("%s IDs: %.1f B per rejected bid", name, got)
		}
	}

	// An exact-size placement slice on distinct nodes < 128 and slots
	// < 144, as finishPlan makes one for a Table 3 cluster and horizon.
	got := perBid(10_000, func(i int) int { return i }, func(i, id int) schedule.Decision {
		plan := &schedule.Schedule{TaskID: id, Vendor: -1, Placements: make([]schedule.Placement, 10)}
		for k := range plan.Placements {
			plan.Placements[k] = schedule.Placement{Node: (i + 13*k) % 128, Slot: (i + k) % 144}
		}
		return schedule.Decision{TaskID: id, Admitted: true, Schedule: plan, Terms: &schedule.Terms{Payment: 1, EnergyCost: 1}, F: 1, DualsUpdated: true}
	})
	if got > admittedBudget {
		t.Errorf("%.1f B per admitted bid with a 10-placement plan, budget %d", got, admittedBudget)
	} else {
		t.Logf("%.1f B per admitted bid with a 10-placement plan", got)
	}
}

// fixedPlans answers every bid alike: admitted with a fresh 10-placement
// plan, or rejected for surplus.
type fixedPlans struct{ reject bool }

func (fixedPlans) Name() string { return "fixed-plans" }

func (f fixedPlans) Offer(env *schedule.TaskEnv) schedule.Decision {
	if f.reject {
		return schedule.Decision{TaskID: env.Task.ID, F: -1, Reason: schedule.ReasonSurplus}
	}
	plan := &schedule.Schedule{TaskID: env.Task.ID, Vendor: schedule.NoVendor, Placements: make([]schedule.Placement, 10)}
	for k := range plan.Placements {
		plan.Placements[k] = schedule.Placement{Node: k % env.Cluster.NumNodes(), Slot: k}
	}
	return schedule.Decision{TaskID: env.Task.ID, Admitted: true, Schedule: plan, Terms: &schedule.Terms{Payment: 1, EnergyCost: 1}, F: 1}
}

// TestStatusDecisionBytes: /v1/status reports what the decided set
// retains, and that is under 160 B per admitted bid with a 10-placement
// plan and under 34 B per rejected bid, append slack included.
func TestStatusDecisionBytes(t *testing.T) {
	const slots, perSlot = 10, 1000
	for _, c := range []struct {
		name   string
		sched  fixedPlans
		budget float64
	}{{"admitted", fixedPlans{}, 160}, {"rejected", fixedPlans{reject: true}, 34}} {
		s := newStack(t, slots+10, 4, 1, 5)
		opts := s.brokerOptions()
		opts.Scheduler, opts.QueueSize = c.sched, perSlot
		b := startBroker(t, opts)
		if st, err := b.Status(); err != nil || st.DecisionBytes != 0 {
			t.Fatalf("%s: an idle broker retains %d decision bytes (err %v)", c.name, st.DecisionBytes, err)
		}
		batch := make([]task.Task, perSlot)
		verdicts := make([]error, perSlot)
		for slot := 0; slot < slots; slot++ {
			for i := range batch {
				batch[i] = task.Task{ID: -1, Arrival: -1, Deadline: int32(slot + 10), Work: 5, MemGB: 2, Batch: 8, Bid: 5}
			}
			if held, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil || held != perSlot {
				t.Fatalf("%s: slot %d: held %d of %d, err %v", c.name, slot, held, perSlot, err)
			}
			if _, err := b.Step(1); err != nil {
				t.Fatal(err)
			}
		}
		st, err := b.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Decided != slots*perSlot || st.DecisionBytes != b.decisions.size() {
			t.Fatalf("%s: status reports %d decided, %d bytes; the store holds %d, %d bytes",
				c.name, st.Decided, st.DecisionBytes, b.decisions.Len(), b.decisions.size())
		}
		if got := float64(st.DecisionBytes) / float64(st.Decided); got >= c.budget {
			t.Errorf("%s: %.1f decision bytes a bid, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s: %.1f decision bytes a bid", c.name, got)
		}
		if err := b.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoPersistenceTracksNothing: a broker with no CheckpointPath never
// writes, so what it remembers about unwritten changes must not grow with
// the bids it serves — and neither may the latency samples, which are
// sim.Run's to collect.
func TestNoPersistenceTracksNothing(t *testing.T) {
	const slots, perSlot = 30, 1000
	s := newStack(t, slots, 2, 2, 5)
	opts := s.brokerOptions()
	opts.QueueSize = perSlot
	opts.DropLosingPlans = true
	opts.Failures = []sim.Failure{{Node: 0, From: 4, To: slots}, {Node: 1, From: 9, To: slots}}
	b := startBroker(t, opts)
	batch := make([]task.Task, perSlot)
	verdicts := make([]error, perSlot)
	for slot := 0; slot < slots; slot++ {
		for i := range batch {
			batch[i] = task.Task{ID: -1, Arrival: -1, Deadline: int32(min(slot+3, slots-1)), Work: 5, MemGB: 2, Batch: 8, Bid: 5}
		}
		if held, err := b.SubmitBatchAck(context.Background(), batch, verdicts); err != nil || held != perSlot {
			t.Fatalf("slot %d: held %d of %d, err %v", slot, held, perSlot, err)
		}
		if _, err := b.Step(1); err != nil {
			t.Fatal(err)
		}
		if (slot+1)%10 == 0 {
			if err := b.do(func() {
				if d := b.decisions; d.saved != 0 || cap(d.flips) != 0 {
					t.Errorf("after %d bids: saved mark %d, %d flips tracked", d.Len(), d.saved, cap(d.flips))
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := b.Result()
	if res.Admitted+res.Rejected != slots*perSlot || b.decisions.Len() != slots*perSlot {
		t.Fatalf("decided %d+%d, stored %d, want %d", res.Admitted, res.Rejected, b.decisions.Len(), slots*perSlot)
	}
	if res.FailedTasks == 0 {
		t.Fatal("no refund flipped a decision; the flip half of the test is vacuous")
	}
	if res.OfferLatency != nil {
		t.Fatalf("broker Result holds %d latency samples", res.OfferLatency.Count())
	}
}

// checkpointSeeds serves a small workload under a delta cadence and
// returns what its files hold: the full snapshot (and the CRC of its
// bytes, which keys the sidecar), its decision section, and the sidecar's
// header and record frames.
func checkpointSeeds(t testing.TB) (ck *Checkpoint, baseCRC uint32, section, header []byte, frames [][]byte) {
	path := filepath.Join(t.TempDir(), "ck.json")
	deltaStack(t, path, 4, 24, 11, 23)
	ck, data, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Decisions json.RawMessage `json:"decisions"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	side, err := os.ReadFile(DeltaPath(path))
	if err != nil {
		t.Fatal(err)
	}
	r := &binReader{b: side[len(deltaMagic):]}
	r.u64()       // version
	r.b = r.b[4:] // base CRC
	r.int()       // base slot
	r.str()       // run label
	header = side[:len(side)-len(r.b)]
	for len(r.b) > 0 {
		before := r.b
		if frameNext(r) == nil {
			t.Fatal("sidecar has a bad frame")
		}
		frames = append(frames, before[:len(before)-len(r.b)])
	}
	if r.err != nil || len(frames) < 2 {
		t.Fatalf("%d delta frames (err %v), want at least 2", len(frames), r.err)
	}
	return ck, crc32.ChecksumIEEE(data), raw.Decisions, header, frames
}

// FuzzCheckpointDecisions feeds arbitrary bytes to the decoders that read
// decisions from outside the process: the full snapshot's decision
// section, one delta record, and a sidecar whose valid records are
// followed by the bytes. None may panic, and the valid prefix must still
// restore. The seed corpus under testdata/ was cut from a chaos-harness
// run's checkpoint files; the seeds added here track the current format.
func FuzzCheckpointDecisions(f *testing.F) {
	base, baseCRC, section, header, frames := checkpointSeeds(f)
	f.Add(section)
	for _, fr := range frames {
		f.Add(fr)
		_, w := binary.Uvarint(fr)
		f.Add(fr[w+4:]) // the record inside the frame
	}
	f.Add([]byte(`[{"TaskID":1,"f_neg_inf":true,"Reason":"no-schedule"},{"TaskID":2,"id":1,"Admitted":true,"Schedule":{"Placements":[{"Node":1,"Slot":2}]}}]`))
	baseJSON, err := json.Marshal(base)
	if err != nil {
		f.Fatal(err)
	}
	fresh := func(t testing.TB) *Checkpoint {
		ck := new(Checkpoint)
		if err := json.Unmarshal(baseJSON, ck); err != nil {
			t.Fatal(err)
		}
		return ck
	}
	prefix := append(append([]byte(nil), header...), frames[0]...)
	want := fresh(f)
	if err := replayDeltas(want, prefix, baseCRC); err != nil || want.Slot != base.Slot+1 {
		f.Fatalf("valid prefix: slot %d, err %v", want.Slot, err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := new(decisionStore)
		if err := s.UnmarshalJSON(data); err == nil {
			if _, err := s.MarshalJSON(); err != nil {
				t.Fatalf("decoded section does not encode: %v", err)
			}
		}
		_ = applyDeltaRecord(fresh(t), data)

		ck := fresh(t)
		if err := replayDeltas(ck, append(prefix[:len(prefix):len(prefix)], data...), baseCRC); err != nil {
			return // a frame that checks out but does not decode is surfaced
		}
		if ck.Slot < want.Slot || ck.Decisions.Len() < want.Decisions.Len() {
			t.Fatalf("valid prefix lost: slot %d with %d decisions, want at least slot %d with %d",
				ck.Slot, ck.Decisions.Len(), want.Slot, want.Decisions.Len())
		}
	})
}

// TestDeltaDecodeIgnoresClaimedCounts: a count is a claim until the bytes
// behind it decode, so a record claiming 2^40 of anything must fail
// without allocating for them.
func TestDeltaDecodeIgnoresClaimedCounts(t *testing.T) {
	base, _, _, _, frames := checkpointSeeds(t)
	_, w := binary.Uvarint(frames[0])
	record := frames[0][w+4:]
	huge := appendU64(nil, 1<<40)

	// The reject-reason count is the first count in a record, behind the
	// clock's four integers and the accounting scalars.
	r := &binReader{b: record}
	ints, floats := resultScalars(new(sim.Result))
	for i := 0; i < 4+len(ints); i++ {
		r.int()
	}
	for range floats {
		r.f64()
	}
	head := record[:len(record)-len(r.b)]
	nReasons := r.u64()
	for i := uint64(0); i < nReasons; i++ {
		readReason(r)
		r.int()
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	upToDecisions := record[:len(record)-len(r.b)]

	admitted := schedule.Decision{TaskID: 7, Admitted: true, Schedule: &schedule.Schedule{TaskID: 7}}
	lyingPlan := appendDecision(nil, 7, &admitted)
	lyingPlan = append(lyingPlan[:len(lyingPlan)-1], huge...) // placement count

	for _, tc := range []struct {
		name, want string // want: what the decoder says ran out
		payload    []byte
	}{
		{"reasons", "byte", append(append([]byte(nil), head...), huge...)},
		{"placements", "placements", append(append([]byte(nil), upToDecisions...), lyingPlan...)},
	} {
		ck := *base
		ck.Decisions = new(decisionStore)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := applyDeltaRecord(&ck, tc.payload)
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "truncated "+tc.want) {
			t.Errorf("%s: a record claiming 2^40 entries decoded with err %v", tc.name, err)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes for a %d-byte record", tc.name, grew, len(tc.payload))
		}
	}
}

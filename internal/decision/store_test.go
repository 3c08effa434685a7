package decision

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// TestRecordSizes pins what one decided bid costs at rest in the store: a
// 16-byte record, and for the few decisions that carry more than an
// outcome a 40-byte side entry of numbers only.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 16 {
		t.Errorf("record is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(extra{}); got != 40 {
		t.Errorf("extra is %d bytes, want 40", got)
	}
	// A plan lives in the store's byte arena, so the side slice gives the
	// collector nothing to scan and no Schedule to keep alive.
	x := reflect.TypeOf(extra{})
	for i := range x.NumField() {
		switch f := x.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int32, reflect.Float64:
		default:
			t.Errorf("extra.%s is a %s; the side entry holds numbers only, no pointer", f.Name, f.Type)
		}
	}
}

// planFor is a small admitted plan for bid id.
func planFor(id, placements int) *schedule.Schedule {
	s := &schedule.Schedule{TaskID: id, Vendor: schedule.NoVendor}
	for k := range placements {
		s.Placements = append(s.Placements, schedule.Placement{Node: k % 8, Slot: 1 + k})
	}
	return s
}

func mustPut(t *testing.T, s *Store, id int, d schedule.Decision) {
	t.Helper()
	if err := s.Put(id, &d); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionStoreSize: Size is Σ cap × element size over every slice the
// store keeps, found by reflection, so a slice added to the store or a
// record resized cannot leave the reported figure behind; EncodedLen is
// the length of the store's records.
func TestDecisionStoreSize(t *testing.T) {
	s := new(Store)
	for id := range 200 {
		d := schedule.Decision{TaskID: id, F: -1, Reason: schedule.ReasonSurplus}
		if id%7 == 0 {
			d = schedule.Decision{TaskID: id, Admitted: true, F: 1, Schedule: planFor(id, 3), Terms: schedule.NewTerms(2, 0, 1)}
		}
		mustPut(t, s, id, d)
	}
	mustPut(t, s, 0, schedule.Decision{TaskID: 0, F: -1, Reason: schedule.ReasonFailedNode}) // restated in place
	want := 0
	v := reflect.ValueOf(s).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			if f.Cap() == 0 {
				t.Fatalf("Store.%s is empty; the fill is meant to reach every slice", v.Type().Field(i).Name)
			}
			want += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	if got := s.Size(); got != want {
		t.Fatalf("Size() = %d, the store's slices hold %d bytes", got, want)
	}
	if got, want := s.EncodedLen(), len(s.AppendFrom(nil, 0)); got != want {
		t.Fatalf("EncodedLen() = %d, the records are %d bytes", got, want)
	}
}

// TestStoreIDShapes: whatever the IDs look like — consecutive, strided,
// differing only in their high bits, runs at scattered bases, counting
// down from the largest int — every decided bid is found, no other is,
// and the index rebuilds itself at least three times along the way.
func TestStoreIDShapes(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(1))
	for name, id := range map[string]func(i int) int{
		"sequential": func(i int) int { return i },
		"strided":    func(i int) int { return i << 20 },
		"high-bits":  func(i int) int { return i<<40 | 7 },
		"runs":       func(i int) int { return (i/64)*0x9E3779B1<<12 + i%64 },
		"top":        func(i int) int { return math.MaxInt - i },
	} {
		s, growths, put := new(Store), 0, map[int]bool{}
		for i := range n {
			put[id(i)] = true
			table := len(s.index)
			mustPut(t, s, id(i), schedule.Decision{TaskID: id(i), F: float64(i), Reason: schedule.ReasonSurplus})
			if len(s.index) != table {
				growths++
			}
		}
		if s.Len() != n || growths < 3 || 4*s.Len() > 3*len(s.index) {
			t.Fatalf("%s: %d bids in a %d-slot table after %d rebuilds", name, s.Len(), len(s.index), growths)
		}
		for i := range n {
			if d, ok := s.Get(id(i)); !ok || d.TaskID != id(i) || d.F != float64(i) {
				t.Fatalf("%s: Get(%d) = %+v, %v", name, id(i), d, ok)
			}
		}
		for range 1000 {
			if x := int(rng.Int63()); s.Has(x) != put[x] {
				t.Fatalf("%s: Has(%d) for an ID never put", name, x)
			}
		}
	}
}

// TestStoreCloneSharesNothing: a clone and its original share no backing
// array. With spare room in the original's plan arena, a shared one would
// put the original's next plan and the clone's on the same bytes; the
// original then doubles (its index rebuilds) and restates its oldest
// decision, the clone does the same with other bids, and each still
// answers for its own.
func TestStoreCloneSharesNothing(t *testing.T) {
	s := new(Store)
	for id := range 100 {
		mustPut(t, s, id, schedule.Decision{TaskID: id, Admitted: true, F: 1, Schedule: planFor(id, 2)})
	}
	s.plans = slices.Grow(s.plans, 1<<10)
	c := s.Clone()
	mustPut(t, s, 100, schedule.Decision{TaskID: 100, Admitted: true, F: 1, Schedule: planFor(100, 5)})
	mustPut(t, c, -1, schedule.Decision{TaskID: -1, Admitted: true, F: 2, Schedule: planFor(-1, 7)})
	for id := 101; id < 300; id++ {
		mustPut(t, s, id, schedule.Decision{TaskID: id, F: -1, Reason: schedule.ReasonSurplus})
	}
	mustPut(t, s, 0, schedule.Decision{TaskID: 0, F: 1, Reason: schedule.ReasonFailedNode, Schedule: planFor(0, 2)})
	mustPut(t, c, 1, schedule.Decision{TaskID: 1, F: 1, Reason: schedule.ReasonFailedNode, Schedule: planFor(1, 2)})
	if c.Len() != 101 || s.Len() != 300 {
		t.Fatalf("the clone holds %d decisions, the original %d; want 101 and 300", c.Len(), s.Len())
	}
	for id := range 100 {
		d, _ := c.Get(id)
		o, _ := s.Get(id)
		if d.Admitted != (id != 1) || o.Admitted != (id != 0) || len(d.Schedule.Placements) != 2 || len(o.Schedule.Placements) != 2 {
			t.Fatalf("bid %d: clone %+v, original %+v", id, d, o)
		}
	}
	if d, _ := c.Get(-1); len(d.Schedule.Placements) != 7 || c.Has(100) {
		t.Fatalf("the clone's own plan reads %+v; it sees the original's bid 100: %v", d.Schedule, c.Has(100))
	}
	if d, _ := s.Get(100); len(d.Schedule.Placements) != 5 || s.Has(-1) {
		t.Fatalf("the original's plan reads %+v; it sees the clone's bid -1: %v", d.Schedule, s.Has(-1))
	}
}

// TestDecisionStoreRestateAddsSideEntry: a restated record that gains a
// side entry gets it in position order, between its neighbours' entries,
// and every record still reads back as put.
func TestDecisionStoreRestateAddsSideEntry(t *testing.T) {
	s := new(Store)
	ref := map[int]schedule.Decision{}
	put := func(d schedule.Decision) {
		mustPut(t, s, d.TaskID, d)
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
	for i := range s.recs {
		if id, d := s.recs[i].id, s.at(i); id != i || !reflect.DeepEqual(d, ref[id]) {
			t.Fatalf("position %d holds %d: %+v, want %+v", i, id, d, ref[id])
		}
	}
}

// TestDecisionStoreReasonLimit: a record has one byte for its reason, the
// code itself. Every code in the set comes back as put; every other code
// is an error, not a wrong reason.
func TestDecisionStoreReasonLimit(t *testing.T) {
	s := new(Store)
	for code := 0; code <= math.MaxUint8; code++ {
		reason := schedule.RejectReason(code)
		err := s.Put(code, &schedule.Decision{TaskID: code, Reason: reason})
		if (err == nil) != reason.Valid() {
			t.Fatalf("Put with reason code %d: err %v", code, err)
		}
		if d, ok := s.Get(code); ok != reason.Valid() || ok && d.Reason != reason {
			t.Fatalf("reason code %d came back as %d (stored %v)", code, d.Reason, ok)
		}
	}
	if s.Len() != int(schedule.ReasonSurplus)+1 {
		t.Fatalf("%d decisions stored, want the zero code and the four reasons", s.Len())
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
// garbage once Put returns. At 100,000 bids the index has just doubled,
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
		s := new(Store)
		for i := 0; i < n; i++ {
			d := decision(i, id(i))
			if err := s.Put(id(i), &d); err != nil {
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

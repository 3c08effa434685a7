package decision

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// Store is the broker's decided set, an append-only log: 16-byte records
// in decision order with one byte of outcome each beside them, a side
// slice for the few decisions that carry more than an outcome, their
// plans' bytes in one arena, and the ID → position index that
// duplicate-ID refusal and lookups need. A refund, the one mutation,
// flips a record in place.
//
// A side entry is found through extraAt, the ascending positions of the
// records that have one (metaExtra set), so a record spends no bytes on
// pointing at an entry it almost never has: only a record whose byte says
// it has one pays a binary search.
//
// The index holds no IDs of its own: it is an open-addressing table of
// 1+position (0 is an empty slot) whose probe compares recs[p].id. Nothing
// is ever deleted, so there are no tombstones, growing it is a rebuild from
// recs, and copying it is one slices.Clone.
type Store struct {
	recs    []record
	meta    []uint8 // meta[i] is recs[i]'s reason code and flags
	extraAt []int32 // extras[k] belongs to recs[extraAt[k]]; ascending
	extras  []extra
	plans   []byte  // appendSchedule's; a restated plan's old bytes stay, unreferenced
	index   []int32 // len is zero or a power of two, at most 3/4 full
	shift   uint8   // 64 − log2(len(index)): a hash's top bits are its slot
}

type record struct {
	id int
	f  uint64 // Float64bits of Decision.F, so −Inf needs no flag
}

// A record's meta byte: the RejectReason code in the low bits (Put refuses
// a code outside the set, and the set's codes stay below metaAdmitted),
// the decision's two flags, and whether it has a side entry.
const (
	metaAdmitted uint8 = 1 << (5 + iota)
	metaDualsUpdated
	metaExtra
	metaReason = metaAdmitted - 1
)

// extra is what a rejected bid's decision has zero by construction: it
// exists for admitted bids, refunded bids, losing plans kept because
// DropLosingPlans is off, and a TaskID other than the ID the decision is
// filed under. Once a record has one it keeps it.
type extra struct {
	taskID                          int
	payment, vendorCost, energyCost float64
	plan, planLen                   int32 // plans[plan:][:planLen]; no pointer for the GC to scan
}

// Len is the number of decided bids.
func (s *Store) Len() int { return len(s.recs) }

// Size is the bytes the store's slices retain.
func (s *Store) Size() int {
	return sliceBytes(s.recs) + sliceBytes(s.meta) + sliceBytes(s.extraAt) + sliceBytes(s.extras) +
		sliceBytes(s.plans) + sliceBytes(s.index)
}

// EncodedLen is the length of AppendFrom(p, 0)'s records, for presizing p:
// each record's head as appendHead writes it, and its plan's bytes.
func (s *Store) EncodedLen() int {
	var b [64]byte // longer than any head: flags, id, F, reason, task ID and terms
	n := 0
	for i := range s.recs {
		d, t, plan := s.head(i)
		d.Terms = &t
		n += len(appendHead(b[:0], s.recs[i].id, &d, false)) + len(plan)
	}
	return n
}

// sliceBytes is the bytes s's backing array holds, its spare capacity included.
func sliceBytes[E any](s []E) int { return cap(s) * int(unsafe.Sizeof(*new(E))) }

// find probes for id. It returns id's position in recs, or −1 and the
// empty slot the probe ended on — where id goes if it is appended next.
// The hash is multiplicative (Fibonacci): the top bits of id·φ⁻¹·2⁶⁴
// spread consecutive IDs, strided IDs and IDs that differ only in their
// high bits alike.
func (s *Store) find(id int) (pos, slot int) {
	if len(s.index) == 0 {
		return -1, -1
	}
	mask := len(s.index) - 1
	for slot = int(uint64(id) * 0x9E3779B97F4A7C15 >> s.shift); ; slot = (slot + 1) & mask {
		p := int(s.index[slot]) - 1
		if p < 0 || s.recs[p].id == id {
			return p, slot
		}
	}
}

// grow doubles the table and refills it from recs.
func (s *Store) grow() {
	n := max(8, 2*len(s.index))
	s.index = make([]int32, n)
	s.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for p := range s.recs {
		_, slot := s.find(s.recs[p].id)
		s.index[slot] = int32(p) + 1
	}
}

// Has reports whether a decision is filed under id.
func (s *Store) Has(id int) bool {
	p, _ := s.find(id)
	return p >= 0
}

// Get returns the decision filed under id, its terms and plan its own.
func (s *Store) Get(id int) (schedule.Decision, bool) {
	p, _ := s.find(id)
	if p < 0 {
		return schedule.Decision{}, false
	}
	return s.at(p), true
}

// at is decision i, its terms and plan its own; head returns the terms by
// value and the plan's bytes, so an encoder allocates neither.
func (s *Store) at(i int) schedule.Decision {
	d, t, plan := s.head(i)
	d.Terms = schedule.NewTerms(t.Payment, t.VendorCost, t.EnergyCost)
	if len(plan) > 0 {
		d.Schedule = readSchedule(&Reader{B: plan}, new(schedule.Schedule))
	}
	return d
}

func (s *Store) head(i int) (d schedule.Decision, t schedule.Terms, plan []byte) {
	m := s.meta[i]
	d = schedule.Decision{
		TaskID:       s.recs[i].id,
		Admitted:     m&metaAdmitted != 0,
		F:            math.Float64frombits(s.recs[i].f),
		Reason:       schedule.RejectReason(m & metaReason),
		DualsUpdated: m&metaDualsUpdated != 0,
	}
	if m&metaExtra != 0 {
		x := &s.extras[s.extraOf(i)]
		d.TaskID, plan = x.taskID, s.plans[x.plan:][:x.planLen]
		t = schedule.Terms{Payment: x.payment, VendorCost: x.vendorCost, EnergyCost: x.energyCost}
	}
	return d, t, plan
}

// extraOf is the position in extras of record i's side entry, or where
// one goes if it has none.
func (s *Store) extraOf(i int) int {
	k, _ := slices.BinarySearch(s.extraAt, int32(i))
	return k
}

// Put files d under id: appended when id is new, replaced where it stands
// — its place in the decision order kept — when a checkpoint delta
// restates a decision a refund flipped. d.Schedule is copied, not kept.
// A reason outside schedule.RejectReason's set is refused: the record's
// byte holds the code itself, and nothing could render or restore another.
func (s *Store) Put(id int, d *schedule.Decision) error {
	if !d.Reason.Valid() {
		return fmt.Errorf("decision %d: unknown reject reason code %d", id, d.Reason)
	}
	x := extra{taskID: d.TaskID, payment: d.Payment(), vendorCost: d.VendorCost(), energyCost: d.EnergyCost()}
	if start := len(s.plans); d.Schedule != nil {
		if s.plans = appendSchedule(s.plans, d.Schedule); len(s.plans) > math.MaxInt32 {
			return fmt.Errorf("decision: decided plans outgrow %d bytes", math.MaxInt32)
		}
		x.plan, x.planLen = int32(start), int32(len(s.plans)-start)
	}
	r, m := record{id: id, f: math.Float64bits(d.F)}, uint8(d.Reason)
	if d.Admitted {
		m |= metaAdmitted
	}
	if d.DualsUpdated {
		m |= metaDualsUpdated
	}
	i, slot := s.find(id)
	k := len(s.extraAt) // a new record's position is the largest yet
	if i < 0 {
		if 4*(len(s.recs)+1) > 3*len(s.index) {
			s.grow()
			_, slot = s.find(id)
		}
		i = len(s.recs)
		s.recs, s.meta = append(s.recs, r), append(s.meta, 0)
		s.index[slot] = int32(len(s.recs))
	} else {
		k = s.extraOf(i)
	}
	switch {
	case s.meta[i]&metaExtra != 0:
		s.extras[k] = x
		m |= metaExtra
	case x != extra{taskID: id}:
		s.extraAt, s.extras = slices.Insert(s.extraAt, k, int32(i)), slices.Insert(s.extras, k, x)
		m |= metaExtra
	}
	s.recs[i], s.meta[i] = r, m
	return nil
}

// Refund flips a decided bid as a batch replay flips Result.Decisions: the
// admission is reversed, the payment record stands (it was charged and
// refunded). It returns the flipped record's position, or −1 when no
// decision is filed under id.
func (s *Store) Refund(id int) int {
	i, _ := s.find(id)
	if i >= 0 {
		s.meta[i] = s.meta[i]&^(metaAdmitted|metaReason) | uint8(schedule.ReasonFailedNode)
	}
	return i
}

// AppendFrom appends, in decision order, the records of the decisions from
// position from on, each as Append encodes it: a stored plan's bytes are
// copied, not decoded and encoded again.
func (s *Store) AppendFrom(p []byte, from int) []byte {
	for i := from; i < len(s.recs); i++ {
		d, t, plan := s.head(i)
		d.Terms = &t // appendHead reads all-zero terms as none
		p = append(appendHead(p, s.recs[i].id, &d, len(plan) > 0), plan...)
	}
	return p
}

// ReadList puts the records of one list — AppendFrom's, closed by End —
// in order, a new ID appended and a known one restated where it stands,
// and returns how many it read. It stops at the first record r cannot
// decode, and returns r.Err.
func (s *Store) ReadList(r *Reader) (int, error) {
	n := 0
	var plan schedule.Schedule // Put copies each plan, so one decodes them all
	for flags := r.Byte(); flags != End && r.Err == nil; flags = r.Byte() {
		id, d := read(r, flags, &plan)
		if r.Err != nil {
			break
		}
		if err := s.Put(id, &d); err != nil {
			return n, err
		}
		n++
	}
	return n, r.Err
}

// Clone copies the store.
func (s *Store) Clone() *Store {
	return &Store{
		recs:    slices.Clone(s.recs),
		meta:    slices.Clone(s.meta),
		extraAt: slices.Clone(s.extraAt),
		extras:  slices.Clone(s.extras),
		plans:   slices.Clone(s.plans),
		index:   slices.Clone(s.index),
		shift:   s.shift,
	}
}

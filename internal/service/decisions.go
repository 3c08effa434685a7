package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unsafe"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// decisionStore is the broker's decided set. Algorithm 1 decides each bid
// once, on arrival, and never revisits it, so the set is an append-only
// log: 16-byte records in decision order with one byte of outcome each
// beside them, a side slice for the few decisions that carry more than an
// outcome, their plans' bytes in one arena, and the ID → position index
// that duplicate-ID refusal and DecisionFor need. A refund, the one
// mutation, flips a record in place.
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
//
// Because the log is ordered, "what the last persisted checkpoint lacks"
// is the suffix past a mark plus the (rare) flips below it. A broker that
// never persists never moves the mark, so it tracks nothing.
type decisionStore struct {
	recs    []decisionRec
	meta    []uint8 // meta[i] is recs[i]'s reason code and flags
	extraAt []int32 // extras[k] belongs to recs[extraAt[k]]; ascending
	extras  []decisionExtra
	plans   []byte  // appendSchedule's; a restated plan's old bytes stay, unreferenced
	index   []int32 // len is zero or a power of two, at most 3/4 full
	shift   uint8   // 64 − log2(len(index)): a hash's top bits are its slot

	saved int     // recs[:saved] are in the on-disk chain
	flips []int32 // positions below saved that a refund flipped since
}

type decisionRec struct {
	id int
	f  uint64 // Float64bits of Decision.F, so −Inf needs no flag
}

// A record's meta byte: the RejectReason code in the low bits (put refuses
// a code outside the set, and the set's codes stay below metaAdmitted),
// the decision's two flags, and whether it has a side entry.
const (
	metaAdmitted uint8 = 1 << (5 + iota)
	metaDualsUpdated
	metaExtra
	metaReason = metaAdmitted - 1
)

// decisionExtra is what a rejected bid's decision has zero by
// construction: it exists for admitted bids, refunded bids, losing plans
// kept because DropLosingPlans is off, and a TaskID other than the ID
// the decision is filed under. Once a record has one it keeps it.
type decisionExtra struct {
	taskID                          int
	payment, vendorCost, energyCost float64
	plan, planLen                   int32 // plans[plan:][:planLen]; no pointer for the GC to scan
}

// Len is the number of decided bids.
func (s *decisionStore) Len() int { return len(s.recs) }

// size is the bytes the store's slices retain.
func (s *decisionStore) size() int {
	return sliceBytes(s.recs) + sliceBytes(s.meta) + sliceBytes(s.extraAt) + sliceBytes(s.extras) +
		sliceBytes(s.plans) + sliceBytes(s.index) + sliceBytes(s.flips)
}

// sliceBytes is the bytes s's backing array holds, its spare capacity included.
func sliceBytes[E any](s []E) int { return cap(s) * int(unsafe.Sizeof(*new(E))) }

// Each visits every decision in the order the bids were decided.
func (s *decisionStore) Each(fn func(id int, d schedule.Decision)) {
	for i := range s.recs {
		fn(s.recs[i].id, s.at(i))
	}
}

// find probes for id. It returns id's position in recs, or −1 and the
// empty slot the probe ended on — where id goes if it is appended next.
// The hash is multiplicative (Fibonacci): the top bits of id·φ⁻¹·2⁶⁴
// spread consecutive IDs, strided IDs and IDs that differ only in their
// high bits alike.
func (s *decisionStore) find(id int) (pos, slot int) {
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
func (s *decisionStore) grow() {
	n := max(8, 2*len(s.index))
	s.index = make([]int32, n)
	s.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for p := range s.recs {
		_, slot := s.find(s.recs[p].id)
		s.index[slot] = int32(p) + 1
	}
}

func (s *decisionStore) has(id int) bool {
	p, _ := s.find(id)
	return p >= 0
}

func (s *decisionStore) get(id int) (schedule.Decision, bool) {
	p, _ := s.find(id)
	if p < 0 {
		return schedule.Decision{}, false
	}
	return s.at(p), true
}

// at is decision i, its terms and plan its own; head returns the terms by
// value and the plan's bytes, so a writer allocates neither.
func (s *decisionStore) at(i int) schedule.Decision {
	d, t, plan := s.head(i)
	d.Terms = schedule.NewTerms(t.Payment, t.VendorCost, t.EnergyCost)
	if len(plan) > 0 {
		d.Schedule = readSchedule(&binReader{b: plan}, new(schedule.Schedule))
	}
	return d
}

func (s *decisionStore) head(i int) (d schedule.Decision, t schedule.Terms, plan []byte) {
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
func (s *decisionStore) extraOf(i int) int {
	k, _ := slices.BinarySearch(s.extraAt, int32(i))
	return k
}

// put files d under id: appended when id is new, replaced where it stands
// — its place in the decision order kept — when a checkpoint delta
// restates a decision a refund flipped. d.Schedule is copied, not kept.
// A reason outside schedule.RejectReason's set is refused: the record's
// byte holds the code itself, and nothing could render or restore another.
func (s *decisionStore) put(id int, d *schedule.Decision) error {
	if !d.Reason.Valid() {
		return fmt.Errorf("service: decision %d: unknown reject reason code %d", id, d.Reason)
	}
	x := decisionExtra{taskID: d.TaskID, payment: d.Payment(), vendorCost: d.VendorCost(), energyCost: d.EnergyCost()}
	if start := len(s.plans); d.Schedule != nil {
		if s.plans = appendSchedule(s.plans, d.Schedule); len(s.plans) > math.MaxInt32 {
			return fmt.Errorf("service: decided plans outgrow %d bytes", math.MaxInt32)
		}
		x.plan, x.planLen = int32(start), int32(len(s.plans)-start)
	}
	r, m := decisionRec{id: id, f: math.Float64bits(d.F)}, uint8(d.Reason)
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
	case x != decisionExtra{taskID: id}:
		s.extraAt, s.extras = slices.Insert(s.extraAt, k, int32(i)), slices.Insert(s.extras, k, x)
		m |= metaExtra
	}
	s.recs[i], s.meta[i] = r, m
	return nil
}

// refund flips a decided bid as a batch replay flips Result.Decisions: the
// admission is reversed, the payment record stands (it was charged and
// refunded).
func (s *decisionStore) refund(id int) {
	i, _ := s.find(id)
	if i < 0 {
		return
	}
	s.meta[i] = s.meta[i]&^(metaAdmitted|metaReason) | uint8(schedule.ReasonFailedNode)
	if i < s.saved {
		s.flips = append(s.flips, int32(i))
	}
}

// appendUnsaved encodes as appendDecision does, a stored plan copied, the
// decisions the on-disk chain lacks: the flipped ones it holds stale, then
// the ones decided since, in order. markSaved records that a write did.
func (s *decisionStore) appendUnsaved(p []byte) []byte {
	record := func(i int) {
		d, t, plan := s.head(i)
		d.Terms = &t // appendDecision reads all-zero terms as none
		at := len(p)
		if p = appendDecision(p, s.recs[i].id, &d); len(plan) > 0 {
			p[at] |= decSchedule
		}
		p = append(p, plan...)
	}
	for _, i := range s.flips {
		record(int(i))
	}
	for i := s.saved; i < len(s.recs); i++ {
		record(i)
	}
	return p
}

func (s *decisionStore) markSaved() { s.saved, s.flips = len(s.recs), s.flips[:0] }

// clone copies the store with nothing marked saved.
func (s *decisionStore) clone() *decisionStore {
	return &decisionStore{
		recs:    slices.Clone(s.recs),
		meta:    slices.Clone(s.meta),
		extraAt: slices.Clone(s.extraAt),
		extras:  slices.Clone(s.extras),
		plans:   slices.Clone(s.plans),
		index:   slices.Clone(s.index),
		shift:   s.shift,
	}
}

// decisionWire is one element of the checkpoint's decision section. JSON
// has no infinities and F is exactly −Inf for a bid with no feasible plan,
// so that one value rides as f_neg_inf; id is present only when it is
// not TaskID. The leading fields are schedule.Decision's by name, in the
// key order the format has always had — written out here so that the
// order belongs to the format and not to Decision's memory layout.
type decisionWire struct {
	TaskID       int
	Admitted     bool
	Schedule     *schedule.Schedule
	Payment      float64
	VendorCost   float64
	EnergyCost   float64
	F            float64
	Reason       schedule.RejectReason
	DualsUpdated bool
	ID           *int `json:"id,omitempty"`
	FNegInf      bool `json:"f_neg_inf,omitempty"`
}

// MarshalJSON writes the decision section: an array in decision order. A
// record with no side entry — nearly all of them — is appended by hand
// with only its non-zero fields.
func (s *decisionStore) MarshalJSON() ([]byte, error) {
	var w decisionWire         // json.Marshal moves it to the heap: one serves every record
	var plan schedule.Schedule // and w.Schedule points at it
	out := make([]byte, 0, 64*len(s.recs)+2)
	out = append(out, '[')
	for i := range s.recs {
		r, m := &s.recs[i], s.meta[i]
		if i > 0 {
			out = append(out, ',')
		}
		f := math.Float64frombits(r.f) // NaN or +Inf fails encoding/json's check of what this returns
		if m&metaExtra != 0 {
			d, t, enc := s.head(i)
			w = decisionWire{
				TaskID: d.TaskID, Admitted: d.Admitted,
				Payment: t.Payment, VendorCost: t.VendorCost, EnergyCost: t.EnergyCost,
				F: d.F, Reason: d.Reason, DualsUpdated: d.DualsUpdated,
				FNegInf: math.IsInf(f, -1),
			}
			if len(enc) > 0 {
				w.Schedule = readSchedule(&binReader{b: enc}, &plan)
			}
			if w.FNegInf {
				w.F = 0
			}
			if w.TaskID != r.id {
				w.ID = &r.id
			}
			elem, err := json.Marshal(&w)
			if err != nil {
				return nil, fmt.Errorf("service: decision %d: %w", r.id, err)
			}
			out = append(out, elem...)
			continue
		}
		out = strconv.AppendInt(append(out, `{"TaskID":`...), int64(r.id), 10)
		if m&metaAdmitted != 0 {
			out = append(out, `,"Admitted":true`...)
		}
		if math.IsInf(f, -1) {
			out = append(out, `,"f_neg_inf":true`...)
		} else if r.f != 0 {
			out = appendJSONFloat(append(out, `,"F":`...), f)
		}
		if reason := schedule.RejectReason(m & metaReason); reason != 0 { // a name needs no JSON escaping
			out = append(append(append(out, `,"Reason":"`...), reason.String()...), '"')
		}
		if m&metaDualsUpdated != 0 {
			out = append(out, `,"DualsUpdated":true`...)
		}
		out = append(out, '}')
	}
	return append(out, ']'), nil
}

// UnmarshalJSON streams the decision section into the store one element
// at a time; no other collection of the section ever exists.
func (s *decisionStore) UnmarshalJSON(data []byte) error {
	*s = decisionStore{}
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return fmt.Errorf("service: checkpoint decisions are not a list (written by an older broker?)")
	}
	for dec.More() {
		var w decisionWire
		if err := dec.Decode(&w); err != nil {
			return fmt.Errorf("service: checkpoint decision %d: %w", len(s.recs), err)
		}
		d := schedule.Decision{
			TaskID: w.TaskID, Admitted: w.Admitted, Schedule: w.Schedule,
			Terms: schedule.NewTerms(w.Payment, w.VendorCost, w.EnergyCost),
			F:     w.F, Reason: w.Reason, DualsUpdated: w.DualsUpdated,
		}
		if w.FNegInf {
			d.F = math.Inf(-1)
		}
		id := w.TaskID
		if w.ID != nil {
			id = *w.ID
		}
		if err := s.put(id, &d); err != nil {
			return err
		}
	}
	_, err := dec.Token() // the closing bracket
	return err
}

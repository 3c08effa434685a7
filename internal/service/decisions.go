package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// decisionStore is the broker's decided set. Algorithm 1 decides each bid
// once, on arrival, and never revisits it, so the set is an append-only
// log: 24-byte records in decision order, a side slice for the few
// decisions that carry more than an outcome, their plans' bytes in one
// arena, and the ID → position index that duplicate-ID refusal and
// DecisionFor need. A refund, the one mutation, flips a record in place.
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
	recs   []decisionRec
	extras []decisionExtra
	plans  []byte  // appendSchedule's; a restated plan's old bytes stay, unreferenced
	index  []int32 // len is zero or a power of two, at most 3/4 full
	shift  uint8   // 64 − log2(len(index)): a hash's top bits are its slot
	// reasons interns RejectReason strings; a record holds the position.
	// Seeded with the schedule.Reason* constants, so stores of the same
	// decisions are identical however they were built; a scheduler's own
	// reasons follow in order of first appearance.
	reasons []schedule.RejectReason

	saved int     // recs[:saved] are in the on-disk chain
	flips []int32 // positions below saved that a refund flipped since
}

type decisionRec struct {
	id     int
	f      uint64 // Float64bits of Decision.F, so −Inf needs no flag
	extra  int32  // 1 + position in extras; 0 when every extra field is zero
	reason uint8  // position in reasons
	flags  uint8
}

const (
	flagAdmitted = 1 << iota
	flagDualsUpdated
)

// decisionExtra is what a rejected bid's decision has zero by
// construction: it exists for admitted bids, refunded bids, losing plans
// kept because DropLosingPlans is off, and a TaskID other than the ID
// the decision is filed under.
type decisionExtra struct {
	taskID                          int
	payment, vendorCost, energyCost float64
	plan, planLen                   int32 // plans[plan:][:planLen]; no pointer for the GC to scan
}

func newDecisionStore() *decisionStore {
	return &decisionStore{reasons: []schedule.RejectReason{
		"", schedule.ReasonNoSchedule, schedule.ReasonSurplus, schedule.ReasonCapacity,
		schedule.ReasonFailedNode, schedule.ReasonVendorDown,
	}}
}

// Len is the number of decided bids.
func (s *decisionStore) Len() int { return len(s.recs) }

// size is the bytes the store's slices retain, at the sizes TestRecordSizes pins.
func (s *decisionStore) size() int {
	return 24*cap(s.recs) + 40*cap(s.extras) + cap(s.plans) + 4*cap(s.index)
}

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

// at is decision i, its plan decoded afresh; head returns the plan's bytes.
func (s *decisionStore) at(i int) schedule.Decision {
	d, plan := s.head(i)
	if len(plan) > 0 {
		d.Schedule = readSchedule(&binReader{b: plan}, new(schedule.Schedule))
	}
	return d
}

func (s *decisionStore) head(i int) (d schedule.Decision, plan []byte) {
	r := &s.recs[i]
	d = schedule.Decision{
		TaskID:       r.id,
		Admitted:     r.flags&flagAdmitted != 0,
		F:            math.Float64frombits(r.f),
		Reason:       s.reasons[r.reason],
		DualsUpdated: r.flags&flagDualsUpdated != 0,
	}
	if r.extra != 0 {
		x := &s.extras[r.extra-1]
		d.TaskID, plan = x.taskID, s.plans[x.plan:][:x.planLen]
		d.Payment, d.VendorCost, d.EnergyCost = x.payment, x.vendorCost, x.energyCost
	}
	return d, plan
}

// intern returns reason's code. A record has one byte for it, so the
// 256th distinct reason is refused.
func (s *decisionStore) intern(reason schedule.RejectReason) (uint8, error) {
	for i, r := range s.reasons {
		if r == reason {
			return uint8(i), nil
		}
	}
	if len(s.reasons) > math.MaxUint8 {
		return 0, fmt.Errorf("service: more than %d distinct reject reasons (%q)", math.MaxUint8, reason)
	}
	s.reasons = append(s.reasons, reason)
	return uint8(len(s.reasons) - 1), nil
}

// put files d under id: appended when id is new, replaced where it stands
// — its place in the decision order kept — when a checkpoint delta
// restates a decision a refund flipped. d.Schedule is copied, not kept.
func (s *decisionStore) put(id int, d *schedule.Decision) error {
	code, err := s.intern(d.Reason)
	if err != nil {
		return err
	}
	x := decisionExtra{taskID: d.TaskID, payment: d.Payment, vendorCost: d.VendorCost, energyCost: d.EnergyCost}
	if start := len(s.plans); d.Schedule != nil {
		if s.plans = appendSchedule(s.plans, d.Schedule); len(s.plans) > math.MaxInt32 {
			return fmt.Errorf("service: decided plans outgrow %d bytes", math.MaxInt32)
		}
		x.plan, x.planLen = int32(start), int32(len(s.plans)-start)
	}
	r := decisionRec{id: id, f: math.Float64bits(d.F), reason: code}
	if d.Admitted {
		r.flags |= flagAdmitted
	}
	if d.DualsUpdated {
		r.flags |= flagDualsUpdated
	}
	i, slot := s.find(id)
	seen := i >= 0
	if seen {
		r.extra = s.recs[i].extra
	}
	switch {
	case r.extra != 0:
		s.extras[r.extra-1] = x
	case x != decisionExtra{taskID: id}:
		s.extras = append(s.extras, x)
		r.extra = int32(len(s.extras))
	}
	if seen {
		s.recs[i] = r
		return nil
	}
	if 4*(len(s.recs)+1) > 3*len(s.index) {
		s.grow()
		_, slot = s.find(id)
	}
	s.recs = append(s.recs, r)
	s.index[slot] = int32(len(s.recs))
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
	s.recs[i].flags &^= flagAdmitted
	s.recs[i].reason, _ = s.intern(schedule.ReasonFailedNode) // seeded, cannot fail
	if i < s.saved {
		s.flips = append(s.flips, int32(i))
	}
}

// appendUnsaved encodes as appendDecision does, a stored plan copied, the
// decisions the on-disk chain lacks: the flipped ones it holds stale, then
// the ones decided since, in order. markSaved records that a write did.
func (s *decisionStore) appendUnsaved(p []byte) []byte {
	record := func(i int) {
		d, plan := s.head(i)
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
		extras:  slices.Clone(s.extras),
		plans:   slices.Clone(s.plans),
		index:   slices.Clone(s.index),
		shift:   s.shift,
		reasons: slices.Clone(s.reasons),
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
	reasons := make([][]byte, len(s.reasons))
	for i, r := range s.reasons {
		reasons[i], _ = json.Marshal(string(r)) // a string always encodes
	}
	var w decisionWire         // json.Marshal moves it to the heap: one serves every record
	var plan schedule.Schedule // and w.Schedule points at it
	out := make([]byte, 0, 64*len(s.recs)+2)
	out = append(out, '[')
	for i := range s.recs {
		r := &s.recs[i]
		if i > 0 {
			out = append(out, ',')
		}
		f := math.Float64frombits(r.f) // NaN or +Inf fails encoding/json's check of what this returns
		if r.extra != 0 {
			d, enc := s.head(i)
			w = decisionWire{
				TaskID: d.TaskID, Admitted: d.Admitted,
				Payment: d.Payment, VendorCost: d.VendorCost, EnergyCost: d.EnergyCost,
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
		if r.flags&flagAdmitted != 0 {
			out = append(out, `,"Admitted":true`...)
		}
		if math.IsInf(f, -1) {
			out = append(out, `,"f_neg_inf":true`...)
		} else if r.f != 0 {
			out = appendJSONFloat(append(out, `,"F":`...), f)
		}
		if r.reason != 0 {
			out = append(append(out, `,"Reason":`...), reasons[r.reason]...)
		}
		if r.flags&flagDualsUpdated != 0 {
			out = append(out, `,"DualsUpdated":true`...)
		}
		out = append(out, '}')
	}
	return append(out, ']'), nil
}

// UnmarshalJSON streams the decision section into the store one element
// at a time; no other collection of the section ever exists.
func (s *decisionStore) UnmarshalJSON(data []byte) error {
	*s = *newDecisionStore()
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
			Payment: w.Payment, VendorCost: w.VendorCost, EnergyCost: w.EnergyCost,
			F: w.F, Reason: w.Reason, DualsUpdated: w.DualsUpdated,
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

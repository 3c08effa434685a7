// Package decision keeps a decided bid one way. Algorithm 1 decides each
// bid once, on arrival, and never revisits it, so the decided set is an
// append-only log, and one record encoding serves every place it goes:
// the broker's packed Store, the checkpoint's delta sidecar and full
// snapshot (both write AppendFrom's records and read them back through
// ReadList), the decision log (one Append record per outcome, read back
// by Read), and the broker ≡ sim.Run twin gate, which compares two
// decisions by their record bytes. Every framed file shares one frame
// (frame.go).
package decision

import (
	"fmt"
	"slices"

	"github.com/pdftsp/pdftsp/internal/schedule"
)

// Flag bits of an encoded decision; the fields a flag guards are zero
// (nil, or TaskID == id) exactly when it is clear. End in a flags byte's
// place closes a list of records.
const (
	flagAdmitted = 1 << iota
	flagDualsUpdated
	flagTaskID
	flagMoney
	flagSchedule
	flagsKnown = flagSchedule<<1 - 1

	End = 0xff
)

// Append encodes one decided bid, filed under id: a flags byte, id, F as
// raw float bits (so −Inf, no feasible plan, needs no side flag), the
// reason's one-byte code, then what the flags say is there — the TaskID
// when it is not id, the money terms when any is non-zero, the plan.
func Append(p []byte, id int, d *schedule.Decision) []byte {
	p = appendHead(p, id, d, d.Schedule != nil)
	if d.Schedule != nil {
		p = appendSchedule(p, d.Schedule)
	}
	return p
}

// appendHead is Append up to the plan, which follows when hasPlan says so.
func appendHead(p []byte, id int, d *schedule.Decision, hasPlan bool) []byte {
	var flags byte
	if d.Admitted {
		flags |= flagAdmitted
	}
	if d.DualsUpdated {
		flags |= flagDualsUpdated
	}
	if d.TaskID != id {
		flags |= flagTaskID
	}
	if d.Payment() != 0 || d.VendorCost() != 0 || d.EnergyCost() != 0 {
		flags |= flagMoney
	}
	if hasPlan {
		flags |= flagSchedule
	}
	p = append(p, flags)
	p = AppendInt(p, id)
	p = AppendF64(p, d.F)
	p = append(p, byte(d.Reason))
	if flags&flagTaskID != 0 {
		p = AppendInt(p, d.TaskID)
	}
	if flags&flagMoney != 0 {
		p = AppendF64(p, d.Payment())
		p = AppendF64(p, d.VendorCost())
		p = AppendF64(p, d.EnergyCost())
	}
	return p
}

// appendSchedule encodes a plan: a record's tail, and its form in the Store.
func appendSchedule(p []byte, s *schedule.Schedule) []byte {
	p = AppendInt(AppendInt(p, s.TaskID), s.Vendor)
	p = AppendInt(AppendF64(p, s.VendorPrice), s.VendorDelay)
	p = AppendU64(p, uint64(len(s.Placements)))
	for _, pl := range s.Placements {
		p = AppendInt(AppendInt(p, pl.Node), pl.Slot)
	}
	return p
}

// read decodes the record whose flags byte has been read, its plan into
// plan, or into a new one when plan is nil. A record Append would not
// have written — an unknown flag, a flag whose field is zero — fails, so
// whatever decodes re-encodes to its own bytes.
func read(r *Reader, flags byte, plan *schedule.Schedule) (int, schedule.Decision) {
	if flags&^flagsKnown != 0 {
		refuse(r, "unknown flags %#x", flags)
		return 0, schedule.Decision{}
	}
	id := r.Int()
	d := schedule.Decision{
		TaskID:       id,
		Admitted:     flags&flagAdmitted != 0,
		DualsUpdated: flags&flagDualsUpdated != 0,
		F:            r.F64(),
		Reason:       ReadReason(r),
	}
	if flags&flagTaskID != 0 {
		if d.TaskID = r.Int(); d.TaskID == id {
			refuse(r, "record %d restates its own id as its task id", id)
		}
	}
	if flags&flagMoney != 0 {
		if d.Terms = schedule.NewTerms(r.F64(), r.F64(), r.F64()); d.Terms == nil {
			refuse(r, "record %d carries money terms that are all zero", id)
		}
	}
	if flags&flagSchedule != 0 {
		if plan == nil {
			plan = new(schedule.Schedule)
		}
		d.Schedule = readSchedule(r, plan)
	}
	return id, d
}

// Read decodes the one record Append wrote at r, its plan its own; the
// caller checks r.Err.
func Read(r *Reader) (int, schedule.Decision) {
	return read(r, r.Byte(), nil)
}

// ReadReason reads a one-byte reject reason. A code outside the set is
// corruption the CRC did not catch, or a newer writer: it fails the record.
func ReadReason(r *Reader) schedule.RejectReason {
	reason := schedule.RejectReason(r.Byte())
	if !reason.Valid() {
		refuse(r, "unknown reject reason code %d", reason)
	}
	return reason
}

// refuse fails r with a record that is whole but malformed, unless an
// earlier read already failed.
func refuse(r *Reader, format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf("decision: "+format, args...)
	}
}

// readSchedule decodes appendSchedule's bytes into s, reusing its placement
// array, and returns s; no placements decode as nil, as finishPlan has them.
func readSchedule(r *Reader, s *schedule.Schedule) *schedule.Schedule {
	buf := s.Placements
	*s = schedule.Schedule{TaskID: r.Int(), Vendor: r.Int(), VendorPrice: r.F64(), VendorDelay: r.Int()}
	// A placement is at least two bytes, so a count the rest of the
	// record cannot hold is a lie; refuse it before allocating.
	if n := r.U64(); n > uint64(len(r.B))/2 {
		r.fail("placements")
	} else if r.Err == nil && n > 0 {
		s.Placements = slices.Grow(buf[:0], int(n))[:n]
		for i := range s.Placements {
			s.Placements[i] = schedule.Placement{Node: r.Int(), Slot: r.Int()}
		}
	}
	return s
}

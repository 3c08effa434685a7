// Package timeslot provides slotted-time arithmetic for the pdFTSP system.
//
// The paper models the system in slotted time [T] = {1, ..., T} with each
// slot lasting ten minutes (Section 5.1). This package uses zero-based slot
// indices [0, T) throughout, which is the idiomatic Go convention; every
// other package in this repository follows the same convention.
package timeslot

import (
	"fmt"
	"time"
)

// DefaultSlotDuration is the paper's slot length (Section 5.1: "144 time
// slots with each time slot lasting for 10 minutes").
const DefaultSlotDuration = 10 * time.Minute

// DefaultHorizonSlots is one day of ten-minute slots.
const DefaultHorizonSlots = 144

// Horizon describes a finite slotted time horizon [0, T).
type Horizon struct {
	// T is the number of slots in the horizon.
	T int
	// SlotDuration is the wall-clock length of a single slot.
	SlotDuration time.Duration
}

// NewHorizon returns a horizon of t slots with the default slot duration.
// It panics if t is not positive, because a horizon with no slots cannot
// schedule anything and always indicates a programming error.
func NewHorizon(t int) Horizon {
	if t <= 0 {
		panic(fmt.Sprintf("timeslot: non-positive horizon %d", t))
	}
	return Horizon{T: t, SlotDuration: DefaultSlotDuration}
}

// Day returns the paper's default one-day horizon of 144 ten-minute slots.
func Day() Horizon { return NewHorizon(DefaultHorizonSlots) }

// Contains reports whether slot t lies inside the horizon.
func (h Horizon) Contains(t int) bool { return t >= 0 && t < h.T }

// Clamp returns t clamped into [0, T-1].
func (h Horizon) Clamp(t int) int {
	if t < 0 {
		return 0
	}
	if t >= h.T {
		return h.T - 1
	}
	return t
}

// SlotHours returns the length of one slot in hours. Energy cost models
// multiply node power (kW) by this value to obtain kWh per slot.
func (h Horizon) SlotHours() float64 {
	d := h.SlotDuration
	if d == 0 {
		d = DefaultSlotDuration
	}
	return d.Hours()
}

// FractionOfDay maps slot t to [0, 1) position within a 24-hour day,
// wrapping for horizons longer than a day. Diurnal price and arrival
// curves use this to stay periodic regardless of horizon length.
func (h Horizon) FractionOfDay(t int) float64 {
	d := h.SlotDuration
	if d == 0 {
		d = DefaultSlotDuration
	}
	perDay := int(24 * time.Hour / d)
	if perDay <= 0 {
		perDay = 1
	}
	return float64(t%perDay) / float64(perDay)
}

// Window is an inclusive slot interval [Start, End]. Windows describe the
// execution eligibility of a task: after arrival plus preprocessing delay,
// before the deadline.
type Window struct {
	Start, End int
}

// Len returns the number of slots in the window (0 if empty).
func (w Window) Len() int {
	if w.End < w.Start {
		return 0
	}
	return w.End - w.Start + 1
}

// Contains reports whether slot t lies inside the window.
func (w Window) Contains(t int) bool { return t >= w.Start && t <= w.End }

// Intersect returns the overlap of two windows (possibly empty).
func (w Window) Intersect(o Window) Window {
	s, e := w.Start, w.End
	if o.Start > s {
		s = o.Start
	}
	if o.End < e {
		e = o.End
	}
	return Window{Start: s, End: e}
}

// ClipTo clips the window to the horizon [0, T).
func (w Window) ClipTo(h Horizon) Window {
	return w.Intersect(Window{Start: 0, End: h.T - 1})
}

// String implements fmt.Stringer.
func (w Window) String() string {
	if w.Len() == 0 {
		return "[empty]"
	}
	return fmt.Sprintf("[%d,%d]", w.Start, w.End)
}

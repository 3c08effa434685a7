package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/pdftsp/pdftsp/internal/schedule"
	"github.com/pdftsp/pdftsp/internal/task"
)

// Event is one auction outcome in the run's event log: everything an
// operator needs to audit a decision after the fact.
type Event struct {
	Slot     int                   `json:"slot"`
	TaskID   int                   `json:"task_id"`
	Bid      float64               `json:"bid"`
	Admitted bool                  `json:"admitted"`
	Reason   schedule.RejectReason `json:"reason,omitempty"`
	Payment  float64               `json:"payment,omitempty"`
	Vendor   int                   `json:"vendor,omitempty"`
	Energy   float64               `json:"energy,omitempty"`
	Surplus  float64               `json:"surplus"`
	// Placements encodes the plan as "node:slot" pairs.
	Placements []string `json:"placements,omitempty"`
}

// eventLogger serializes events as JSON lines.
type eventLogger struct {
	enc *json.Encoder
}

// newEventLogger returns nil when no writer is configured.
func newEventLogger(w io.Writer) *eventLogger {
	if w == nil {
		return nil
	}
	return &eventLogger{enc: json.NewEncoder(w)}
}

// log writes one decision. Encoding failures surface as run errors: an
// operator asking for an audit trail must not silently lose it.
func (l *eventLogger) log(t *task.Task, d *schedule.Decision) error {
	if l == nil {
		return nil
	}
	ev := Event{
		Slot:     int(t.Arrival),
		TaskID:   t.ID,
		Bid:      t.Bid,
		Admitted: d.Admitted,
		Reason:   d.Reason,
		Payment:  d.Payment,
		Energy:   d.EnergyCost,
		Surplus:  d.F,
		Vendor:   -1,
	}
	if d.Schedule != nil {
		ev.Vendor = d.Schedule.Vendor
		for _, p := range d.Schedule.Placements {
			ev.Placements = append(ev.Placements, fmt.Sprintf("%d:%d", p.Node, p.Slot))
		}
	}
	return l.enc.Encode(&ev)
}

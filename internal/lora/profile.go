package lora

import (
	"fmt"
	"strings"

	"github.com/pdftsp/pdftsp/internal/gpu"
	"github.com/pdftsp/pdftsp/internal/timeslot"
)

// ProfileRow is one line of the calibration table the paper produces by
// measurement ("we record the amount of computation (number of data
// samples) within a time slot that the GPU can process under different
// batch size values", Section 5.1).
type ProfileRow struct {
	GPU           string
	Batch         int
	SamplesPerSec float64
	UnitsPerSlot  int
	TaskMemGB     float64
	NodeCapUnits  int
}

// Profile generates the calibration table for a model across GPUs and
// batch sizes — the analytic stand-in for the paper's hardware profiling.
func Profile(m ModelConfig, gpus []gpu.Spec, batches []int, h timeslot.Horizon) []ProfileRow {
	var rows []ProfileRow
	for _, g := range gpus {
		for _, b := range batches {
			rows = append(rows, ProfileRow{
				GPU:           g.Name,
				Batch:         b,
				SamplesPerSec: SamplesPerSecond(m, g, b),
				UnitsPerSlot:  TaskUnitsPerSlot(m, g, b, h),
				TaskMemGB:     TaskMemoryGB(m, 8, b),
				NodeCapUnits:  NodeCapUnits(m, g, h),
			})
		}
	}
	return rows
}

// FormatProfile renders the table for docs and CLI output.
func FormatProfile(m ModelConfig, rows []ProfileRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "LoRA profile for %s (%.0fM params, r_b=%.2f GB)\n",
		m.Name, float64(m.BaseParams())/1e6, BaseMemoryGB(m))
	fmt.Fprintf(&sb, "  %-10s %6s %12s %11s %10s %9s\n",
		"gpu", "batch", "samples/s", "units/slot", "r_i(r=8)", "C_kp")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s %6d %12.1f %11d %9.2fG %9d\n",
			r.GPU, r.Batch, r.SamplesPerSec, r.UnitsPerSlot, r.TaskMemGB, r.NodeCapUnits)
	}
	return sb.String()
}

// Package pdftsp reproduces "Online Scheduling and Pricing for Multi-LoRA
// Fine-Tuning Tasks" (ICPP 2024): an online auction that admits, schedules
// and prices LoRA fine-tuning bids on a shared GPU cluster.
//
// The root package holds no code. internal/config wires the paper's §5.1
// stack — cluster, marketplace, workload, calibrated scheduler — and is
// where a program starts: Config.Generate draws the bids, Config.Wire
// builds the stack and sim.Run replays the bids through it. cmd/ holds
// the binaries (pdftsp-sim, the pdftspd broker, the experiment harness)
// and examples/ the runnable walk-throughs, starting with
// examples/quickstart. DESIGN.md maps the packages to the paper.
package pdftsp

package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/pdftsp/pdftsp/internal/decision"
	"github.com/pdftsp/pdftsp/internal/obs"
	"github.com/pdftsp/pdftsp/internal/task"
)

// updateGolden rewrites the current generation of the format corpus from
// the current code, as internal/sim's flag of the same name rewrites its
// event-stream goldens:
//
//	go test ./internal/service -run TestFormatCorpus -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the current generation of testdata/formats from the current code")

// The format corpus is what one seeded two-shard run leaves on disk: per
// shard a snapshot, a delta sidecar holding records and a journal
// holding acked bids, plus the fleet manifest and shard 0's decision log.
// It is committed once per generation of the on-disk formats, with
// digests.json beside the files recording what each restores to. A
// generation is named after the snapshot, delta-sidecar, journal and
// decision-log versions that wrote it
// (testdata/formats/ckpt-v<C>-delta-v<N>-wal-v<M>-log-v<L>); the ones
// written before a version was part of the name keep theirs (delta-v3 to
// delta-v5, all of them journal v1 or v2, delta-v5-wal-v3, all of them
// snapshot v2, and every generation before log v2).
const (
	formatsDir    = "testdata/formats"
	formatsSlots  = 12
	formatsKillAt = 7 // full snapshots at slots 1 and 5, deltas at 2-4 and 6-7; slot 7's bids only journaled
	formatsShards = 2
	formatsSeed   = 41
)

// formatGeneration names the generation the code writes. The decision
// log's version is obs's own; "written" below fails if it moves.
func formatGeneration() string {
	return fmt.Sprintf("ckpt-v%d-delta-v%d-wal-v%d-log-v2", checkpointVersion, deltaVersion, walVersion)
}

// formatGenerations lists the committed generations, oldest first; the
// last is the one the code writes.
var formatGenerations = []string{"delta-v3", "delta-v4", "delta-v5", "delta-v5-wal-v3", "ckpt-v3-delta-v5-wal-v3",
	"ckpt-v4-delta-v5-wal-v3", "ckpt-v4-delta-v5-wal-v3-log-v2", "ckpt-v5-delta-v6-wal-v3-log-v2"}

// formatRefusals lists, per older generation, the entries the code after
// it must refuse with ErrFormatVersion instead of restoring: those that
// read a file whose format has moved on since. A format only moves
// forward, so a generation is also refused what every later one lists.
// Every other entry still restores to its recorded digest.
var formatRefusals = map[string][]string{
	// v4 dropped two accounting floats from the delta record; v5 writes
	// reject reasons as one-byte codes, and its journal (v2) dropped the
	// task's private value.
	"delta-v3": {"shard0 chain", "shard1 chain", "shard0 journal", "shard1 journal", "fleet"},
	"delta-v4": {"shard0 chain", "shard1 chain", "shard0 journal", "shard1 journal", "fleet"},
	// Journal v3 dropped the task's dataset size, epochs and rank, and
	// writes its model as a one-byte catalog code.
	"delta-v5": {"shard0 journal", "shard1 journal", "fleet"},
	// Snapshot v3 writes its decided set as the sidecar's decision
	// records, so every chain and the fleet built on a v2 snapshot go too.
	"delta-v5-wal-v3": {"shard0 snapshot", "shard1 snapshot", "shard0 chain", "shard1 chain", "fleet"},
	// Snapshot v4 is no longer JSON: the sidecar's framing around one
	// delta record.
	"ckpt-v3-delta-v5-wal-v3": {"shard0 snapshot", "shard1 snapshot", "shard0 chain", "shard1 chain", "fleet"},
	// Decision log v2 frames each event in the shared CRC frame and writes
	// an outcome as an internal/decision record.
	"ckpt-v4-delta-v5-wal-v3": {"decision log"},
	// Snapshot v5 and delta v6 dropped the down and lease planes, the
	// elastic marks and the tracker and spot state: a served broker's
	// capacity is fixed. Reading the older files would need a second
	// decoder (DESIGN.md §8).
	"ckpt-v4-delta-v5-wal-v3-log-v2": {"shard0 snapshot", "shard1 snapshot", "shard0 chain", "shard1 chain", "fleet"},
}

// formatUnchanged lists, per generation, the generation before it, the
// files it writes exactly as that one did (the manifest up to the
// directory it names) and the digests that must therefore carry over.
var formatUnchanged = map[string]struct {
	prev           string
	files, digests []string
}{
	"delta-v5": {
		prev:    "delta-v4",
		files:   []string{"fleet.json", "fleet.json.shard0", "fleet.json.shard1", "decisions.log"},
		digests: []string{"shard0 snapshot", "shard1 snapshot", "decision log"},
	},
	"delta-v5-wal-v3": {
		prev: "delta-v5",
		files: []string{"fleet.json", "fleet.json.shard0", "fleet.json.shard1",
			"fleet.json.shard0.delta", "fleet.json.shard1.delta", "decisions.log"},
		digests: []string{"shard0 snapshot", "shard1 snapshot", "shard0 chain", "shard1 chain", "decision log", "fleet"},
	},
	"ckpt-v3-delta-v5-wal-v3": {
		prev:    "delta-v5-wal-v3",
		files:   []string{"fleet.json", "fleet.json.shard0.wal", "fleet.json.shard1.wal", "decisions.log"},
		digests: []string{"shard0 journal", "shard1 journal", "decision log"},
	},
	"ckpt-v4-delta-v5-wal-v3": {
		prev:    "ckpt-v3-delta-v5-wal-v3",
		files:   []string{"fleet.json", "fleet.json.shard0.wal", "fleet.json.shard1.wal", "decisions.log"},
		digests: []string{"shard0 journal", "shard1 journal", "decision log"},
	},
	"ckpt-v4-delta-v5-wal-v3-log-v2": {
		prev: "ckpt-v4-delta-v5-wal-v3",
		files: []string{"fleet.json", "fleet.json.shard0", "fleet.json.shard1", "fleet.json.shard0.delta",
			"fleet.json.shard1.delta", "fleet.json.shard0.wal", "fleet.json.shard1.wal"},
		digests: []string{"shard0 snapshot", "shard1 snapshot", "shard0 chain", "shard1 chain",
			"shard0 journal", "shard1 journal", "fleet"},
	},
	"ckpt-v5-delta-v6-wal-v3-log-v2": {
		prev:    "ckpt-v4-delta-v5-wal-v3-log-v2",
		files:   []string{"fleet.json", "fleet.json.shard0.wal", "fleet.json.shard1.wal", "decisions.log"},
		digests: []string{"shard0 journal", "shard1 journal", "decision log"},
	},
}

// openFormatFleet opens the corpus run's fleet over the files at base;
// a non-nil log receives shard 0's decisions.
func openFormatFleet(t *testing.T, base string, tasks []task.Task, log *obs.DecisionLog) Auctioneer {
	t.Helper()
	opts := make([]Options, formatsShards)
	for i := range opts {
		opts[i] = newShardStack(t, formatsSlots, 2, formatsSeed+int64(i), tasks).brokerOptions()
		opts[i].CheckpointPath, opts[i].WALPath = base, WALPath(base)
		opts[i].CheckpointFullEvery, opts[i].RunLabel = 4, "formats"
	}
	if log != nil {
		opts[0].Observer = log
	}
	a, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// writeFormatCorpus runs the corpus workload into dir and kills the
// fleet with slot formatsKillAt's bids acked but undecided.
func writeFormatCorpus(t *testing.T, dir string) {
	t.Helper()
	tasks := shardWorkload(t, formatsSlots, 4, formatsSeed)
	log, err := obs.NewDecisionLogFile(filepath.Join(dir, "decisions.log"))
	if err != nil {
		t.Fatal(err)
	}
	a := openFormatFleet(t, filepath.Join(dir, "fleet.json"), tasks, log)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	for s, batch := range bySlot(t, tasks, formatsSlots)[:formatsKillAt+1] {
		verdicts := make([]error, len(batch))
		if _, err := a.SubmitBatchAck(context.Background(), batch, verdicts); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(verdicts...); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
		if s < formatsKillAt {
			if _, err := a.Step(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Kill()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// digest is the hex SHA-256 of v's JSON. Every float64 prints in its
// shortest round-tripping form, so equal digests mean equal bits.
func digest(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// stateDigest digests a restored checkpoint. The accounting goes field by
// field, so a field that leaves sim.Result does not move the digest of a
// file written before it left; the two nils stand where Checkpoint's
// tracker and spot state were, nil in every corpus run, until snapshot v5
// dropped them.
func stateDigest(t *testing.T, ck *Checkpoint) string {
	t.Helper()
	r := ck.Result
	return digest(t, []any{
		ck.Version, ck.RunLabel, ck.Scheduler, ck.Slot, ck.NextID, ck.Nodes, ck.Slots,
		ck.Duals, ck.Ledger, ck.Decisions.AppendFrom(nil, 0), ck.Canceled, ck.ProcIdx, nil, nil,
		r.Scheduler, r.Welfare, r.Revenue, r.VendorSpend, r.EnergySpend, r.Admitted, r.Rejected,
		r.RejectReasons, r.Utilization, r.FailuresInjected, r.RecoveredTasks, r.FailedTasks,
		r.RefundedValue, r.SpotSpend, r.SpotLeases, r.SpotLeasedSlots, r.SpotRevocations,
	})
}

// restored is what one corpus entry restores to: a digest, or a refusal.
type restored struct {
	digest string
	err    error
}

// restoreFormats restores every entry of the corpus generation in dir, a
// scratch copy (resuming the fleet rewrites its journals).
func restoreFormats(t *testing.T, dir string) map[string]restored {
	t.Helper()
	out := map[string]restored{}
	base := filepath.Join(dir, "fleet.json")
	for i := 0; i < formatsShards; i++ {
		shard := fmt.Sprintf("%s.shard%d", base, i)
		r := restored{}
		ck, err := ReadCheckpoint(shard)
		if r.err = err; err == nil {
			r.digest = stateDigest(t, ck)
		}
		out[fmt.Sprintf("shard%d snapshot", i)] = r
		r = restored{}
		if ck, r.err = LoadCheckpoint(shard); r.err == nil {
			r.digest = stateDigest(t, ck)
		}
		out[fmt.Sprintf("shard%d chain", i)] = r
		data, _ := os.ReadFile(WALPath(shard))
		r = restored{}
		if wal, err := walRecords(data, fmt.Sprintf("formats/%d", i)); err != nil {
			r.err = err
		} else {
			r.digest = digest(t, wal)
		}
		out[fmt.Sprintf("shard%d journal", i)] = r
	}

	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var m shardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	out["manifest"] = restored{digest: digest(t, m)}

	f, err := os.Open(filepath.Join(dir, "decisions.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Records go into the digest as their bytes: JSON cannot carry a −Inf F.
	sum, recs, err := obs.ReadDecisionLog(f)
	var enc []byte
	for _, r := range recs {
		enc = decision.Append(decision.AppendInt(enc, r.Slot), r.TaskID, &r.Decision)
	}
	out["decision log"] = restored{digest: digest(t, []any{sum, enc}), err: err}

	// The whole fleet through Resume: manifest check, chains, journals.
	a := openFormatFleet(t, base, shardWorkload(t, formatsSlots, 4, formatsSeed), nil)
	rep, err := a.Resume()
	r := restored{err: err}
	if err == nil {
		state := []any{rep}
		for _, b := range a.Brokers() {
			state = append(state, stateDigest(t, b.snapshot()))
		}
		r.digest = digest(t, state)
	}
	out["fleet"] = r
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	a.Kill()
	return out
}

// copyDir copies the regular files of dir into a fresh temp dir.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// regenerateFormats rewrites the current generation and its digests.
func regenerateFormats(t *testing.T) {
	dir := filepath.Join(formatsDir, formatGeneration())
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFormatCorpus(t, dir)
	digests := map[string]string{}
	for key, r := range restoreFormats(t, copyDir(t, dir)) {
		if r.err != nil {
			t.Fatalf("%s: %v", key, r.err)
		}
		digests[key] = r.digest
	}
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "digests.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFormatCorpus restores every committed generation of the on-disk
// formats against its recorded digests, or refuses what formatRefusals
// lists, and holds the current generation to what the code writes today,
// byte for byte: a format that moves without a new generation fails here.
func TestFormatCorpus(t *testing.T) {
	if *updateGolden {
		regenerateFormats(t)
	}
	entries, err := os.ReadDir(formatsDir)
	var gens []string
	for _, e := range entries {
		gens = append(gens, e.Name())
	}
	listed := slices.Clone(formatGenerations)
	slices.Sort(listed) // as ReadDir sorts
	if err != nil || !slices.Equal(gens, listed) ||
		formatGenerations[len(formatGenerations)-1] != formatGeneration() {
		t.Fatalf("corpus generations %v (err %v), listed %v; the code writes %s (run with -update-golden)",
			gens, err, formatGenerations, formatGeneration())
	}
	for i, gen := range formatGenerations {
		dir := filepath.Join(formatsDir, gen)
		var refused []string
		for _, later := range formatGenerations[i:] {
			refused = append(refused, formatRefusals[later]...)
		}
		t.Run(gen, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, "digests.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]string
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			got := restoreFormats(t, copyDir(t, dir))
			if len(got) != len(want) {
				t.Fatalf("%d entries restored, %d recorded", len(got), len(want))
			}
			for key, w := range want {
				r := got[key]
				switch {
				case slices.Contains(refused, key):
					if !errors.Is(r.err, ErrFormatVersion) {
						t.Errorf("%s restores to %s (err %v), want ErrFormatVersion", key, r.digest, r.err)
					}
				case r.err != nil || r.digest != w:
					t.Errorf("%s restores to %s (err %v), recorded %s", key, r.digest, r.err, w)
				}
			}
		})
	}

	for gen, same := range formatUnchanged {
		t.Run(gen+"/unchanged", func(t *testing.T) {
			dir, prev := filepath.Join(formatsDir, gen), filepath.Join(formatsDir, same.prev)
			for _, name := range same.files {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join(prev, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, bytes.ReplaceAll(want, []byte(prev), []byte(dir))) {
					t.Errorf("%s differs from %s's", name, filepath.Base(prev))
				}
			}
			digests := func(dir string) map[string]string {
				data, err := os.ReadFile(filepath.Join(dir, "digests.json"))
				if err != nil {
					t.Fatal(err)
				}
				var m map[string]string
				if err := json.Unmarshal(data, &m); err != nil {
					t.Fatal(err)
				}
				return m
			}
			got, want := digests(dir), digests(prev)
			for _, key := range same.digests {
				if got[key] == "" || got[key] != want[key] {
					t.Errorf("%s digest %s, %s recorded %s", key, got[key], filepath.Base(prev), want[key])
				}
			}
		})
	}

	t.Run("written", func(t *testing.T) {
		dir := filepath.Join(formatsDir, formatGeneration())
		tmp := t.TempDir()
		writeFormatCorpus(t, tmp)
		names := func(dir string) []string {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for _, e := range entries {
				if e.Name() != "digests.json" {
					out = append(out, e.Name())
				}
			}
			return out
		}
		if got, want := names(tmp), names(dir); !slices.Equal(got, want) {
			t.Fatalf("the run writes %v, the corpus holds %v", got, want)
		}
		for _, name := range names(dir) {
			want, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(tmp, name))
			if err != nil {
				t.Fatal(err)
			}
			// The manifest records the checkpoint paths it was written with.
			got = bytes.ReplaceAll(got, []byte(tmp), []byte(dir))
			if !bytes.Equal(got, want) {
				t.Errorf("%s: the code writes %d bytes that differ from the corpus's %d; a format that moves needs a new generation", name, len(got), len(want))
			}
		}
	})
}

package benchsuite

import (
	"testing"

	"github.com/pdftsp/pdftsp/internal/service"
	"github.com/pdftsp/pdftsp/internal/task"
)

// The WALAppend rows price the durable-intake guarantee: one slot-close
// round (64 bids journaled before their acks release, then the slot
// stepped) with the write-ahead journal on, under per-slot binary delta
// checkpoints. The journal-off control is
// CheckpointPerSlot/binary-delta — the same round without the journal —
// so the delta between the rows is the whole cost of "no acked bid is
// ever lost". The sync-1 variant fsyncs on every intake message (the
// strict default: an ack never races its own journal frame to disk);
// sync-64 batches fsyncs across a slot's worth of intake, trading a
// bounded re-ack window on power loss for throughput.
func walPerSlot(b *testing.B, syncEvery int) {
	path := b.TempDir() + "/bench.ckpt"
	withWAL := func(o *service.Options) {
		o.WALPath = service.WALPath(path)
		o.WALSyncEvery = syncEvery
	}
	const fullEvery = 1 << 30 // deltas only, as in the binary-delta control
	broker, tasks := servingBroker(b, path, fullEvery, nil, withWAL)
	defer broker.Kill()
	batch := make([]task.Task, servingBidsPerSlot)
	verdicts := make([]error, servingBidsPerSlot)
	slot := 0
	id := 1 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = retimeTask(tasks[(i*servingBidsPerSlot+j)%len(tasks)], id, slot)
			id++
		}
		if _, err := broker.SubmitBatchAck(nil, batch, verdicts); err != nil {
			b.Fatal(err)
		}
		for j := range verdicts {
			if verdicts[j] != nil {
				b.Fatal(verdicts[j])
			}
		}
		slot = stepServing(b, broker, slot, func() {
			broker, tasks = rebuildServing(b, broker, path, fullEvery, nil, withWAL)
		})
	}
	b.StopTimer()
	if st, err := broker.Status(); err == nil && st.WALFsyncs > 0 {
		b.ReportMetric(float64(st.WALFsyncNanos)/float64(st.WALFsyncs), "fsync-ns")
	}
}

// WALAppendSync1 journals with an fsync per intake message — the
// default -wal cadence.
func WALAppendSync1(b *testing.B) { walPerSlot(b, 1) }

// WALAppendSync64 journals with fsyncs batched across 64 intake
// messages.
func WALAppendSync64(b *testing.B) { walPerSlot(b, 64) }

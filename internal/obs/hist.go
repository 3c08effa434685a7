package obs

import (
	"math"
	"math/bits"
	"time"

	"github.com/pdftsp/pdftsp/internal/metrics"
)

// Histogram buckets: a value below 2^histSubBits ns has a bucket of its
// own; above, each power-of-two range [2^e, 2^(e+1)) is split into
// 2^histSubBits equal sub-buckets, up to the largest time.Duration
// (2^63 − 1 ns): 960 buckets.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (63 - histSubBits + 1) * histSub
)

// Histogram is a fixed-size latency histogram: one array of counts,
// log-linear buckets that cannot be configured, and a Record that is a
// few shifts and an add and allocates nothing. Quantile and CDF report a
// bucket's midpoint, which is within 1/32 (3.1%) of every sample in the
// bucket, relative to that sample, and exact below 32 ns. The zero value
// is empty and ready to use.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

// histBucket returns v's bucket.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v is in [2^e, 2^(e+1))
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits)) - histSub
}

// histMid returns the midpoint of bucket i, in nanoseconds.
func histMid(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	shift := i/histSub - 1
	lo := uint64(histSub+i%histSub) << shift
	return lo + (uint64(1)<<shift)/2
}

// Record adds one sample; a negative duration counts as zero.
func (h *Histogram) Record(d time.Duration) {
	h.counts[histBucket(uint64(max(d, 0)))]++
	h.n++
}

// Count is the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.n }

// Quantile returns the nearest-rank q-quantile (q in [0,1]) as its
// bucket's midpoint; 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(min(max(q, 0), 1)*float64(h.n))), 1)
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return time.Duration(histMid(i))
		}
	}
	return 0 // unreachable: the counts sum to n
}

// CDF returns the empirical CDF in seconds: one point per non-empty
// bucket, at its midpoint, ascending. Empty is nil.
func (h *Histogram) CDF() []metrics.CDFPoint {
	var out []metrics.CDFPoint
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		out = append(out, metrics.CDFPoint{
			X: time.Duration(histMid(i)).Seconds(),
			P: float64(seen) / float64(h.n),
		})
	}
	return out
}

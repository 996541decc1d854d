package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// defBuckets are the default upper bounds: log-scale from 1µs to 1000s
// with three buckets per decade (1, 2.5, 5 sub-divisions). Stability-run
// phases span microseconds (parsing a tank netlist) to minutes (all-nodes
// sweeps of large transistor circuits), which is exactly what a log grid
// covers with a bounded bucket count.
var defBuckets = func() []float64 {
	var b []float64
	for exp := -6; exp <= 2; exp++ {
		scale := math.Pow(10, float64(exp))
		b = append(b, 1*scale, 2.5*scale, 5*scale)
	}
	return append(b, 1000)
}()

// Histogram is a fixed-bucket histogram with atomic counters. Buckets hold
// upper bounds; one extra overflow bucket catches everything above the
// last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sumU   atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// bucket returns the index of the bucket v falls in. Binary search:
// bounds are ascending and short, but O(log n) keeps large custom bucket
// sets cheap too.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumU.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumU.CompareAndSwap(old, nv) {
			return
		}
	}
}

// LocalHistogram stages observations for one Histogram in plain counters
// and publishes them with one set of atomic adds per Flush, keeping
// atomics out of loops that observe once per item. It is not safe for
// concurrent use; give each goroutine its own.
type LocalHistogram struct {
	h      *Histogram
	counts []int64
	count  int64
	sum    float64
}

// Local returns an empty staging area for h.
func (h *Histogram) Local() *LocalHistogram {
	return &LocalHistogram{h: h, counts: make([]int64, len(h.counts))}
}

// Observe stages one value.
func (l *LocalHistogram) Observe(v float64) {
	l.counts[l.h.bucket(v)]++
	l.count++
	l.sum += v
}

// Flush publishes the staged values to the histogram and resets the
// staging area.
func (l *LocalHistogram) Flush() {
	if l.count == 0 {
		return
	}
	for i, c := range l.counts {
		if c != 0 {
			l.h.counts[i].Add(c)
			l.counts[i] = 0
		}
	}
	l.h.count.Add(l.count)
	l.h.addSum(l.sum)
	l.count, l.sum = 0, 0
}

// ObserveDuration records the seconds elapsed since start.
func (h *Histogram) ObserveDuration(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumU.Load()) }

// Quantile estimates the q-quantile (0..1) from the bucket counts by
// linear interpolation inside the selected bucket. It returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bucketQuantile(h.bounds, counts, h.count.Load(), q)
}

// bucketQuantile is the shared quantile estimator over a bucket-count
// vector: Histogram.Quantile on a live histogram and
// HistogramData.Quantile on a snapshot (possibly merged across workers)
// must agree by construction.
func bucketQuantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range counts {
		n := float64(counts[i])
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := lo
			if i < len(bounds) {
				hi = bounds[i]
			}
			frac := (rank - seen) / n
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	return bounds[len(bounds)-1]
}

// HistogramSnapshot is the JSON form of a histogram in Registry.Snapshot
// and /statusz.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Avg   float64 `json:"avg"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func (h *Histogram) snapshotValue() any {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	if s.Count > 0 {
		s.Avg = s.Sum / float64(s.Count)
		s.P50 = h.Quantile(0.50)
		s.P90 = h.Quantile(0.90)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

// HistogramData is the full-fidelity wire form of a histogram: the raw
// bucket layout and counts, not just summary quantiles. It is what
// `/metrics?format=json` exports and what fleet federation merges —
// summed bucket vectors reproduce exact counts and sums, and quantiles
// of the merged data are computed from the merged buckets rather than
// averaged from per-worker estimates.
type HistogramData struct {
	// Bounds are the ascending bucket upper bounds.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
}

// Data snapshots the histogram's raw buckets. Counts are read
// individually while observations may be in flight, so under concurrent
// recording the vector is a near-point-in-time view (each bucket is
// individually exact and monotone).
func (h *Histogram) Data() HistogramData {
	d := HistogramData{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		d.Counts[i] = h.counts[i].Load()
	}
	return d
}

// Merge adds o's buckets, count, and sum into d. It reports false —
// leaving d untouched — when the bucket layouts differ; federation
// surfaces those as unmergeable instead of producing silently wrong
// quantiles.
func (d *HistogramData) Merge(o HistogramData) bool {
	if len(d.Bounds) != len(o.Bounds) || len(d.Counts) != len(o.Counts) {
		return false
	}
	for i := range d.Bounds {
		if d.Bounds[i] != o.Bounds[i] {
			return false
		}
	}
	for i := range d.Counts {
		d.Counts[i] += o.Counts[i]
	}
	d.Count += o.Count
	d.Sum += o.Sum
	return true
}

// Quantile estimates the q-quantile from the snapshot's buckets with the
// same interpolation as Histogram.Quantile.
func (d HistogramData) Quantile(q float64) float64 {
	return bucketQuantile(d.Bounds, d.Counts, d.Count, q)
}

// Summary condenses the data into the /statusz snapshot form.
func (d HistogramData) Summary() HistogramSnapshot {
	s := HistogramSnapshot{Count: d.Count, Sum: d.Sum}
	if s.Count > 0 {
		s.Avg = s.Sum / float64(s.Count)
		s.P50 = d.Quantile(0.50)
		s.P90 = d.Quantile(0.90)
		s.P99 = d.Quantile(0.99)
	}
	return s
}

func (h *Histogram) promType() string { return "histogram" }

// writeProm emits the cumulative `le` bucket series plus _sum and _count,
// merging any labels present in the metric name into the bucket label set.
func (h *Histogram) writeProm(w io.Writer, name string) error {
	family, labels := splitName(name)
	inner := ""
	if labels != "" {
		inner = labels[1:len(labels)-1] + ","
	}
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", family, inner, trimFloat(ub), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, inner, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", family, labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, h.Count())
	return err
}

// trimFloat renders a bucket bound compactly (0.0025, 1, 250).
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

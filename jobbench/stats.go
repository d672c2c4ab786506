package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile. With fewer, the percentile would rest on a handful of
// outliers, so the tail falls back to the highest percentile that
// still has this many samples beyond it.
const minBeyond = 10

// summary is the latency summary of one timed window, in seconds.
type summary struct {
	n      int     // samples (completed ops)
	p50    float64 // median
	tail   float64 // value at tailQ
	tailQ  float64 // percentile actually reported as the tail (<= the one asked for)
	capped bool    // tailQ is below the percentile asked for
}

// summarize sorts a copy of the latencies and reports the median and
// the tail at percentile want, capped to the highest percentile with at
// least minBeyond samples beyond it. Values keep full float64
// precision: nothing is truncated to milliseconds.
func summarize(lat []float64, want float64) summary {
	s := summary{n: len(lat)}
	if len(lat) == 0 {
		return s
	}
	v := append([]float64(nil), lat...)
	sort.Float64s(v)
	s.p50 = median(v)
	k, q := tailIndex(len(v), want)
	s.tail, s.tailQ, s.capped = v[k], q, q < want
	return s
}

// tailIndex returns the 0-based nearest-rank index of percentile want
// in n sorted samples, lowered until at least minBeyond samples lie
// above it, plus the percentile that index represents. Runs too short
// to leave minBeyond samples beyond any index report the median.
func tailIndex(n int, want float64) (int, float64) {
	k := int(math.Ceil(want*float64(n)-1e-9)) - 1 // 1e-9: 0.9*n may round up
	if k < 0 {
		k = 0
	}
	if max := n - 1 - minBeyond; k > max {
		if max < 0 {
			return (n - 1) / 2, 0.5
		}
		k = max
	}
	q := float64(k+1) / float64(n)
	if q > want {
		q = want
	}
	return k, q
}

// median of sorted values (mean of the two middle ones for even n).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf is median over an unsorted slice.
func medianOf(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return median(c)
}

// ratio is a fraction printed with its base, so a reader can tell 1/1
// from 900/900.
type ratio struct{ num, den float64 }

// value is num/den, or 0 for an empty base.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%g/%g)", r.value(), r.num, r.den)
}

// tally accounts the ops of one window. An op that returned an error
// failed; an op that returned a result its check rejected is wrong.
// Both count against the window.
type tally struct {
	attempted int
	errored   int
	wrong     int
}

// failed is every op that did not deliver a correct result.
func (t tally) failed() int { return t.errored + t.wrong }

// ok is the number of ops that completed with a correct result.
func (t tally) ok() int { return t.attempted - t.failed() }

// failedRatio is failed / attempted.
func (t tally) failedRatio() ratio {
	return ratio{float64(t.failed()), float64(t.attempted)}
}

// interval is one span's extent on a shared clock.
type interval struct{ start, end time.Duration }

// selfTime is the parent's duration minus the part of it covered by at
// least one child. Children may overlap one another (parallel work) and
// may stick out of the parent; only their union inside the parent is
// subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// Package coding converts images into spike trains. The paper's
// experiments use rate coding with Poisson-distributed spikes (Sec. V);
// the other encoders implement the alternative schemes the paper's
// background section cites (rank-order, phase, burst, time-to-first-spike)
// so that the SNN substrate covers the design space the paper surveys.
//
// A spike train is represented sparsely: for each timestep, the slice of
// input indices that spike at that step. This is the natural input for an
// event-driven LIF simulation.
package coding

import (
	"fmt"
	"sort"

	"sparkxd/internal/rng"
)

// Train is a spike train: Train[t] lists the input indices spiking at
// timestep t.
type Train [][]int32

// Steps returns the number of timesteps.
func (tr Train) Steps() int { return len(tr) }

// TotalSpikes returns the number of spikes over all steps.
func (tr Train) TotalSpikes() int {
	n := 0
	for _, s := range tr {
		n += len(s)
	}
	return n
}

// Encoder converts one image (byte intensities, 0..255) into a spike
// train of the given number of steps. Encoders must be deterministic in
// (image, steps, r).
type Encoder interface {
	Encode(img []byte, steps int, r *rng.Stream) Train
	Name() string
}

// Rate is the Poisson rate coder used by the paper: each pixel spikes
// each timestep with probability intensity/255 * MaxProb, independently.
type Rate struct {
	// MaxProb is the per-step spike probability of a saturated pixel.
	// 0.12 with 1 ms steps corresponds to a 120 Hz peak rate.
	MaxProb float64
}

// NewRate returns the paper-default Poisson rate coder.
func NewRate() Rate { return Rate{MaxProb: 0.12} }

// Name implements Encoder.
func (e Rate) Name() string { return fmt.Sprintf("rate-poisson(p=%.3g)", e.MaxProb) }

// Encode implements Encoder.
//
// Each timestep draws once per pixel with 0 < p < 1, in pixel order,
// through one rng.AppendBernoulli call over the pixels' integer
// thresholds: the same draws in the same order decide exactly as
// r.Bernoulli(p) would, so the train and the stream state afterwards
// are those of the per-pixel loop. Pixels with p ≤ 0 never spike and
// pixels with p ≥ 1 always spike, both without a draw, as in Bernoulli.
// Spikes are accumulated into one flat arena with per-step offsets, so
// a 60-step encode performs a handful of allocations instead of one
// growing slice per step.
func (e Rate) Encode(img []byte, steps int, r *rng.Stream) Train {
	tr := make(Train, steps)
	// Pixels that draw, with their thresholds. A certain (p ≥ 1) pixel
	// is recorded with the number of drawing pixels before it, so each
	// step interleaves it with the draws in pixel order.
	type certain struct {
		idx    int32
		before int
	}
	var (
		idx      = make([]int32, 0, len(img)/4)
		th       = make([]uint64, 0, len(img)/4)
		certains []certain
		expected float64
	)
	for i, v := range img {
		if v == 0 {
			continue
		}
		p := float64(v) / 255 * e.MaxProb
		expected += p
		switch {
		case p <= 0:
		case p >= 1:
			certains = append(certains, certain{int32(i), len(idx)})
		default:
			idx = append(idx, int32(i))
			th = append(th, rng.BernoulliThreshold(p))
		}
	}
	offs := make([]int, steps+1)
	arena := make([]int32, 0, int(expected*float64(steps))+16)
	for t := 0; t < steps; t++ {
		lo := 0
		for _, c := range certains {
			arena = r.AppendBernoulli(arena, idx[lo:c.before], th[lo:c.before])
			arena = append(arena, c.idx)
			lo = c.before
		}
		arena = r.AppendBernoulli(arena, idx[lo:], th[lo:])
		offs[t+1] = len(arena)
	}
	for t := 0; t < steps; t++ {
		if offs[t] == offs[t+1] {
			continue // empty steps stay nil, as in the per-step form
		}
		tr[t] = arena[offs[t]:offs[t+1]:offs[t+1]]
	}
	return tr
}

// DeterministicRate spikes each pixel at evenly spaced intervals
// proportional to its intensity — rate coding without Poisson noise,
// useful for reproducible unit tests and ablations.
type DeterministicRate struct {
	MaxPerSteps float64 // spikes per `steps` for a saturated pixel, as fraction
}

// NewDeterministicRate mirrors NewRate's peak rate.
func NewDeterministicRate() DeterministicRate { return DeterministicRate{MaxPerSteps: 0.12} }

// Name implements Encoder.
func (e DeterministicRate) Name() string { return "rate-deterministic" }

// Encode implements Encoder.
func (e DeterministicRate) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for i, v := range img {
		if v == 0 {
			continue
		}
		count := float64(v) / 255 * e.MaxPerSteps * float64(steps)
		n := int(count)
		if n == 0 {
			continue
		}
		stride := float64(steps) / float64(n)
		for k := 0; k < n; k++ {
			t := int(float64(k)*stride + stride/2)
			if t < steps {
				tr[t] = append(tr[t], int32(i))
			}
		}
	}
	return tr
}

// TTFS is time-to-first-spike coding: each pixel spikes exactly once, at
// a latency inversely proportional to its intensity; dark pixels do not
// spike at all.
type TTFS struct {
	// Threshold is the minimum intensity that produces a spike.
	Threshold byte
}

// Name implements Encoder.
func (e TTFS) Name() string { return "time-to-first-spike" }

// Encode implements Encoder.
func (e TTFS) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for i, v := range img {
		if v <= e.Threshold {
			continue
		}
		// intensity 255 -> step 0; intensity just above threshold -> last step.
		frac := 1 - float64(v-e.Threshold)/float64(255-int(e.Threshold))
		t := int(frac * float64(steps-1))
		tr[t] = append(tr[t], int32(i))
	}
	return tr
}

// RankOrder emits one spike per pixel in descending intensity order, K
// pixels per timestep, stopping after the brightest fraction has fired —
// the rank-order coding of Thorpe & Gautrais.
type RankOrder struct {
	// PerStep is how many pixels fire per timestep.
	PerStep int
	// Fraction is the brightest fraction of nonzero pixels that fires.
	Fraction float64
}

// NewRankOrder returns a rank-order coder firing the top 50% of pixels,
// 8 per step.
func NewRankOrder() RankOrder { return RankOrder{PerStep: 8, Fraction: 0.5} }

// Name implements Encoder.
func (e RankOrder) Name() string { return "rank-order" }

// Encode implements Encoder.
func (e RankOrder) Encode(img []byte, steps int, _ *rng.Stream) Train {
	type pix struct {
		idx int32
		v   byte
	}
	px := make([]pix, 0, len(img))
	for i, v := range img {
		if v > 0 {
			px = append(px, pix{int32(i), v})
		}
	}
	sort.Slice(px, func(a, b int) bool {
		if px[a].v != px[b].v {
			return px[a].v > px[b].v
		}
		return px[a].idx < px[b].idx // stable rank for equal intensities
	})
	n := int(float64(len(px)) * e.Fraction)
	tr := make(Train, steps)
	per := e.PerStep
	if per <= 0 {
		per = 1
	}
	for k := 0; k < n; k++ {
		t := k / per
		if t >= steps {
			break
		}
		tr[t] = append(tr[t], px[k].idx)
	}
	return tr
}

// Phase encodes the 8-bit intensity over repeating 8-step phases: at
// phase b the pixel spikes if bit (7-b) of its intensity is set, so early
// phases carry the most significant information (Kim et al. style).
type Phase struct{}

// Name implements Encoder.
func (Phase) Name() string { return "phase" }

// Encode implements Encoder.
func (Phase) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for t := 0; t < steps; t++ {
		bit := uint(7 - t%8)
		var s []int32
		for i, v := range img {
			if v&(1<<bit) != 0 {
				s = append(s, int32(i))
			}
		}
		tr[t] = s
	}
	return tr
}

// Burst emits a contiguous burst of spikes per pixel whose length is
// proportional to intensity (Park et al., DAC 2019).
type Burst struct {
	// MaxBurst is the burst length of a saturated pixel.
	MaxBurst int
}

// NewBurst returns a burst coder with bursts up to 5 spikes.
func NewBurst() Burst { return Burst{MaxBurst: 5} }

// Name implements Encoder.
func (e Burst) Name() string { return "burst" }

// Encode implements Encoder.
func (e Burst) Encode(img []byte, steps int, _ *rng.Stream) Train {
	tr := make(Train, steps)
	for i, v := range img {
		if v == 0 {
			continue
		}
		n := int(float64(v)/255*float64(e.MaxBurst) + 0.5)
		if n == 0 {
			continue
		}
		// Burst starts earlier for brighter pixels.
		start := int((1 - float64(v)/255) * float64(steps-n))
		for k := 0; k < n && start+k < steps; k++ {
			tr[start+k] = append(tr[start+k], int32(i))
		}
	}
	return tr
}

package snn

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"sparkxd/internal/dataset"
	"sparkxd/internal/rng"
)

// trainEpochReference is TrainEpochCtx with every sample encoded inline,
// just before its learning presentation.
func trainEpochReference(n *Network, ds *dataset.Dataset, r *rng.Stream) {
	for s := 0; s < ds.Len(); s++ {
		n.present(n.Cfg.Encoder.Encode(ds.Images[s], n.Cfg.Steps, r.DeriveIndex("enc", s)), true)
	}
}

// assignLabelsReference is AssignLabelsCtx with every sample encoded
// inline through SpikeCounts.
func assignLabelsReference(n *Network, ds *dataset.Dataset, r *rng.Stream) {
	resp := make([][dataset.NumClasses]float64, n.Cfg.Neurons)
	classN := ds.ClassCounts()
	for s := 0; s < ds.Len(); s++ {
		counts := n.SpikeCounts(ds.Images[s], r.DeriveIndex("assign", s))
		for j, k := range counts {
			resp[j][ds.Labels[s]] += float64(k)
		}
	}
	for j := range resp {
		best, bestV := -1, 0.0
		for c := 0; c < dataset.NumClasses; c++ {
			v := resp[j][c]
			if classN[c] > 0 {
				v /= float64(classN[c])
			}
			if v > bestV {
				best, bestV = c, v
			}
		}
		n.Assign[j] = best
	}
}

// requireSameState fails unless a and b hold bit-identical weights,
// adaptive thresholds and label assignments.
func requireSameState(t *testing.T, stage string, a, b *Network) {
	t.Helper()
	for i := range a.W.Data {
		if math.Float32bits(a.W.Data[i]) != math.Float32bits(b.W.Data[i]) {
			t.Fatalf("%s: weight %d = %v, reference %v", stage, i, a.W.Data[i], b.W.Data[i])
		}
	}
	for j := range a.Pool.Theta {
		if math.Float32bits(a.Pool.Theta[j]) != math.Float32bits(b.Pool.Theta[j]) {
			t.Fatalf("%s: theta %d = %v, reference %v", stage, j, a.Pool.Theta[j], b.Pool.Theta[j])
		}
	}
	for j := range a.Assign {
		if a.Assign[j] != b.Assign[j] {
			t.Fatalf("%s: assign %d = %d, reference %d", stage, j, a.Assign[j], b.Assign[j])
		}
	}
}

// TestEncodeAheadMatchesInlineReference: encoding the next samples on a
// helper goroutine leaves weights, thresholds and assignments exactly as
// encoding each sample inline does.
func TestEncodeAheadMatchesInlineReference(t *testing.T) {
	train, _ := smallData(t, 24, 1)
	got, want := smallNet(t, 20), smallNet(t, 20)
	ctx := context.Background()
	for epoch := uint64(0); epoch < 2; epoch++ {
		if err := got.TrainEpochCtx(ctx, train, rng.New(40+epoch)); err != nil {
			t.Fatal(err)
		}
		trainEpochReference(want, train, rng.New(40+epoch))
		requireSameState(t, "train", got, want)

		if err := got.AssignLabelsCtx(ctx, train, rng.New(50+epoch)); err != nil {
			t.Fatal(err)
		}
		assignLabelsReference(want, train, rng.New(50+epoch))
		requireSameState(t, "assign", got, want)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls, cancelling a sample loop partway without timing.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestEncodeAheadCancelStopsEncoder: a cancelled call returns ctx.Err()
// and has stopped its encoder goroutine by the time it returns.
func TestEncodeAheadCancelStopsEncoder(t *testing.T) {
	train, _ := smallData(t, 30, 1)
	net := smallNet(t, 10)
	before := runtime.NumGoroutine()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	calls := []struct {
		name string
		run  func(context.Context) error
	}{
		{"train", func(ctx context.Context) error { return net.TrainEpochCtx(ctx, train, rng.New(1)) }},
		{"assign", func(ctx context.Context) error { return net.AssignLabelsCtx(ctx, train, rng.New(2)) }},
	}
	for _, c := range calls {
		for _, ctx := range []context.Context{cancelled, &cancelAfter{context.Background(), 3}} {
			if err := c.run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", c.name, err)
			}
			// The call waited for its encoder, which has at most its
			// deferred returns left to run; no other signal marks that
			// exit, so yield until the count settles.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if got := runtime.NumGoroutine(); got != before {
				t.Fatalf("%s: %d goroutines after return, %d before", c.name, got, before)
			}
		}
	}
}

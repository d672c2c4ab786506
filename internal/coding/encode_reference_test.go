package coding

import (
	"testing"

	"sparkxd/internal/rng"
)

// rateEncodeReference is the per-pixel Rate.Encode: one r.Bernoulli(p)
// per lit pixel per step, in pixel order, appended to one slice per
// step. The production encoder must draw the same values in the same
// order, so both produce the same train and leave the stream in the
// same state.
func rateEncodeReference(e Rate, img []byte, steps int, r *rng.Stream) Train {
	tr := make(Train, steps)
	for t := 0; t < steps; t++ {
		for i, v := range img {
			if v == 0 {
				continue
			}
			if r.Bernoulli(float64(v) / 255 * e.MaxProb) {
				tr[t] = append(tr[t], int32(i))
			}
		}
	}
	return tr
}

func TestRateEncodeMatchesReference(t *testing.T) {
	ir := rng.New(53)
	var imgs [][]byte
	for k := 0; k < 4; k++ {
		img := make([]byte, 784)
		for i := range img {
			if ir.Bernoulli(0.6) {
				img[i] = byte(ir.Intn(256))
			}
		}
		imgs = append(imgs, img)
	}
	dark := make([]byte, 784)
	bright := make([]byte, 784)
	for i := range bright {
		bright[i] = 255
	}
	imgs = append(imgs, dark, bright, grad())

	for _, maxProb := range []float64{0, 0.05, 0.12, 0.5, 1, 1.5} {
		e := Rate{MaxProb: maxProb}
		for k, img := range imgs {
			seed := uint64(100*k) + uint64(maxProb*1000)
			a, b := rng.New(seed), rng.New(seed)
			want := rateEncodeReference(e, img, 60, a)
			got := e.Encode(img, 60, b)
			if len(got) != len(want) {
				t.Fatalf("MaxProb=%g img %d: %d steps, want %d", maxProb, k, len(got), len(want))
			}
			for s := range want {
				if len(got[s]) != len(want[s]) {
					t.Fatalf("MaxProb=%g img %d step %d: %d spikes, want %d",
						maxProb, k, s, len(got[s]), len(want[s]))
				}
				for i := range want[s] {
					if got[s][i] != want[s][i] {
						t.Fatalf("MaxProb=%g img %d step %d spike %d: %d, want %d",
							maxProb, k, s, i, got[s][i], want[s][i])
					}
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("MaxProb=%g img %d: stream state differs after encoding", maxProb, k)
			}
		}
	}
}

package numeric

import (
	"math"
	"testing"
)

// kernelInputs returns n values cycling through the special cases the
// assembly must treat exactly as the Go loops do (NaNs with distinct
// payloads, ±Inf, ±0, subnormals, values beyond the tested bounds),
// interleaved with pseudo-random ordinary values.
func kernelInputs(n int, seed uint64) []float32 {
	special := []float32{
		float32(math.NaN()),
		math.Float32frombits(0x7fc00123), // quiet NaN, other payload
		math.Float32frombits(0xffc00001), // negative quiet NaN
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		0,
		float32(math.Copysign(0, -1)),
		math.Float32frombits(1),          // smallest subnormal
		math.Float32frombits(0x807fffff), // largest negative subnormal
		math.MaxFloat32,
		-math.MaxFloat32,
		1.5, -2.25, 1e-30, 3e38,
	}
	out := make([]float32, n)
	v := seed
	for i := range out {
		v = v*6364136223846793005 + 1442695040888963407
		if v>>62 == 0 {
			out[i] = special[(v>>32)%uint64(len(special))]
		} else {
			out[i] = float32(int64(v>>40)%4000-1000) / 1000
		}
	}
	return out
}

// equalBits fails unless got and want hold the same bit patterns. Where
// both operands a[i] and b[i] of a computed element's add or multiply
// (off <= i < off+n) are NaN, it only requires both results to be NaN:
// x86 returns the destination operand's payload, and the Go compiler
// chooses the operand order freely (a -race build picks the other one).
func equalBits(t *testing.T, what string, got, want, a, b []float32, off, n int) {
	t.Helper()
	isNaN := func(v float32) bool { return v != v }
	for i := range want {
		if i >= off && i < off+n && isNaN(a[i]) && isNaN(b[i]) {
			if !isNaN(got[i]) || !isNaN(want[i]) {
				t.Fatalf("%s: element %d = %v, reference %v, want NaN", what, i, got[i], want[i])
			}
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %#08x, reference %#08x", what, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestKernelsMatchGeneric checks the kernels that run on this platform
// against the portable Go loops bit for bit, for every length up to
// 67 (all tail lengths after each 8-wide block count) and at offsets 0–3
// into the buffers, so unaligned slices are covered. Elements outside
// the slice must stay untouched.
func TestKernelsMatchGeneric(t *testing.T) {
	inf := float32(math.Inf(1))
	bounds := [][2]float32{{0, 1}, {-inf, inf}, {0.25, 0.25}, {-0.5, 2}}
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			seed := uint64(n*4 + off)
			dst := kernelInputs(n+8, seed)
			src := kernelInputs(n+8, seed+1000)
			ref := append([]float32(nil), dst...)
			in := append([]float32(nil), dst...)
			addTo(dst[off:off+n], src[off:off+n])
			addToGeneric(ref[off:off+n], src[off:off+n])
			equalBits(t, "addTo", dst, ref, in, src, off, n)

			f := kernelInputs(n+8, seed+2000)
			for _, b := range bounds {
				row := kernelInputs(n+8, seed+3000)
				ref := append([]float32(nil), row...)
				in := append([]float32(nil), row...)
				scaleClamp(row[off:off+n], f[off:off+n], b[0], b[1])
				scaleClampGeneric(ref[off:off+n], f[off:off+n], b[0], b[1])
				equalBits(t, "scaleClamp", row, ref, in, f, off, n)
			}
		}
	}
}

func TestNormalizeColumnsClampBoundsPanic(t *testing.T) {
	nan := float32(math.NaN())
	for _, b := range [][2]float32{{1, 0}, {nan, 1}, {0, nan}, {nan, nan}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalizeColumnsClamp(lo=%v, hi=%v) did not panic", b[0], b[1])
				}
			}()
			NewMatrix(2, 2).NormalizeColumnsClamp(1, b[0], b[1])
		}()
	}
}

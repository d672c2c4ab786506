//go:build !purego

package numeric

// addTo computes dst[i] += src[i] for i < len(dst); len(src) must be at
// least len(dst). SSE2, in kernels_amd64.s.
//
//go:noescape
func addTo(dst, src []float32)

// scaleClamp computes row[j] = clamp(row[j]*f[j], lo, hi) for
// j < len(row); len(f) must be at least len(row) and lo <= hi. SSE2, in
// kernels_amd64.s.
//
//go:noescape
func scaleClamp(row, f []float32, lo, hi float32)

package numeric

// addToGeneric is the portable form of addTo: dst[i] += src[i] for
// i < len(dst), unrolled over four-element blocks with explicit capacity
// slicing so the compiler drops the per-element bounds checks. It is the
// fallback where the assembly does not build and the reference the
// assembly is tested against bit for bit.
func addToGeneric(dst, src []float32) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// scaleClampGeneric is the portable form of scaleClamp: each row
// element gets one multiply by its factor and then the clamp into
// [lo, hi].
func scaleClampGeneric(row, f []float32, lo, hi float32) {
	f = f[:len(row)]
	for j, v := range row {
		v *= f[j]
		if v < lo {
			v = lo
		} else if v > hi {
			v = hi
		}
		row[j] = v
	}
}

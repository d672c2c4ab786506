//go:build !amd64 || purego

package numeric

func addTo(dst, src []float32) { addToGeneric(dst, src) }

func scaleClamp(row, f []float32, lo, hi float32) { scaleClampGeneric(row, f, lo, hi) }

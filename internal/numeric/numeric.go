// Package numeric provides the small set of dense float32 vector and
// matrix kernels used by the SNN simulator.
//
// The matrices involved (up to 784 x 3600 synaptic weights) are small
// enough that cache-friendly row-major passes are fast. The two hot
// elementwise kernels, drive accumulation (AddTo) and the per-sample
// normalize+clamp (NormalizeColumnsClamp), run as SSE2 assembly on
// amd64 and as plain Go loops elsewhere or under the purego build tag.
// Both forms apply the same IEEE operations to each element in the
// same order, so results are bit-identical whichever one runs.
package numeric

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// String implements fmt.Stringer with a compact shape description.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// ColumnSums returns the per-column sums of the matrix, each taken in
// row order.
func (m *Matrix) ColumnSums() []float32 {
	sums := make([]float32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		addTo(sums, m.Row(i))
	}
	return sums
}

// NormalizeColumns rescales each column so that its sum equals target.
// Columns whose sum is zero are left untouched. This implements the
// synaptic-weight normalization used by Diehl&Cook-style SNN training to
// keep excitatory drive balanced across neurons. It is
// NormalizeColumnsClamp without bounds: the same single row-major pass.
func (m *Matrix) NormalizeColumns(target float32) {
	m.NormalizeColumnsClamp(target, float32(math.Inf(-1)), float32(math.Inf(1)))
}

// NormalizeColumnsClamp rescales each column so that its sum equals
// target, then limits every element into [lo, hi], in one row-major
// pass over the matrix. The column sums are taken before any scaling,
// and each element gets one multiply by its column's factor and then
// the clamp, so the result equals a column-by-column normalization
// followed by a separate clamp pass, bit for bit. A zero-sum column
// uses the factor 1, which leaves its elements unchanged (x*1 == x).
// It panics unless lo <= hi (a NaN bound included).
func (m *Matrix) NormalizeColumnsClamp(target, lo, hi float32) {
	if !(lo <= hi) {
		panic("numeric: NormalizeColumnsClamp needs lo <= hi")
	}
	factors := m.ColumnSums()
	for j, s := range factors {
		if s == 0 {
			factors[j] = 1
		} else {
			factors[j] = target / s
		}
	}
	for i := 0; i < m.Rows; i++ {
		scaleClamp(m.Row(i), factors, lo, hi)
	}
}

// Vector helpers ------------------------------------------------------------

// Fill32 sets every element of x to v.
func Fill32(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// AddTo computes dst[i] += src[i] for every element. It is the inner
// kernel of the SNN's synaptic-drive accumulation (one call per active
// input per timestep). Each dst element receives exactly one addition of
// the matching src element, so results are bit-identical to a plain
// loop whichever kernel runs.
func AddTo(dst, src []float32) {
	if len(src) != len(dst) {
		panic("numeric: AddTo length mismatch")
	}
	addTo(dst, src)
}

// DecayExp multiplies every element of x by the factor exp(-dt/tau),
// the exact Euler-exponential decay used by the LIF traces.
func DecayExp(x []float32, dt, tau float64) {
	f := float32(math.Exp(-dt / tau))
	for i := range x {
		x[i] *= f
	}
}

// Clamp32 limits v into [lo, hi].
func Clamp32(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Percentile returns the p-th percentile (0..100) of x using linear
// interpolation on a sorted copy. Returns NaN for empty input.
func Percentile(x []float32, p float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(x))
	for i, v := range x {
		s[i] = float64(v)
	}
	insertionSort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func insertionSort(s []float64) {
	// Shell sort: no allocations, adequate for the analysis-sized slices
	// this package deals with.
	n := len(s)
	gap := 1
	for gap < n/3 {
		gap = gap*3 + 1
	}
	for ; gap > 0; gap /= 3 {
		for i := gap; i < n; i++ {
			v := s[i]
			j := i
			for j >= gap && s[j-gap] > v {
				s[j] = s[j-gap]
				j -= gap
			}
			s[j] = v
		}
	}
}

// ApproxEqual reports whether a and b differ by at most tol.
func ApproxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// RelErr returns |a-b| / max(|b|, eps): the relative error of a vs b.
func RelErr(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1e-30 {
		den = 1e-30
	}
	return math.Abs(a-b) / den
}

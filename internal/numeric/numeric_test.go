package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("NewMatrix(3, 4) = %dx%d with %d elements", m.Rows, m.Cols, len(m.Data))
	}
	m.Data[1*4+2] = 5
	row := m.Row(1)
	if len(row) != 4 || row[2] != 5 {
		t.Fatal("Row aliasing failed")
	}
	row[0] = 9
	if m.Data[1*4+0] != 9 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Data[0] = 1
	c := m.Clone()
	c.Data[0] = 7
	if m.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

// normalizeThenClampReference is the two-pass form NormalizeColumnsClamp
// replaces: a column-by-column rescale that skips zero-sum columns, then
// a separate clamp pass over every element.
func normalizeThenClampReference(m *Matrix, target, lo, hi float32) {
	for j, s := range m.ColumnSums() {
		if s == 0 {
			continue
		}
		f := target / s
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] *= f
		}
	}
	for i, v := range m.Data {
		if v < lo {
			m.Data[i] = lo
		} else if v > hi {
			m.Data[i] = hi
		}
	}
}

func TestNormalizeColumnsClamp(t *testing.T) {
	m := NewMatrix(3, 1)
	copy(m.Data, []float32{-5, 0.5, 5.5})
	m.NormalizeColumnsClamp(1, 0, 0.5)
	// The column sums to 1, so only the clamp moves elements.
	if m.Data[0] != 0 || m.Data[1] != 0.5 || m.Data[2] != 0.5 {
		t.Fatalf("NormalizeColumnsClamp = %v", m.Data)
	}

	// Bit-identical to the two-pass reference on a matrix with a
	// zero-sum column, negative weights and elements beyond both bounds.
	const rows, cols = 37, 9
	a, b := NewMatrix(rows, cols), NewMatrix(rows, cols)
	v := uint64(12345)
	for i := range a.Data {
		v = v*6364136223846793005 + 1442695040888963407
		if i%cols == 3 {
			continue // column 3 sums to zero
		}
		a.Data[i] = float32(int64(v>>40)%2000-300) / 700
	}
	a.Data[5*cols+3] = float32(math.Copysign(0, -1)) // a negative zero in the zero-sum column must survive
	copy(b.Data, a.Data)
	a.NormalizeColumnsClamp(4, 0, 0.3)
	normalizeThenClampReference(b, 4, 0, 0.3)
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("element %d: %v, reference %v", i, a.Data[i], b.Data[i])
		}
	}
}

func TestNormalizeColumns(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float32{1, 0, 3, 0})
	m.NormalizeColumns(8)
	sums := m.ColumnSums()
	if math.Abs(float64(sums[0]-8)) > 1e-5 {
		t.Errorf("column 0 sum = %v, want 8", sums[0])
	}
	// Zero column must be left untouched, not NaN.
	if sums[1] != 0 {
		t.Errorf("zero column sum = %v, want 0", sums[1])
	}
	for _, v := range m.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NormalizeColumns produced NaN")
		}
	}
}

func TestDecayExp(t *testing.T) {
	x := []float32{1, 2}
	DecayExp(x, 1, 1)
	f := float32(math.Exp(-1))
	if math.Abs(float64(x[0]-f)) > 1e-6 || math.Abs(float64(x[1]-2*f)) > 1e-6 {
		t.Fatalf("DecayExp = %v", x)
	}
}

func TestPercentile(t *testing.T) {
	x := []float32{4, 1, 3, 2}
	if v := Percentile(x, 0); v != 1 {
		t.Errorf("P0 = %v", v)
	}
	if v := Percentile(x, 100); v != 4 {
		t.Errorf("P100 = %v", v)
	}
	if v := Percentile(x, 50); math.Abs(v-2.5) > 1e-9 {
		t.Errorf("P50 = %v, want 2.5", v)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	x := []float32{3, 1, 2}
	Percentile(x, 50)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Fatal("Percentile must not reorder its input")
	}
}

func TestClamp32(t *testing.T) {
	if Clamp32(-1, 0, 1) != 0 || Clamp32(2, 0, 1) != 1 || Clamp32(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp32 failed")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(1.1, 1.0) > 0.11 || RelErr(1.1, 1.0) < 0.09 {
		t.Errorf("RelErr = %v", RelErr(1.1, 1.0))
	}
	if RelErr(0, 0) != 0 {
		t.Errorf("RelErr(0,0) = %v", RelErr(0, 0))
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.05, 0.1) || ApproxEqual(1.0, 1.2, 0.1) {
		t.Fatal("ApproxEqual failed")
	}
}

// Property: NormalizeColumns makes every nonzero column sum to the target.
func TestNormalizeColumnsProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		rows := int(seed%7) + 2
		cols := int(seed%5) + 2
		m := NewMatrix(rows, cols)
		v := uint64(seed)
		for i := range m.Data {
			v = v*6364136223846793005 + 1442695040888963407
			m.Data[i] = float32(v%1000) / 100
		}
		m.NormalizeColumns(10)
		for _, s := range m.ColumnSums() {
			if s != 0 && math.Abs(float64(s)-10) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: after NormalizeColumnsClamp the bounds hold for all elements.
func TestNormalizeColumnsClampProperty(t *testing.T) {
	f := func(vals []float32) bool {
		m := &Matrix{Rows: len(vals), Cols: 1, Data: append([]float32(nil), vals...)}
		m.NormalizeColumnsClamp(3, -1, 1)
		for _, v := range m.Data {
			if v < -1 || v > 1 {
				// NaN stays NaN; treat as pass-through (documented behaviour
				// is only defined for finite inputs).
				if !math.IsNaN(float64(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

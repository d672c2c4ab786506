package mapping

import (
	"errors"
	"fmt"
	"testing"

	"sparkxd/internal/dram"
	"sparkxd/internal/memctrl"
)

func TestUnitsFor(t *testing.T) {
	if UnitsFor(64, 32) != 2 || UnitsFor(65, 32) != 3 || UnitsFor(1, 32) != 1 {
		t.Fatal("UnitsFor rounding wrong")
	}
}

func TestBaselineSequentialWithinBank(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, err := Baseline(g, 3*g.Columns)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// First row fills columns 0..Columns-1 of row 0, then row 1.
	for u := 0; u < g.Columns; u++ {
		c := l.CoordOf(u)
		if c.Row != 0 || c.Column != u || c.Bank != 0 || c.Subarray != 0 {
			t.Fatalf("unit %d at %v, want su0 ro0 co%d", u, c, u)
		}
	}
	if l.CoordOf(g.Columns).Row != 1 {
		t.Fatal("baseline must advance to the next row of the same subarray")
	}
	if l.BanksUsed() != 1 {
		t.Fatal("small baseline image must stay in one bank")
	}
}

func TestBaselineSpillsToNextBank(t *testing.T) {
	g := dram.SmallTestGeometry()
	perBank := g.Subarrays * g.Rows * g.Columns
	l, err := Baseline(g, perBank+1)
	if err != nil {
		t.Fatal(err)
	}
	last := l.CoordOf(perBank)
	if last.Bank != 1 || last.Subarray != 0 || last.Row != 0 || last.Column != 0 {
		t.Fatalf("bank spill went to %v", last)
	}
}

func TestBaselineRejectsOversize(t *testing.T) {
	g := dram.SmallTestGeometry()
	if _, err := Baseline(g, int(g.TotalColumns())+1); err == nil {
		t.Fatal("oversize image must error")
	}
	if _, err := Baseline(g, -1); err == nil {
		t.Fatal("negative units must error")
	}
}

func TestSparkXDInterleavesBanks(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, err := SparkXD(g, 4*g.Columns, AllSafe(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Units fill a full row in bank 0, then the same row in bank 1, ...
	first := l.CoordOf(0)
	second := l.CoordOf(g.Columns)
	if first.Bank != 0 || second.Bank != 1 {
		t.Fatalf("expected bank advance after one row: %v then %v", first, second)
	}
	if second.Row != first.Row || second.Subarray != first.Subarray {
		t.Fatal("bank advance must keep the same row and subarray index")
	}
	if l.BanksUsed() != 4 {
		t.Fatalf("BanksUsed = %d, want 4", l.BanksUsed())
	}
}

func TestSparkXDSkipsUnsafeSubarrays(t *testing.T) {
	g := dram.SmallTestGeometry()
	safe := AllSafe(g)
	// Mark subarray 0 of every bank of chip 0/rank 0/channel 0 unsafe.
	for ba := 0; ba < g.Banks; ba++ {
		id := dram.SubarrayID{Bank: ba, Subarray: 0}
		safe[id.Linear(g)] = false
	}
	l, err := SparkXD(g, 2*g.Columns, safe)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < l.Units(); u++ {
		c := l.CoordOf(u)
		if c.Channel == 0 && c.Rank == 0 && c.Chip == 0 && c.Subarray == 0 {
			t.Fatalf("unit %d placed in unsafe subarray: %v", u, c)
		}
	}
}

func TestSparkXDInsufficientCapacity(t *testing.T) {
	g := dram.SmallTestGeometry()
	safe := make([]bool, g.SubarrayCount()) // nothing safe
	safe[0] = true
	oneSub := g.Rows * g.Columns
	if _, err := SparkXD(g, oneSub, safe); err != nil {
		t.Fatalf("exactly one subarray of data should fit: %v", err)
	}
	_, err := SparkXD(g, oneSub+1, safe)
	if !errors.Is(err, ErrInsufficientSafeCapacity) {
		t.Fatalf("want ErrInsufficientSafeCapacity, got %v", err)
	}
	// The message reports the whole safe capacity as placed.
	want := fmt.Sprintf("mapping: safe subarrays cannot hold the image: placed %d of %d units", oneSub, oneSub+1)
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
	_, err = SparkXD(g, 1, make([]bool, g.SubarrayCount()))
	if !errors.Is(err, ErrInsufficientSafeCapacity) ||
		err.Error() != "mapping: safe subarrays cannot hold the image: placed 0 of 1 units" {
		t.Fatalf("empty safe set: got %v", err)
	}
}

func TestSparkXDRejectsBadSafeLength(t *testing.T) {
	g := dram.SmallTestGeometry()
	if _, err := SparkXD(g, 1, make([]bool, 3)); err == nil {
		t.Fatal("wrong safe length must error")
	}
}

func TestLayoutValidateCatchesDuplicates(t *testing.T) {
	g := dram.SmallTestGeometry()
	l := &Layout{Geom: g, unitBytes: g.ColumnBytes,
		coords: []dram.Coord{{}, {}}}
	if l.Validate() == nil {
		t.Fatal("duplicate coords must fail validation")
	}
}

func TestOccupancyBySubarray(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, _ := Baseline(g, g.Columns*2) // two rows of subarray 0
	occ := l.OccupancyBySubarray()
	if occ[0] != 2*g.Columns {
		t.Fatalf("occ[0] = %d", occ[0])
	}
	total := 0
	for _, o := range occ {
		total += o
	}
	if total != l.Units() {
		t.Fatal("occupancy must sum to unit count")
	}
}

// The headline behavioural claim: replaying the SparkXD stream achieves a
// hit rate at least as high as baseline and is not slower (Fig. 12(b)).
func TestSparkXDStreamNotSlowerThanBaseline(t *testing.T) {
	g := dram.SmallTestGeometry()
	tm := dram.NominalTiming()
	units := 6 * g.Columns * g.Banks // several rows per bank

	base, err := Baseline(g, units)
	if err != nil {
		t.Fatal(err)
	}
	spark, err := SparkXD(g, units, AllSafe(g))
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := memctrl.New(g, tm)
	cs, _ := memctrl.New(g, tm)
	sb := cb.ReplayReads(base.AccessStream())
	ss := cs.ReplayReads(spark.AccessStream())

	if ss.TotalNs > sb.TotalNs {
		t.Errorf("sparkxd stream slower: %v ns vs baseline %v ns", ss.TotalNs, sb.TotalNs)
	}
	if ss.HitRate() < sb.HitRate()-1e-9 {
		t.Errorf("sparkxd hit rate %v below baseline %v", ss.HitRate(), sb.HitRate())
	}
}

func TestInterleavedEqualsSparkXDAllSafe(t *testing.T) {
	g := dram.SmallTestGeometry()
	a, err := Interleaved(g, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SparkXD(g, 100, AllSafe(g))
	for u := 0; u < 100; u++ {
		if a.CoordOf(u) != b.CoordOf(u) {
			t.Fatal("Interleaved must equal SparkXD with all subarrays safe")
		}
	}
}

func TestPolicyNames(t *testing.T) {
	g := dram.SmallTestGeometry()
	b, _ := Baseline(g, 1)
	s, _ := SparkXD(g, 1, AllSafe(g))
	if b.Policy != "baseline" || s.Policy != "sparkxd" {
		t.Fatal("policy labels wrong")
	}
}

func TestSubarraysUsed(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, _ := Baseline(g, g.Columns*g.Rows+1) // just spills into subarray 1
	if l.SubarraysUsed() != 2 {
		t.Fatalf("SubarraysUsed = %d, want 2", l.SubarraysUsed())
	}
}

func TestAccessStreamSharesCoords(t *testing.T) {
	g := dram.SmallTestGeometry()
	l, _ := Baseline(g, 10)
	s := l.AccessStream()
	if len(s) != 10 || s[0] != l.CoordOf(0) {
		t.Fatal("AccessStream must be the placement in image order")
	}
}

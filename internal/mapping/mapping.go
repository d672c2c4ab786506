// Package mapping places serialized weight images into DRAM.
//
// Two policies are implemented, matching the paper's evaluation:
//
//   - Baseline (Sec. IV-B, Step-2): weights occupy subsequent addresses in
//     a DRAM bank to exploit burst access; when a bank is full, the next
//     bank of the same chip is used. This is the layout the baseline SNN
//     and the fault-aware training error injection assume.
//
//   - SparkXD (Sec. IV-D, Algorithm 2): weights are placed only in *safe*
//     subarrays (error rate <= BERth), filling the same row index across
//     the banks of a chip first (maximizing row-buffer hits and enabling
//     the multi-bank burst overlap of Fig. 9(b)), then moving to the next
//     subarray, then the next row index, then chips, ranks, and channels.
//
// A Layout records the DRAM coordinate of every column unit of the image,
// in image order. The same Layout serves three consumers: the error
// injector (which bits live in which subarray), the memory controller
// (the access stream of one inference pass), and the energy model.
package mapping

import (
	"errors"
	"fmt"

	"sparkxd/internal/dram"
)

// Layout is the placement of an image's column units in DRAM. It
// satisfies errmodel.Placement.
type Layout struct {
	Geom      dram.Geometry
	Policy    string
	unitBytes int
	coords    []dram.Coord
}

// Units returns the number of placed column units.
func (l *Layout) Units() int { return len(l.coords) }

// UnitBytes returns the size of one column unit.
func (l *Layout) UnitBytes() int { return l.unitBytes }

// CoordOf returns the DRAM coordinate of image unit u.
func (l *Layout) CoordOf(u int) dram.Coord { return l.coords[u] }

// Coords returns the full placement in image order. The slice is shared;
// callers must not mutate it.
func (l *Layout) Coords() []dram.Coord { return l.coords }

// AccessStream returns the read access sequence of one streaming pass
// over the image (inference reads weights in image order).
func (l *Layout) AccessStream() []dram.Coord { return l.coords }

// SubarraysUsed returns how many distinct subarrays hold data.
func (l *Layout) SubarraysUsed() int {
	seen := map[dram.SubarrayID]bool{}
	for _, c := range l.coords {
		seen[c.SubarrayOf()] = true
	}
	return len(seen)
}

// BanksUsed returns how many distinct banks hold data.
func (l *Layout) BanksUsed() int {
	seen := map[dram.BankID]bool{}
	for _, c := range l.coords {
		seen[c.BankOf()] = true
	}
	return len(seen)
}

// UnitsFor returns how many column units an image of the given byte size
// occupies (rounding up to whole units).
func UnitsFor(imageBytes, unitBytes int) int {
	return (imageBytes + unitBytes - 1) / unitBytes
}

// Baseline places units in subsequent addresses of a bank (columns, then
// rows, then subarrays), moving to the next bank when one fills — the
// paper's baseline mapping. It errors if the image exceeds the device.
func Baseline(geom dram.Geometry, units int) (*Layout, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: geometry: %w", err)
	}
	if units < 0 {
		return nil, errors.New("mapping: negative unit count")
	}
	if int64(units) > geom.TotalColumns() {
		return nil, fmt.Errorf("mapping: image (%d units) exceeds device (%d units)",
			units, geom.TotalColumns())
	}
	coords := make([]dram.Coord, units)
	// The linear Encode order is exactly ch,ra,cp,ba,su,ro,co — i.e.
	// sequential fill within a bank, then next bank.
	for u := 0; u < units; u++ {
		coords[u] = geom.Decode(int64(u))
	}
	return &Layout{Geom: geom, Policy: "baseline", unitBytes: geom.ColumnBytes, coords: coords}, nil
}

// ErrInsufficientSafeCapacity is returned by SparkXD when the safe
// subarrays cannot hold the image; callers typically relax BERth (pick a
// lower supply voltage or re-run the tolerance analysis).
var ErrInsufficientSafeCapacity = errors.New("mapping: safe subarrays cannot hold the image")

// SparkXD implements Algorithm 2 of the paper. safe flags one entry per
// subarray (dram.SubarrayID.Linear order); units is the image size in
// column units. The loop nest follows the paper exactly:
//
//	for ch { for ra { for cp { for ro { for su { for ba {
//	    if subarray_rate[ch,ra,cp,ba,su] <= BERth {
//	        for co { DRAM[ch,ra,cp,ba,su,ro,co] <- data }
//	    }
//	}}}}}}
//
// Iterating banks innermost (before columns advance to the next subarray
// or row) interleaves consecutive image units across banks at the same
// row index, which is what maximizes row-buffer hits per bank and lets
// multi-bank bursts overlap row activations.
func SparkXD(geom dram.Geometry, units int, safe []bool) (*Layout, error) {
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: geometry: %w", err)
	}
	if len(safe) != geom.SubarrayCount() {
		return nil, fmt.Errorf("mapping: safe flags length %d, want %d",
			len(safe), geom.SubarrayCount())
	}
	if units < 0 {
		return nil, errors.New("mapping: negative unit count")
	}
	// Every column of every row of a safe subarray holds one unit, so a
	// safe set too small for the image is known before the walk.
	safeCount := 0
	for _, ok := range safe {
		if ok {
			safeCount++
		}
	}
	if capacity := safeCount * geom.Rows * geom.Columns; capacity < units {
		return nil, fmt.Errorf("%w: placed %d of %d units",
			ErrInsufficientSafeCapacity, capacity, units)
	}
	coords := make([]dram.Coord, 0, units)

placement:
	for ch := 0; ch < geom.Channels; ch++ {
		for ra := 0; ra < geom.Ranks; ra++ {
			for cp := 0; cp < geom.Chips; cp++ {
				for ro := 0; ro < geom.Rows; ro++ {
					for su := 0; su < geom.Subarrays; su++ {
						for ba := 0; ba < geom.Banks; ba++ {
							id := dram.SubarrayID{Channel: ch, Rank: ra, Chip: cp, Bank: ba, Subarray: su}
							if !safe[id.Linear(geom)] {
								continue
							}
							for co := 0; co < geom.Columns; co++ {
								if len(coords) == units {
									break placement
								}
								coords = append(coords, dram.Coord{
									Channel: ch, Rank: ra, Chip: cp,
									Bank: ba, Subarray: su, Row: ro, Column: co,
								})
							}
						}
					}
				}
			}
		}
	}
	return &Layout{Geom: geom, Policy: "sparkxd", unitBytes: geom.ColumnBytes, coords: coords}, nil
}

// AllSafe returns a safe-flag slice marking every subarray usable —
// useful for isolating the mapping-order effect from the safety filter.
func AllSafe(geom dram.Geometry) []bool {
	s := make([]bool, geom.SubarrayCount())
	for i := range s {
		s[i] = true
	}
	return s
}

// Interleaved places units round-robin across banks at sequential
// row/column positions without a safety filter. It is the classic
// bank-interleaved layout used as an ablation between Baseline and
// SparkXD (it shares SparkXD's bank overlap but not its error awareness).
func Interleaved(geom dram.Geometry, units int) (*Layout, error) {
	return SparkXD(geom, units, AllSafe(geom))
}

// Validate checks that every coordinate is inside the geometry and that
// no column unit is used twice (a layout must be an injection).
func (l *Layout) Validate() error {
	seen := make(map[int64]struct{}, len(l.coords))
	for u, c := range l.coords {
		if !c.Valid(l.Geom) {
			return fmt.Errorf("mapping: unit %d at invalid coord %v", u, c)
		}
		k := l.Geom.Encode(c)
		if _, dup := seen[k]; dup {
			return fmt.Errorf("mapping: unit %d reuses coord %v", u, c)
		}
		seen[k] = struct{}{}
	}
	return nil
}

// OccupancyBySubarray returns unit counts per linear subarray index.
func (l *Layout) OccupancyBySubarray() []int {
	occ := make([]int, l.Geom.SubarrayCount())
	for _, c := range l.coords {
		occ[c.SubarrayOf().Linear(l.Geom)]++
	}
	return occ
}

package privacy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"
	"testing"

	"eyewnder/internal/sketch"
)

// indexFills are the aggregates the index count is checked on: empty,
// saturated, reported IDs (half drawn below 20000 so every ID space
// sees some), and sparse random cells whose zeros fall at every row.
var indexFills = []struct {
	name string
	fill func(r *mrand.Rand, c *sketch.CMS)
}{
	{"zero", func(*mrand.Rand, *sketch.CMS) {}},
	{"saturated", func(_ *mrand.Rand, c *sketch.CMS) {
		cells := c.FlatCells()
		for i := range cells {
			cells[i] = math.MaxUint64
		}
	}},
	{"reported", func(r *mrand.Rand, c *sketch.CMS) {
		var key [8]byte
		for i := 0; i < 600; i++ {
			space := int64(1 << 20)
			if i%2 == 0 {
				space = 20000
			}
			binary.LittleEndian.PutUint64(key[:], uint64(r.Int63n(space)))
			c.Update(key[:])
		}
	}},
	{"sparse", func(r *mrand.Rand, c *sketch.CMS) {
		cells := c.FlatCells()
		for i := range cells {
			if r.Intn(4) == 0 {
				cells[i] = uint64(1 + r.Intn(3))
			}
		}
	}},
}

// TestIDIndexCountMatchesUserCounts holds the server's close-time count
// (an IDIndex's NonZero) equal to the reference walk UserCounts and to
// a generic-Query walk, across depths, widths up to the index cap, ID
// spaces at and around the width, two layout seeds, and empty,
// saturated, reported and sparse aggregates.
func TestIDIndexCountMatchesUserCounts(t *testing.T) {
	const maxIDs = 1 << 20
	r := mrand.New(mrand.NewSource(13))
	for _, w := range []int{1, 2, 68, 2719, MaxWidth} {
		for _, seed := range []uint64{0, 0x9e3779b97f4a7c15} {
			spaces := []uint64{1, uint64(w - 1), 20000, maxIDs}
			idx := make(map[uint64]*sketch.IDIndex)
			for _, n := range spaces {
				x, err := sketch.NewIDIndex(w, seed, n)
				if err != nil {
					t.Fatal(err)
				}
				idx[n] = x
			}
			for _, d := range []int{1, 2, 7} {
				for _, f := range indexFills {
					agg, err := sketch.Restore(d, w, seed, 0, make([]uint64, d*w))
					if err != nil {
						t.Fatal(err)
					}
					f.fill(r, agg)
					// One generic-Query walk serves every ID space: each
					// space's reference is its prefix. A sketch dense over
					// the smaller spaces (saturated, or narrow) is not
					// walked to 2^20: the smaller spaces already cover it,
					// and the million-entry maps would dominate the test.
					ref := make([]uint64, 0, maxIDs)
					nonzero := 0
					var key [8]byte
					walk := func(to int) {
						for id := len(ref); id < to; id++ {
							binary.LittleEndian.PutUint64(key[:], uint64(id))
							v := agg.Query(key[:])
							if v != 0 {
								nonzero++
							}
							ref = append(ref, v)
						}
					}
					walk(max(20000, w-1))
					dense := nonzero > len(ref)/8
					if !dense {
						walk(maxIDs)
					}
					for _, n := range spaces {
						if n == maxIDs && dense {
							continue
						}
						where := fmt.Sprintf("d=%d w=%d seed=%#x IDSpace=%d %s", d, w, seed, n, f.name)
						got, err := idx[n].NonZero(agg)
						if err != nil {
							t.Fatal(err)
						}
						checkCounts(t, where+": index count", got, ref[:n])
						checkCounts(t, where+": UserCounts", UserCounts(agg, Params{IDSpace: n}), ref[:n])
					}
				}
			}
		}
	}
}

// checkCounts fails unless got holds exactly the nonzero entries of
// ref, keyed by index.
func checkCounts(t *testing.T, what string, got map[uint64]uint64, ref []uint64) {
	t.Helper()
	nonzero := 0
	for id, v := range ref {
		if v == 0 {
			continue
		}
		nonzero++
		if got[uint64(id)] != v {
			t.Fatalf("%s: ID %d = %d, generic Query %d", what, id, got[uint64(id)], v)
		}
	}
	if len(got) != nonzero {
		t.Fatalf("%s: %d IDs, generic Query walk %d", what, len(got), nonzero)
	}
}

func TestCheckGeometry(t *testing.T) {
	for _, tc := range []struct {
		eps, delta float64
		ok         bool
	}{
		{0.001, 0.001, true},    // the paper's 7 × 2719
		{0.001, 1e-300, true},   // 691 × 2719: 15.0 MB, inside the frame
		{4.2e-5, 0.5, true},     // w = 64723
		{0.0008, 1e-300, false}, // 691 × 3398: 18.8 MB
		{0.001, 5e-324, false},  // ⌈ln(1/δ)⌉ is +Inf
		{4.1e-5, 0.5, false},    // w = 66300 > MaxWidth
		{1e-6, 0.5, false},
		{1e-300, 0.5, false}, // ⌈e/ε⌉ overflows int
		{5e-324, 0.5, false}, // ⌈e/ε⌉ is +Inf
	} {
		err := CheckGeometry(tc.eps, tc.delta)
		var ge *GeometryError
		if tc.ok != (err == nil) || (!tc.ok && !errors.As(err, &ge)) {
			t.Errorf("CheckGeometry(%g, %g) = %v, want ok=%v or a *GeometryError", tc.eps, tc.delta, err, tc.ok)
		}
	}
	if err := CheckGeometry(0, 0.5); !errors.Is(err, sketch.ErrBadParams) {
		t.Errorf("CheckGeometry(0, 0.5) = %v, want sketch.ErrBadParams", err)
	}
}

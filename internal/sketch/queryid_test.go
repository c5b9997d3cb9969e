package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// le64 is the canonical 8-byte key of an ad ID.
func le64(id uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id)
	return b[:]
}

// naiveMin is the reference estimate: the plain minimum over the cells
// Indexes names, with no early exit.
func naiveMin(c *CMS, key []byte) uint64 {
	min := uint64(math.MaxUint64)
	for j, col := range c.Indexes(key, nil) {
		if v := c.Cell(j, col); v < min {
			min = v
		}
	}
	return min
}

// cellFills are the cell contents the equivalence checks run against:
// empty, saturated, dense random, and sparse small counts (mostly zeros,
// so the early exit fires at every row depth).
var cellFills = []struct {
	name string
	fill func(r *rand.Rand, cells []uint64)
}{
	{"zero", func(*rand.Rand, []uint64) {}},
	{"max", func(_ *rand.Rand, cells []uint64) {
		for i := range cells {
			cells[i] = math.MaxUint64
		}
	}},
	{"random", func(r *rand.Rand, cells []uint64) {
		for i := range cells {
			cells[i] = r.Uint64()
		}
	}},
	{"sparse", func(r *rand.Rand, cells []uint64) {
		for i := range cells {
			if r.Intn(4) == 0 {
				cells[i] = uint64(1 + r.Intn(3))
			}
		}
	}},
}

// TestQueryIDMatchesQuery checks QueryID(id) == Query(le64(id)) for every
// id in [0, 2^16) and a seeded sample of the full uint64 range, across
// depths, widths (including 1, 2 and a non-power-of-two above 2^17) and
// cell fills, under both the default and a non-zero layout seed.
func TestQueryIDMatchesQuery(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ids := make([]uint64, 0, 1<<16+4096)
	for id := uint64(0); id < 1<<16; id++ {
		ids = append(ids, id)
	}
	for i := 0; i < 4096; i++ {
		ids = append(ids, r.Uint64())
	}
	ids = append(ids, math.MaxUint64, 1<<32, 1<<63)
	for _, d := range []int{1, 2, 7} {
		for _, w := range []int{1, 2, 68, 2719, 1<<17 + 3} {
			for fi, f := range cellFills {
				seed := uint64(0) // the CMS default on even fills
				if fi%2 == 1 {
					seed = r.Uint64()
				}
				c, err := Restore(d, w, seed, 0, make([]uint64, d*w))
				if err != nil {
					t.Fatal(err)
				}
				f.fill(r, c.FlatCells())
				for _, id := range ids {
					key := le64(id)
					got, want := c.QueryID(id), c.Query(key)
					if got != want {
						t.Fatalf("d=%d w=%d %s seed=%#x: QueryID(%#x) = %d, Query = %d", d, w, f.name, seed, id, got, want)
					}
					if id < 256 {
						if ref := naiveMin(c, key); want != ref {
							t.Fatalf("d=%d w=%d %s: Query(%#x) = %d, naive min = %d", d, w, f.name, id, want, ref)
						}
					}
				}
			}
		}
	}
}

func FuzzQueryID(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(7), uint16(2718), int64(1))
	f.Add(uint64(math.MaxUint64), uint64(0x243f6a8885a308d3), uint8(0), uint16(0), int64(2))
	f.Add(uint64(1<<20-1), uint64(1), uint8(1), uint16(67), int64(3))
	f.Fuzz(func(t *testing.T, id, seed uint64, d8 uint8, w16 uint16, fill int64) {
		d, w := 1+int(d8%8), 1+int(w16%4096)
		c, err := Restore(d, w, seed, 0, make([]uint64, d*w))
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(fill))
		cellFills[int(uint64(fill)%uint64(len(cellFills)))].fill(r, c.FlatCells())
		key := le64(id)
		got, want := c.QueryID(id), c.Query(key)
		if got != want {
			t.Fatalf("d=%d w=%d seed=%#x: QueryID(%#x) = %d, Query = %d", d, w, seed, id, got, want)
		}
		if ref := naiveMin(c, key); want != ref {
			t.Fatalf("d=%d w=%d seed=%#x: Query(%#x) = %d, naive min = %d", d, w, seed, id, want, ref)
		}
	})
}

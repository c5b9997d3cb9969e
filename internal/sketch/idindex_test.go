package sketch

import (
	"errors"
	"math/rand"
	"testing"
)

// naiveNonZero is the reference for IDIndex.NonZero: the generic Query
// of every ID in [0, n), keeping the nonzero estimates.
func naiveNonZero(c *CMS, n uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for id := uint64(0); id < n; id++ {
		if v := c.Query(le64(id)); v > 0 {
			out[id] = v
		}
	}
	return out
}

func checkNonZero(t *testing.T, x *IDIndex, c *CMS, n uint64, what string) {
	t.Helper()
	got, err := x.NonZero(c)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := naiveNonZero(c, n)
	if len(got) != len(want) {
		t.Fatalf("%s: index count has %d IDs, generic Query walk %d", what, len(got), len(want))
	}
	for id, v := range want {
		if got[id] != v {
			t.Fatalf("%s: ID %d = %d, generic Query %d", what, id, got[id], v)
		}
	}
}

func TestIDIndexBoundsAndLayout(t *testing.T) {
	for _, tc := range []struct {
		w int
		n uint64
	}{{0, 10}, {MaxIndexWidth + 1, 10}, {68, MaxIndexIDs + 1}} {
		if _, err := NewIDIndex(tc.w, 0, tc.n); err == nil {
			t.Errorf("NewIDIndex(w=%d, n=%d) succeeded", tc.w, tc.n)
		}
	}
	x, err := NewIDIndex(68, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := x.Bytes(), 6*1000+4*69; got != want {
		t.Errorf("Bytes() = %d, want %d (6 B per ID plus w+1 offsets)", got, want)
	}
	for _, c := range []*CMS{
		mustRestore(t, 2, 67, 3), // other width
		mustRestore(t, 2, 68, 4), // other seed
	} {
		if _, err := x.NonZero(c); !errors.Is(err, ErrDimensionMismatch) {
			t.Errorf("NonZero over %v with seed %d: err = %v, want ErrDimensionMismatch", c, c.Seed(), err)
		}
	}
	// An index serves every depth of its layout.
	for _, d := range []int{1, 2, 7} {
		c := mustRestore(t, d, 68, 3)
		cellFills[3].fill(rand.New(rand.NewSource(int64(d))), c.FlatCells())
		checkNonZero(t, x, c, 1000, "sparse")
	}
}

func mustRestore(t testing.TB, d, w int, seed uint64) *CMS {
	c, err := Restore(d, w, seed, 0, make([]uint64, d*w))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func FuzzIDIndex(f *testing.F) {
	f.Add(uint64(0), uint8(7), uint16(2718), uint16(20000), int64(1))
	f.Add(uint64(0x243f6a8885a308d3), uint8(0), uint16(0), uint16(1), int64(2))
	f.Add(uint64(1), uint8(1), uint16(67), uint16(67), int64(3))
	f.Add(uint64(7), uint8(6), uint16(65535), uint16(4096), int64(4))
	f.Fuzz(func(t *testing.T, seed uint64, d8 uint8, w16 uint16, n16 uint16, fill int64) {
		d, w, n := 1+int(d8%8), 1+int(w16), uint64(n16)
		x, err := NewIDIndex(w, seed, n)
		if err != nil {
			t.Fatal(err)
		}
		c := mustRestore(t, d, w, seed)
		r := rand.New(rand.NewSource(fill))
		cellFills[int(uint64(fill)%uint64(len(cellFills)))].fill(r, c.FlatCells())
		checkNonZero(t, x, c, n, "fuzz")
	})
}

package sketch

import (
	"encoding/binary"
	"testing"
)

// The golden vectors pin the cell layout: hash128's output for fixed
// seeds and keys of every length 0–17 (empty, a partial tail, one full
// word, a word plus a tail, two words, two words plus a tail), and the
// column Indexes derives per row at the paper geometry (d = 7,
// w = 2719), for byte keys and for 8-byte ad-ID keys. They are the
// layout every deployed client computes, so they change only with a
// protocol round version bump (see hash128); a refactor that moves any
// client's cells fails here instead of silently corrupting blinded
// aggregation.

// goldenKey is the key whose n-byte prefixes the vectors hash.
var goldenKey = []byte{0xa5, 0xb8, 0x9f, 0xf2, 0xd1, 0x34, 0x0b, 0x6e, 0x4d, 0xa0, 0x87, 0x9a, 0xf9, 0xdc, 0x33, 0x16, 0x75}

// goldenSeed is the non-zero layout seed of the vectors (the other is 0,
// the CMS default).
const goldenSeed = 0x243f6a8885a308d3

var hash128Golden = []struct {
	seed   uint64
	n      int
	h1, h2 uint64
}{
	{0x0, 0, 0x9b2c32e37072322f, 0x8b43a7aa114175a6},
	{0x0, 1, 0xe012c722553f4fff, 0x687c887f9abaec87},
	{0x0, 2, 0x8fba919838d58c1a, 0xaaed13e6750f91d3},
	{0x0, 3, 0x47b07e74921dd8d5, 0x43a2a261a6d9df59},
	{0x0, 4, 0xe5c3bbc11d68ab43, 0xb6e7976a1b34932f},
	{0x0, 5, 0xa6aebf271024ff51, 0x5ca421eeb7f28297},
	{0x0, 6, 0x7027ca18f0e4b57b, 0x28ef95f37af4849f},
	{0x0, 7, 0xc17f88997083e8be, 0x80d8b2ec3df37989},
	{0x0, 8, 0xee97d4882a3bbb34, 0xa7bfda162616ded4},
	{0x0, 9, 0x01b4d28c57f911ac, 0x2ccba9a9edddb944},
	{0x0, 10, 0x3b91a665796edaee, 0xe47a24ee0de7ba7b},
	{0x0, 11, 0xb8d2258986fbe4f1, 0xb338f414889dfd5c},
	{0x0, 12, 0xed8eea74105f9c8a, 0xda9078203c8c65ba},
	{0x0, 13, 0x125ddf8395ef2b5d, 0x11d3f890a2366e40},
	{0x0, 14, 0x6d9cea94cd711e2d, 0xc62ec9044960c31d},
	{0x0, 15, 0xd3c8a865342f08e9, 0x9118b2ce0bf7202d},
	{0x0, 16, 0x009837f225b6cc88, 0xf3b26aaec853a461},
	{0x0, 17, 0x6fa27769ab9e4a0c, 0x94cca54fab5dd7a3},
	{goldenSeed, 0, 0xab8dfa52007ef268, 0xea343b214662e2fa},
	{goldenSeed, 1, 0xf01bb8e3094618ec, 0x0cb1f2ec4564441a},
	{goldenSeed, 2, 0x6f682bdc9d907168, 0xc1acd9d7db60effc},
	{goldenSeed, 3, 0x40cf7892307b2895, 0x0244a5e080a71f6c},
	{goldenSeed, 4, 0x20a734e6dd679e92, 0x2b635baf287ac73f},
	{goldenSeed, 5, 0x6531d1b4a0d4a761, 0x8836e18eecf74fe4},
	{goldenSeed, 6, 0x2b5f5c933834474a, 0x6c48771a9a3f56f1},
	{goldenSeed, 7, 0x8d07f64892a9d5da, 0xbf4cb2c74e97fd41},
	{goldenSeed, 8, 0x62548ea671ea479b, 0x332e79b2c3379b74},
	{goldenSeed, 9, 0xba15bd37f2859e12, 0x0d9e3a8cf237a5e9},
	{goldenSeed, 10, 0x68215db1280cb289, 0xdeeda5b0a8a1e1e3},
	{goldenSeed, 11, 0x84c4ad878365fb1a, 0xf105854ce4b61c54},
	{goldenSeed, 12, 0x4842474a19154047, 0x7d84efc1105f81f6},
	{goldenSeed, 13, 0x81862a1375ab43d5, 0xa077b945cdff29bb},
	{goldenSeed, 14, 0xfbfe169e6f953210, 0xe5c90eded10b1c65},
	{goldenSeed, 15, 0x9c630fc301114005, 0xfc24efad2b9dcd53},
	{goldenSeed, 16, 0x5e17543b9f4bc2e7, 0x316b4eba959742f0},
	{goldenSeed, 17, 0x179e3b53d06c3c20, 0xe18f278b8607cd88},
}

var indexesGolden = []struct {
	seed uint64
	n    int
	cols [7]int
}{
	{0x0, 0, [7]int{2434, 1438, 442, 2165, 1169, 173, 1896}},
	{0x0, 1, [7]int{1305, 2196, 368, 1259, 2150, 322, 1213}},
	{0x0, 7, [7]int{1889, 2391, 174, 676, 1178, 1680, 2182}},
	{0x0, 8, [7]int{2656, 870, 1803, 17, 950, 1883, 97}},
	{0x0, 9, [7]int{235, 2375, 1796, 1217, 638, 59, 2199}},
	{0x0, 16, [7]int{1116, 87, 1777, 748, 2438, 1409, 380}},
	{0x0, 17, [7]int{374, 139, 2623, 2388, 2153, 1918, 1683}},
	{goldenSeed, 0, [7]int{939, 575, 211, 2566, 2202, 1838, 1474}},
	{goldenSeed, 1, [7]int{1709, 461, 1932, 684, 2155, 907, 2378}},
	{goldenSeed, 7, [7]int{1095, 1122, 1149, 1176, 1203, 1230, 1257}},
	{goldenSeed, 8, [7]int{1788, 2260, 13, 485, 957, 1429, 1901}},
	{goldenSeed, 9, [7]int{1619, 1037, 455, 2592, 2010, 1428, 846}},
	{goldenSeed, 16, [7]int{1097, 149, 1920, 972, 24, 1795, 847}},
	{goldenSeed, 17, [7]int{1278, 1065, 852, 639, 426, 213, 0}},
}

var idIndexesGolden = []struct {
	seed, id uint64
	cols     [7]int
}{
	{0x0, 0x0, [7]int{1365, 2210, 336, 1181, 2026, 152, 997}},
	{0x0, 0x1, [7]int{821, 1590, 2359, 409, 1178, 1947, 2716}},
	{0x0, 0x2, [7]int{2407, 436, 1184, 1932, 2680, 709, 1457}},
	{0x0, 0xff, [7]int{2249, 1969, 1689, 1409, 1129, 849, 569}},
	{0x0, 0x1000, [7]int{10, 1751, 773, 2514, 1536, 558, 2299}},
	{0x0, 0xfffff, [7]int{2321, 171, 740, 1309, 1878, 2447, 297}},
	{0x0, 0x100000000, [7]int{1307, 81, 1574, 348, 1841, 615, 2108}},
	{0x0, 0x123456789abcdef, [7]int{1688, 1371, 1054, 737, 420, 103, 2505}},
	{0x0, 0xffffffffffffffff, [7]int{1851, 1045, 239, 2152, 1346, 540, 2453}},
	{goldenSeed, 0x0, [7]int{233, 2499, 2046, 1593, 1140, 687, 234}},
	{goldenSeed, 0x1, [7]int{531, 2179, 1108, 37, 1685, 614, 2262}},
	{goldenSeed, 0x2, [7]int{307, 1832, 638, 2163, 969, 2494, 1300}},
	{goldenSeed, 0xff, [7]int{1441, 1437, 1433, 1429, 1425, 1421, 1417}},
	{goldenSeed, 0x1000, [7]int{1203, 976, 749, 522, 295, 68, 2560}},
	{goldenSeed, 0xfffff, [7]int{2603, 1441, 279, 1836, 674, 2231, 1069}},
	{goldenSeed, 0x100000000, [7]int{1118, 1540, 1962, 2384, 87, 509, 931}},
	{goldenSeed, 0x123456789abcdef, [7]int{586, 1683, 61, 1158, 2255, 633, 1730}},
	{goldenSeed, 0xffffffffffffffff, [7]int{479, 2708, 2218, 1728, 1238, 748, 258}},
}

func TestHash128Golden(t *testing.T) {
	for _, g := range hash128Golden {
		h1, h2 := hash128(goldenKey[:g.n], g.seed)
		if h1 != g.h1 || h2 != g.h2 {
			t.Errorf("hash128(%d-byte key, seed %#x) = (%#016x, %#016x), want (%#016x, %#016x)",
				g.n, g.seed, h1, h2, g.h1, g.h2)
		}
	}
}

// goldenCMS is an empty paper-geometry sketch under the given seed.
func goldenCMS(t *testing.T, seed uint64) *CMS {
	t.Helper()
	c, err := Restore(7, 2719, seed, 0, make([]uint64, 7*2719))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIndexesGolden(t *testing.T) {
	for _, g := range indexesGolden {
		got := goldenCMS(t, g.seed).Indexes(goldenKey[:g.n], nil)
		if [7]int(got) != g.cols {
			t.Errorf("Indexes(%d-byte key, seed %#x) = %v, want %v", g.n, g.seed, got, g.cols)
		}
	}
}

// TestIDIndexesGolden pins the cells of 8-byte ad-ID keys, and that
// QueryID reads exactly those cells: in an all-ones sketch, zeroing the
// pinned cell of any one row must drive QueryID to 0, since the walk
// stops at a zero only if it reads it.
func TestIDIndexesGolden(t *testing.T) {
	for _, g := range idIndexesGolden {
		c := goldenCMS(t, g.seed)
		var key [8]byte
		binary.LittleEndian.PutUint64(key[:], g.id)
		if got := c.Indexes(key[:], nil); [7]int(got) != g.cols {
			t.Errorf("Indexes(id %#x, seed %#x) = %v, want %v", g.id, g.seed, got, g.cols)
		}
		h1, h2 := hashID(g.id, g.seed)
		if w1, w2 := hash128(key[:], g.seed); h1 != w1 || h2 != w2 {
			t.Errorf("hashID(%#x, seed %#x) = (%#x, %#x), hash128 of its key = (%#x, %#x)", g.id, g.seed, h1, h2, w1, w2)
		}
		cells := c.FlatCells()
		for i := range cells {
			cells[i] = 1
		}
		if got := c.QueryID(g.id); got != 1 {
			t.Fatalf("QueryID(%#x) on an all-ones sketch = %d, want 1", g.id, got)
		}
		for j, col := range g.cols {
			c.SetCell(j, col, 0)
			if got := c.QueryID(g.id); got != 0 {
				t.Errorf("QueryID(%#x, seed %#x) = %d with cell (%d, %d) zeroed, want 0", g.id, g.seed, got, j, col)
			}
			c.SetCell(j, col, 1)
		}
	}
}

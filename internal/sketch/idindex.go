package sketch

import (
	"fmt"
	"runtime"
	"sync"

	"eyewnder/internal/vec"
)

// MaxIndexWidth caps the width an IDIndex can serve: row-1 columns are
// stored as uint16.
const MaxIndexWidth = 1 << 16

// MaxIndexIDs caps the ID space an IDIndex can cover: IDs and bucket
// offsets are stored as uint32, and the build addresses the ID space
// with int.
const MaxIndexIDs = 1 << 31

// IDIndex is the ad-ID → cell map of one sketch layout (width w, hash
// seed) over the ID space [0, n): every ID grouped by its row-0 column,
// plus each ID's row-1 column. The map depends only on the hash, so it
// is computed once per layout and reused by every count over a sketch
// of that layout; the depth does not enter, because rows past the
// second are read from the sketch itself.
//
// It costs 6 bytes per ID (a uint32 ID and a uint16 column) plus 4
// bytes per column of offsets. An IDIndex is immutable once built and
// safe for concurrent use.
type IDIndex struct {
	w    int
	seed uint64
	n    uint64
	off  []uint32 // len w+1: bucket k is ids[off[k]:off[k+1]]
	ids  []uint32 // grouped by row-0 column, ascending within a bucket
	col1 []uint16 // row-1 column of ids[i]
}

// NewIDIndex builds the index of every ID in [0, n) for sketches of
// width w and hash seed seed. Each ID is hashed once (hashID, as
// QueryID does). The grouping is a counting sort by row-0 column split
// across cores: each worker hashes and counts its own ID range, then
// scatters it to the slots its range owns in every bucket, so buckets
// come out in ascending ID order with no shared writes.
func NewIDIndex(w int, seed, n uint64) (*IDIndex, error) {
	if w < 1 || w > MaxIndexWidth || n > MaxIndexIDs {
		return nil, fmt.Errorf("sketch: cannot index %d IDs at width %d (caps: %d IDs, width %d)",
			n, w, uint64(MaxIndexIDs), MaxIndexWidth)
	}
	x := &IDIndex{
		w: w, seed: seed, n: n,
		off:  make([]uint32, w+1),
		ids:  make([]uint32, n),
		col1: make([]uint16, n),
	}
	workers := min(runtime.GOMAXPROCS(0), max(int(n>>14), 1))
	chunk := (int(n) + workers - 1) / workers
	each := func(fn func(k, lo, hi int)) {
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			lo, hi := k*chunk, min((k+1)*chunk, int(n))
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(k, lo, hi)
			}()
		}
		wg.Wait()
	}
	// cols[id] packs the ID's row-0 column (high half) and row-1
	// column (low half); both fit 16 bits since w ≤ 2^16. next[k][c]
	// counts worker k's IDs in bucket c, then becomes its next slot there.
	cols := make([]uint32, n)
	next := make([][]uint32, workers)
	width := uint64(w)
	each(func(k, lo, hi int) {
		hist := make([]uint32, w)
		for id := lo; id < hi; id++ {
			h1, h2 := hashID(uint64(id), seed)
			c0 := h1 % width
			c1 := c0 + stride(h2, width)
			if c1 >= width {
				c1 -= width
			}
			cols[id] = uint32(c0)<<16 | uint32(c1)
			hist[c0]++
		}
		next[k] = hist
	})
	var pos uint32
	for c := 0; c < w; c++ {
		x.off[c] = pos
		for _, hist := range next {
			pos, hist[c] = pos+hist[c], pos
		}
	}
	x.off[w] = pos
	each(func(k, lo, hi int) {
		slot := next[k]
		for id := lo; id < hi; id++ {
			c := cols[id]
			p := slot[c>>16]
			slot[c>>16]++
			x.ids[p] = uint32(id)
			x.col1[p] = uint16(c)
		}
	})
	return x, nil
}

// Bytes returns the memory the index retains.
func (x *IDIndex) Bytes() int {
	return 4*len(x.off) + 4*len(x.ids) + 2*len(x.col1)
}

// idHit is one ID with a nonzero estimate.
type idHit struct{ id, v uint64 }

// NonZero returns the estimate of every indexed ID whose estimate over
// c is nonzero: exactly the IDs in [0, n) with c.QueryID(id) > 0, with
// those values. It visits only the buckets whose row-0 cell is nonzero,
// skips the IDs whose row-1 cell is zero without hashing them, and
// queries the rest — so on a sparse sketch its cost follows the nonzero
// row-0 cells, not the ID space. c must have the index's width and seed.
func (x *IDIndex) NonZero(c *CMS) (map[uint64]uint64, error) {
	if c.w != x.w || c.seed != x.seed {
		return nil, ErrDimensionMismatch
	}
	row0 := c.cells[:c.w]
	var row1 []uint64
	if c.d > 1 {
		row1 = c.cells[c.w : 2*c.w]
	}
	// Split the buckets so each worker covers about 4096 IDs at least.
	minBuckets := 1
	if perBucket := x.n / uint64(x.w); perBucket < 4096 {
		minBuckets = int(4096 / (perBucket + 1))
	}
	var (
		mu    sync.Mutex
		parts [][]idHit
		total int
	)
	vec.Parallel(x.w, minBuckets, func(lo, hi int) {
		var local []idHit
		for k := lo; k < hi; k++ {
			if row0[k] == 0 {
				continue
			}
			for i := x.off[k]; i < x.off[k+1]; i++ {
				if row1 != nil && row1[x.col1[i]] == 0 {
					continue
				}
				id := uint64(x.ids[i])
				if v := c.QueryID(id); v > 0 {
					local = append(local, idHit{id, v})
				}
			}
		}
		if len(local) == 0 {
			return
		}
		mu.Lock()
		parts = append(parts, local)
		total += len(local)
		mu.Unlock()
	})
	out := make(map[uint64]uint64, total)
	for _, p := range parts {
		for _, h := range p {
			out[h.id] = h.v
		}
	}
	return out, nil
}

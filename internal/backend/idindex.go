package backend

import (
	"sync"
	"sync/atomic"

	"eyewnder/internal/obs"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
)

// idIndexKey names one sketch layout's ad-ID index: the width and hash
// seed fix each ID's columns, the ID space fixes which IDs exist.
type idIndexKey struct {
	w       int
	seed    uint64
	idSpace uint64
}

// indexBudget caps the bytes the cached indexes retain: two indexes of
// the largest layout provisioning allows (privacy.MaxIDSpace IDs at 6 B
// each, privacy.MaxWidth+1 offsets at 4 B each), about 193 MiB. Two, so
// the base layout and one campaign layout of the largest size stay
// cached side by side.
const indexBudget = 2 * (6*privacy.MaxIDSpace + 4*(privacy.MaxWidth+1))

// idIndexEntry builds its index at most once; a concurrent close of the
// same layout waits on the once instead of building a second copy.
type idIndexEntry struct {
	once sync.Once
	// idx and err are set once, under idIndexes.mu; used is the cache's
	// clock at the entry's last get.
	idx  *sketch.IDIndex
	err  error
	used uint64
}

// idIndexes is the back-end's per-layout ad-ID index cache. An index is
// built lazily by the first finalize that needs it — a close, recovery's
// re-finalize, or a replica's close — and kept while it fits the budget,
// since every later round of the layout reuses it. When a new index
// takes the retained bytes past the budget, the least recently used
// other indexes are dropped until they fit again; a later close of a
// dropped layout builds it anew. Builds run one at a time, so a burst of
// closes over many layouts holds at most one build's scratch memory
// beside the budget.
//
// The cache's lock is held only to find or account an entry: the build
// runs outside it and outside Backend.mu, so neither ingest nor a close
// whose index is cached waits behind a build.
type idIndexes struct {
	mu     sync.Mutex
	byKey  map[idIndexKey]*idIndexEntry
	clock  uint64
	budget int64
	build  sync.Mutex // serializes builds
	bytes  atomic.Int64
	builds *obs.Counter
}

func newIDIndexes(builds *obs.Counter, budget int64) *idIndexes {
	return &idIndexes{byKey: make(map[idIndexKey]*idIndexEntry), budget: budget, builds: builds}
}

// get returns the index of the layout, building it on first use.
func (x *idIndexes) get(w int, seed, idSpace uint64) (*sketch.IDIndex, error) {
	k := idIndexKey{w, seed, idSpace}
	x.mu.Lock()
	e, ok := x.byKey[k]
	if !ok {
		e = &idIndexEntry{}
		x.byKey[k] = e
	}
	x.clock++
	e.used = x.clock
	x.mu.Unlock()
	e.once.Do(func() {
		x.build.Lock()
		idx, err := sketch.NewIDIndex(w, seed, idSpace)
		x.build.Unlock()
		x.mu.Lock()
		defer x.mu.Unlock()
		e.idx, e.err = idx, err
		if err == nil {
			x.bytes.Add(int64(idx.Bytes()))
			x.builds.Inc()
			x.evictLocked(e)
		}
	})
	return e.idx, e.err
}

// evictLocked drops the least recently used built indexes other than
// keep until the retained bytes fit the budget. A close already holding
// a dropped index finishes with it; the memory goes when it does.
func (x *idIndexes) evictLocked(keep *idIndexEntry) {
	for x.bytes.Load() > x.budget {
		var (
			oldest *idIndexEntry
			key    idIndexKey
		)
		for k, e := range x.byKey {
			if e != keep && e.idx != nil && (oldest == nil || e.used < oldest.used) {
				oldest, key = e, k
			}
		}
		if oldest == nil {
			return
		}
		delete(x.byKey, key)
		x.bytes.Add(-int64(oldest.idx.Bytes()))
	}
}

// IDIndexStats describes the back-end's ad-ID index cache for /statusz.
type IDIndexStats struct {
	// Bytes is the memory the cached indexes retain, at most the
	// cache's budget (eyewnder_id_index_bytes).
	Bytes int64 `json:"bytes"`
	// Builds counts index builds, rebuilds of dropped layouts included
	// (eyewnder_id_index_builds_total).
	Builds uint64 `json:"builds"`
}

// IDIndexStats reports the ad-ID index cache's size.
func (b *Backend) IDIndexStats() IDIndexStats {
	return IDIndexStats{Bytes: b.indexes.bytes.Load(), Builds: b.indexes.builds.Value()}
}

package privacy

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"reflect"
	"sync"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/group"
	"eyewnder/internal/oprf"
	"eyewnder/internal/sketch"
)

// Shared fixtures: RSA keygen and roster setup dominate test time.
var (
	fixOnce sync.Once
	fixSrv  *oprf.Server
	fixRos  *blind.Roster
)

func fixtures(t testing.TB) (*oprf.Server, *blind.Roster) {
	fixOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		fixSrv, err = oprf.NewServerFromKey(key)
		if err != nil {
			panic(err)
		}
		fixRos, err = blind.NewRoster(group.P256(), 6, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return fixSrv, fixRos
}

// smallParams keeps the sketch and ID space small so tests run fast while
// exercising the whole protocol.
func smallParams() Params {
	return Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 5000, Suite: group.P256()}
}

func newClients(t testing.TB, params Params) []*Client {
	srv, ros := fixtures(t)
	clients := make([]*Client, len(ros.Parties))
	for i, p := range ros.Parties {
		clients[i] = NewClient(UnversionedConfig(params, 0), p, srv.PublicKey(), srv)
	}
	return clients
}

func TestEndToEndFullParticipation(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	const round = 1

	// Ground truth: which users see which ads.
	ads := map[string][]int{
		"https://ads.example.com/targeted-1": {0},          // targeted: 1 user
		"https://ads.example.com/brand-1":    {0, 1, 2, 3}, // broad static
		"https://ads.example.com/brand-2":    {1, 2, 4, 5},
		"https://ads.example.com/targeted-2": {3},
	}
	ids := map[string]uint64{}
	agg, err := NewAggregator(UnversionedConfig(params, len(clients)), round)
	if err != nil {
		t.Fatal(err)
	}
	for url, users := range ads {
		for _, u := range users {
			id, err := clients[u].ObserveAd(url)
			if err != nil {
				t.Fatal(err)
			}
			ids[url] = id
			// Repeat impressions must not inflate the user count.
			if _, err := clients[u].ObserveAd(url); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range clients {
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for url, users := range ads {
		got := QueryUsers(final, ids[url])
		want := uint64(len(users))
		// CMS may overestimate slightly but never underestimates.
		if got < want || got > want+2 {
			t.Errorf("#Users(%s) = %d, want ~%d", url, got, want)
		}
	}
}

func TestAdIDConsistencyAcrossClients(t *testing.T) {
	clients := newClients(t, smallParams())
	id0, err := clients[0].ObserveAd("https://ads.example.com/x")
	if err != nil {
		t.Fatal(err)
	}
	id1, err := clients[1].ObserveAd("https://ads.example.com/x")
	if err != nil {
		t.Fatal(err)
	}
	if id0 != id1 {
		t.Fatal("same URL mapped to different ad IDs for different users")
	}
}

func TestOPRFCachedPerUniqueAd(t *testing.T) {
	clients := newClients(t, smallParams())
	c := clients[0]
	start := c.OPRFExchanges
	for i := 0; i < 5; i++ {
		if _, err := c.ObserveAd("https://ads.example.com/same"); err != nil {
			t.Fatal(err)
		}
	}
	if c.OPRFExchanges != start+1 {
		t.Fatalf("OPRF exchanges = %d, want %d (mapping is once per unique ad)",
			c.OPRFExchanges, start+1)
	}
}

func TestReportClearsRound(t *testing.T) {
	clients := newClients(t, smallParams())
	c := clients[0]
	if _, err := c.ObserveAd("https://a.example/1"); err != nil {
		t.Fatal(err)
	}
	if c.SeenCount() != 1 {
		t.Fatalf("SeenCount = %d", c.SeenCount())
	}
	if _, err := c.Report(1); err != nil {
		t.Fatal(err)
	}
	if c.SeenCount() != 0 {
		t.Fatal("Report did not reset the round's observations")
	}
}

func TestIndividualReportIsBlinded(t *testing.T) {
	// A single blinded report must not reveal the underlying counts: its
	// cells should look nothing like a plain sketch of the same ads.
	params := smallParams()
	clients := newClients(t, params)
	c := clients[0]
	if _, err := c.ObserveAd("https://ads.example.com/secret"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range r.Sketch.FlatCells() {
		if v == 0 {
			zeros++
		}
	}
	// A plain single-ad sketch is almost all zeros; a blinded one is
	// (pseudo)uniform, so zero cells should be essentially absent.
	if frac := float64(zeros) / float64(r.Sketch.Cells()); frac > 0.01 {
		t.Fatalf("blinded report has %.1f%% zero cells; looks unblinded", 100*frac)
	}
}

func TestMissingClientsRecovery(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	const round = 4
	agg, err := NewAggregator(UnversionedConfig(params, len(clients)), round)
	if err != nil {
		t.Fatal(err)
	}
	// Users 2 and 5 never report.
	absent := map[int]bool{2: true, 5: true}
	for i, c := range clients {
		url := fmt.Sprintf("https://ads.example.com/u%d", i)
		if _, err := c.ObserveAd(url); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ObserveAd("https://ads.example.com/common"); err != nil {
			t.Fatal(err)
		}
		if absent[i] {
			continue
		}
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	// Finalizing before adjustment must fail — the aggregate is noise.
	if _, err := agg.Finalize(); err != ErrNotFinalizable {
		t.Fatalf("premature Finalize err = %v", err)
	}
	missing := agg.Missing()
	if len(missing) != 2 || missing[0] != 2 || missing[1] != 5 {
		t.Fatalf("Missing = %v", missing)
	}
	cells, _ := params.NewSketch()
	var adjs [][]uint64
	for i, c := range clients {
		if absent[i] {
			continue
		}
		adj, err := c.Adjust(round, cells.Cells(), missing)
		if err != nil {
			t.Fatal(err)
		}
		adjs = append(adjs, adj)
	}
	if err := agg.ApplyAdjustments(adjs...); err != nil {
		t.Fatal(err)
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// The common ad was seen by the 4 reporters (absent users' sightings
	// are lost, which is correct).
	commonID := clients[0].idCache["https://ads.example.com/common"]
	got := QueryUsers(final, commonID)
	if got < 4 || got > 6 {
		t.Fatalf("#Users(common) = %d, want ~4", got)
	}
}

func TestAggregatorValidation(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	agg, err := NewAggregator(UnversionedConfig(params, len(clients)), 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Finalize(); err != ErrNoReports {
		t.Fatalf("empty Finalize err = %v", err)
	}
	r, err := clients[0].Report(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(r); err != nil {
		t.Fatal(err)
	}
	dup, err := clients[0].Report(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(dup); err != ErrDuplicate {
		t.Fatalf("duplicate err = %v", err)
	}
	wrongRound, err := clients[1].Report(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(wrongRound); err != ErrRoundMismatch {
		t.Fatalf("round mismatch err = %v", err)
	}
	bad := &Report{User: 99, Round: 9, Sketch: r.Sketch}
	if err := agg.Add(bad); err == nil {
		t.Fatal("out-of-roster user accepted")
	}
	if agg.Reported() != 1 {
		t.Fatalf("Reported = %d", agg.Reported())
	}
}

// A report blinded under a different keystream suite than the round's
// must be rejected: its pairwise terms would not cancel, and the
// corruption would otherwise be silent (the cells look uniformly random
// either way).
func TestAggregatorRejectsKeystreamMismatch(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	agg, err := NewAggregator(UnversionedConfig(params, len(clients)), 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := clients[0].Report(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Keystream != params.Keystream {
		t.Fatalf("client stamped suite %v, params say %v", r.Keystream, params.Keystream)
	}
	mismatched := *r
	mismatched.Keystream = blind.KeystreamAESCTR
	if err := agg.Add(&mismatched); err != ErrKeystreamMismatch {
		t.Fatalf("mismatched suite err = %v", err)
	}
	// The streamed path enforces the same invariant.
	cms := r.Sketch
	err = agg.AddCells(r.User, cms.Depth(), cms.Width(), cms.N(), cms.Seed(),
		blind.KeystreamAESCTR, 0, cms.FlatCells())
	if err != ErrKeystreamMismatch {
		t.Fatalf("mismatched streamed suite err = %v", err)
	}
	// The matching suite is accepted.
	if err := agg.Add(r); err != nil {
		t.Fatal(err)
	}
}

// An AES-CTR deployment must work end to end: params carry the suite,
// clients blind under it, the aggregator accepts it, and the aggregate
// unblinds to the same counts.
func TestEndToEndAESCTRSuite(t *testing.T) {
	params := smallParams()
	params.Keystream = blind.KeystreamAESCTR
	srv, _ := fixtures(t)
	roster, err := blind.NewRosterKeystream(group.P256(), 4, rand.Reader, blind.KeystreamAESCTR)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(roster.Parties))
	for i, p := range roster.Parties {
		clients[i] = NewClient(UnversionedConfig(params, 0), p, srv.PublicKey(), srv)
	}
	const round = 2
	agg, err := NewAggregator(UnversionedConfig(params, len(clients)), round)
	if err != nil {
		t.Fatal(err)
	}
	adURL := "https://ads.example.com/aes-suite"
	var wantID uint64
	for _, c := range clients {
		id, err := c.ObserveAd(adURL)
		if err != nil {
			t.Fatal(err)
		}
		wantID = id
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if r.Keystream != blind.KeystreamAESCTR {
			t.Fatalf("report suite = %v", r.Keystream)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := QueryUsers(final, wantID); got < uint64(len(clients)) {
		t.Fatalf("unblinded #Users = %d, want >= %d", got, len(clients))
	}
}

func TestUserCountsEnumeration(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	const round = 12
	agg, _ := NewAggregator(UnversionedConfig(params, len(clients)), round)
	urls := []string{"https://a.example/1", "https://a.example/2"}
	for _, c := range clients[:3] {
		for _, u := range urls {
			if _, err := c.ObserveAd(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range clients[3:] {
		// These clients saw nothing; they still report (empty sketches).
		_ = c
	}
	for _, c := range clients {
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	counts := UserCounts(final, params)
	// Both ads should appear with count ~3; sketch collisions may add a
	// few phantom IDs with small counts but the bulk must be the 2 ads.
	found := 0
	for _, u := range urls {
		id := clients[0].idCache[u]
		if c, ok := counts[id]; ok && c >= 3 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("enumeration found %d/2 ads; counts=%v", found, counts)
	}
}

// naiveUserCounts is the reference #Users walk: every ID through the
// generic byte-key Query, no sharding, no early exit.
func naiveUserCounts(agg *sketch.CMS, idSpace uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64)
	var key [8]byte
	for id := uint64(0); id < idSpace; id++ {
		binary.LittleEndian.PutUint64(key[:], id)
		if v := agg.Query(key[:]); v > 0 {
			out[id] = v
		}
	}
	return out
}

// UserCounts must equal the naive walk exactly, on sparse and dense
// aggregates and on ID spaces that do and do not split evenly across
// workers. The benchmark's oracle itself calls UserCounts, so this is
// the check that keeps the fast walk honest.
func TestUserCountsMatchesNaiveQuery(t *testing.T) {
	r := mrand.New(mrand.NewSource(5))
	for _, tc := range []struct {
		eps, delta float64
		idSpace    uint64
		keys       int
	}{
		{0.001, 0.001, 20000, 600}, // paper geometry, sparse
		{0.001, 0.001, 1<<16 + 3, 6400},
		{0.01, 0.01, 20000, 6400}, // narrow sketch: nearly every cell set
		{0.05, 0.05, 4097, 50},
		{0.05, 0.05, 1, 3},
		{0.05, 0.05, 0, 3},
	} {
		agg, err := sketch.New(tc.eps, tc.delta)
		if err != nil {
			t.Fatal(err)
		}
		var key [8]byte
		for i := 0; i < tc.keys; i++ {
			binary.LittleEndian.PutUint64(key[:], uint64(r.Int63n(int64(tc.idSpace)+1)))
			agg.Update(key[:])
		}
		params := Params{Epsilon: tc.eps, Delta: tc.delta, IDSpace: tc.idSpace}
		got, want := UserCounts(agg, params), naiveUserCounts(agg, tc.idSpace)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ε=%g IDSpace=%d: UserCounts has %d IDs, naive walk %d", tc.eps, tc.idSpace, len(got), len(want))
		}
		for id, v := range want {
			if q := QueryUsers(agg, id); q != v {
				t.Fatalf("QueryUsers(%d) = %d, naive %d", id, q, v)
			}
		}
	}
}

func TestQueryUsersZeroAllocs(t *testing.T) {
	agg, err := DefaultParams().NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	agg.Update([]byte{7, 0, 0, 0, 0, 0, 0, 0})
	if allocs := testing.AllocsPerRun(1000, func() { QueryUsers(agg, 7) }); allocs != 0 {
		t.Fatalf("QueryUsers allocates %v times per call, want 0", allocs)
	}
}

func TestCheckIDSpace(t *testing.T) {
	if err := CheckIDSpace(MaxIDSpace); err != nil {
		t.Fatalf("CheckIDSpace(MaxIDSpace) = %v", err)
	}
	err := CheckIDSpace(MaxIDSpace + 1)
	var ide *IDSpaceError
	if !errors.As(err, &ide) || ide.IDSpace != MaxIDSpace+1 {
		t.Fatalf("CheckIDSpace(MaxIDSpace+1) = %v, want *IDSpaceError", err)
	}
	// UserCounts never walks an unchecked space: before the cap, 2^63
	// wrapped int(IDSpace) negative and returned an empty map.
	defer func() {
		if recover() == nil {
			t.Fatal("UserCounts over a 2^63 ID space did not panic")
		}
	}()
	agg, _ := sketch.NewWithDimensions(1, 1)
	UserCounts(agg, Params{IDSpace: 1 << 63})
}

func TestOverheadAccounting(t *testing.T) {
	params := DefaultParams()
	cms, err := params.NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	// Section 7.1: with ε = δ = 0.001 and 4-byte cells the sketch is in
	// the ~200 KB regime and dwarfs the ~3.5 KB cleartext report of the
	// average user (35 ads × 100-char URLs).
	sketchKB := float64(cms.SizeBytes(4)) / 1024
	if sketchKB < 50 || sketchKB > 300 {
		t.Fatalf("sketch = %.0f KB, outside paper regime", sketchKB)
	}
	clear := CleartextReportBytes(35, 100)
	if clear != 3500 {
		t.Fatalf("cleartext = %d B", clear)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Epsilon != 0.001 || p.Delta != 0.001 || p.IDSpace != 100000 {
		t.Fatalf("DefaultParams = %+v", p)
	}
	if p.Suite.Name() != "P256" {
		t.Fatalf("suite = %s", p.Suite.Name())
	}
}

func TestAdIDStableAndInRange(t *testing.T) {
	p := smallParams()
	out := make([]byte, 32)
	for i := range out {
		out[i] = byte(i * 7)
	}
	id := p.AdID(out)
	if id >= p.IDSpace {
		t.Fatalf("AdID %d outside space %d", id, p.IDSpace)
	}
	if id != p.AdID(out) {
		t.Fatal("AdID not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short OPRF output did not panic")
		}
	}()
	p.AdID([]byte{1, 2})
}

package backend

import (
	"crypto/rand"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/obs"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
)

// The close-time ad-ID index is built once per layout, however many
// closes need it at once: two campaigns sharing a geometry close
// concurrently (run under -race in CI) and build one index between
// them, campaign 0's different layout builds its own, and a replica
// replaying the same WAL builds one per layout in its own cache. Every
// count matches the reference walk over the unblinded oracle.
func TestIDIndexOneBuildPerLayout(t *testing.T) {
	const users = 4
	params := storeTestParams()
	// A 2^18 ID space keeps the build long enough for the two closes to
	// overlap it.
	shared := campaign.Campaign{Epsilon: 0.05, Delta: 0.05, IDSpace: 1 << 18}
	camps := []campaign.Campaign{shared, shared}
	for i := range camps {
		camps[i].ID, camps[i].Name = uint32(i+1), "shared-layout"
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.New()
	primary, err := New(Config{Params: params, Users: users, Store: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	roster, err := blind.NewRosterKeystream(params.Suite, users, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]campaign.Campaign{{ID: 0, Epsilon: params.Epsilon, Delta: params.Delta, IDSpace: params.IDSpace}}, camps...)
	oracles := make(map[uint32]*sketch.CMS)
	for _, c := range all {
		if c.ID != 0 {
			if err := primary.AddCampaign(c); err != nil {
				t.Fatal(err)
			}
		}
		frames, oracle := buildCampaignFrames(t, roster, c, params, users, 1)
		for _, f := range frames {
			if err := primary.ConsumeReport(f); err != nil {
				t.Fatal(err)
			}
		}
		oracles[c.ID] = oracle
	}
	if s := primary.IDIndexStats(); s != (IDIndexStats{}) {
		t.Fatalf("index built before any close: %+v", s)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(all))
	for i, c := range all {
		wg.Add(1)
		go func(i int, id uint32) {
			defer wg.Done()
			_, _, errs[i] = primary.CloseCampaignRound(id, 1)
		}(i, c.ID)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("close campaign %d: %v", all[i].ID, err)
		}
	}
	// 6 B per ID plus w+1 uint32 offsets, per layout.
	_, w0, _ := sketch.Dimensions(params.Epsilon, params.Delta)
	_, w1, _ := sketch.Dimensions(shared.Epsilon, shared.Delta)
	wantBytes := int64(6*(params.IDSpace+shared.IDSpace)) + 4*int64(w0+1+w1+1)
	want := IDIndexStats{Bytes: wantBytes, Builds: 2}
	if s := primary.IDIndexStats(); s != want {
		t.Fatalf("primary index cache after concurrent closes: %+v, want %+v", s, want)
	}
	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"eyewnder_id_index_builds_total": 2,
		"eyewnder_id_index_bytes":        float64(wantBytes),
	} {
		var got float64
		for _, line := range strings.Split(prom.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				fmt.Sscan(v, &got)
			}
		}
		if got != want {
			t.Fatalf("/metrics %s = %v, want %v", name, got, want)
		}
	}
	counts := make(map[uint32]map[uint64]uint64)
	for _, c := range all {
		got, err := primary.CampaignUserCounts(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := privacy.UserCounts(oracles[c.ID], c.Params(params)); !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign %d: indexed counts (%d IDs) differ from the reference walk (%d IDs)", c.ID, len(got), len(want))
		}
		counts[c.ID] = got
	}

	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	replica := newReplica(t, params, users)
	feedWALInChunks(t, replica, dir, 64)
	if s := replica.IDIndexStats(); s != want {
		t.Fatalf("replica index cache after replicated closes: %+v, want %+v", s, want)
	}
	for _, c := range all {
		got, err := replica.CampaignUserCounts(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, counts[c.ID]) {
			t.Fatalf("campaign %d: replica counts differ from the primary's", c.ID)
		}
	}
}

// The index cache retains at most its budget: provisioning and closing
// more layouts than fit drops the least recently used index, and a later
// close of a dropped layout rebuilds it. Every count still matches the
// reference walk.
func TestIDIndexCacheBudget(t *testing.T) {
	const users = 2
	params := storeTestParams()
	b, err := New(Config{Params: params, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	roster, err := blind.NewRosterKeystream(params.Suite, users, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}
	_, w, _ := sketch.Dimensions(params.Epsilon, params.Delta)
	size := func(idSpace uint64) int64 { return int64(6*idSpace) + 4*int64(w+1) }
	camps := make([]campaign.Campaign, 3)
	for i := range camps {
		camps[i] = campaign.Campaign{ID: uint32(i + 1), Name: fmt.Sprintf("layout-%d", i), IDSpace: uint64(1000 * (i + 1))}
		if err := b.AddCampaign(camps[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Room for the two larger layouts, not for all three.
	b.indexes.budget = size(2000) + size(3000)

	round := map[uint32]uint64{}
	closeRound := func(c campaign.Campaign) {
		t.Helper()
		round[c.ID]++
		frames, oracle := buildCampaignFrames(t, roster, c, params, users, round[c.ID])
		for _, f := range frames {
			if err := b.ConsumeReport(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := b.CloseCampaignRound(c.ID, round[c.ID]); err != nil {
			t.Fatal(err)
		}
		got, err := b.CampaignUserCounts(c.ID, round[c.ID])
		if err != nil {
			t.Fatal(err)
		}
		if want := privacy.UserCounts(oracle, c.Params(params)); !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign %d round %d: indexed counts differ from the reference walk", c.ID, round[c.ID])
		}
	}
	for _, step := range []struct {
		close int
		want  IDIndexStats
	}{
		{0, IDIndexStats{Bytes: size(1000), Builds: 1}},
		{1, IDIndexStats{Bytes: size(1000) + size(2000), Builds: 2}},
		// Past the budget: layout 0, least recently used, is dropped.
		{2, IDIndexStats{Bytes: size(2000) + size(3000), Builds: 3}},
		// A cached layout is reused and becomes the most recently used.
		{1, IDIndexStats{Bytes: size(2000) + size(3000), Builds: 3}},
		// The dropped layout is rebuilt; layout 2 is now the oldest.
		{0, IDIndexStats{Bytes: size(1000) + size(2000), Builds: 4}},
	} {
		closeRound(camps[step.close])
		if s := b.IDIndexStats(); s != step.want {
			t.Fatalf("after closing campaign %d: %+v, want %+v", camps[step.close].ID, s, step.want)
		}
		if s := b.IDIndexStats(); s.Bytes > b.indexes.budget {
			t.Fatalf("cache retains %d B, over its %d B budget", s.Bytes, b.indexes.budget)
		}
	}
}

package backend

import (
	"errors"
	"strings"
	"testing"

	"eyewnder/internal/campaign"
	"eyewnder/internal/obs"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// A sketch geometry no report frame can carry (or wider than the
// close-time index serves) must be refused at every entry point that
// can bring one into a running back-end, before anything sized by it is
// allocated. At ε = 1e-6, δ = 0.5 a single round's aggregate is 21.8 MB;
// at ε = 1e-9 it is 21.7 GB.

// hugeEps is a width (2718282) far past privacy.MaxWidth.
const hugeEps = 1e-6

func wantGeometryError(t *testing.T, what string, err error) {
	t.Helper()
	var ge *privacy.GeometryError
	if !errors.As(err, &ge) {
		t.Fatalf("%s: err = %v, want *privacy.GeometryError", what, err)
	}
}

func TestNewRejectsOversizedGeometry(t *testing.T) {
	for _, eps := range []float64{hugeEps, 1e-9, 1e-300} {
		params := testParams()
		params.Epsilon, params.Delta = eps, 0.5
		_, err := New(Config{Params: params, Users: 2})
		wantGeometryError(t, "New", err)
	}
}

// The -campaigns flag goes through ParseSpec, then AddCampaign: a spec
// fixing both ε and δ is refused by the parser, one inheriting δ by
// provisioning, once resolved against the base.
func TestCampaignsFlagRejectsOversizedGeometry(t *testing.T) {
	_, err := campaign.ParseSpec("id=1,name=wide,eps=0.000001,delta=0.5")
	wantGeometryError(t, "ParseSpec", err)
	list, err := campaign.ParseSpec("id=1,name=wide,eps=0.000001")
	if err != nil {
		t.Fatalf("ParseSpec of an ε-only override: %v", err)
	}
	b, err := New(Config{Params: testParams(), Users: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	err = b.AddCampaign(list[0])
	wantGeometryError(t, "AddCampaign", err)
	if !errors.Is(err, campaign.ErrBadCampaign) {
		t.Fatalf("AddCampaign: err = %v, want it to wrap campaign.ErrBadCampaign", err)
	}
	if n := len(b.Campaigns()); n != 0 {
		t.Fatalf("refused campaign provisioned anyway: directory has %d entries", n)
	}
}

func TestCampaignAddOpRejectsOversizedGeometry(t *testing.T) {
	b, err := New(Config{Params: testParams(), Users: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var resp wire.CampaignAddResp
	err = cli.Do(wire.TypeCampaignAdd, wire.CampaignAddReq{ID: 3, Name: "wide", Epsilon: hugeEps}, &resp)
	if err == nil || !strings.Contains(err.Error(), "exceeds the caps") {
		t.Fatalf("campaign_add with ε=%g: err = %v, want the geometry cap error", hugeEps, err)
	}
	if n := len(b.Campaigns()); n != 0 {
		t.Fatalf("refused campaign provisioned anyway: directory has %d entries", n)
	}
}

// A campaign the codec can decode but provisioning refuses, journaled
// in the WAL or carried by a snapshot's directory section, fails
// recovery loudly.
func TestRecoveryRejectsJournaledOversizedGeometry(t *testing.T) {
	def := campaign.Campaign{ID: 5, Name: "wide", Epsilon: hugeEps}
	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendCampaign(def.AppendBinary(nil)); err != nil {
			t.Fatal(err)
		}
		if snapshot {
			if err := st.Snapshot(func() ([]*store.RoundState, error) { return nil, nil }); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Campaigns()[def.ID]; !ok {
			t.Fatalf("snapshot=%v: the store did not recover the campaign record", snapshot)
		}
		_, err = New(Config{Params: storeTestParams(), Users: 2, Store: st})
		wantGeometryError(t, "recovery", err)
		st.Close()
	}
}

// A report whose cell count differs from its campaign's geometry is
// refused before it can open a round: no aggregate is allocated and no
// open record is journaled.
func TestMismatchedReportOpensNoRound(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	b, err := New(Config{Params: storeTestParams(), Users: 2, Store: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddCampaign(campaign.Campaign{ID: 1, Name: "c1"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []uint32{0, 1} {
		f := &wire.ReportFrame{User: 0, Campaign: c, Round: 7, D: 1, W: 1, Cells: []uint64{1}}
		if err := b.ConsumeReport(f); !errors.Is(err, sketch.ErrDimensionMismatch) {
			t.Fatalf("campaign %d: 1-cell frame: err = %v, want sketch.ErrDimensionMismatch", c, err)
		}
	}
	// A campaign that does not exist is refused as such, whatever the
	// frame's size.
	f := &wire.ReportFrame{User: 0, Campaign: 9, Round: 7, D: 1, W: 1, Cells: []uint64{1}}
	if err := b.ConsumeReport(f); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("unknown campaign, 1-cell frame: err = %v, want ErrUnknownCampaign", err)
	}
	if rs := b.RoundsProgress(); len(rs) != 0 {
		t.Fatalf("refused frames opened %d rounds", len(rs))
	}
	if n := reg.Counter("eyewnder_rounds_opened_total", "").Value(); n != 0 {
		t.Fatalf("eyewnder_rounds_opened_total = %d, want 0", n)
	}
	if n := reg.Counter("eyewnder_reports_rejected_total", "", "reason", "geometry").Value(); n != 2 {
		t.Fatalf("geometry rejections = %d, want 2", n)
	}
	b.Close()
	st.Close()
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rs := st.Rounds(); len(rs) != 0 {
		t.Fatalf("refused frames journaled %d round opens", len(rs))
	}
}

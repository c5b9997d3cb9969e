package backend

import (
	"errors"
	"strings"
	"testing"

	"eyewnder/internal/campaign"
	"eyewnder/internal/privacy"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// An ad-ID space above privacy.MaxIDSpace must be refused at every
// entry point that can bring one into a running back-end: the base
// params, the campaign_add op, and a campaign journaled in a recovered
// WAL. Accepting one would make every close walk it under the round's
// write lock (2^40 IDs) or wrap the walk to nothing (2^63 and up).

func TestNewRejectsOversizedIDSpace(t *testing.T) {
	for _, n := range []uint64{privacy.MaxIDSpace + 1, 1 << 40, 1 << 63, ^uint64(0)} {
		params := testParams()
		params.IDSpace = n
		_, err := New(Config{Params: params, Users: 2})
		var ide *privacy.IDSpaceError
		if !errors.As(err, &ide) || ide.IDSpace != n {
			t.Errorf("New with IDSpace %d: err = %v, want *privacy.IDSpaceError", n, err)
		}
	}
	params := testParams()
	params.IDSpace = privacy.MaxIDSpace
	if _, err := New(Config{Params: params, Users: 2}); err != nil {
		t.Fatalf("New with IDSpace at the cap: %v", err)
	}
}

func TestCampaignAddOpRejectsOversizedIDSpace(t *testing.T) {
	b, err := New(Config{Params: testParams(), Users: 2})
	if err != nil {
		t.Fatal(err)
	}
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
	err = cli.Do(wire.TypeCampaignAdd, wire.CampaignAddReq{ID: 3, Name: "huge", IDSpace: 1 << 40}, &resp)
	if err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
		t.Fatalf("campaign_add with id_space 2^40: err = %v, want the ID-space cap error", err)
	}
	if n := len(b.Campaigns()); n != 0 {
		t.Fatalf("refused campaign provisioned anyway: directory has %d entries", n)
	}
	// The connection stays usable and a capped campaign still provisions.
	if err := cli.Do(wire.TypeCampaignAdd, wire.CampaignAddReq{ID: 3, Name: "ok", IDSpace: 1 << 20}, &resp); err != nil {
		t.Fatalf("campaign_add at 2^20 after a refusal: %v", err)
	}
	if resp.Campaigns != 1 {
		t.Fatalf("directory size %d after one add, want 1", resp.Campaigns)
	}
}

// A campaign record the codec can encode but Validate refuses (this
// release's cap, journaled by an older one) must fail recovery loudly
// instead of provisioning a campaign whose closes cannot be trusted.
func TestRecoveryRejectsJournaledOversizedIDSpace(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	def := campaign.Campaign{ID: 5, Name: "wrapped", IDSpace: 1 << 63}
	if err := st.AppendCampaign(def.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = New(Config{Params: storeTestParams(), Users: 2, Store: st})
	var ide *privacy.IDSpaceError
	if !errors.As(err, &ide) || ide.IDSpace != 1<<63 {
		t.Fatalf("recovering a journaled 2^63 ID space: err = %v, want *privacy.IDSpaceError", err)
	}
}

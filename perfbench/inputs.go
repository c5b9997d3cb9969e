package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"

	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/group"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/wire"
)

// padRound is the blinding round every prepared pad and adjustment share
// is derived for. Frames are re-stamped with later round headers at
// submit time; the pads of one round still cancel because every reporter
// of that round blinded under the same pad round.
const padRound = 1

// inputs is everything the generator sends, prepared from the seed before
// any deployment exists: blinded report frames, adjustment shares, and the
// plaintext oracle every closed round is checked against.
type inputs struct {
	camps []*campInputs // campaign 0 first, then the provisioned ones
}

// campInputs is one campaign's prepared traffic.
type campInputs struct {
	id     uint32
	params privacy.Params
	d, w   int
	// frames[a][u] is user u's blinded report under ad-set template a,
	// and ads[a][u] the distinct ads it counts.
	frames [][]*wire.ReportFrame
	ads    [][][]uint64
	plans  []*plan
}

// plan is one round shape, cycled over rounds: which ad-set template the
// reporters use, who is dark, the shares owed, and the expected result.
type plan struct {
	adSet     int
	reporters []int
	missing   []int
	dark      []bool // dark[u]: user u sends nothing this round
	// shares are the reporters' adjustment frames toward missing (nil
	// when nobody is missing).
	shares []*wire.ReportFrame
	oracle *sketch.CMS       // sum of the reporters' plaintext sketches
	counts map[uint64]uint64 // privacy.UserCounts(oracle)
	ads    []uint64          // distinct ads the reporters saw: audit targets
}

// planOf returns the plan that round (1-based) follows.
func (c *campInputs) planOf(round uint64) *plan {
	return c.plans[int((round-1)%uint64(len(c.plans)))]
}

// seedBytes derives an independent 32-byte seed for one input stream.
func seedBytes(workload string, seed uint64, label string) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("perfbench/%s/%d/%s", workload, seed, label)))
}

// rngFor returns a deterministic PRNG for one input stream.
func rngFor(workload string, seed uint64, label string) *rand.Rand {
	s := seedBytes(workload, seed, label)
	return rand.New(rand.NewPCG(binary.LittleEndian.Uint64(s[:8]), binary.LittleEndian.Uint64(s[8:16])))
}

// campaignParams resolves every campaign's geometry over the base, in
// the order the generator walks them.
func (s *spec) campaignParams() ([]uint32, []privacy.Params) {
	ids := []uint32{0}
	params := []privacy.Params{s.base}
	for _, c := range s.campaigns {
		ids = append(ids, c.ID)
		params = append(params, c.Params(s.base))
	}
	return ids, params
}

// prepare builds the workload's inputs from the seed. Roster keys come
// from group.GenerateKey over a seed-derived reader, so the same seed
// yields the same keys, pads, ad sets, dark sets and oracle counts.
func prepare(s *spec, seed uint64) (*inputs, error) {
	ks := s.base.Keystream
	keyStream := seedBytes(s.name, seed, "roster")
	roster, err := blind.NewRosterKeystream(group.P256(), s.users, rand.NewChaCha8(keyStream), ks)
	if err != nil {
		return nil, fmt.Errorf("roster: %w", err)
	}
	ids, params := s.campaignParams()
	in := &inputs{}
	for i, id := range ids {
		c, err := prepareCampaign(s, seed, roster, id, params[i])
		if err != nil {
			return nil, fmt.Errorf("campaign %d: %w", id, err)
		}
		in.camps = append(in.camps, c)
	}
	return in, nil
}

// prepareCampaign blinds every user's report under every ad-set template
// and derives each plan's shares and oracle.
func prepareCampaign(s *spec, seed uint64, roster *blind.Roster, id uint32, p privacy.Params) (*campInputs, error) {
	d, w, err := sketch.Dimensions(p.Epsilon, p.Delta)
	if err != nil {
		return nil, err
	}
	cells := d * w
	c := &campInputs{id: id, params: p, d: d, w: w}
	parties := make([]*blind.Party, s.users)
	for u := range parties {
		parties[u] = roster.Parties[u].ForCampaignKeystream(id, p.Keystream)
	}
	pads := make([][]uint64, s.users)
	for u := range pads {
		pads[u] = parties[u].Blinding(padRound, cells)
	}

	// Popular ads are shared across users so per-ad counts exceed one.
	label := fmt.Sprintf("ads/%d", id)
	rng := rngFor(s.name, seed, label)
	inPool := make(map[uint64]bool, s.adsPerUser)
	pool := make([]uint64, 0, s.adsPerUser)
	for len(pool) < s.adsPerUser {
		if ad := rng.Uint64N(p.IDSpace); !inPool[ad] {
			inPool[ad] = true
			pool = append(pool, ad)
		}
	}
	ads := make([][][]uint64, s.adSets)
	c.ads = ads
	sums := make([][]uint64, s.adSets)
	sumN := make([]uint64, s.adSets)
	scratch, err := sketch.NewWithDimensions(d, w)
	if err != nil {
		return nil, err
	}
	for a := range ads {
		ads[a] = make([][]uint64, s.users)
		sums[a] = make([]uint64, cells)
		frames := make([]*wire.ReportFrame, s.users)
		for u := 0; u < s.users; u++ {
			set := make(map[uint64]bool, s.adsPerUser)
			for len(set) < s.adsPerUser {
				if len(set)%2 == 0 {
					set[pool[rng.IntN(len(pool))]] = true
				} else {
					set[rng.Uint64N(p.IDSpace)] = true
				}
			}
			ads[a][u] = sortedKeys(set)
			sketchOf(scratch, ads[a][u])
			plain := scratch.FlatCells()
			out := make([]uint64, cells)
			for i, v := range plain {
				sums[a][i] += v
				out[i] = v + pads[u][i]
			}
			sumN[a] += scratch.N()
			frames[u] = &wire.ReportFrame{
				User: u, Campaign: id, D: d, W: w, N: scratch.N(), Seed: scratch.Seed(),
				Keystream: byte(p.Keystream), Cells: out,
			}
		}
		c.frames = append(c.frames, frames)
	}

	drng := rngFor(s.name, seed, fmt.Sprintf("dark/%d", id))
	for i := 0; i < s.plans; i++ {
		pl := &plan{adSet: i % s.adSets, dark: make([]bool, s.users)}
		if id == 0 && s.darkEvery > 0 && (i+1)%s.darkEvery == 0 {
			for n := 0; n < s.dark; {
				if u := drng.IntN(s.users); !pl.dark[u] {
					pl.dark[u] = true
					n++
				}
			}
		}
		oracle := append([]uint64(nil), sums[pl.adSet]...)
		n := sumN[pl.adSet]
		seen := make(map[uint64]bool)
		for u := 0; u < s.users; u++ {
			if pl.dark[u] {
				pl.missing = append(pl.missing, u)
				sketchOf(scratch, ads[pl.adSet][u])
				for j, v := range scratch.FlatCells() {
					oracle[j] -= v
				}
				n -= scratch.N()
				continue
			}
			pl.reporters = append(pl.reporters, u)
			for _, ad := range ads[pl.adSet][u] {
				seen[ad] = true
			}
		}
		if len(pl.missing) > 0 {
			for _, u := range pl.reporters {
				share, err := parties[u].Adjustment(padRound, cells, pl.missing)
				if err != nil {
					return nil, err
				}
				f := wire.AdjustFrame(u, 0, d, w, byte(p.Keystream), 0, share)
				f.Campaign = id
				pl.shares = append(pl.shares, f)
			}
		}
		pl.oracle, err = sketch.Restore(d, w, scratch.Seed(), n, oracle)
		if err != nil {
			return nil, err
		}
		pl.counts = privacy.UserCounts(pl.oracle, p)
		pl.ads = sortedKeys(seen)
		c.plans = append(c.plans, pl)
	}
	return c, nil
}

// sketchOf resets cms and counts each ad once: a CMS report counts users,
// so every distinct ad contributes one update.
func sketchOf(cms *sketch.CMS, ads []uint64) {
	cms.Reset()
	var key [8]byte
	for _, ad := range ads {
		binary.LittleEndian.PutUint64(key[:], ad)
		cms.Update(key[:])
	}
}

// sortedKeys returns a set's members in ascending order.
func sortedKeys(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// chainDigest folds one (campaign, round)'s oracle counts, sorted by ad
// ID, into the running digest, the way the churn harness chains its
// rounds.
func chainDigest(prev [32]byte, camp uint32, round uint64, counts map[uint64]uint64) [32]byte {
	ids := make([]uint64, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	h.Write(prev[:])
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], camp)
	h.Write(b[:4])
	binary.LittleEndian.PutUint64(b[:], round)
	h.Write(b[:])
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], id)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], counts[id])
		h.Write(b[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// digest chains the first plan cycle of every campaign: rounds 1..plans,
// whose counts every run verifies, so the digest is a function of the
// seed alone and not of how many rounds fit in the run.
func (in *inputs) digest() [32]byte {
	var d [32]byte
	for _, c := range in.camps {
		for i, pl := range c.plans {
			d = chainDigest(d, c.id, uint64(i+1), pl.counts)
		}
	}
	return d
}

// workloadCampaigns provisions n campaigns with distinct small
// geometries (ε spread evenly over [0.01, 0.04]) over small ID spaces,
// like per-category campaigns.
func workloadCampaigns(n int, idSpace uint64) []campaign.Campaign {
	out := make([]campaign.Campaign, n)
	for i := range out {
		eps := 0.01 + 0.03*float64(i)/float64(n-1)
		out[i] = campaign.Campaign{
			ID: uint32(i + 1), Name: fmt.Sprintf("mixed-%d", i+1),
			Epsilon: eps, Delta: 0.01, IDSpace: idSpace + uint64(i)*256,
		}
	}
	return out
}

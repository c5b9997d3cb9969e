// Package campaign defines the multi-campaign registry: named counting
// campaigns with independent sketch geometry, keystream suite, cadence,
// and retention, multiplexed over one deployment. Campaign 0 is the
// implicit legacy campaign — the deployment's base round config — and
// is never listed in a directory; every other campaign is provisioned
// explicitly and advertised to clients through the wire layer's
// campaign directory frame.
//
// A campaign definition has one canonical binary encoding (AppendBinary
// / DecodeBinary) shared by the wire directory frame, the store's
// campaign WAL record, and the snapshot directory section, so the
// provisioned state a follower replays or a restart recovers is
// byte-identical to what the primary advertised.
package campaign

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"eyewnder/internal/blind"
	"eyewnder/internal/privacy"
)

// Errors of the campaign registry.
var (
	// ErrBadCampaign marks a definition that fails validation (reserved
	// ID, bad geometry, an ad-ID space above privacy.MaxIDSpace, unknown
	// suite, oversized name). The ID-space error also wraps a
	// *privacy.IDSpaceError, a geometry over the caps a
	// *privacy.GeometryError.
	ErrBadCampaign = errors.New("campaign: invalid definition")
	// ErrDuplicate marks provisioning an ID the directory already holds.
	ErrDuplicate = errors.New("campaign: duplicate id")
	// ErrUnknown marks a lookup of an ID the directory does not hold.
	ErrUnknown = errors.New("campaign: unknown id")
)

// MaxName caps a campaign name: names ride in fixed directory frames
// with a 16-bit length field, and short names keep metric labels sane.
const MaxName = 255

// wireFixed is the fixed prefix of the binary encoding:
// id(4) epsilon(8) delta(8) idSpace(8) keystream(1) flags(1)
// nameLen(2) retain(4) cadence(4), little-endian, then nameLen name
// bytes.
const wireFixed = 40

// flagKeystreamSet marks that the definition pins its own keystream
// suite rather than inheriting the deployment's.
const flagKeystreamSet = 0x01

// Campaign is one provisioned counting campaign. Zero-valued geometry
// fields inherit the deployment's base params (Params), so a campaign
// may override only what it needs — for example a coarser sketch for a
// high-cardinality category.
type Campaign struct {
	// ID keys all round state ((campaign, round) everywhere). ID 0 is
	// reserved for the implicit legacy campaign and never appears in a
	// directory.
	ID uint32
	// Name labels the campaign in metrics, /statusz, and the
	// detector→campaign mapping (a name matching a taxonomy topic
	// receives that topic's detections).
	Name string
	// Epsilon and Delta size the campaign's CMS; zero inherits the base.
	Epsilon, Delta float64
	// IDSpace is the campaign's ad-ID space; zero inherits the base.
	IDSpace uint64
	// Keystream pins the blinding expansion suite when KeystreamSet;
	// otherwise the campaign inherits the deployment's.
	Keystream blind.Keystream
	// KeystreamSet reports whether Keystream is explicit.
	KeystreamSet bool
	// RetainRounds overrides the deployment's closed-round retention
	// when positive.
	RetainRounds int
	// CadenceSec is the advisory reporting cadence in seconds (0 =
	// deployment default); the server does not schedule on it, clients
	// and sims may.
	CadenceSec uint32
}

// Validate checks the definition is provisionable.
func (c Campaign) Validate() error {
	if c.ID == 0 {
		return fmt.Errorf("%w: id 0 is reserved for the legacy campaign", ErrBadCampaign)
	}
	if c.Name == "" || len(c.Name) > MaxName {
		return fmt.Errorf("%w: name %q", ErrBadCampaign, c.Name)
	}
	if !(c.Epsilon >= 0 && c.Epsilon < 1) || !(c.Delta >= 0 && c.Delta < 1) {
		return fmt.Errorf("%w: epsilon=%g delta=%g", ErrBadCampaign, c.Epsilon, c.Delta)
	}
	if err := privacy.CheckIDSpace(c.IDSpace); err != nil {
		return fmt.Errorf("%w: %w", ErrBadCampaign, err)
	}
	// A geometry both overrides fix is checked here; one that inherits
	// ε or δ is checked once resolved against the deployment's base, when
	// the back-end provisions it.
	if c.Epsilon > 0 && c.Delta > 0 {
		if err := privacy.CheckGeometry(c.Epsilon, c.Delta); err != nil {
			return fmt.Errorf("%w: %w", ErrBadCampaign, err)
		}
	}
	if c.KeystreamSet && !c.Keystream.Valid() {
		return fmt.Errorf("%w: keystream 0x%02x", ErrBadCampaign, byte(c.Keystream))
	}
	if c.RetainRounds < 0 {
		return fmt.Errorf("%w: retain %d", ErrBadCampaign, c.RetainRounds)
	}
	return nil
}

// Params resolves the campaign's effective round parameters against the
// deployment's base params: zero-valued overrides inherit.
func (c Campaign) Params(base privacy.Params) privacy.Params {
	p := base
	if c.Epsilon > 0 {
		p.Epsilon = c.Epsilon
	}
	if c.Delta > 0 {
		p.Delta = c.Delta
	}
	if c.IDSpace > 0 {
		p.IDSpace = c.IDSpace
	}
	if c.KeystreamSet {
		p.Keystream = c.Keystream
	}
	return p
}

// AppendBinary appends the canonical binary encoding of c to dst and
// returns the extended slice. The layout (all little-endian) is the
// directory-frame entry: id(4) epsilon(8) delta(8) idSpace(8)
// keystream(1) flags(1) nameLen(2) retain(4) cadence(4) name(nameLen).
func (c Campaign) AppendBinary(dst []byte) []byte {
	dst = le32(dst, c.ID)
	dst = le64(dst, f64bits(c.Epsilon))
	dst = le64(dst, f64bits(c.Delta))
	dst = le64(dst, c.IDSpace)
	var flags byte
	if c.KeystreamSet {
		flags |= flagKeystreamSet
	}
	dst = append(dst, byte(c.Keystream), flags)
	dst = append(dst, byte(len(c.Name)), byte(len(c.Name)>>8))
	dst = le32(dst, uint32(c.RetainRounds))
	dst = le32(dst, c.CadenceSec)
	return append(dst, c.Name...)
}

// DecodeBinary decodes one campaign definition from the front of b,
// returning the definition, the number of bytes consumed, and an error
// when b is short or the definition fails Validate. The decoder is the
// single parser behind the wire directory frame, the campaign WAL
// record, and the snapshot directory section.
func DecodeBinary(b []byte) (Campaign, int, error) {
	if len(b) < wireFixed {
		return Campaign{}, 0, fmt.Errorf("%w: %d-byte entry", ErrBadCampaign, len(b))
	}
	c := Campaign{
		ID:      leU32(b[0:]),
		Epsilon: f64from(leU64(b[4:])),
		Delta:   f64from(leU64(b[12:])),
		IDSpace: leU64(b[20:]),
	}
	c.Keystream = blind.Keystream(b[28])
	flags := b[29]
	c.KeystreamSet = flags&flagKeystreamSet != 0
	nameLen := int(b[30]) | int(b[31])<<8
	c.RetainRounds = int(leU32(b[32:]))
	c.CadenceSec = leU32(b[36:])
	if flags&^flagKeystreamSet != 0 {
		return Campaign{}, 0, fmt.Errorf("%w: flags 0x%02x", ErrBadCampaign, flags)
	}
	if len(b) < wireFixed+nameLen {
		return Campaign{}, 0, fmt.Errorf("%w: truncated name", ErrBadCampaign)
	}
	c.Name = string(b[wireFixed : wireFixed+nameLen])
	if err := c.Validate(); err != nil {
		return Campaign{}, 0, err
	}
	return c, wireFixed + nameLen, nil
}

// EncodedSize returns the byte length of c's binary encoding.
func (c Campaign) EncodedSize() int { return wireFixed + len(c.Name) }

// Directory is an ordered set of provisioned campaigns. The zero value
// is empty and ready to use. A Directory is not safe for concurrent
// mutation; owners (the backend) guard it with their own lock.
type Directory struct {
	byID map[uint32]Campaign
}

// Add provisions a campaign, validating it and refusing duplicates.
func (d *Directory) Add(c Campaign) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if _, ok := d.byID[c.ID]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicate, c.ID)
	}
	if d.byID == nil {
		d.byID = make(map[uint32]Campaign)
	}
	d.byID[c.ID] = c
	return nil
}

// Get returns the campaign with the given ID.
func (d *Directory) Get(id uint32) (Campaign, bool) {
	c, ok := d.byID[id]
	return c, ok
}

// Len returns the number of provisioned campaigns.
func (d *Directory) Len() int { return len(d.byID) }

// List returns the campaigns sorted by ID — the canonical directory
// order used by the wire frame and the snapshot section.
func (d *Directory) List() []Campaign {
	out := make([]Campaign, 0, len(d.byID))
	for _, c := range d.byID {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ParseSpec parses the -campaigns flag syntax: semicolon-separated
// campaign entries, each a comma-separated list of key=value pairs.
// Keys: id (required, ≥1), name (required), eps, delta, ids, ks
// (keystream suite name), retain, cadence (seconds). Example:
//
//	id=1,name=autos,eps=0.01,delta=0.01;id=2,name=travel,ids=4096,ks=aes-ctr
func ParseSpec(spec string) ([]Campaign, error) {
	var out []Campaign
	seen := make(map[uint32]bool)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var c Campaign
		for _, kv := range strings.Split(entry, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("%w: %q is not key=value", ErrBadCampaign, kv)
			}
			var err error
			switch key {
			case "id":
				var id uint64
				id, err = strconv.ParseUint(val, 10, 32)
				c.ID = uint32(id)
			case "name":
				c.Name = val
			case "eps":
				c.Epsilon, err = strconv.ParseFloat(val, 64)
			case "delta":
				c.Delta, err = strconv.ParseFloat(val, 64)
			case "ids":
				c.IDSpace, err = strconv.ParseUint(val, 10, 64)
			case "ks":
				c.Keystream, err = blind.KeystreamByName(val)
				c.KeystreamSet = err == nil
			case "retain":
				c.RetainRounds, err = strconv.Atoi(val)
			case "cadence":
				var cad uint64
				cad, err = strconv.ParseUint(val, 10, 32)
				c.CadenceSec = uint32(cad)
			default:
				return nil, fmt.Errorf("%w: unknown key %q", ErrBadCampaign, key)
			}
			if err != nil {
				return nil, fmt.Errorf("%w: %s=%q: %v", ErrBadCampaign, key, val, err)
			}
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("%w (entry %q)", err, entry)
		}
		if seen[c.ID] {
			return nil, fmt.Errorf("%w: %d (entry %q)", ErrDuplicate, c.ID, entry)
		}
		seen[c.ID] = true
		out = append(out, c)
	}
	return out, nil
}

// Little-endian append/read helpers; the campaign codec stays free of
// encoding/binary's append allocations on hot directory paths.

func le32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

func f64bits(f float64) uint64 { return math.Float64bits(f) }

func f64from(u uint64) float64 { return math.Float64frombits(u) }

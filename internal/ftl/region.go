package ftl

import (
	"fmt"

	"repro/internal/flash"
)

// Derived tables. §4.4 has one placement mechanism — a table striped
// page-aligned across channels, described by a metadata record persisted in
// the reserved block — and everything the device stores beside feature data
// is an instance of it: a Region is block columns owned by a database (or by
// the FTL itself) holding a table whose shape derives from the owner's data
// layout. Because the table IS a DBLayout, it inherits the striping: entry e
// lands on channel e mod Channels, exactly where that channel's accelerator
// reads it without crossing the interconnect.

// RegionKind says what a region holds and how its table derives.
type RegionKind uint32

const (
	// BoundRegion is a database's stripe-bound table (DESIGN.md "Exact scan
	// pruning"): one EntryBytes summary per StripeFeatures within-channel
	// feature slots; stripe seg of channel ch is entry ch + Channels*seg.
	BoundRegion RegionKind = iota
	// QuantRegion is a database's quantized image (§7 precision extension):
	// one entry per feature, the fp32 element count re-encoded at EntryBytes
	// per element, on the same channel as the fp32 vector. Per-vector scales
	// ride in the page spare area and do not perturb the in-band byte math.
	QuantRegion
	// HistRegion is the FTL's own query-history image (internal/qhist): a
	// table of whole pages holding Payload.
	HistRegion
	numRegionKinds
)

// HistOwner owns the FTL's own regions. Like the ^DBID(0) metadata sentinel
// it is never handed out as a database id, so those columns survive DeleteDB
// and relocate under Compact like any other region.
const HistOwner = ^DBID(0) - 1

// Region records one derived table: its shape parameters and block columns.
type Region struct {
	Kind RegionKind
	// EntryBytes is the serialized stripe summary size (BoundRegion) or the
	// quantized element width, 1 = int8 (QuantRegion).
	EntryBytes int64
	// StripeFeatures is the feature slots summarized per entry (BoundRegion).
	StripeFeatures int64
	// StartBlock / Blocks delimit the region's block columns.
	StartBlock int
	Blocks     int
	// Payload is the raw image cached in controller DRAM (HistRegion); it
	// rides in the snapshot as the restore channel. Read-only to callers.
	Payload []byte
}

// table derives the region's layout from its owner's data layout.
func (r *Region) table(data DBLayout) (DBLayout, error) {
	t := DBLayout{Geom: data.Geom, StartBlock: r.StartBlock}
	switch {
	case r.Kind == BoundRegion && r.StripeFeatures > 0 && r.EntryBytes > 0:
		t.FeatureBytes, t.Features = r.EntryBytes, data.TotalStripes(r.StripeFeatures)
	case r.Kind == QuantRegion && r.EntryBytes > 0 && r.EntryBytes < 4 && data.FeatureBytes%4 == 0:
		t.FeatureBytes, t.Features = data.FeatureBytes/4*r.EntryBytes, data.Features
	case r.Kind == HistRegion && len(r.Payload) > 0:
		page := data.Geom.PageBytes
		t.FeatureBytes, t.Features = page, (int64(len(r.Payload))+page-1)/page
	default:
		return DBLayout{}, fmt.Errorf("ftl: invalid region (kind %d, %d B entries, %d features/stripe, %d B payload) over %d B features",
			r.Kind, r.EntryBytes, r.StripeFeatures, len(r.Payload), data.FeatureBytes)
	}
	return t, t.Validate()
}

// ChannelStripes returns the number of stripe entries channel ch needs for
// stripes of sf feature slots.
func (l DBLayout) ChannelStripes(ch int, sf int64) int64 {
	if sf <= 0 {
		panic(fmt.Sprintf("ftl: stripe of %d features", sf))
	}
	return (l.ChannelFeatures(ch) + sf - 1) / sf
}

// TotalStripes returns the bound-table entry count across all channels.
// Because features are dealt round-robin, a derived layout with
// Features=TotalStripes deals the entries back to the same channels.
func (l DBLayout) TotalStripes(sf int64) int64 {
	var total int64
	for ch := 0; ch < l.Geom.Channels; ch++ {
		total += l.ChannelStripes(ch, sf)
	}
	return total
}

// owner resolves who holds regions for id: a registered database, or the FTL
// itself for HistOwner. nil when id is unknown.
func (f *FTL) owner(id DBID) *DBMeta {
	if id == HistOwner {
		return &f.self
	}
	return f.dbs[id]
}

// held returns the owner's regions in kind order.
func (m *DBMeta) held() []*Region {
	var out []*Region
	for _, r := range m.regions {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Region returns id's region of the given kind (ok=false when none).
func (f *FTL) Region(id DBID, kind RegionKind) (Region, bool) {
	if m := f.owner(id); m != nil && kind < numRegionKinds && m.regions[kind] != nil {
		return *m.regions[kind], true
	}
	return Region{}, false
}

// derived returns the layout of the owner's region of the given kind.
func (m *DBMeta) derived(kind RegionKind) (DBLayout, bool) {
	r := m.regions[kind]
	if r == nil {
		return DBLayout{}, false
	}
	t, err := r.table(m.Layout)
	return t, err == nil
}

// BoundTable returns the derived layout of the database's stripe-bound
// table (ok=false when none is allocated).
func (m *DBMeta) BoundTable() (DBLayout, bool) { return m.derived(BoundRegion) }

// QuantTable returns the derived layout of the database's quantized feature
// table (ok=false when none is allocated).
func (m *DBMeta) QuantTable() (DBLayout, bool) { return m.derived(QuantRegion) }

// HistTable returns the derived layout of the persisted query-history image
// (ok=false when none is persisted).
func (f *FTL) HistTable() (DBLayout, bool) { return f.self.derived(HistRegion) }

// SetRegion places id's region of r.Kind, sized for the owner's CURRENT data
// layout, and returns the derived table to program. Database ids hold
// Bound/Quant regions striped over their own geometry; HistOwner holds the
// HistRegion, striped over geom. A region of the same shape whose columns
// still hold the grown table stays in place (fresh false: program only what
// changed; a caller rewriting a table whole drops it first). Otherwise the
// old region is freed and a new one allocated (fresh true: program the whole
// table). On any failure the owner is left without one: a missing table is
// safe (dense scan, fp32 scan, cold start), a stale one is not.
func (f *FTL) SetRegion(id DBID, geom flash.Geometry, r Region) (table DBLayout, fresh bool, err error) {
	m := f.owner(id)
	if m == nil || r.Kind >= numRegionKinds || (r.Kind == HistRegion) != (id == HistOwner) {
		return DBLayout{}, false, fmt.Errorf("ftl: region kind %d not placeable under owner %d", r.Kind, id)
	}
	if id == HistOwner {
		m.Layout.Geom = geom
	} else if geom != m.Layout.Geom {
		f.DropRegion(id, r.Kind)
		return DBLayout{}, false, fmt.Errorf("ftl: region geometry %+v differs from db %d's", geom, id)
	}
	r.Payload = append([]byte(nil), r.Payload...)
	if old := m.regions[r.Kind]; old != nil && old.EntryBytes == r.EntryBytes && old.StripeFeatures == r.StripeFeatures {
		r.StartBlock, r.Blocks = old.StartBlock, old.Blocks
		if table, err := r.table(m.Layout); err == nil && table.BlocksPerPlane() <= r.Blocks {
			m.regions[r.Kind] = &r
			return table, false, nil
		}
	}
	f.DropRegion(id, r.Kind)
	r.StartBlock = f.reservedBlocks // placeholder for validation
	if table, err = r.table(m.Layout); err != nil {
		return DBLayout{}, false, err
	}
	r.Blocks = max(table.BlocksPerPlane(), 1)
	if r.StartBlock, err = f.allocate(r.Blocks); err != nil {
		return DBLayout{}, false, fmt.Errorf("ftl: allocating region kind %d for owner %d: %w", r.Kind, id, err)
	}
	for i := r.StartBlock; i < r.StartBlock+r.Blocks; i++ {
		f.blockOwner[i] = id
	}
	m.regions[r.Kind] = &r
	table.StartBlock = r.StartBlock
	return table, true, nil
}

// DropRegion frees id's region of the given kind — its columns are erased,
// so wear is accounted — and clears the record. No region is a no-op.
func (f *FTL) DropRegion(id DBID, kind RegionKind) {
	m := f.owner(id)
	if m == nil || kind >= numRegionKinds || m.regions[kind] == nil {
		return
	}
	r := m.regions[kind]
	for i := r.StartBlock; i < r.StartBlock+r.Blocks; i++ {
		f.blockOwner[i] = 0
		f.wear[i]++
	}
	m.regions[kind] = nil
}

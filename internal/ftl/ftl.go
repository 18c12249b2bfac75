package ftl

import (
	"fmt"
	"sort"
)

// DBID identifies a feature database (the db_id of the DeepStore API).
type DBID uint64

// DBMeta is the 32-byte metadata record DeepStore keeps per database (§4.4):
// db_id, starting physical address, feature size, and feature count. It is
// persisted in a reserved flash block and cached in SSD DRAM.
type DBMeta struct {
	ID     DBID
	Name   string
	Layout DBLayout
	// regions holds the database's derived tables by kind (nil = none). See
	// region.go.
	regions [numRegionKinds]*Region
}

// FTL is a block-granular flash translation layer. DeepStore uses a regular
// block-level FTL (§4.4): databases are allocated whole block columns (the
// same block index across every plane), so accelerators can compute feature
// addresses from the start address without per-page translation.
type FTL struct {
	nextID DBID
	dbs    map[DBID]*DBMeta

	// blockOwner[i] maps block column i to the owning database (0 = free).
	blockOwner []DBID
	// wear[i] counts erases of block column i.
	wear []uint64

	// reservedBlocks at the start of every plane hold FTL metadata (§4.4
	// persists database metadata in a reserved flash block).
	reservedBlocks int

	// self owns the FTL's own regions (the persisted query-history image)
	// under the HistOwner id; its Layout carries only their geometry.
	self DBMeta

	// moved holds the extents Compact relocated since the last TakeMoves.
	moved []Move
}

// NewFTL creates an FTL managing geomBlocks block columns (a block column is
// the same block index across every plane of the array). The first column is
// reserved for the persisted metadata table.
func NewFTL(geomBlocks int) *FTL {
	if geomBlocks < 2 {
		panic(fmt.Sprintf("ftl: %d block columns too few", geomBlocks))
	}
	f := &FTL{
		nextID:         1,
		dbs:            make(map[DBID]*DBMeta),
		blockOwner:     make([]DBID, geomBlocks),
		wear:           make([]uint64, geomBlocks),
		reservedBlocks: 1,
		self:           DBMeta{ID: HistOwner},
	}
	f.blockOwner[0] = ^DBID(0) // metadata block column, never allocatable
	return f
}

// FreeBlocks returns the number of unallocated block columns.
func (f *FTL) FreeBlocks() int {
	n := 0
	for _, o := range f.blockOwner {
		if o == 0 {
			n++
		}
	}
	return n
}

// allocate finds a contiguous run of n free block columns, preferring the
// least-worn region (wear leveling across database lifetimes). When no run
// fits but n columns are free it compacts — the garbage collection a real
// device runs transparently — and retries; the moves await TakeMoves.
func (f *FTL) allocate(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("ftl: allocation of %d blocks", n)
	}
	for compacted := false; ; compacted = true {
		best, bestWear := -1, uint64(0)
		for start := 0; start+n <= len(f.blockOwner); start++ {
			ok := true
			var w uint64
			for i := start; i < start+n; i++ {
				if f.blockOwner[i] != 0 {
					ok = false
					start = i // skip past the conflict
					break
				}
				w += f.wear[i]
			}
			if ok && (best < 0 || w < bestWear) {
				best, bestWear = start, w
			}
		}
		if best >= 0 {
			return best, nil
		}
		if compacted || f.FreeBlocks() < n {
			return 0, fmt.Errorf("ftl: no run of %d free block columns (%d free total)", n, f.FreeBlocks())
		}
		f.Compact()
	}
}

// CreateDB allocates flash for a database described by the layout template
// (its StartBlock is ignored) and registers its metadata. The returned meta
// has the final layout with the allocated start block.
func (f *FTL) CreateDB(name string, layout DBLayout) (*DBMeta, error) {
	layout.StartBlock = f.reservedBlocks // placeholder for validation
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	need := max(layout.BlocksPerPlane(), 1)
	start, err := f.allocate(need)
	if err != nil {
		return nil, err
	}
	layout.StartBlock = start
	if layout.Features > 0 {
		// Re-validate the final page of the final channel share fits.
		last := layout.ChannelPages(0)
		if last > 0 {
			layout.ChannelPageAddr(0, last-1)
		}
	}
	meta := &DBMeta{ID: f.nextID, Name: name, Layout: layout}
	f.nextID++
	for i := start; i < start+need; i++ {
		f.blockOwner[i] = meta.ID
	}
	f.dbs[meta.ID] = meta
	return meta, nil
}

// AppendDB grows a database by extra features (the appendDB API). Appends
// that still fit the allocated block columns update the metadata in place;
// appends that overflow return an error (a real implementation would
// relocate, which read-mostly intelligent-query workloads never need).
func (f *FTL) AppendDB(id DBID, extra int64) (*DBMeta, error) {
	meta, ok := f.dbs[id]
	if !ok {
		return nil, fmt.Errorf("ftl: unknown database %d", id)
	}
	if extra < 0 {
		return nil, fmt.Errorf("ftl: negative append")
	}
	grown := meta.Layout
	grown.Features += extra
	owned := 0
	for _, o := range f.blockOwner {
		if o == id {
			owned++
		}
	}
	// Block columns holding the database's derived tables are owned by this
	// id but not available to feature data; counting them would let an
	// append silently overflow into the tables.
	for _, r := range meta.held() {
		owned -= r.Blocks
	}
	if grown.BlocksPerPlane() > owned {
		return nil, fmt.Errorf("ftl: append of %d features overflows the %d allocated block columns", extra, owned)
	}
	meta.Layout = grown
	return meta, nil
}

// Lookup returns a database's metadata.
func (f *FTL) Lookup(id DBID) (*DBMeta, bool) {
	m, ok := f.dbs[id]
	return m, ok
}

// DBs returns all registered databases sorted by ID.
func (f *FTL) DBs() []*DBMeta {
	out := make([]*DBMeta, 0, len(f.dbs))
	for _, m := range f.dbs {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DeleteDB erases a database's block columns (incrementing wear) and frees
// them.
func (f *FTL) DeleteDB(id DBID) error {
	if _, ok := f.dbs[id]; !ok {
		return fmt.Errorf("ftl: unknown database %d", id)
	}
	for i, o := range f.blockOwner {
		if o == id {
			f.blockOwner[i] = 0
			f.wear[i]++
		}
	}
	delete(f.dbs, id)
	return nil
}

// MaxWearSkew returns max-min erase counts across allocatable block columns,
// a wear-leveling health metric.
func (f *FTL) MaxWearSkew() uint64 {
	var min, max uint64
	first := true
	for i := f.reservedBlocks; i < len(f.wear); i++ {
		w := f.wear[i]
		if first {
			min, max, first = w, w, false
			continue
		}
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	return max - min
}

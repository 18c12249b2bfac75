package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/flash"
)

// Metadata persistence. §4.4: "This metadata is persisted in a reserved
// flash block, but will be cached in SSD DRAM for fast look-up." Snapshot
// serializes the FTL's durable state into the byte image written to the
// reserved block column; Restore rebuilds an FTL from it after a power cycle.
// The image is one format, written and read in one pass (all little-endian):
//
//	"DSFT" | u32 version | u64 nextID | u32 reserved
//	u32 columns | columns × (u64 owner, u64 wear)
//	u32 owners  | owners × owner record — every database by id, then the
//	              FTL's own HistOwner record when it holds a region
//	u64 FNV-1a-64 of every preceding byte
//
//	owner record:  u64 id | u32 len, name | 6 × u64 geometry |
//	               u64 featureBytes, features, startBlock |
//	               u32 regions | regions × region record
//	region record: u32 kind | u64 entryBytes, stripeFeatures, startBlock,
//	               blocks | u32 len, payload
//
// Images never outlive the process that wrote them (they pass from
// Checkpoint to Restore in memory), so no older version is readable.

const (
	persistMagic   = "DSFT"
	persistVersion = 5

	// maxPayloadBytes bounds the region payload a snapshot will accept.
	maxPayloadBytes = 1 << 28
)

var (
	// ErrCorrupt reports an image that is truncated, fails its checksum, or
	// whose records do not describe a consistent FTL.
	ErrCorrupt = errors.New("ftl: corrupt snapshot image")
	// ErrVersion reports an intact-looking image of a format this build
	// does not read.
	ErrVersion = errors.New("ftl: unsupported snapshot version")
)

var (
	le    = binary.LittleEndian
	zeros [8]byte // what a read past the end of an image yields
)

func imageSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// persisted returns every owner record a snapshot carries, in image order.
func (f *FTL) persisted() []*DBMeta {
	owners := f.DBs()
	if f.self.regions[HistRegion] != nil {
		owners = append(owners, &f.self)
	}
	return owners
}

// Snapshot serializes the FTL's durable state.
func (f *FTL) Snapshot() ([]byte, error) {
	owners := f.persisted()
	size := 64 + 16*len(f.blockOwner)
	for _, m := range owners {
		size += 128 + len(m.Name)
		for _, r := range m.held() {
			size += 40 + len(r.Payload)
		}
	}
	b := append(make([]byte, 0, size), persistMagic...)
	b = le.AppendUint32(b, persistVersion)
	b = le.AppendUint64(b, uint64(f.nextID))
	b = le.AppendUint32(b, uint32(f.reservedBlocks))
	b = le.AppendUint32(b, uint32(len(f.blockOwner)))
	for i := range f.blockOwner {
		b = le.AppendUint64(b, uint64(f.blockOwner[i]))
		b = le.AppendUint64(b, f.wear[i])
	}
	b = le.AppendUint32(b, uint32(len(owners)))
	for _, m := range owners {
		b = le.AppendUint64(b, uint64(m.ID))
		b = le.AppendUint32(b, uint32(len(m.Name)))
		b = append(b, m.Name...)
		l := m.Layout
		for _, v := range []int64{
			int64(l.Geom.Channels), int64(l.Geom.ChipsPerChannel), int64(l.Geom.PlanesPerChip),
			int64(l.Geom.BlocksPerPlane), int64(l.Geom.PagesPerBlock), l.Geom.PageBytes,
			l.FeatureBytes, l.Features, int64(l.StartBlock),
		} {
			b = le.AppendUint64(b, uint64(v))
		}
		b = le.AppendUint32(b, uint32(len(m.held())))
		for _, r := range m.held() {
			b = le.AppendUint32(b, uint32(r.Kind))
			for _, v := range []int64{r.EntryBytes, r.StripeFeatures, int64(r.StartBlock), int64(r.Blocks)} {
				b = le.AppendUint64(b, uint64(v))
			}
			b = le.AppendUint32(b, uint32(len(r.Payload)))
			b = append(b, r.Payload...)
		}
	}
	return le.AppendUint64(b, imageSum(b)), nil
}

// imageReader walks an image; reading past the end latches short and yields
// zeros, so the record loop checks once per record instead of once per field.
type imageReader struct {
	b     []byte
	short bool
}

func (r *imageReader) take(n int) []byte {
	if n > len(r.b) {
		r.short, r.b = true, nil
		return zeros[:]
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *imageReader) u32() uint32 { return le.Uint32(r.take(4)) }
func (r *imageReader) u64() uint64 { return le.Uint64(r.take(8)) }

// sized reads a u32 length and that many bytes, refusing lengths over limit.
func (r *imageReader) sized(limit uint32) []byte {
	n := r.u32()
	if n > limit {
		r.short = true
		return nil
	}
	return r.take(int(n))
}

// Restore rebuilds an FTL from a Snapshot image. It accepts only an image
// that is intact (magic, version, checksum) and self-consistent (validate):
// anything else is ErrVersion or ErrCorrupt, never a panic and never an FTL
// that panics later.
func Restore(data []byte) (*FTL, error) {
	if len(data) < len(persistMagic)+4+8 || string(data[:4]) != persistMagic {
		return nil, fmt.Errorf("%w: bad magic or %d-byte image", ErrCorrupt, len(data))
	}
	if v := le.Uint32(data[4:]); v != persistVersion {
		return nil, fmt.Errorf("%w %d (want %d)", ErrVersion, v, persistVersion)
	}
	body := data[:len(data)-8]
	if sum := le.Uint64(data[len(body):]); sum != imageSum(body) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := &imageReader{b: body[8:]}
	f := &FTL{nextID: DBID(r.u64()), dbs: make(map[DBID]*DBMeta), reservedBlocks: int(r.u32())}
	cols := r.u32()
	if cols < 2 || int(cols) > len(r.b)/16 {
		return nil, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, cols)
	}
	f.blockOwner = make([]DBID, cols)
	f.wear = make([]uint64, cols)
	for i := range f.blockOwner {
		f.blockOwner[i], f.wear[i] = DBID(r.u64()), r.u64()
	}
	f.self.ID = HistOwner
	for n := r.u32(); n > 0 && !r.short; n-- {
		m := &DBMeta{ID: DBID(r.u64()), Name: string(r.sized(1 << 16))}
		var v [9]int64
		for j := range v {
			v[j] = int64(r.u64())
		}
		m.Layout = DBLayout{
			Geom: flash.Geometry{
				Channels: int(v[0]), ChipsPerChannel: int(v[1]), PlanesPerChip: int(v[2]),
				BlocksPerPlane: int(v[3]), PagesPerBlock: int(v[4]), PageBytes: v[5],
			},
			FeatureBytes: v[6], Features: v[7], StartBlock: int(v[8]),
		}
		for k := r.u32(); k > 0 && !r.short; k-- {
			reg := &Region{Kind: RegionKind(r.u32()), EntryBytes: int64(r.u64()), StripeFeatures: int64(r.u64()),
				StartBlock: int(r.u64()), Blocks: int(r.u64())}
			reg.Payload = append(reg.Payload, r.sized(maxPayloadBytes)...) // a copy: the caller keeps data
			if reg.Kind >= numRegionKinds || m.regions[reg.Kind] != nil {
				return nil, fmt.Errorf("%w: owner %d: bad or repeated region kind %d", ErrCorrupt, m.ID, reg.Kind)
			}
			m.regions[reg.Kind] = reg
		}
		switch {
		case m.ID == HistOwner && f.self.regions[HistRegion] == nil && m.regions[HistRegion] != nil:
			f.self = *m
		case m.ID != HistOwner && f.dbs[m.ID] == nil:
			f.dbs[m.ID] = m
		default:
			return nil, fmt.Errorf("%w: owner %d recorded twice or empty", ErrCorrupt, m.ID)
		}
	}
	if r.short || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: records end %d bytes before the trailer", ErrCorrupt, len(r.b))
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return f, nil
}

// validate checks that the ownership map and the owner records describe each
// other exactly: the reserved columns and nothing else belong to the metadata
// sentinel; every region lies inside the column table, is owned column for
// column by its recorded owner and overlaps nothing; what an owner holds
// beyond its regions is one run at its data start block, exactly the size its
// layout needs; and no column belongs to an owner without a record.
func (f *FTL) validate() error {
	cols := len(f.blockOwner)
	if f.reservedBlocks < 1 || f.reservedBlocks >= cols || f.nextID < 1 || f.nextID >= HistOwner {
		return fmt.Errorf("%d reserved of %d columns, next id %d", f.reservedBlocks, cols, f.nextID)
	}
	claimed := make([]bool, cols)
	claim := func(id DBID, start, n int) error {
		if start < 0 || n < 1 || start >= cols || n > cols-start {
			return fmt.Errorf("owner %d: columns [%d,+%d) outside the %d-column table", id, start, n, cols)
		}
		for i := start; i < start+n; i++ {
			if f.blockOwner[i] != id || claimed[i] {
				return fmt.Errorf("owner %d: column %d owned by %d or claimed twice", id, i, f.blockOwner[i])
			}
			claimed[i] = true
		}
		return nil
	}
	if err := claim(^DBID(0), 0, f.reservedBlocks); err != nil {
		return err
	}
	owned := make(map[DBID]int)
	for _, o := range f.blockOwner {
		owned[o]++
	}
	for _, m := range f.persisted() {
		if m.ID == 0 || m.ID == ^DBID(0) || (m.ID >= f.nextID && m.ID != HistOwner) {
			return fmt.Errorf("owner id %d outside (0, next id %d)", m.ID, f.nextID)
		}
		l, data := m.Layout, owned[m.ID]
		g := l.Geom
		if err := g.Validate(); err != nil {
			return fmt.Errorf("owner %d: %v", m.ID, err)
		}
		if max(g.Channels, g.ChipsPerChannel, g.PlanesPerChip, g.BlocksPerPlane, g.PagesPerBlock) > 1<<20 ||
			l.Features > 1<<40 || l.FeatureBytes > 1<<20 {
			return fmt.Errorf("owner %d: implausible layout %+v", m.ID, l)
		}
		for _, r := range m.held() {
			if (r.Kind == HistRegion) != (m.ID == HistOwner) {
				return fmt.Errorf("owner %d holds region kind %d", m.ID, r.Kind)
			}
			if _, err := r.table(l); err != nil {
				return fmt.Errorf("owner %d: %v", m.ID, err)
			}
			if err := claim(m.ID, r.StartBlock, r.Blocks); err != nil {
				return err
			}
			data -= r.Blocks
		}
		if m.ID == HistOwner {
			continue // no data extent; stray columns fail the orphan check below
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("db %d: %v", m.ID, err)
		}
		if need := max(l.BlocksPerPlane(), 1); need != data {
			return fmt.Errorf("db %d needs %d data columns, owns %d", m.ID, need, data)
		}
		if err := claim(m.ID, l.StartBlock, data); err != nil {
			return err
		}
	}
	for i, o := range f.blockOwner {
		if o != 0 && !claimed[i] {
			return fmt.Errorf("column %d owned by %d, which has no record", i, o)
		}
	}
	return nil
}

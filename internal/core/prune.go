package core

import (
	"repro/internal/ftl"
	"repro/internal/nn"
)

// The exact stripe-pruning tier (DESIGN.md "Exact scan pruning"). Each
// materialized database carries a table of per-(channel, stripe) envelopes —
// per-dimension float32 extrema plus a rounded-up max norm — built at
// write/append/reorg time, persisted page-aligned as an ftl.BoundRegion
// through ssd.PlaceRegion, and mirrored here in controller DRAM. At query time
// the sweep evaluates nn.BoundScorer.UpperBound against the shard's top-K
// floor at each stripe entry and skips stripes that cannot beat it.
// Skipping is sound, not approximate: a stripe is skipped only when its
// queue is full and bound <= floor, and a full queue rejects any offer with
// score <= floor (scores tie-break by ascending FeatureID, which is exactly
// the order the shard walk presents them in), so the skipped offers could
// never have mutated the queue and the merged top-K is bit-identical.

// boundTier is the in-DRAM stripe-bound table of one database.
type boundTier struct {
	// stripeFeatures is the per-channel stripe granularity (slots, not
	// global feature indices: stripe seg of channel ch covers the channel's
	// slots [seg*stripeFeatures, (seg+1)*stripeFeatures)).
	stripeFeatures int64
	// entryBytes is the serialized table-entry size, charged per bound check.
	entryBytes int64
	// envs[ch][seg] summarizes stripe seg of channel ch.
	envs [][]nn.Envelope
}

// pruneStripeFeatures resolves the effective stripe granularity.
func (ds *DeepStore) pruneStripeFeatures() int64 {
	if ds.opts.PruneStripeFeatures > 0 {
		return int64(ds.opts.PruneStripeFeatures)
	}
	return DefaultPruneStripe
}

// boundEntryBytes is the serialized size of one table entry: per-dimension
// lo/hi float32 pairs plus the max norm, the count, and a feature-count
// header — 16 bytes of metadata plus 8 per dimension.
func boundEntryBytes(dims int64) int64 { return 16 + 8*dims }

// stripeEnvelope builds the envelope of stripe seg of channel ch: the
// features at slots [seg*sf, (seg+1)*sf) of the channel, i.e. global indices
// ch + Channels*slot (§4.4 striping).
func stripeEnvelope(vectors [][]float32, layout ftl.DBLayout, dims int, ch int, seg, sf int64) nn.Envelope {
	env := nn.NewEnvelope(dims)
	channels := int64(layout.Geom.Channels)
	chFeats := layout.ChannelFeatures(ch)
	hi := (seg + 1) * sf
	if hi > chFeats {
		hi = chFeats
	}
	for slot := seg * sf; slot < hi; slot++ {
		env.Absorb(vectors[int64(ch)+channels*slot])
	}
	return env
}

// refreshTables brings the database's derived tables up to date after its
// vectors changed: features [0, oldFeatures) sit where they did (an append),
// or nothing does (oldFeatures 0: a fresh write, a reorg). Each table is
// refreshed atomically with the admin op or dropped — a stale table would
// prune or score wrongly, whereas no table merely scans densely / in fp32 with
// identical results, so the op itself still succeeds. The bound table is
// allocated before the int8 table: the order fixes their block addresses.
func (ds *DeepStore) refreshTables(st *dbState, oldFeatures int64) {
	if ds.opts.Prune {
		ds.refreshBoundTier(st, oldFeatures)
	}
	if ds.opts.Quantized {
		ds.refreshQuantState(st, oldFeatures)
	}
}

// refreshBoundTier brings the stripe-bound table up to the database's
// current layout: it recomputes the stripes holding each channel's new slots
// (appends never move existing features; with oldFeatures 0 or no previous
// tier every stripe is new and the table is re-placed), programs their pages
// (every page when the region is fresh) and grows the DRAM mirror in place.
// On failure the database has no tier.
func (ds *DeepStore) refreshBoundTier(st *dbState, oldFeatures int64) {
	bt := st.bounds
	st.bounds = nil
	layout, sf := st.meta.Layout, ds.pruneStripeFeatures()
	dims := layout.FeatureBytes / 4
	if bt == nil || oldFeatures == 0 {
		oldFeatures = 0
		bt = &boundTier{stripeFeatures: sf, entryBytes: boundEntryBytes(dims), envs: make([][]nn.Envelope, layout.Geom.Channels)}
		ds.dev.FTL.DropRegion(st.meta.ID, ftl.BoundRegion)
	}
	before := layout
	before.Features = oldFeatures
	// dirty is channel ch's stripe span [first, stripes) holding new slots.
	dirty := func(ch int) (int64, int64) {
		s0, stripes := before.ChannelFeatures(ch), layout.ChannelStripes(ch, sf)
		if s0 == layout.ChannelFeatures(ch) {
			return stripes, stripes
		}
		return s0 / sf, stripes
	}
	if err := ds.dev.PlaceRegion(st.meta.ID, ftl.Region{Kind: ftl.BoundRegion, StripeFeatures: sf, EntryBytes: boundEntryBytes(dims)},
		func(table ftl.DBLayout, ch int) (int64, int64) { return table.SlotPages(dirty(ch)) }); err != nil {
		ds.obs.Counter("core_table_place_failures").Inc() // the device is full
		return
	}
	for ch := range bt.envs {
		first, stripes := dirty(ch)
		for seg := first; seg < stripes; seg++ {
			bt.envs[ch] = append(bt.envs[ch][:seg], stripeEnvelope(st.vectors, layout, int(dims), ch, seg, sf))
		}
	}
	st.bounds = bt
}

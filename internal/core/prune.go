package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/ftl"
	"repro/internal/nn"
	"repro/internal/sim"
)

// The exact stripe-pruning tier (DESIGN.md "Exact scan pruning"). Each
// materialized database carries a table of per-(channel, stripe) envelopes —
// per-dimension float32 extrema plus a rounded-up max norm — built at
// write/append/reorg time, persisted page-aligned through ftl.SetBoundTable /
// ssd.ProgramBoundTable, and mirrored here in controller DRAM. At query time
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

// pruneTier returns the database's bound tier when pruning is enabled and a
// table exists, nil otherwise. With a nil tier the sweep walks every stripe.
func (ds *DeepStore) pruneTier(st *dbState) *boundTier {
	if !ds.opts.Prune {
		return nil
	}
	return st.bounds
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

// buildBoundTier computes the database's full stripe-bound table, allocates
// and programs its flash copy, and installs the DRAM mirror. On any failure
// the database is left with no tier (dense fallback).
func (ds *DeepStore) buildBoundTier(st *dbState) error {
	if st.vectors == nil {
		return fmt.Errorf("core: bound tier needs materialized vectors")
	}
	layout := st.meta.Layout
	sf := ds.pruneStripeFeatures()
	dims := layout.FeatureBytes / 4
	meta, err := ds.dev.FTL.SetBoundTable(st.meta.ID, sf, boundEntryBytes(dims))
	if err != nil {
		return err
	}
	st.meta = meta
	envs := make([][]nn.Envelope, layout.Geom.Channels)
	for ch := range envs {
		stripes := layout.ChannelStripes(ch, sf)
		envs[ch] = make([]nn.Envelope, stripes)
		for seg := int64(0); seg < stripes; seg++ {
			envs[ch][seg] = stripeEnvelope(st.vectors, layout, int(dims), ch, seg, sf)
		}
	}
	if err := ds.dev.ProgramBoundTable(st.meta); err != nil {
		ds.dropBoundTier(st)
		return err
	}
	st.bounds = &boundTier{stripeFeatures: sf, entryBytes: boundEntryBytes(dims), envs: envs}
	return nil
}

// rebuildBoundStripes refreshes the tier after an append that grew the
// database from oldFeatures: only stripes at or past each channel's first
// dirty slot are recomputed (the prefix is unchanged — appends never move
// existing features). A database without a tier gets a full build. Any
// failure drops the tier entirely: a stale table would under-estimate new
// features' scores and prune wrongly, whereas no table is merely slow.
func (ds *DeepStore) rebuildBoundStripes(st *dbState, oldFeatures int64) error {
	if st.bounds == nil {
		return ds.buildBoundTier(st)
	}
	old := st.bounds
	layout := st.meta.Layout
	sf := old.stripeFeatures
	dims := layout.FeatureBytes / 4
	// Reallocate the flash table first (the stripe count grew).
	meta, err := ds.dev.FTL.SetBoundTable(st.meta.ID, sf, old.entryBytes)
	if err != nil {
		ds.dropBoundTier(st)
		return err
	}
	st.meta = meta
	channels := int64(layout.Geom.Channels)
	envs := make([][]nn.Envelope, layout.Geom.Channels)
	for ch := range envs {
		stripes := layout.ChannelStripes(ch, sf)
		envs[ch] = make([]nn.Envelope, stripes)
		// The channel held oldChFeats slots before the append; every stripe
		// strictly before the one containing the first new slot is intact.
		oldChFeats := oldFeatures/channels + boolToI64(int64(ch) < oldFeatures%channels)
		firstDirty := oldChFeats / sf
		copy(envs[ch], old.envs[ch][:min64(firstDirty, int64(len(old.envs[ch])))])
		for seg := firstDirty; seg < stripes; seg++ {
			envs[ch][seg] = stripeEnvelope(st.vectors, layout, int(dims), ch, seg, sf)
		}
	}
	if err := ds.dev.ProgramBoundTable(st.meta); err != nil {
		ds.dropBoundTier(st)
		return err
	}
	st.bounds = &boundTier{stripeFeatures: sf, entryBytes: old.entryBytes, envs: envs}
	return nil
}

// dropBoundTier removes the database's tier and frees its flash table.
func (ds *DeepStore) dropBoundTier(st *dbState) {
	st.bounds = nil
	ds.dev.FTL.DropBoundTable(st.meta.ID)
}

func boolToI64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// boundCheckLatency models the bound_check stage: per evaluated stripe, the
// accelerator reads one table entry over its flash channel and runs the
// interval compare (we charge two network-forward-equivalents — the lo and
// hi propagation halves). Checks spread across the level's accelerators
// like the scan itself.
func (ds *DeepStore) boundCheckLatency(net *nn.Network, level accel.Level, tier *boundTier, checked int64) sim.Duration {
	if checked == 0 {
		return 0
	}
	spec := specFor(ds, level)
	perAccel := (checked + int64(spec.Count) - 1) / int64(spec.Count)
	cost := spec.Array.NetworkCost(net.LayerPlan())
	secs := float64(perAccel*2*cost.Cycles)/spec.Array.FreqHz +
		float64(perAccel*tier.entryBytes)/ds.dev.Config.Timing.ChannelBandwidth
	return sim.FromSeconds(secs)
}

// boundCheckEnergy models the stage's energy: two forward-equivalents of
// systolic compute per check plus the table-entry flash read and its NoC
// crossing.
func (ds *DeepStore) boundCheckEnergy(net *nn.Network, level accel.Level, tier *boundTier, checked int64) energy.Breakdown {
	if checked == 0 {
		return energy.Breakdown{}
	}
	b := ds.comparisonEnergy(net, level, 2*checked)
	b.Add(ds.emodel.Energy(energy.Activity{
		FlashBytes: checked * tier.entryBytes,
		NoCBytes:   checked * tier.entryBytes,
	}))
	return b
}

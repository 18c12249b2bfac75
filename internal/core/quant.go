package core

import (
	"repro/internal/ftl"
	"repro/internal/nn"
)

// The quantized scoring path (DESIGN.md §12 "Quantized scoring"). Each
// materialized database on a quantized engine carries an int8 image of its
// feature vectors — symmetric per-vector max-abs quantization, built once at
// writeDB time, persisted page-aligned as an ftl.QuantRegion through
// ssd.PlaceRegion (per-vector scales live in the page spare area), and
// mirrored here in controller DRAM. Quantized scans read the int8 table
// instead of the fp32 data, so flash, NoC, and DRAM traffic are charged at 1
// byte per element and the systolic arrays run at INT8 (4 MACs/PE, cheaper
// MAC energy).
//
// Two modes ride on the same scan: approximate (Options.RerankMargin == 0)
// returns the int8 top-K directly; two-pass exact (RerankMargin > 0) scans
// for K·margin candidates and reranks them in float32, restoring the exact
// fp32 top-K — charged as the rerank_exact stage.

// quantState is the in-DRAM mirror of one database's int8 table.
type quantState struct {
	vecs []nn.QuantizedVector
}

// refreshQuantState brings the int8 table up to the database's current
// layout: it quantizes the vectors from oldFeatures on into the DRAM mirror,
// grown in place (per-vector scales make every existing entry independent of
// an append; with oldFeatures 0 or no previous state all of them are new and
// the table is re-placed), and programs the pages holding them (every page
// when the region is fresh). On failure the database has no quant state.
func (ds *DeepStore) refreshQuantState(st *dbState, oldFeatures int64) {
	qs := st.quant
	st.quant = nil
	if qs == nil || oldFeatures == 0 {
		oldFeatures = 0
		qs = &quantState{vecs: make([]nn.QuantizedVector, 0, len(st.vectors))}
		ds.dev.FTL.DropRegion(st.meta.ID, ftl.QuantRegion)
	}
	if err := ds.dev.PlaceRegion(st.meta.ID, ftl.Region{Kind: ftl.QuantRegion, EntryBytes: 1}, func(table ftl.DBLayout, ch int) (int64, int64) {
		return table.ChannelRangePages(ch, oldFeatures, table.Features)
	}); err != nil {
		ds.obs.Counter("core_table_place_failures").Inc() // the device is full
		return
	}
	qs.vecs = qs.vecs[:oldFeatures]
	for _, v := range st.vectors[oldFeatures:] {
		qs.vecs = append(qs.vecs, nn.QuantizeVector(v))
	}
	st.quant = qs
}

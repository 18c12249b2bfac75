package core

import (
	"repro/internal/ftl"
	"repro/internal/nn"
)

// The quantized scoring path (DESIGN.md §12 "Quantized scoring"). Each
// materialized database on a quantized engine carries an int8 image of its
// feature vectors — symmetric per-vector max-abs quantization, built once at
// writeDB time, persisted page-aligned as an ftl.QuantRegion through
// ssd.ProgramTable (per-vector scales live in the page spare area), and
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

// quantFor returns the database's quant state when the quantized path is
// enabled and a table exists, nil otherwise. With a nil state the sweep
// scores in fp32.
func (ds *DeepStore) quantFor(st *dbState) *quantState {
	if !ds.opts.Quantized {
		return nil
	}
	return st.quant
}

// refreshQuantState reallocates and reprograms the int8 table for the
// database's current layout and quantizes the vectors from oldFeatures on
// (per-vector scales make every existing entry independent of an append; with
// no previous state all of them are new). On failure the database has no
// quant state.
func (ds *DeepStore) refreshQuantState(st *dbState, oldFeatures int64) {
	vecs := make([]nn.QuantizedVector, 0, len(st.vectors))
	if st.quant != nil {
		vecs = append(vecs, st.quant.vecs[:oldFeatures]...)
	}
	st.quant = nil
	table, err := ds.dev.FTL.SetRegion(st.meta.ID, st.meta.Layout.Geom,
		ftl.Region{Kind: ftl.QuantRegion, EntryBytes: 1})
	if err != nil {
		return
	}
	ds.dev.ProgramTable(table)
	for _, v := range st.vectors[len(vecs):] {
		vecs = append(vecs, nn.QuantizeVector(v))
	}
	st.quant = &quantState{vecs: vecs}
}

package core

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/nn"
	"repro/internal/sim"
)

// The quantized scoring path (DESIGN.md §12 "Quantized scoring"). Each
// materialized database on a quantized engine carries an int8 image of its
// feature vectors — symmetric per-vector max-abs quantization, built once at
// writeDB time, persisted page-aligned through ftl.SetQuantTable /
// ssd.ProgramQuantTable (per-vector scales live in the page spare area), and
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

// buildQuantState quantizes the database's vectors, allocates and programs
// the flash copy of the int8 table, and installs the DRAM mirror. On any
// failure the database is left with no quant state (fp32 fallback).
func (ds *DeepStore) buildQuantState(st *dbState) error {
	if st.vectors == nil {
		return fmt.Errorf("core: quantized table needs materialized vectors")
	}
	meta, err := ds.dev.FTL.SetQuantTable(st.meta.ID, 1)
	if err != nil {
		return err
	}
	st.meta = meta
	if err := ds.dev.ProgramQuantTable(st.meta); err != nil {
		ds.dropQuantState(st)
		return err
	}
	st.quant = &quantState{vecs: nn.QuantizeDB(st.vectors)}
	return nil
}

// rebuildQuantAppend refreshes the table after an append that grew the
// database from oldFeatures: only the new vectors are quantized (per-vector
// scales make every existing entry independent of the append), but the flash
// table is reallocated and reprogrammed for the grown layout. A database
// without a state gets a full build. Any failure drops the state entirely:
// a stale table would score the new features against garbage, whereas no
// table merely scans in fp32.
func (ds *DeepStore) rebuildQuantAppend(st *dbState, oldFeatures int64) error {
	if st.quant == nil {
		return ds.buildQuantState(st)
	}
	meta, err := ds.dev.FTL.SetQuantTable(st.meta.ID, 1)
	if err != nil {
		ds.dropQuantState(st)
		return err
	}
	st.meta = meta
	if err := ds.dev.ProgramQuantTable(st.meta); err != nil {
		ds.dropQuantState(st)
		return err
	}
	vecs := st.quant.vecs[:oldFeatures]
	for _, v := range st.vectors[oldFeatures:] {
		vecs = append(vecs, nn.QuantizeVector(v))
	}
	st.quant = &quantState{vecs: vecs}
	return nil
}

// dropQuantState removes the database's quant state and frees its flash
// table.
func (ds *DeepStore) dropQuantState(st *dbState) {
	st.quant = nil
	ds.dev.FTL.DropQuantTable(st.meta.ID)
}

// rerankExactLatency models the rerank_exact stage: the K·margin candidate
// fp32 vectors are re-read from the data layout and re-scored at full
// precision, spread across the level's accelerators like the scan itself.
func (ds *DeepStore) rerankExactLatency(net *nn.Network, st *dbState, level accel.Level, cands int64) sim.Duration {
	if cands == 0 {
		return 0
	}
	spec := specFor(ds, level)
	perAccel := (cands + int64(spec.Count) - 1) / int64(spec.Count)
	cost := spec.Array.NetworkCost(net.LayerPlan())
	fb := st.meta.Layout.FeatureBytes
	secs := float64(perAccel*cost.Cycles)/spec.Array.FreqHz +
		float64(perAccel*fb)/ds.dev.Config.Timing.ChannelBandwidth
	return sim.FromSeconds(secs)
}

// rerankExactEnergy models the stage's energy: one fp32 forward per
// candidate plus the candidate vector's flash read and NoC crossing.
func (ds *DeepStore) rerankExactEnergy(net *nn.Network, st *dbState, level accel.Level, cands int64) energy.Breakdown {
	if cands == 0 {
		return energy.Breakdown{}
	}
	b := ds.comparisonEnergy(net, level, cands)
	fb := st.meta.Layout.FeatureBytes
	b.Add(ds.emodel.Energy(energy.Activity{
		FlashBytes: cands * fb,
		NoCBytes:   cands * fb,
	}))
	return b
}

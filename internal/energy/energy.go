// Package energy implements the paper's linear energy model (§6.1): activity
// counts collected from the systolic-array and flash models are converted to
// Joules with per-event constants — arithmetic scaled to 32 nm, SRAM energies
// in the CACTI itrs-hp/itrs-lop styles, DRAM at 20 pJ/bit, flash page-access
// energy derived from the Intel DC P4500, and a wire-length-based
// interconnect term.
package energy

import (
	"fmt"
	"math"
)

// SRAMKind selects the CACTI transistor model used for a scratchpad.
// §6.1: itrs-hp for SSD- and channel-level accelerators, itrs-lop for the
// power-constrained chip-level accelerators.
type SRAMKind int

const (
	ITRSHP SRAMKind = iota
	ITRSLOP
)

// String names the SRAM kind as CACTI does.
func (k SRAMKind) String() string {
	switch k {
	case ITRSHP:
		return "itrs-hp"
	case ITRSLOP:
		return "itrs-lop"
	default:
		return fmt.Sprintf("SRAMKind(%d)", int(k))
	}
}

// SRAMJoulesPerByte returns the per-byte access energy of an SRAM of the
// given capacity at 32 nm. Access energy grows sub-linearly with capacity
// (longer word/bit lines, but banking amortizes them); the size^0.3 curve is
// anchored at CACTI-style points: ~0.5 pJ/B for 64 KB and ~2.1 pJ/B for 8 MB
// in the high-performance model. The low-operating-power model halves
// dynamic energy at lower speed.
func SRAMJoulesPerByte(sizeBytes int64, kind SRAMKind) float64 {
	if sizeBytes <= 0 {
		panic(fmt.Sprintf("energy: SRAM size %d invalid", sizeBytes))
	}
	const (
		refSize = 64 << 10
		refJB   = 0.5e-12
	)
	jb := refJB * math.Pow(float64(sizeBytes)/float64(refSize), 0.3)
	if kind == ITRSLOP {
		jb *= 0.5
	}
	return jb
}

// The per-event energy constants.
const (
	// MACJoules is one 32-bit floating-point multiply-accumulate at 32 nm:
	// Horowitz (ISSCC'14) 45 nm FP32 mul+add ≈ 4.6 pJ, scaled to 32 nm.
	MACJoules = 3.2e-12
	// DRAMJoulesPerByte is controller-DRAM access energy (20 pJ/bit, §6.1).
	DRAMJoulesPerByte = 20e-12 * 8
	// FlashJoulesPerByte is the NAND page-access energy per byte. The P4500
	// draws ~11 W read-active at 3.2 GB/s end to end; the NAND array +
	// channel interface share (excluding controller, DRAM, and PCIe PHY,
	// which the accelerators bypass) is ~0.7 nJ/B.
	FlashJoulesPerByte = 0.7e-9
	// NoCJoulesPerByte is on-/off-chip interconnect energy per byte moved
	// between a flash channel and an accelerator, extrapolated from wire
	// length and area as in §6.1: ~0.1 pJ/bit/mm over ~10 mm.
	NoCJoulesPerByte = 8e-12
)

// Activity aggregates the countable work of a simulation run.
type Activity struct {
	// MACs is the multiply-accumulate count.
	MACs int64
	// SRAMBytes is scratchpad traffic (reads + writes) against an SRAM of
	// SRAMSize bytes and SRAMKind model.
	SRAMBytes int64
	SRAMSize  int64
	SRAMKind  SRAMKind
	// L2Bytes is traffic against the shared SSD-level scratchpad (8 MB,
	// itrs-hp), used by channel-level accelerators as second-level memory.
	L2Bytes int64
	L2Size  int64
	// DRAMBytes is controller-DRAM traffic (weight streaming, results).
	DRAMBytes int64
	// FlashBytes is bytes read from NAND pages.
	FlashBytes int64
	// NoCBytes is bytes moved across the internal interconnect.
	NoCBytes int64
	// MACScale scales the per-MAC energy for reduced-precision arithmetic
	// (systolic.Precision.MACEnergyScale); 0 means unscaled FP32 (1.0), so
	// zero-valued records keep their historical meaning.
	MACScale float64
}

// Add accumulates another activity record.
func (a *Activity) Add(b Activity) {
	a.MACs += b.MACs
	a.SRAMBytes += b.SRAMBytes
	if a.SRAMSize == 0 {
		a.SRAMSize, a.SRAMKind = b.SRAMSize, b.SRAMKind
	}
	a.L2Bytes += b.L2Bytes
	if a.L2Size == 0 {
		a.L2Size = b.L2Size
	}
	a.DRAMBytes += b.DRAMBytes
	a.FlashBytes += b.FlashBytes
	a.NoCBytes += b.NoCBytes
	if a.MACScale == 0 {
		a.MACScale = b.MACScale
	}
}

// Breakdown is the Fig. 12 decomposition of energy into compute, memory
// (SRAM + DRAM), and flash, in Joules.
type Breakdown struct {
	ComputeJ float64
	MemoryJ  float64
	FlashJ   float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.ComputeJ + b.MemoryJ + b.FlashJ }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.ComputeJ += o.ComputeJ
	b.MemoryJ += o.MemoryJ
	b.FlashJ += o.FlashJ
}

// Fractions returns the compute/memory/flash shares (summing to 1), or
// zeros for an empty breakdown.
func (b Breakdown) Fractions() (compute, memory, flash float64) {
	t := b.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return b.ComputeJ / t, b.MemoryJ / t, b.FlashJ / t
}

// Energy converts an activity record to a Fig. 12 breakdown.
func Energy(a Activity) Breakdown {
	var b Breakdown
	b.ComputeJ = float64(a.MACs) * MACJoules
	if a.MACScale > 0 {
		b.ComputeJ *= a.MACScale
	}
	if a.SRAMBytes > 0 {
		b.MemoryJ += float64(a.SRAMBytes) * SRAMJoulesPerByte(a.SRAMSize, a.SRAMKind)
	}
	if a.L2Bytes > 0 {
		size := a.L2Size
		if size == 0 {
			size = 8 << 20
		}
		b.MemoryJ += float64(a.L2Bytes) * SRAMJoulesPerByte(size, ITRSHP)
	}
	b.MemoryJ += float64(a.DRAMBytes) * DRAMJoulesPerByte
	b.FlashJ = float64(a.FlashBytes)*FlashJoulesPerByte + float64(a.NoCBytes)*NoCJoulesPerByte
	return b
}

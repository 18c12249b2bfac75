package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSRAMEnergyGrowsWithSize(t *testing.T) {
	small := SRAMJoulesPerByte(64<<10, ITRSHP)
	mid := SRAMJoulesPerByte(512<<10, ITRSHP)
	big := SRAMJoulesPerByte(8<<20, ITRSHP)
	if !(small < mid && mid < big) {
		t.Errorf("SRAM energy not monotone: %v, %v, %v", small, mid, big)
	}
	// Anchors: 64 KB ~0.5 pJ/B, 8 MB ~2x-4x more expensive per byte.
	if math.Abs(small-0.5e-12) > 1e-14 {
		t.Errorf("64KB energy = %v, want 0.5 pJ/B", small)
	}
	if big < 2*small || big > 10*small {
		t.Errorf("8MB/64KB energy ratio = %v, implausible", big/small)
	}
}

func TestSRAMLowPowerCheaper(t *testing.T) {
	hp := SRAMJoulesPerByte(512<<10, ITRSHP)
	lop := SRAMJoulesPerByte(512<<10, ITRSLOP)
	if lop >= hp {
		t.Errorf("itrs-lop (%v) not cheaper than itrs-hp (%v)", lop, hp)
	}
}

func TestSRAMBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero SRAM size did not panic")
		}
	}()
	SRAMJoulesPerByte(0, ITRSHP)
}

func TestDefaultModelConstants(t *testing.T) {
	// DRAM is 20 pJ/bit = 160 pJ/B per §6.1.
	if DRAMJoulesPerByte != 160e-12 {
		t.Errorf("DRAM energy = %v, want 160 pJ/B", DRAMJoulesPerByte)
	}
}

func TestEnergyBreakdown(t *testing.T) {
	a := Activity{
		MACs:       1e9,
		SRAMBytes:  1 << 30,
		SRAMSize:   512 << 10,
		SRAMKind:   ITRSHP,
		DRAMBytes:  1 << 20,
		FlashBytes: 1 << 30,
		NoCBytes:   1 << 30,
	}
	b := Energy(a)
	if b.ComputeJ <= 0 || b.MemoryJ <= 0 || b.FlashJ <= 0 {
		t.Errorf("breakdown has non-positive component: %+v", b)
	}
	wantCompute := 1e9 * MACJoules
	if math.Abs(b.ComputeJ-wantCompute) > 1e-9 {
		t.Errorf("compute = %v, want %v", b.ComputeJ, wantCompute)
	}
	c, mem, f := b.Fractions()
	if math.Abs(c+mem+f-1) > 1e-9 {
		t.Errorf("fractions sum to %v", c+mem+f)
	}
}

func TestEnergyZeroActivity(t *testing.T) {
	b := Energy(Activity{})
	if b.Total() != 0 {
		t.Errorf("zero activity has energy %v", b.Total())
	}
	c, m, f := b.Fractions()
	if c != 0 || m != 0 || f != 0 {
		t.Error("zero breakdown has non-zero fractions")
	}
}

// Property: energy is additive — E(a+b) == E(a) + E(b) (same SRAM config).
func TestEnergyAdditivityProperty(t *testing.T) {
	f := func(m1, m2 uint32, s1, s2 uint32) bool {
		a := Activity{MACs: int64(m1), SRAMBytes: int64(s1), SRAMSize: 512 << 10}
		b := Activity{MACs: int64(m2), SRAMBytes: int64(s2), SRAMSize: 512 << 10}
		sum := a
		sum.Add(b)
		ea, eb, es := Energy(a), Energy(b), Energy(sum)
		tol := 1e-12 + 1e-9*es.Total()
		return math.Abs(ea.Total()+eb.Total()-es.Total()) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBreakdownAdd(t *testing.T) {
	a := Breakdown{ComputeJ: 1, MemoryJ: 2, FlashJ: 3}
	a.Add(Breakdown{ComputeJ: 10, MemoryJ: 20, FlashJ: 30})
	if a.ComputeJ != 11 || a.MemoryJ != 22 || a.FlashJ != 33 {
		t.Errorf("add = %+v", a)
	}
	if a.Total() != 66 {
		t.Errorf("total = %v", a.Total())
	}
}

func TestActivityAddTakesSRAMConfig(t *testing.T) {
	var a Activity
	a.Add(Activity{SRAMBytes: 10, SRAMSize: 512 << 10, SRAMKind: ITRSLOP, L2Bytes: 5, L2Size: 8 << 20})
	if a.SRAMSize != 512<<10 || a.SRAMKind != ITRSLOP || a.L2Size != 8<<20 {
		t.Errorf("SRAM config not propagated: %+v", a)
	}
}

func TestSRAMKindString(t *testing.T) {
	if ITRSHP.String() != "itrs-hp" || ITRSLOP.String() != "itrs-lop" {
		t.Error("kind strings wrong")
	}
}

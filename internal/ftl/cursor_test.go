package ftl

import (
	"math/rand"
	"testing"

	"repro/internal/flash"
	"repro/internal/workload"
)

// addrOrPanic calls f and reports its address or that it panicked.
func addrOrPanic(f func() flash.PageAddr) (a flash.PageAddr, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

// walkCursor checks a cursor from within-channel page j0 at stride against
// ChannelPageAddr, page by page, for up to steps pages (steps < 0: until
// ChannelPageAddr panics, which the cursor must do at the same page).
func walkCursor(t *testing.T, l DBLayout, ch int, j0 int64, stride, steps int) {
	t.Helper()
	end := l.ChannelPages(ch)
	c := l.PageCursor(ch, j0, stride)
	for j, n := j0, 0; steps < 0 || n < steps; j, n = j+int64(stride), n+1 {
		if c.Done() != (j >= end) {
			t.Fatalf("%+v ch %d page %d (share %d): Done() = %v", l, ch, j, end, c.Done())
		}
		want, wp := addrOrPanic(func() flash.PageAddr { return l.ChannelPageAddr(ch, j) })
		got, gp := addrOrPanic(c.Next)
		if wp != gp || got != want {
			t.Fatalf("%+v ch %d page %d from %d at stride %d: cursor %+v (panicked %v), ChannelPageAddr %+v (panicked %v)",
				l, ch, j, j0, stride, got, gp, want, wp)
		}
		if wp {
			return
		}
	}
}

// TestPageCursorMatchesChannelPageAddr: on the five applications' paper-scale
// layouts, with a share that divides evenly and one that is ragged, the
// cursor equals ChannelPageAddr over the first and the last 4 096 pages of
// every channel, at stride 1 and at stride ChipsPerChannel from every start
// chip, and panics one page past the share.
func TestPageCursorMatchesChannelPageAddr(t *testing.T) {
	const span = 4096
	for _, app := range workload.Apps() {
		fb := app.FeatureBytes()
		for _, features := range []int64{(25 << 30) / fb, (25<<30)/fb + 37} {
			l := DBLayout{Geom: flash.DefaultGeometry(), FeatureBytes: fb, Features: features, StartBlock: 3}
			chips := l.Geom.ChipsPerChannel
			for ch := 0; ch < l.Geom.Channels; ch++ {
				end := l.ChannelPages(ch)
				walkCursor(t, l, ch, 0, 1, span)
				walkCursor(t, l, ch, max(end-span, 0), 1, -1)
				for chip := 0; chip < chips; chip++ {
					walkCursor(t, l, ch, int64(chip), chips, span/chips)
					last := max(end-span, 0)
					last += (int64(chip) - last%int64(chips) + int64(chips)) % int64(chips)
					walkCursor(t, l, ch, last, chips, -1)
				}
			}
		}
	}
}

// TestPageCursorRandomGeometries: the same agreement on small
// non-power-of-two geometries, walked whole from every start chip, with
// layouts that overflow the geometry (where both must panic on the same
// page) as well as layouts that fit.
func TestPageCursorRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		g := flash.Geometry{
			Channels: 1 + rng.Intn(7), ChipsPerChannel: 1 + rng.Intn(6), PlanesPerChip: 1 + rng.Intn(5),
			BlocksPerPlane: 2 + rng.Intn(8), PagesPerBlock: 1 + rng.Intn(11), PageBytes: 1000 + int64(rng.Intn(3000)),
		}
		l := DBLayout{
			Geom:         g,
			FeatureBytes: 1 + rng.Int63n(3*g.PageBytes),
			StartBlock:   rng.Intn(g.BlocksPerPlane),
		}
		l.Features = rng.Int63n(int64(g.Channels*g.ChipsPerChannel*g.PlanesPerChip*g.BlocksPerPlane*g.PagesPerBlock) + 1)
		for ch := 0; ch < g.Channels; ch++ {
			walkCursor(t, l, ch, 0, 1, -1)
			for chip := 0; chip < g.ChipsPerChannel; chip++ {
				if int64(chip) <= l.ChannelPages(ch) {
					walkCursor(t, l, ch, int64(chip), g.ChipsPerChannel, -1)
				}
			}
		}
	}
}

// TestPageCursorRejectsBadStarts: a cursor outside its channel, its share or
// its stride range panics when it is made, not on first use.
func TestPageCursorRejectsBadStarts(t *testing.T) {
	l := layoutFor(2048, 100_000)
	end := l.ChannelPages(0)
	for name, mk := range map[string]func(){
		"channel -1":     func() { l.PageCursor(-1, 0, 1) },
		"channel 32":     func() { l.PageCursor(l.Geom.Channels, 0, 1) },
		"page -1":        func() { l.PageCursor(0, -1, 1) },
		"page past end":  func() { l.PageCursor(0, end+1, 1) },
		"stride 0":       func() { l.PageCursor(0, 0, 0) },
		"stride > chips": func() { l.PageCursor(0, 0, l.Geom.ChipsPerChannel+1) },
	} {
		if _, panicked := addrOrPanic(func() flash.PageAddr { mk(); return flash.PageAddr{} }); !panicked {
			t.Errorf("%s: no panic", name)
		}
	}
	c := l.PageCursor(0, end, 1)
	if !c.Done() {
		t.Error("a cursor at the end of the share is not Done")
	}
	if _, panicked := addrOrPanic(c.Next); !panicked {
		t.Error("Next past the share did not panic")
	}
}

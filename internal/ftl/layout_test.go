package ftl

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/flash"
)

func layoutFor(featureBytes, features int64) DBLayout {
	return DBLayout{
		Geom:         flash.DefaultGeometry(),
		FeatureBytes: featureBytes,
		Features:     features,
		StartBlock:   1,
	}
}

func TestPackingSmallFeatures(t *testing.T) {
	// TextQA: 800 B features pack 20 per 16 KB page.
	l := layoutFor(800, 1000)
	if got := l.FeaturesPerPage(); got != 20 {
		t.Errorf("features/page = %d, want 20", got)
	}
	if got := l.PagesPerFeature(); got != 1 {
		t.Errorf("pages/feature = %d, want 1", got)
	}
}

func TestLargeFeatureSpansPages(t *testing.T) {
	// ReId: 44 KB features span 3 pages and do not pack.
	l := layoutFor(44<<10, 1000)
	if got := l.PagesPerFeature(); got != 3 {
		t.Errorf("pages/feature = %d, want 3", got)
	}
	if got := l.FeaturesPerPage(); got != 0 {
		t.Errorf("features/page = %d, want 0", got)
	}
}

func TestChannelFeaturesBalanced(t *testing.T) {
	l := layoutFor(2048, 1000)
	var total int64
	var min, max int64 = 1 << 62, 0
	for ch := 0; ch < l.Geom.Channels; ch++ {
		n := l.ChannelFeatures(ch)
		total += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if total != 1000 {
		t.Errorf("channel features sum to %d, want 1000", total)
	}
	if max-min > 1 {
		t.Errorf("imbalanced striping: min %d, max %d", min, max)
	}
}

func TestFeaturePagesWithinOneChannel(t *testing.T) {
	// A multi-page feature's pages must all live on the owning channel, so a
	// channel-level accelerator can stream it without crossing channels.
	l := layoutFor(44<<10, 500)
	for i := int64(0); i < 500; i += 37 {
		pages := featurePages(l, i)
		if len(pages) != 3 {
			t.Fatalf("feature %d has %d pages", i, len(pages))
		}
		want := l.FeatureChannel(i)
		for _, p := range pages {
			if p.Channel != want {
				t.Errorf("feature %d page on channel %d, want %d", i, p.Channel, want)
			}
			if !l.Geom.Valid(p) {
				t.Errorf("feature %d page %+v invalid", i, p)
			}
		}
	}
}

func TestPackedFeaturesShareAPage(t *testing.T) {
	l := layoutFor(2048, 10000)
	// Features i and i+Channels are consecutive slots on the same channel;
	// with 8 features per page, slots 0..7 share channel page 0.
	ch := l.FeatureChannel(0)
	p0 := featurePages(l, 0)[0]
	p1 := featurePages(l, int64(l.Geom.Channels))[0] // slot 1, same channel
	if p0 != p1 {
		t.Errorf("packed slots 0 and 1 on different pages: %+v vs %+v", p0, p1)
	}
	p8 := featurePages(l, int64(8*l.Geom.Channels))[0] // slot 8 -> next page
	if p8 == p0 {
		t.Error("slot 8 shares page 0 despite 8 features/page")
	}
	if p0.Channel != ch || p8.Channel != ch {
		t.Error("packed pages left the owning channel")
	}
}

func TestChannelPageAddrRotatesChips(t *testing.T) {
	l := layoutFor(16<<10, 10000)
	a0 := l.ChannelPageAddr(0, 0)
	a1 := l.ChannelPageAddr(0, 1)
	if a0.Chip == a1.Chip {
		t.Errorf("consecutive channel pages on same chip: %+v, %+v", a0, a1)
	}
	// After rotating all chips, the plane advances.
	a4 := l.ChannelPageAddr(0, int64(l.Geom.ChipsPerChannel))
	if a4.Plane == a0.Plane {
		t.Errorf("page %d did not advance plane: %+v", l.Geom.ChipsPerChannel, a4)
	}
}

func TestTotalPagesAndBytes(t *testing.T) {
	// 640 features of 16 KB = exactly 1 page each: 640 pages.
	l := layoutFor(16<<10, 640)
	if got := l.TotalPages(); got != 640 {
		t.Errorf("total pages = %d, want 640", got)
	}
	if got := l.TotalBytes(); got != 640*16<<10 {
		t.Errorf("total bytes = %d", got)
	}
}

func TestBlocksPerPlane(t *testing.T) {
	// One channel share of the paper MIR database: 25 GiB / 2 KB features,
	// 8 per page -> 51200 pages per channel / 32 planes per channel
	// = 1600 pages per plane / 128 pages per block = 13 blocks.
	l := layoutFor(2048, (25<<30)/2048)
	if got := l.BlocksPerPlane(); got != 13 {
		t.Errorf("blocks/plane = %d, want 13", got)
	}
}

// TestChipFeaturesSumToChannel: a channel's features, counted on the chip of
// their first page, are balanced over its chips to within one page's worth,
// the share a chip-level accelerator processes.
func TestChipFeaturesSumToChannel(t *testing.T) {
	for _, fb := range []int64{800, 2048, 16 << 10, 44 << 10} {
		l := layoutFor(fb, 100000)
		for _, ch := range []int{0, 5, 31} {
			perChip := make([]int64, l.Geom.ChipsPerChannel)
			var sum int64
			for i := int64(ch); i < l.Features; i += int64(l.Geom.Channels) {
				perChip[l.FeatureAddr(i).Chip]++
				sum++
			}
			slack := max(int64(l.FeaturesPerPage()), 1)
			lo, hi := slices.Min(perChip), slices.Max(perChip)
			if sum != l.ChannelFeatures(ch) || hi-lo > slack {
				t.Errorf("fb=%d ch=%d: chip shares %v sum %d, channel %d", fb, ch, perChip, sum, l.ChannelFeatures(ch))
			}
		}
	}
}

// Property: every feature's pages are valid, on its own channel, and two
// distinct features never overlap pages unless they pack into the same page.
func TestLayoutNoAliasingProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		l := layoutFor(44<<10, 2000) // multi-page case
		i := seed % 2000
		j := (i*7 + 13) % 2000
		if i == j {
			return true
		}
		pi := featurePages(l, i)
		pj := featurePages(l, j)
		for _, a := range pi {
			for _, b := range pj {
				if a == b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLayoutValidate(t *testing.T) {
	bad := []DBLayout{
		{Geom: flash.DefaultGeometry(), FeatureBytes: 0, Features: 1},
		{Geom: flash.DefaultGeometry(), FeatureBytes: 100, Features: -1},
		{Geom: flash.DefaultGeometry(), FeatureBytes: 100, Features: 1, StartBlock: -1},
		{Geom: flash.DefaultGeometry(), FeatureBytes: 100, Features: 1, StartBlock: 1 << 20},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %d validated", i)
		}
	}
	if err := layoutFor(2048, 100).Validate(); err != nil {
		t.Errorf("good layout rejected: %v", err)
	}
}

// featurePages returns the physical pages holding feature i, in read order.
func featurePages(l DBLayout, i int64) []flash.PageAddr {
	ch := l.FeatureChannel(i)
	slot := i / int64(l.Geom.Channels) // index within the channel's share
	if fp := l.FeaturesPerPage(); fp > 0 {
		return []flash.PageAddr{l.ChannelPageAddr(ch, slot/int64(fp))}
	}
	ppf := int64(l.PagesPerFeature())
	pages := make([]flash.PageAddr, ppf)
	for k := int64(0); k < ppf; k++ {
		pages[k] = l.ChannelPageAddr(ch, slot*ppf+k)
	}
	return pages
}

// Package ftl implements the flash translation layer of the simulated SSD:
// feature-database layout and striping across channels/chips (§4.4), a
// block-granular allocator with wear accounting, and the database metadata
// table that the query engine caches in SSD DRAM.
package ftl

import (
	"fmt"

	"repro/internal/flash"
)

// DBLayout describes where a feature database lives in the flash array and
// how features map to pages.
//
// Per §4.4, databases are striped across channels and chips so every
// accelerator level can stream its share independently:
//
//   - feature i is owned by channel i mod Channels;
//   - within a channel, a feature's pages are spread across chips and planes
//     round-robin, so chip-level accelerators also see a balanced share;
//   - features smaller than a page are packed (a 16 KB page holds twenty
//     0.8 KB TextQA vectors), never straddling a page boundary;
//   - features larger than a page are page-aligned and span
//     ⌈size/page⌉ consecutive within-channel pages (a 44 KB ReId vector
//     spans three).
type DBLayout struct {
	Geom         flash.Geometry
	FeatureBytes int64
	Features     int64
	// StartBlock is the first block index (in every plane) owned by this
	// database.
	StartBlock int
}

// Validate reports layout errors.
func (l DBLayout) Validate() error {
	if err := l.Geom.Validate(); err != nil {
		return err
	}
	if l.FeatureBytes <= 0 {
		return fmt.Errorf("ftl: feature bytes %d invalid", l.FeatureBytes)
	}
	if l.Features < 0 {
		return fmt.Errorf("ftl: negative feature count")
	}
	if l.StartBlock < 0 || l.StartBlock >= l.Geom.BlocksPerPlane {
		return fmt.Errorf("ftl: start block %d outside plane", l.StartBlock)
	}
	return nil
}

// FeaturesPerPage returns how many whole features pack into one page
// (at least 1 conceptually; 0 is never returned for sub-page features).
// For features larger than a page this is 0.
func (l DBLayout) FeaturesPerPage() int {
	if l.FeatureBytes > l.Geom.PageBytes {
		return 0
	}
	return int(l.Geom.PageBytes / l.FeatureBytes)
}

// PagesPerFeature returns the pages one feature occupies (1 for packed
// sub-page features, ⌈size/page⌉ otherwise).
func (l DBLayout) PagesPerFeature() int {
	if l.FeatureBytes <= l.Geom.PageBytes {
		return 1
	}
	return int((l.FeatureBytes + l.Geom.PageBytes - 1) / l.Geom.PageBytes)
}

// ChannelFeatures returns the number of features owned by a channel.
func (l DBLayout) ChannelFeatures(ch int) int64 {
	if ch < 0 || ch >= l.Geom.Channels {
		panic(fmt.Sprintf("ftl: channel %d outside geometry", ch))
	}
	n := l.Features / int64(l.Geom.Channels)
	if int64(ch) < l.Features%int64(l.Geom.Channels) {
		n++
	}
	return n
}

// ChannelPages returns the number of pages the channel's share occupies.
func (l DBLayout) ChannelPages(ch int) int64 {
	return l.pagesForFeatures(l.ChannelFeatures(ch))
}

func (l DBLayout) pagesForFeatures(n int64) int64 {
	if n == 0 {
		return 0
	}
	if fp := l.FeaturesPerPage(); fp > 0 {
		return (n + int64(fp) - 1) / int64(fp)
	}
	return n * int64(l.PagesPerFeature())
}

// TotalPages returns the physical page footprint of the database.
func (l DBLayout) TotalPages() int64 {
	var total int64
	for ch := 0; ch < l.Geom.Channels; ch++ {
		total += l.ChannelPages(ch)
	}
	return total
}

// TotalBytes returns the physical footprint in bytes (including packing and
// alignment waste).
func (l DBLayout) TotalBytes() int64 { return l.TotalPages() * l.Geom.PageBytes }

// BlocksPerPlane returns how many blocks in every plane the layout needs.
// The worst-loaded channel determines the allocation.
func (l DBLayout) BlocksPerPlane() int {
	var maxPages int64
	for ch := 0; ch < l.Geom.Channels; ch++ {
		if p := l.ChannelPages(ch); p > maxPages {
			maxPages = p
		}
	}
	planesPerChannel := int64(l.Geom.ChipsPerChannel * l.Geom.PlanesPerChip)
	pagesPerPlane := (maxPages + planesPerChannel - 1) / planesPerChannel
	return int((pagesPerPlane + int64(l.Geom.PagesPerBlock) - 1) / int64(l.Geom.PagesPerBlock))
}

// ChannelPageAddr returns the physical address of within-channel page j of
// channel ch: pages rotate across chips first, then planes, then fill blocks
// starting at StartBlock.
func (l DBLayout) ChannelPageAddr(ch int, j int64) flash.PageAddr {
	if ch < 0 || ch >= l.Geom.Channels {
		panic(fmt.Sprintf("ftl: channel %d outside geometry", ch))
	}
	if j < 0 || j >= l.ChannelPages(ch) {
		panic(fmt.Sprintf("ftl: channel page %d outside channel %d share", j, ch))
	}
	chips := int64(l.Geom.ChipsPerChannel)
	planes := int64(l.Geom.PlanesPerChip)
	chip := int(j % chips)
	plane := int((j / chips) % planes)
	seq := j / (chips * planes)
	block := l.StartBlock + int(seq/int64(l.Geom.PagesPerBlock))
	page := int(seq % int64(l.Geom.PagesPerBlock))
	addr := flash.PageAddr{Channel: ch, Chip: chip, Plane: plane, Block: block, Page: page}
	if !l.Geom.Valid(addr) {
		panic(fmt.Sprintf("ftl: layout overflow at %+v", addr))
	}
	return addr
}

// PageCursor yields the addresses ChannelPageAddr gives for within-channel
// pages j, j+stride, j+2·stride, … of one channel, carrying from chip to
// plane to page to block instead of dividing. A scan reads its share in that
// order, so one cursor per reader replaces a handful of divisions per page.
type PageCursor struct {
	addr   flash.PageAddr // address of page j
	j, end int64          // next within-channel page; the channel's share
	stride int

	chips, planes, pagesPerBlock, blocks int // the geometry's digits
}

// PageCursor returns a cursor at within-channel page j of channel ch that
// advances stride pages per Next: 1 walks the channel's share, and
// ChipsPerChannel walks one chip's pages of it. stride must lie in
// [1, ChipsPerChannel] and j in [0, ChannelPages(ch)]; a cursor at the end of
// the share is Done.
func (l DBLayout) PageCursor(ch int, j int64, stride int) PageCursor {
	end := l.ChannelPages(ch) // panics on a channel outside the geometry
	if stride < 1 || stride > l.Geom.ChipsPerChannel {
		panic(fmt.Sprintf("ftl: cursor stride %d outside [1, %d]", stride, l.Geom.ChipsPerChannel))
	}
	if j < 0 || j > end {
		panic(fmt.Sprintf("ftl: cursor start %d outside channel %d share of %d pages", j, ch, end))
	}
	chips, planes := int64(l.Geom.ChipsPerChannel), int64(l.Geom.PlanesPerChip)
	ppb := int64(l.Geom.PagesPerBlock)
	seq := j / (chips * planes)
	return PageCursor{
		addr: flash.PageAddr{Channel: ch, Chip: int(j % chips), Plane: int((j / chips) % planes),
			Block: l.StartBlock + int(seq/ppb), Page: int(seq % ppb)},
		j: j, end: end, stride: stride,
		chips: l.Geom.ChipsPerChannel, planes: l.Geom.PlanesPerChip,
		pagesPerBlock: l.Geom.PagesPerBlock, blocks: l.Geom.BlocksPerPlane,
	}
}

// Done reports whether the cursor has passed the end of the channel's share.
func (c *PageCursor) Done() bool { return c.j >= c.end }

// Next returns the address of the cursor's page and advances the cursor by
// its stride. Like ChannelPageAddr, it panics on a page past the channel's
// share or beyond the geometry.
func (c *PageCursor) Next() flash.PageAddr {
	if c.j >= c.end {
		panic(fmt.Sprintf("ftl: channel page %d outside channel %d share", c.j, c.addr.Channel))
	}
	if uint(c.addr.Block) >= uint(c.blocks) {
		panic(fmt.Sprintf("ftl: layout overflow at %+v", c.addr))
	}
	a := c.addr
	c.j += int64(c.stride)
	// stride ≤ chips, so the chip digit carries at most once.
	if c.addr.Chip += c.stride; c.addr.Chip >= c.chips {
		c.addr.Chip -= c.chips
		if c.addr.Plane++; c.addr.Plane == c.planes {
			c.addr.Plane = 0
			if c.addr.Page++; c.addr.Page == c.pagesPerBlock {
				c.addr.Page = 0
				c.addr.Block++
			}
		}
	}
	return a
}

// ChannelRangePages returns the within-channel page span [first, last)
// holding the channel's share of features [start, end) — the pages a
// migration read-out of that feature range must sense on this channel.
// Channels owning no feature of the range return an empty span.
func (l DBLayout) ChannelRangePages(ch int, start, end int64) (int64, int64) {
	if ch < 0 || ch >= l.Geom.Channels {
		panic(fmt.Sprintf("ftl: channel %d outside geometry", ch))
	}
	if start < 0 || end > l.Features || start > end {
		panic(fmt.Sprintf("ftl: feature range [%d, %d) outside database of %d features",
			start, end, l.Features))
	}
	c := int64(l.Geom.Channels)
	// First and last features of [start, end) owned by this channel
	// (feature i lives on channel i mod Channels).
	first := start + ((int64(ch)-start)%c+c)%c
	if first >= end {
		return 0, 0
	}
	last := end - 1 - ((end-1-int64(ch))%c+c)%c
	return l.SlotPages(first/c, last/c+1)
}

// SlotPages returns the within-channel page span holding within-channel
// feature slots [s0, s1) of any channel; empty when s0 >= s1.
func (l DBLayout) SlotPages(s0, s1 int64) (int64, int64) {
	if s0 >= s1 {
		return 0, 0
	}
	if fp := int64(l.FeaturesPerPage()); fp > 0 {
		return s0 / fp, (s1-1)/fp + 1
	}
	ppf := int64(l.PagesPerFeature())
	return s0 * ppf, s1 * ppf
}

// ChannelSpan returns the whole within-channel page span [0, ChannelPages)
// of channel ch.
func (l DBLayout) ChannelSpan(ch int) (int64, int64) { return 0, l.ChannelPages(ch) }

// FeatureChannel returns the channel owning feature i.
func (l DBLayout) FeatureChannel(i int64) int {
	if i < 0 || i >= l.Features {
		panic(fmt.Sprintf("ftl: feature %d outside database", i))
	}
	return int(i % int64(l.Geom.Channels))
}

// ObjectID returns feature i's ObjectID (§4.2): the linear index of its
// first physical page under this layout. It is the only feature → address
// rule; an answer is stamped with it from the database's current layout, so a
// move of the data changes the ObjectIDs answers carry and nothing else.
func (l DBLayout) ObjectID(i int64) uint64 { return uint64(l.Geom.Linear(l.FeatureAddr(i))) }

// FeatureAddr returns the first physical page of feature i; a feature
// larger than a page continues on the channel's next pages.
func (l DBLayout) FeatureAddr(i int64) flash.PageAddr {
	ch := l.FeatureChannel(i)
	slot := i / int64(l.Geom.Channels)
	if fp := l.FeaturesPerPage(); fp > 0 {
		return l.ChannelPageAddr(ch, slot/int64(fp))
	}
	return l.ChannelPageAddr(ch, slot*int64(l.PagesPerFeature()))
}

package accel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
)

// TestScanSpanStream pins the page-read spans of two paper-scale scans cut
// at their proven cycle, where they are produced: the ordered (name, tid,
// start, dur) of every retained span and the drop count. TextQA at chip
// level reads into page buffers and keeps every span; ReId at channel
// level crosses the channel buses and overruns a small tracer cap
// part-way through, so the hash also covers which spans the cap keeps. A reordered, lost or
// duplicated span changes the hash; so does a drop decision made on the
// wrong count.
func TestScanSpanStream(t *testing.T) {
	for _, c := range []struct {
		cell     goldenCell
		capacity int
		spans    int
		dropped  int64
		sha256   string
	}{
		{goldenCell{app: "TextQA", level: LevelChip}, 1 << 16, 15264, 0,
			"7a65a5c947e1c50abc8075a1af557964a8f549be2ac7129bd953d28ea8c5288a"},
		{goldenCell{app: "ReId", level: LevelChannel}, 2048, 2048, 3183 - 2048,
			"88fb4d01c04fc7fd1059f7b286d662e0dc75efd144f563766d361c3a6d4bd0e1"},
	} {
		tr := obs.NewTracer(c.capacity)
		if _, err := runGoldenCell(t, c.cell, tr); err != nil {
			t.Fatalf("%s at %v: %v", c.cell.app, c.cell.level, err)
		}
		spans := tr.Spans()
		h := sha256.New()
		var rec [24]byte
		for _, s := range spans {
			h.Write([]byte(s.Name))
			binary.LittleEndian.PutUint64(rec[0:], uint64(s.TID))
			binary.LittleEndian.PutUint64(rec[8:], uint64(s.Start))
			binary.LittleEndian.PutUint64(rec[16:], uint64(s.Dur))
			h.Write(rec[:])
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(tr.Dropped()))
		h.Write(rec[:8])
		sum := hex.EncodeToString(h.Sum(nil))
		if len(spans) != c.spans || tr.Dropped() != c.dropped || sum != c.sha256 {
			t.Errorf("%s at %v: %d spans, %d dropped, sha256 %s; want %d, %d, %s",
				c.cell.app, c.cell.level, len(spans), tr.Dropped(), sum, c.spans, c.dropped, c.sha256)
		}
	}
}

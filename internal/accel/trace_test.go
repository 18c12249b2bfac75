package accel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
)

// TestScanSpanStream pins the page-read spans of two windowed paper-scale
// scans where they are produced: the ordered (name, tid, start, dur) of
// every retained span and the drop count. TextQA at chip level reads into
// page buffers and keeps every span; ReId at channel level crosses the
// channel buses and overruns the tracer's cap part-way through, so the
// hash also covers which spans the cap keeps. A reordered, lost or
// duplicated span changes the hash; so does a drop decision made on the
// wrong count.
func TestScanSpanStream(t *testing.T) {
	const capacity = 1 << 16
	for _, c := range []struct {
		cell    goldenCell
		spans   int
		dropped int64
		sha256  string
	}{
		{goldenCell{app: "TextQA", level: LevelChip}, 8736, 0,
			"7b592505d23f9734be517fec62f910b6722abfc2844bb98dcd5d1b9fd0644aee"},
		{goldenCell{app: "ReId", level: LevelChannel}, capacity, 98703 - capacity,
			"55c8abaf8714df36ef6d0d01cb2d22597aac7644478d5fea90d210918cc20424"},
	} {
		tr := obs.NewTracer(capacity)
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

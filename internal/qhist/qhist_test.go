package qhist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/racetest"
	"repro/internal/topk"
)

func randStore(seed int64, n int) *Store {
	rng := rand.New(rand.NewSource(seed))
	s := NewStore()
	for i := 0; i < n; i++ {
		qfv := make([]float32, 8)
		for d := range qfv {
			qfv[d] = rng.Float32()*2 - 1
		}
		tk := make([]topk.Entry, rng.Intn(4))
		for j := range tk {
			tk[j] = topk.Entry{FeatureID: rng.Int63n(100), Score: rng.Float32(), ObjectID: rng.Uint64()}
		}
		top := int64(-1)
		if len(tk) > 0 {
			top = tk[0].FeatureID
		}
		flags := uint32(0)
		if rng.Intn(2) == 0 {
			flags = FlagHit
		}
		s.Append(Record{
			Time: rng.Int63(), DB: rng.Uint64() % 4, Ident: uint64(i+1) * 0x9e3779b97f4a7c15, Model: 1,
			Group: GroupOf(qfv), K: uint32(len(tk)), Flags: flags,
			Latency: rng.Int63n(1e9), TopFeature: top, Digest: Digest(tk),
		}, EncodePayload(qfv, tk))
	}
	return s
}

// wrappedStore appends n records with short distinct payloads to a store
// retaining window of them.
func wrappedStore(window, n int) *Store {
	s := newStore(window)
	for i := 0; i < n; i++ {
		s.Append(Record{Group: uint64(i % 3), Flags: uint32(i & 1)}, bytes.Repeat([]byte{byte(i)}, 1+i%4))
	}
	return s
}

func TestAppendAssignsSeqAndPayload(t *testing.T) {
	s := NewStore()
	r1 := s.Append(Record{Group: 7}, []byte{1, 2, 3})
	r2 := s.Append(Record{Group: 8}, []byte{4})
	if r1.Seq != 0 || r2.Seq != 1 {
		t.Fatalf("seqs %d,%d", r1.Seq, r2.Seq)
	}
	if r2.PayloadOff != 3 || r2.PayloadLen != 1 {
		t.Fatalf("payload placement %d+%d", r2.PayloadOff, r2.PayloadLen)
	}
	if s.HotBytes() != 2*RecordBytes || s.ColdBytes() != 4 {
		t.Fatalf("sizes hot=%d cold=%d", s.HotBytes(), s.ColdBytes())
	}
	p, err := s.Payload(r1)
	if err != nil || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("payload %v err %v", p, err)
	}
	if _, err := s.Payload(Record{PayloadOff: 2, PayloadLen: 100}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-bounds payload: %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := randStore(seed, 40)
		img := s.Snapshot()
		if !bytes.Equal(img, s.Snapshot()) {
			t.Fatal("snapshot not deterministic")
		}
		got, err := Restore(img)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Len() != s.Len() || !bytes.Equal(got.Snapshot(), img) {
			t.Fatalf("seed %d: round trip diverged", seed)
		}
		for i, r := range s.Records() {
			if got.Records()[i] != r {
				t.Fatalf("seed %d: record %d diverged", seed, i)
			}
		}
	}
}

func TestRestoreEmptyStore(t *testing.T) {
	got, err := Restore(NewStore().Snapshot())
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: %v len %d", err, got.Len())
	}
}

// Every corruption — bit flips anywhere, truncation to any length — must
// come back as ErrCorrupt, never a panic or a silently wrong store; on a
// small image of a window that has wrapped, every single bit and every length
// is tried.
func TestRestoreCorruptionTyped(t *testing.T) {
	img := randStore(3, 12).Snapshot()
	for off := 0; off < len(img); off += 7 {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x40
		if st, err := Restore(bad); err == nil {
			// A flip in a field no validation bounds (an identity, a
			// digest) is caught by the checksum, which covers every byte.
			t.Fatalf("flip at %d accepted (len %d)", off, st.Len())
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
	}
	for cut := 0; cut < len(img); cut += 11 {
		if _, err := Restore(img[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: %v", cut, err)
		}
	}
	if _, err := Restore(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil image: %v", err)
	}

	const window = 5
	wrapped := wrappedStore(window, 3*window+2).Snapshot()
	if _, err := restore(wrapped, window); err != nil {
		t.Fatalf("wrapped control image: %v", err)
	}
	bad := make([]byte, len(wrapped))
	for bit := 0; bit < 8*len(wrapped); bit++ {
		copy(bad, wrapped)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := restore(bad, window); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("wrapped image, bit %d flipped: %v", bit, err)
		}
	}
	for cut := 0; cut < len(wrapped); cut++ {
		if _, err := restore(wrapped[:cut], window); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("wrapped image truncated to %d: %v", cut, err)
		}
	}
}

func TestPayloadCodec(t *testing.T) {
	qfv := []float32{0.5, -1.25, 3}
	tk := []topk.Entry{{FeatureID: 9, Score: 0.75, ObjectID: 42}, {FeatureID: 1, Score: 0.5, ObjectID: 7}}
	p := EncodePayload(qfv, tk)
	gq, gk, err := DecodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(gq) != len(qfv) || gq[1] != qfv[1] || len(gk) != 2 || gk[0] != tk[0] || gk[1] != tk[1] {
		t.Fatalf("decoded %v %v", gq, gk)
	}
	for cut := 0; cut < len(p); cut++ {
		if _, _, err := DecodePayload(p[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated payload %d: %v", cut, err)
		}
	}
}

func TestGroupOfStability(t *testing.T) {
	a := []float32{0.5, 0.25, -0.75}
	b := append([]float32(nil), a...)
	if GroupOf(a) != GroupOf(b) {
		t.Fatal("identical vectors in different groups")
	}
	// Small jitter within a bin keeps the group; a large move changes it.
	c := []float32{0.52, 0.27, -0.73}
	if GroupOf(a) != GroupOf(c) {
		t.Fatal("in-bin jitter changed group")
	}
	d := []float32{1.5, 0.25, -0.75}
	if GroupOf(a) == GroupOf(d) {
		t.Fatal("distinct vectors collided")
	}
}

// TestGroupBinPortable pins the bins Go leaves to the platform — NaN and
// values whose bin falls outside int32 — to MinInt32, amd64's value, so a
// persisted group key does not depend on the machine; the largest float32
// below the 2³¹/4 edge and everything down to −2³¹/4 bin as usual.
func TestGroupBinPortable(t *testing.T) {
	edge := float32(1 << 29) // 4·edge = 2³¹, one past MaxInt32
	below := math.Nextafter32(edge, 0)
	for _, c := range []struct {
		v    float32
		want int32
	}{
		{float32(math.NaN()), math.MinInt32},
		{float32(math.Inf(1)), math.MinInt32},
		{float32(math.Inf(-1)), math.MinInt32},
		{1e10, math.MinInt32},
		{-1e10, math.MinInt32},
		{math.MaxFloat32, math.MinInt32},
		{edge, math.MinInt32},
		{below, int32(4 * float64(below))},
		{-edge, math.MinInt32},
		{-below, -int32(4 * float64(below))},
		{math.Nextafter32(-edge, float32(math.Inf(-1))), math.MinInt32},
		{0.125, 1},
		{-0.125, -1},
		{0.1, 0},
		{float32(math.Copysign(0, -1)), 0},
	} {
		if got := groupBin(c.v); got != c.want {
			t.Errorf("groupBin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestGroupOfMatchesFNV: the inline hash is hash/fnv's 64-bit FNV-1a over
// each bin's four little-endian bytes, on random vectors with specials
// mixed in and on the empty vector.
func TestGroupOfMatchesFNV(t *testing.T) {
	ref := func(qfv []float32) uint64 {
		h := fnv.New64a()
		var b [4]byte
		for _, v := range qfv {
			binary.LittleEndian.PutUint32(b[:], uint32(groupBin(v)))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	rng := rand.New(rand.NewSource(5))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e10, -3e9, 0}
	for i := 0; i < 500; i++ {
		v := make([]float32, rng.Intn(260))
		for d := range v {
			v[d] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(6))))
			if rng.Intn(20) == 0 {
				v[d] = specials[rng.Intn(len(specials))]
			}
		}
		if got, want := GroupOf(v), ref(v); got != want {
			t.Fatalf("vector %d (%d dims): GroupOf = %x, hash/fnv gives %x", i, len(v), got, want)
		}
	}
}

// TestAdmissionScoreDecayTable: the tabled decay gives AdmissionScore the
// bits of the math.Exp2 formula at every age from 0 to past the table's
// edge, and at ages far beyond it, where the table falls back to Exp2.
func TestAdmissionScoreDecayTable(t *testing.T) {
	formula := func(g GroupStat, now uint64) float64 {
		age := float64(0)
		if now > g.LastSeq {
			age = float64(now - g.LastSeq - 1)
		}
		return float64(g.Count) * math.Exp2(-age/DefaultHalfLifeRecords) * (float64(g.Hits+1) / float64(g.Count+2))
	}
	g := GroupStat{Count: 7, Hits: 3, LastSeq: 1000}
	check := func(now uint64) {
		t.Helper()
		if got, want := g.AdmissionScore(now), formula(g, now); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("now %d (LastSeq %d): AdmissionScore = %v, formula gives %v", now, g.LastSeq, got, want)
		}
	}
	for now := uint64(0); now <= g.LastSeq+retainRecords+64; now++ {
		check(now)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		check(g.LastSeq + retainRecords + uint64(rng.Int63n(1<<40)))
	}
	for _, now := range []uint64{g.LastSeq + retainRecords, g.LastSeq + retainRecords + 1, math.MaxUint64} {
		check(now)
	}
}

func TestMineGroupsAndScore(t *testing.T) {
	s := NewStore()
	qa := []float32{1, 0}
	qb := []float32{0, 1}
	for i := 0; i < 6; i++ {
		flags := uint32(0)
		if i%2 == 0 {
			flags = FlagHit
		}
		s.Append(Record{Group: GroupOf(qa), Flags: flags}, nil)
	}
	s.Append(Record{Group: GroupOf(qb)}, nil)
	mined := MineGroups(s.Records())
	ga, gb := mined[GroupOf(qa)], mined[GroupOf(qb)]
	if ga.Count != 6 || ga.Hits != 3 || gb.Count != 1 || gb.Hits != 0 {
		t.Fatalf("mined %+v %+v", ga, gb)
	}
	if ga.LastSeq != 5 || gb.LastSeq != 6 {
		t.Fatalf("recency %+v %+v", ga, gb)
	}
	now := s.NextSeq()
	if ga.AdmissionScore(now) <= gb.AdmissionScore(now) {
		t.Fatal("frequent group scored below singleton")
	}
	if (GroupStat{}).AdmissionScore(now) != 0 {
		t.Fatal("empty stat must score zero")
	}
	ranked := RankGroups(mined, now)
	if len(ranked) != 2 || ranked[0] != GroupOf(qa) {
		t.Fatalf("ranked %v", ranked)
	}
}

// Recency decay: two groups with equal counts and hit ratios, one long
// stale — the fresh one must outscore it.
func TestAdmissionScoreRecency(t *testing.T) {
	s := NewStore()
	for i := 0; i < 4; i++ {
		s.Append(Record{Group: 1}, nil)
	}
	for i := 0; i < DefaultHalfLifeRecords*3; i++ {
		s.Append(Record{Group: 2}, nil)
	}
	mined := MineGroups(s.Records())
	now := s.NextSeq()
	if mined[1].AdmissionScore(now) >= mined[2].AdmissionScore(now)/4 {
		t.Fatalf("stale group not decayed: %v vs %v",
			mined[1].AdmissionScore(now), mined[2].AdmissionScore(now))
	}
}

func TestFeatureHeat(t *testing.T) {
	s := NewStore()
	s.Append(Record{Ident: 1, TopFeature: 3}, nil)
	s.Append(Record{Ident: 1, TopFeature: 3}, nil)
	s.Append(Record{Ident: 1, TopFeature: 0}, nil)
	s.Append(Record{Ident: 2, TopFeature: 1}, nil)  // other content
	s.Append(Record{Ident: 1, TopFeature: -1}, nil) // cache hit, no scan
	s.Append(Record{Ident: 1, TopFeature: 99}, nil) // out of range
	heat := FeatureHeat(s.Records(), 1, 4)
	want := []int64{1, 0, 0, 2}
	for i := range want {
		if heat[i] != want[i] {
			t.Fatalf("heat %v, want %v", heat, want)
		}
	}
}

func TestDigestDiscriminates(t *testing.T) {
	a := []topk.Entry{{FeatureID: 1, Score: 0.5, ObjectID: 2}}
	b := []topk.Entry{{FeatureID: 1, Score: 0.5, ObjectID: 3}}
	if Digest(a) == Digest(b) || Digest(nil) == Digest(a) {
		t.Fatal("digest collisions")
	}
	if Digest(a) != Digest(append([]topk.Entry(nil), a...)) {
		t.Fatal("digest not deterministic")
	}
}

// The arena never lets a payload straddle a chunk, keeps PayloadOff logical,
// and never moves a stored byte: Snapshot equals a concatenating reference,
// Restore(Snapshot()) round-trips, and every Payload view taken early is
// contiguous and unchanged after 5 000 further appends (all inside the
// retention window; TestWindowEqualsSuffixOfEverythingAppended goes past it).
func TestArenaChunking(t *testing.T) {
	sizes := []int{0, 1, chunkBytes - 1, chunkBytes, chunkBytes + 1, 3*chunkBytes + 17, 0, 1, 5}
	s := NewStore()
	var ref []byte // the old single-heap layout
	var recs []Record
	var views [][]byte
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		r := s.Append(Record{Group: uint64(i)}, p)
		if r.PayloadOff != int64(len(ref)) || r.PayloadLen != int64(n) {
			t.Fatalf("payload %d placed at [%d,+%d), want [%d,+%d)", i, r.PayloadOff, r.PayloadLen, len(ref), n)
		}
		ref = append(ref, p...)
		v, err := s.Payload(r)
		if err != nil || !bytes.Equal(v, p) || cap(v) != len(v) {
			t.Fatalf("payload %d: view of %d bytes (cap %d), err %v", i, len(v), cap(v), err)
		}
		recs, views = append(recs, r), append(views, v)
	}
	for i := 0; i < 5000; i++ {
		s.Append(Record{}, []byte{byte(i), byte(i >> 8), 3})
		ref = append(ref, byte(i), byte(i>>8), 3)
	}
	for i, r := range recs {
		v, err := s.Payload(r)
		want := ref[r.PayloadOff : r.PayloadOff+r.PayloadLen]
		if err != nil || !bytes.Equal(v, want) || !bytes.Equal(views[i], want) {
			t.Fatalf("payload %d changed after further appends (err %v)", i, err)
		}
		if len(v) > 0 && &v[0] != &views[i][0] {
			t.Fatalf("payload %d moved", i)
		}
	}
	if s.ColdBytes() != int64(len(ref)) {
		t.Fatalf("ColdBytes %d, want %d", s.ColdBytes(), len(ref))
	}
	img := s.Snapshot()
	hot := headerBytes + s.Len()*RecordBytes
	if got := img[hot+8 : len(img)-8]; !bytes.Equal(got, ref) {
		t.Fatal("snapshot cold region differs from the concatenated payloads")
	}
	back, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Snapshot(), img) {
		t.Fatal("Restore(Snapshot()) does not round-trip")
	}
	for i, r := range recs {
		if v, err := back.Payload(r); err != nil || !bytes.Equal(v, views[i]) {
			t.Fatalf("restored payload %d differs (err %v)", i, err)
		}
	}
	// A range that is in bounds but crosses the first chunk's end was never
	// appended; it must come back typed, not as bytes from two payloads.
	if _, err := s.Payload(Record{PayloadOff: 1, PayloadLen: chunkBytes}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("straddling range: %v", err)
	}
}

// AppendQuery stores exactly what Append(EncodePayload(...)) stores.
func TestAppendQueryMatchesAppend(t *testing.T) {
	qfv := []float32{0.5, -1.25, 3}
	tk := []topk.Entry{{FeatureID: 9, Score: 0.75, ObjectID: 42}}
	a, b := NewStore(), NewStore()
	for i := 0; i < 3; i++ {
		ra := a.Append(Record{Group: 7}, EncodePayload(qfv, tk[:i%2]))
		rb := b.AppendQuery(Record{Group: 7}, qfv, tk[:i%2])
		if ra != rb {
			t.Fatalf("append %d: records %+v vs %+v", i, ra, rb)
		}
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("AppendQuery and Append(EncodePayload) snapshots differ")
	}
}

// rechecksum recomputes an image's trailing FNV checksum, so a test can hand
// Restore an image whose only defect is the field it edited.
func rechecksum(img []byte) {
	h := fnv.New64a()
	h.Write(img[:len(img)-8])
	binary.LittleEndian.PutUint64(img[len(img)-8:], h.Sum64())
}

// Images that pass the checksum but are not a window Append could have left —
// an offset near MaxInt64 (off+len wraps negative), ranges that overlap, run
// backwards or leave a gap, a Seq out of step, a header that disagrees with
// the records — are ErrCorrupt from Restore, for a window that has wrapped as
// for one that has not, and the same wrapped range is ErrCorrupt from Payload
// rather than a panic.
func TestRestoreRejectsUnplaceablePayloadRanges(t *testing.T) {
	const seqField, offField, lenField = 0, 72, 80
	const window = 3
	for _, appended := range []int{window, 3*window + 1} {
		s := newStore(window)
		for i := 0; i < appended; i++ {
			s.Append(Record{Group: uint64(i)}, []byte{1, 2, 3, 4})
		}
		good := s.Snapshot()
		first, base := int64(s.First()), s.Records()[0].PayloadOff
		edit := func(at int, v int64) []byte {
			img := append([]byte(nil), good...)
			binary.LittleEndian.PutUint64(img[at:], uint64(v))
			rechecksum(img)
			return img
		}
		field := func(rec, field int, v int64) []byte { return edit(headerBytes+rec*RecordBytes+field, v) }
		for name, img := range map[string][]byte{
			"offset MaxInt64":       field(1, offField, math.MaxInt64),
			"overlap":               field(1, offField, base+2),
			"out of order":          field(2, offField, base),
			"gap":                   field(1, lenField, 3),
			"length MaxInt64":       field(2, lenField, math.MaxInt64),
			"negative length":       field(0, lenField, -4),
			"unowned tail":          field(2, lenField, 1),
			"offset past cold":      field(2, offField, base+13),
			"base MaxInt64":         field(0, offField, math.MaxInt64),
			"negative base":         field(0, offField, -4),
			"seq repeated":          field(1, seqField, first),
			"seq skipped":           field(2, seqField, first+3),
			"first seq ahead":       edit(8, first+1),
			"first seq overflows":   edit(8, -1),
			"more than the window":  edit(16, window+1),
			"count past the image":  edit(16, math.MaxInt64),
			"fewer than the image":  edit(16, window-1),
			"cold length too short": edit(headerBytes+window*RecordBytes, 11),
		} {
			if st, err := restore(img, window); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%d appended, %s: Restore returned %v (store %v), want ErrCorrupt", appended, name, err, st != nil)
			}
		}
		if _, err := restore(edit(8, first), window); err != nil {
			t.Fatalf("%d appended: re-checksummed control image: %v", appended, err)
		}
		for _, r := range []Record{
			{Seq: s.First(), PayloadOff: math.MaxInt64, PayloadLen: 4},
			{Seq: s.First(), PayloadOff: base + 4, PayloadLen: math.MaxInt64},
			{Seq: s.First(), PayloadOff: -1, PayloadLen: 1},
			{Seq: s.First(), PayloadOff: base - 4, PayloadLen: 4},
		} {
			if _, err := s.Payload(r); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%d appended: Payload [%d,+%d): %v, want ErrCorrupt", appended, r.PayloadOff, r.PayloadLen, err)
			}
		}
	}
	// An empty window is the new store's; it cannot start anywhere else.
	empty := NewStore().Snapshot()
	binary.LittleEndian.PutUint64(empty[8:], 7)
	rechecksum(empty)
	if _, err := Restore(empty); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty window at seq 7: %v, want ErrCorrupt", err)
	}
}

// Sliding a window over the records with Mine at the back and Unmine at the
// front holds MineGroups of exactly the window at every step, and un-folding
// every record leaves an empty map.
func TestMineUnmineRoundTrip(t *testing.T) {
	recs := randStore(7, 200).Records()
	for i := range recs {
		recs[i].Group %= 9 // force shared groups
	}
	for _, window := range []int{1, 5, 64, len(recs)} {
		got := map[uint64]GroupStat{}
		for i, r := range recs {
			Mine(got, r)
			if i >= window {
				Unmine(got, recs[i-window])
			}
			if want := MineGroups(recs[max(i+1-window, 0) : i+1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d, record %d: sliding fold diverged from MineGroups", window, i)
			}
		}
		for _, r := range recs[max(len(recs)-window, 0):] {
			Unmine(got, r)
		}
		if len(got) != 0 {
			t.Fatalf("window %d: %d groups left after un-folding every record", window, len(got))
		}
	}
}

// BenchmarkStoreAppend appends query-sized payloads to a store that has
// already taken `appended` records. With -benchmem, B/op must not grow with
// that count while the window fills (the arena adds chunks and never re-copies
// what it holds) and is zero once it has wrapped (records and chunks are
// reused in place).
func BenchmarkStoreAppend(b *testing.B) {
	payload := make([]byte, PayloadBytes(200, 10))
	for _, appended := range []int{0, retainRecords / 2, 3 * retainRecords} {
		b.Run(fmt.Sprintf("appended=%d", appended), func(b *testing.B) {
			s := NewStore()
			for i := 0; i < appended; i++ {
				s.Append(Record{}, payload)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Append(Record{Group: uint64(i)}, payload)
			}
		})
	}
}

// requireSuffix checks the store against the reference — a plain slice of
// everything ever appended, of which the store must be the last `window`
// entries — through every accessor, and its image through a restore.
func requireSuffix(t *testing.T, tag string, s *Store, window int, all []Record, payloads [][]byte) {
	t.Helper()
	first := max(len(all)-window, 0)
	if s.Len() != len(all)-first || s.First() != uint64(first) || s.NextSeq() != uint64(len(all)) {
		t.Fatalf("%s: Len %d First %d NextSeq %d, want %d %d %d",
			tag, s.Len(), s.First(), s.NextSeq(), len(all)-first, first, len(all))
	}
	if !reflect.DeepEqual(s.Records(), all[first:]) && s.Len() > 0 {
		t.Fatalf("%s: Records() is not the last %d records appended", tag, len(all)-first)
	}
	var cold int64
	for i, r := range all {
		p, err := s.Payload(r)
		if i < first {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: payload of retired record %d: %v, want ErrCorrupt", tag, i, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(p, payloads[i]) {
			t.Fatalf("%s: payload of record %d: %d bytes (err %v), want %d", tag, i, len(p), err, len(payloads[i]))
		}
		cold += int64(len(p))
	}
	if s.HotBytes() != int64(s.Len())*RecordBytes || s.ColdBytes() != cold {
		t.Fatalf("%s: HotBytes %d ColdBytes %d, want %d %d", tag, s.HotBytes(), s.ColdBytes(), s.Len()*RecordBytes, cold)
	}
	img := s.Snapshot()
	if want := headerBytes + s.Len()*RecordBytes + 8 + int(cold) + 8; len(img) != want {
		t.Fatalf("%s: %d-byte image, want %d", tag, len(img), want)
	}
	back, err := restore(img, window)
	if err != nil {
		t.Fatalf("%s: restore: %v", tag, err)
	}
	if !bytes.Equal(back.Snapshot(), img) {
		t.Fatalf("%s: snapshot → restore → snapshot changed the image", tag)
	}
	if back.First() != s.First() || back.NextSeq() != s.NextSeq() || back.ColdBytes() != s.ColdBytes() {
		t.Fatalf("%s: restored store First %d NextSeq %d ColdBytes %d", tag, back.First(), back.NextSeq(), back.ColdBytes())
	}
}

// The store equals the suffix of everything appended, after every append,
// from empty through several wraps of the window and of the arena: payloads a
// third of a chunk long rotate the chunk ring every few records, zero-length
// ones sit on chunk boundaries, and one larger than a chunk takes (and later
// gives back to the collector) a chunk of its own. A restored store carries
// on exactly as the original does.
func TestWindowEqualsSuffixOfEverythingAppended(t *testing.T) {
	const window = 7
	rng := rand.New(rand.NewSource(5))
	s := newStore(window)
	var all []Record
	var payloads [][]byte
	var off int64
	appendOne := func(st *Store, i, n int) {
		p := make([]byte, n)
		rng.Read(p)
		r := Record{Time: int64(i), Group: uint64(i % 5), Flags: uint32(i & 1)}
		got := st.Append(r, p)
		r.Seq, r.PayloadOff, r.PayloadLen = uint64(len(all)), off, int64(n)
		if got != r {
			t.Fatalf("append %d returned %+v, want %+v", i, got, r)
		}
		all, payloads, off = append(all, r), append(payloads, p), off+int64(n)
	}
	requireSuffix(t, "empty", s, window, all, payloads)
	peak := 0
	for i := 0; i < 6*window; i++ {
		n := chunkBytes/3 + rng.Intn(1000)
		switch {
		case i%5 == 3:
			n = 0
		case i == 2*window+1:
			n = chunkBytes + chunkBytes/2
		}
		appendOne(s, i, n)
		requireSuffix(t, fmt.Sprintf("append %d", i), s, window, all, payloads)
		if i >= 3*window {
			// Live plus spare chunks stop growing once the window has
			// wrapped and the oversized chunk has gone.
			if live := len(s.chunks) + len(s.free); peak == 0 {
				peak = live
			} else if live > peak {
				t.Fatalf("append %d: %d arena chunks, %d after the third wrap", i, live, peak)
			}
		}
	}
	if len(s.buf) > 2*window || cap(s.buf) > 2*window {
		t.Fatalf("hot array holds %d of %d slots for a %d-record window", len(s.buf), cap(s.buf), window)
	}

	back, err := restore(s.Snapshot(), window)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*window; i++ {
		p := make([]byte, 100+i)
		rng.Read(p)
		if ra, rb := s.Append(Record{Group: 9}, p), back.Append(Record{Group: 9}, p); ra != rb {
			t.Fatalf("append %d after restore: %+v on the original, %+v on the restored store", i, ra, rb)
		}
		if !bytes.Equal(s.Snapshot(), back.Snapshot()) {
			t.Fatalf("append %d after restore: snapshots diverged", i)
		}
	}
}

// Past the window the store is bounded and steady: three windows of appends
// leave one window of records, an arena that has stopped growing, an image no
// longer than the window's records and payloads plus the header, and an
// AppendQuery that allocates nothing.
func TestStoreBoundedPastWindow(t *testing.T) {
	qfv := make([]float32, 200)
	tk := make([]topk.Entry, 10)
	payload := PayloadBytes(len(qfv), len(tk))
	s := NewStore()
	chunksAt := func() int { return len(s.chunks) + len(s.free) }
	var atTwo int
	for i := 0; i < 3*retainRecords; i++ {
		s.AppendQuery(Record{Group: uint64(i % 97)}, qfv, tk)
		if i == 2*retainRecords {
			atTwo = chunksAt()
		}
	}
	if s.Len() != retainRecords || s.First() != 2*retainRecords || s.NextSeq() != 3*retainRecords {
		t.Fatalf("Len %d First %d NextSeq %d after %d appends", s.Len(), s.First(), s.NextSeq(), 3*retainRecords)
	}
	if got := chunksAt(); got != atTwo {
		t.Fatalf("%d arena chunks after three windows, %d after two", got, atTwo)
	}
	if got, limit := len(s.Snapshot()), headerBytes+retainRecords*(RecordBytes+payload)+16; got > limit {
		t.Fatalf("%d-byte image, want at most %d", got, limit)
	}
	if s.HotBytes()+s.ColdBytes() != int64(retainRecords*(RecordBytes+payload)) {
		t.Fatalf("store reports %d bytes retained", s.HotBytes()+s.ColdBytes())
	}
	if racetest.Enabled {
		return // the detector's instrumentation allocates on its own
	}
	// Two more windows cross a slide of the hot array and every chunk swap.
	// Counted in total, not through testing.AllocsPerRun, whose integer
	// average would round one allocation per chunk down to zero.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*retainRecords; i++ {
		s.AppendQuery(Record{Group: 1}, qfv, tk)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d allocations in %d AppendQuery calls past the window, want 0", n, 2*retainRecords)
	}
}

// FuzzRestore: arbitrary bytes never panic or allocate beyond the window, and
// anything that restores is a store like any other — it re-snapshots to the
// same bytes, mines, hands out every payload, and takes further appends.
func FuzzRestore(f *testing.F) {
	const window = 5
	f.Add(wrappedStore(window, window-2).Snapshot())
	f.Add(wrappedStore(window, 3*window+2).Snapshot())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, resealed(data)} {
			st, err := restore(img, window)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			if st.Len() > window {
				t.Fatalf("restored %d records into a %d-record window", st.Len(), window)
			}
			if !bytes.Equal(st.Snapshot(), img) {
				t.Fatal("restore → snapshot changed the image")
			}
			mined := MineGroups(st.Records())
			RankGroups(mined, st.NextSeq())
			for _, r := range st.Records() {
				if _, err := st.Payload(r); err != nil {
					t.Fatalf("payload of restored record %d: %v", r.Seq, err)
				}
			}
			for i := 0; i <= window; i++ {
				st.Append(Record{Group: 1}, []byte{1, 2})
			}
			if _, err := restore(st.Snapshot(), window); err != nil {
				t.Fatalf("image after %d further appends: %v", window+1, err)
			}
		}
	})
}

// resealed returns a copy of img with its trailing checksum recomputed, so
// mutations reach the structural checks behind it.
func resealed(img []byte) []byte {
	if len(img) < 8 {
		return img
	}
	out := append([]byte(nil), img...)
	rechecksum(out)
	return out
}

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
	"testing"

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
			Time: rng.Int63(), DB: rng.Uint64() % 4, Model: 1,
			Group: GroupOf(qfv), K: uint32(len(tk)), Flags: flags,
			Latency: rng.Int63n(1e9), TopFeature: top, Digest: Digest(tk),
		}, EncodePayload(qfv, tk))
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
// come back as ErrCorrupt, never a panic or a silently wrong store.
func TestRestoreCorruptionTyped(t *testing.T) {
	img := randStore(3, 12).Snapshot()
	for off := 0; off < len(img); off += 7 {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x40
		if st, err := Restore(bad); err == nil {
			// A flip confined to reserved padding cannot be detected by
			// field validation alone... but the checksum covers every byte.
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
	if ga.LastSeq != 5 || gb.LastRec != 6 {
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
	s.Append(Record{DB: 1, TopFeature: 3}, nil)
	s.Append(Record{DB: 1, TopFeature: 3}, nil)
	s.Append(Record{DB: 1, TopFeature: 0}, nil)
	s.Append(Record{DB: 2, TopFeature: 1}, nil)  // other DB
	s.Append(Record{DB: 1, TopFeature: -1}, nil) // cache hit, no scan
	s.Append(Record{DB: 1, TopFeature: 99}, nil) // out of range
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
// contiguous and unchanged after 10 000 further appends.
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
	for i := 0; i < 10000; i++ {
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
	hot := 16 + s.Len()*RecordBytes
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

// Payload ranges that pass the checksum but are not the dense in-order layout
// Append produces — an offset near MaxInt64 (off+len wraps negative), ranges
// that overlap, run backwards or leave a gap — are ErrCorrupt from Restore,
// and the same wrapped range is ErrCorrupt from Payload rather than a panic.
func TestRestoreRejectsUnplaceablePayloadRanges(t *testing.T) {
	s := NewStore()
	for i := 0; i < 3; i++ {
		s.Append(Record{Group: uint64(i)}, []byte{1, 2, 3, 4})
	}
	good := s.Snapshot()
	const offField, lenField = 72, 80
	edit := func(rec, field int, v int64) []byte {
		img := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(img[16+rec*RecordBytes+field:], uint64(v))
		rechecksum(img)
		return img
	}
	for name, img := range map[string][]byte{
		"offset MaxInt64":  edit(1, offField, math.MaxInt64),
		"overlap":          edit(1, offField, 2),
		"out of order":     edit(2, offField, 0),
		"gap":              edit(1, lenField, 3),
		"length MaxInt64":  edit(2, lenField, math.MaxInt64),
		"negative length":  edit(0, lenField, -4),
		"unowned tail":     edit(2, lenField, 1),
		"offset past cold": edit(2, offField, 13),
	} {
		if st, err := Restore(img); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Restore returned %v (store %v), want ErrCorrupt", name, err, st != nil)
		}
	}
	if _, err := Restore(good); err != nil {
		t.Fatalf("re-checksummed control image: %v", err)
	}
	for _, r := range []Record{
		{PayloadOff: math.MaxInt64, PayloadLen: 4},
		{PayloadOff: 4, PayloadLen: math.MaxInt64},
		{PayloadOff: -1, PayloadLen: 1},
	} {
		if _, err := s.Payload(r); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Payload [%d,+%d): %v, want ErrCorrupt", r.PayloadOff, r.PayloadLen, err)
		}
	}
}

// The incremental fold reaches the same map as one full pass, whatever the
// split points.
func TestMineIntoMatchesMineGroups(t *testing.T) {
	recs := randStore(7, 200).Records()
	for i := range recs {
		recs[i].Group %= 9 // force shared groups
	}
	want := MineGroups(recs)
	got := map[uint64]GroupStat{}
	for from, step := 0, 1; from < len(recs); step += 3 {
		to := min(from+step, len(recs))
		MineInto(got, recs[:to], from)
		from = to
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("incremental mining diverged from MineGroups")
	}
}

// BenchmarkStoreAppend appends query-sized payloads to a store that already
// holds `resident` records. With -benchmem, B/op must not grow with the store
// size: the arena adds chunks and never re-copies what it holds.
func BenchmarkStoreAppend(b *testing.B) {
	payload := make([]byte, PayloadBytes(200, 10))
	for _, resident := range []int{0, 32768} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			s := NewStore()
			for i := 0; i < resident; i++ {
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

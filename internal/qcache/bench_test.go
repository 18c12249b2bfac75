package qcache

import "testing"

// BenchmarkLookup measures Algorithm 1 over a full 1 024-entry cache — the
// §6.5 configuration at cache_zipf_remote's size — through each way a cache
// can score its slots: the scalar Scorer, the SetBatchScorer adapter and a
// Resident. The scorer itself is trivial, so ns/op is the sweep's own cost.
func BenchmarkLookup(b *testing.B) {
	score := func(a, q int) float64 {
		if a == q {
			return 1
		}
		return 0.2
	}
	for _, mode := range sweepModes {
		b.Run(mode.name, func(b *testing.B) {
			c := mode.build(1024, score)
			for i := 0; i < 1024; i++ {
				c.Insert(i, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(i%2048, 0.10)
			}
		})
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New[int](256, 0.95, func(a, q int) float64 { return 0 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(i, nil)
	}
}

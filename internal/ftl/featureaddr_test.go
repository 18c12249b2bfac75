package ftl

import "testing"

// TestFeatureAddrMatchesFirstPage: the allocation-free FeatureAddr always
// equals the first of featurePages(i), and ObjectID is that page's linear index, for
// packed, page-exact, and page-spanning feature sizes.
func TestFeatureAddrMatchesFirstPage(t *testing.T) {
	layouts := []struct {
		name string
		l    DBLayout
	}{
		{"packed", layoutFor(800, 5000)},       // 20 features per page
		{"page-exact", layoutFor(16<<10, 300)}, // exactly one page each
		{"spanning", layoutFor(44<<10, 200)},   // 3 pages per feature
	}
	for _, tc := range layouts {
		for i := int64(0); i < tc.l.Features; i++ {
			first := featurePages(tc.l, i)[0]
			if got := tc.l.FeatureAddr(i); got != first {
				t.Fatalf("%s: FeatureAddr(%d) = %+v, first page %+v", tc.name, i, got, first)
			}
			if got, want := tc.l.ObjectID(i), uint64(tc.l.Geom.Linear(first)); got != want {
				t.Fatalf("%s: ObjectID(%d) = %d, want %d", tc.name, i, got, want)
			}
		}
	}
}

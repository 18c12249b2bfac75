package ftl

import "testing"

// TestFeatureAddrMatchesFirstPage: the allocation-free FeatureAddr used by
// the scoring hot loop always equals FeaturePages(i)[0], for packed,
// page-exact, and page-spanning feature sizes.
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
			if got, want := tc.l.FeatureAddr(i), tc.l.FeaturePages(i)[0]; got != want {
				t.Fatalf("%s: FeatureAddr(%d) = %+v, FeaturePages[0] = %+v", tc.name, i, got, want)
			}
		}
	}
}

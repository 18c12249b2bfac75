package ssd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestWalkChainsHops: every page enters a hop only once it has left the one
// before, no channel has more than Depth pages in flight, and the walk
// reports its pages under its own counters and span.
func TestWalkChainsHops(t *testing.T) {
	for _, depth := range []int64{1, StreamWindow, IssueAll} {
		e := sim.NewEngine()
		d, _ := New(e, DefaultConfig())
		reg, tr := obs.NewRegistry(), obs.NewTracer(1<<12)
		d.AttachObs(reg, tr)
		meta, err := d.CreateDB("w", 6<<10, 1000) // two per page, a ragged last page
		if err != nil {
			t.Fatal(err)
		}
		left := map[flash.PageAddr]sim.Time{}
		inflight := make([]int64, meta.Layout.Geom.Channels)
		var landed int64
		first := func(a flash.PageAddr, next func()) {
			if inflight[a.Channel]++; inflight[a.Channel] > depth {
				t.Fatalf("depth %d: channel %d has %d pages in flight", depth, a.Channel, inflight[a.Channel])
			}
			d.HopExternal(a, func() { left[a] = e.Now(); next() })
		}
		second := func(a flash.PageAddr, next func()) {
			if at, ok := left[a]; !ok || at > e.Now() {
				t.Fatalf("depth %d: page %+v programs before its transfer lands", depth, a)
			}
			d.HopProgram(a, func() { inflight[a.Channel]--; landed++; next() })
		}
		var got StreamStats
		d.Walk(Walk{Layout: meta.Layout, Pages: meta.Layout.ChannelSpan, Hops: []Hop{first, second},
			Depth: depth, Prefix: "test_walk", Span: "test_walk"}, func(s StreamStats) { got = s })
		e.Run()
		pages := meta.Layout.TotalPages()
		if got.Pages != pages || landed != pages || got.Bytes != pages*meta.Layout.Geom.PageBytes {
			t.Errorf("depth %d: walk reported %+v with %d pages landed, want %d", depth, got, landed, pages)
		}
		if c := reg.Snapshot().Counters; c["test_walk_pages"] != pages || c["test_walk_bytes"] != got.Bytes {
			t.Errorf("depth %d: counters %v", depth, c)
		}
		if sp := tr.Spans(); len(sp) != 1 || sp[0].Name != "test_walk" || sp[0].Dur != got.Duration() {
			t.Errorf("depth %d: spans %+v", depth, sp)
		}
	}
}

// TestOneWalker: the engine and the baselines move pages only through
// Device.Walk. A direct page read or program — the per-page loop the walker
// replaced — or an external-link transfer inside a loop fails the test.
func TestOneWalker(t *testing.T) {
	perPage := map[string]bool{"ReadPage": true, "ReadPageToBuffer": true, "ProgramPage": true}
	for _, dir := range []string{"../core", "../baseline"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		fset := token.NewFileSet()
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, name, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			var loops []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					return true
				}
				for len(loops) > 0 && n.Pos() >= loops[len(loops)-1].End() {
					loops = loops[:len(loops)-1]
				}
				switch n := n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops = append(loops, n)
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					x, _ := sel.X.(*ast.SelectorExpr)
					if perPage[sel.Sel.Name] || (sel.Sel.Name == "Transfer" && x != nil && x.Sel.Name == "External" && len(loops) > 0) {
						t.Errorf("%s: %s moves a page outside ssd.Device.Walk", fset.Position(n.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// TestOnePlacer: outside internal/ftl and internal/ssd, nothing places or
// moves flash behind the device's back. Device.CreateDB, PlaceRegion and
// Compact compact when they must and charge every move; a direct
// FTL.CreateDB or FTL.Compact (reached through a Device's FTL field), or any
// SetRegion call, in a non-test file — which would do neither — fails the
// test. Package-qualified calls (slices.Compact) are not the FTL's.
func TestOnePlacer(t *testing.T) {
	eachMethodCall(t, []string{"ftl", "ssd"}, func(pos token.Position, sel *ast.SelectorExpr) {
		x, _ := sel.X.(*ast.SelectorExpr)
		viaFTL := x != nil && x.Sel.Name == "FTL"
		switch name := sel.Sel.Name; {
		case name == "SetRegion", (name == "CreateDB" || name == "Compact") && viaFTL:
			t.Errorf("%s: %s places flash outside ssd.Device", pos, name)
		}
	})
}

// TestOneObjectIDRule: ftl.DBLayout.ObjectID is the only feature → address
// rule. Outside internal/ftl and internal/flash, a non-test file that calls
// FeatureAddr or Geometry.Linear — deriving an address a layout change would
// leave stale — fails the test.
func TestOneObjectIDRule(t *testing.T) {
	eachMethodCall(t, []string{"ftl", "flash"}, func(pos token.Position, sel *ast.SelectorExpr) {
		if name := sel.Sel.Name; name == "FeatureAddr" || name == "Linear" {
			t.Errorf("%s: %s derives an address; use DBLayout.ObjectID", pos, name)
		}
	})
}

// eachMethodCall parses every non-test Go file of the repository, except
// those under the exempt internal packages, testdata and hidden directories,
// and hands check each call through a selector that is not a package
// qualifier (slices.Compact is not a method call).
func eachMethodCall(t *testing.T, exempt []string, check func(pos token.Position, sel *ast.SelectorExpr)) {
	t.Helper()
	root := filepath.Join("..", "..")
	skip := map[string]bool{}
	for _, pkg := range exempt {
		skip[filepath.Join(root, "internal", pkg)] = true
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] || d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		imported := map[string]bool{}
		for _, imp := range f.Imports {
			name := strings.Trim(imp.Path.Value, `"`)
			name = name[strings.LastIndex(name, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || !imported[id.Name] {
				check(fset.Position(call.Pos()), sel)
			}
			return true
		})
		return nil
	})
	if err != nil || files < 100 {
		t.Fatalf("walked %d files: %v", files, err)
	}
}

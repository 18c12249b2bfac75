package deepstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Drift guards for the present-tense docs, the facade and the packages
// below it, built on the standard library's Go parser alone. README.md and
// DESIGN.md name code as `pkg.Name` and `Type.Member`, and
// TestDocsNamesResolve fails when such a name is no longer declared. The
// facade re-exports only what some caller uses, and
// TestFacadeExportsHaveCallers fails on an export nobody uses;
// TestInternalExportsHaveCallers does the same for internal/.

// parseModule parses every Go file of the module, tests included, keyed by
// slash-separated path.
func parseModule(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files[filepath.ToSlash(path)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// declNames returns the names a file declares at top level, methods included.
func declNames(f *ast.File) []string {
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	return names
}

// typeMembers returns every type the module declares, keyed "pkg.Type", with
// the names of its fields (embedded ones by type name), interface methods
// and methods. Members promoted through embedding are not followed.
func typeMembers(files map[string]*ast.File) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	add := func(key, member string) {
		if out[key] == nil {
			out[key] = map[string]bool{}
		}
		if member != "" {
			out[key][member] = true
		}
	}
	// baseName strips pointers, type arguments and a package qualifier.
	baseName := func(x ast.Expr) string {
		for {
			switch t := x.(type) {
			case *ast.StarExpr:
				x = t.X
			case *ast.IndexExpr:
				x = t.X
			case *ast.IndexListExpr:
				x = t.X
			case *ast.SelectorExpr:
				x = t.Sel
			case *ast.Ident:
				return t.Name
			default:
				return ""
			}
		}
	}
	for _, f := range files {
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					add(pkg+"."+baseName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					key := pkg + "." + ts.Name.Name
					add(key, "")
					var fields []*ast.Field
					switch t := ts.Type.(type) {
					case *ast.StructType:
						fields = t.Fields.List
					case *ast.InterfaceType:
						fields = t.Methods.List
					}
					for _, fl := range fields {
						for _, n := range fl.Names {
							add(key, n.Name)
						}
						if len(fl.Names) == 0 {
							add(key, baseName(fl.Type))
						}
					}
				}
			}
		}
	}
	return out
}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`[^`]+`")
	// pkgName matches pkg.Name, or pkg.Prefix* for a family of names. A
	// match inside a path (dir/file.go) or a longer chain (a.b.c) is none.
	pkgName = regexp.MustCompile(`(^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(\*?)`)
	// typeMember matches Type.Member, optionally package-qualified.
	typeMember = regexp.MustCompile(`(^|[^\w./-])(?:([a-z][a-z0-9]*)\.)?([A-Z]\w*)\.([A-Za-z_]\w*)`)
	fileExt    = map[string]bool{"go": true, "json": true, "jsonl": true, "md": true, "mod": true, "s": true, "sh": true, "yml": true}
)

func TestDocsNamesResolve(t *testing.T) {
	files := parseModule(t)
	decls := map[string]map[string]bool{} // package name → names declared in it
	for _, f := range files {
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, n := range declNames(f) {
			decls[pkg][n] = true
		}
	}
	types := typeMembers(files)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := fencedBlock.ReplaceAllString(string(text), "")
		for _, span := range codeSpan.FindAllString(prose, -1) {
			for _, m := range pkgName.FindAllStringSubmatch(span, -1) {
				pkg, name, family := m[2], m[3], m[4] == "*"
				names, ok := decls[pkg]
				if !ok || fileExt[name] {
					continue // a variable or a file name, not a package of the module
				}
				found := names[name]
				for n := range names {
					found = found || family && strings.HasPrefix(n, name)
				}
				if !found {
					t.Errorf("%s: %s names %s.%s, which package %s does not declare", doc, span, pkg, name, pkg)
				}
			}
			for _, m := range typeMember.FindAllStringSubmatch(span, -1) {
				pkg, typ, member := m[2], m[3], m[4]
				if fileExt[member] || pkg != "" && decls[pkg] == nil {
					continue // a file name, or a type outside the module
				}
				declared, found := false, false
				for key, members := range types {
					if strings.HasSuffix(key, "."+typ) && (pkg == "" || key == pkg+"."+typ) {
						declared = true
						found = found || members[member]
					}
				}
				switch {
				case !declared:
					t.Errorf("%s: %s names %s.%s, but the module declares no type %s", doc, span, typ, member, typ)
				case !found:
					t.Errorf("%s: %s names %s.%s, but type %s has no field or method %s", doc, span, typ, member, typ, member)
				}
			}
		}
	}
}

// facadeUser reports whether path is a file whose uses of the facade count:
// a command, an example, the benchmark, or a root-package test.
func facadeUser(path string) bool {
	for _, dir := range []string{"cmd/", "examples/", "benchmark/"} {
		if strings.HasPrefix(path, dir) {
			return true
		}
	}
	return !strings.Contains(path, "/") && strings.HasSuffix(path, "_test.go")
}

// facadeRefs adds to used every name f takes from the facade: selectors on
// the imported root package, and, in the root package itself, every
// identifier that is neither a selected member nor a composite-literal key.
func facadeRefs(f *ast.File, used map[string]bool) {
	if f.Name.Name == "deepstore" {
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							skip[key] = true
						}
					}
				}
			case *ast.Ident:
				used[n.Name] = used[n.Name] || !skip[n]
			}
			return true
		})
		return
	}
	local := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"repro"` {
			local = "deepstore"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}

var (
	qualifiedName = regexp.MustCompile(`\bdeepstore\.(\w+)`)
	spanName      = regexp.MustCompile("`(\\w+)`")
)

func TestFacadeExportsHaveCallers(t *testing.T) {
	files := parseModule(t)
	used := map[string]bool{}
	for path, f := range files {
		if facadeUser(path) {
			facadeRefs(f, used)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range []*regexp.Regexp{qualifiedName, spanName} {
			for _, m := range re.FindAllStringSubmatch(string(text), -1) {
				used[m[1]] = true
			}
		}
	}
	// A kept function keeps every facade type its signature names.
	funcs := map[string]*ast.FuncType{}
	var exports []string
	for _, path := range []string{"deepstore.go", "remote.go"} {
		for _, d := range files[path].Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = fn.Type
			}
		}
		for _, n := range declNames(files[path]) {
			if ast.IsExported(n) {
				exports = append(exports, n)
			}
		}
	}
	for grew := true; grew; {
		grew = false
		for name, sig := range funcs {
			if !used[name] {
				continue
			}
			ast.Inspect(sig, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !used[id.Name] {
					used[id.Name], grew = true, true
				}
				_, qualified := n.(*ast.SelectorExpr) // names another package's type
				return !qualified
			})
		}
	}
	sort.Strings(exports)
	for _, n := range exports {
		if !used[n] {
			t.Errorf("facade exports %s, but no command, example, benchmark, root test or doc uses it", n)
		}
	}
}

// internalAllowed are the exported names under internal/ that no non-test
// code calls but that stay, keyed "pkg.Name" or "pkg.Type.Method", each with
// its reason. Some share their name with live code elsewhere, which a match
// by name cannot tell apart; the entry records why they stay all the same.
var internalAllowed = map[string]string{
	"accel.AnalyticScanSeconds":   "the closed form TestAnalyticAgreesWithDES holds the event-driven scan to (ROADMAP item 4)",
	"baseline.Wimpy.WimpyScanDES": "the event-driven wimpy scan TestWimpyDES* hold the analytic model to (ROADMAP item 4)",
	"tensor.GemvInt8":             "refInt8, the oracle of GemmInt8's tests",
	"ssd.Restore":                 "the power-cycle restore ROADMAP item 3 folds into the restart",
	"racetest.Enabled":            "a test-support package by design",
	"nn.NewElementwise":           "the element-wise layer family of PAPER.md §2's inventory, which LoadModel accepts",
}

// facadeTypes returns the internal types the facade governs, keyed
// "pkg.Type": those it aliases (type X = pkg.T) and those named in the
// signatures of the functions it declares or re-exports (var X = pkg.F).
// Their methods are public API, held to callers by the facade guard.
func facadeTypes(files map[string]*ast.File) map[string]bool {
	out := map[string]bool{}
	// sig adds every pkg.T a signature names; local is the package an
	// unqualified name belongs to ("" at the facade, whose own names are
	// not internal).
	sig := func(ft *ast.FuncType, local string) {
		ast.Inspect(ft, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, name := qualified(n); pkg != "" {
					out[pkg+"."+name] = true
				}
				return false
			case *ast.Ident:
				if local != "" && ast.IsExported(n.Name) {
					out[local+"."+n.Name] = true
				}
			}
			return true
		})
	}
	funcs := map[string]*ast.FuncType{} // "pkg.F" → signature, for var aliases
	for path, f := range files {
		if strings.HasPrefix(path, "internal/") && !strings.HasSuffix(path, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					funcs[f.Name.Name+"."+fn.Name.Name] = fn.Type
				}
			}
		}
	}
	for _, path := range []string{"deepstore.go", "remote.go"} {
		for _, d := range files[path].Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				sig(d.Type, "")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if pkg, name := qualified(spec.Type); pkg != "" && spec.Assign.IsValid() {
							out[pkg+"."+name] = true
						}
					case *ast.ValueSpec:
						for _, v := range spec.Values {
							if pkg, name := qualified(v); funcs[pkg+"."+name] != nil {
								sig(funcs[pkg+"."+name], pkg)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// qualified splits x as pkg.Name, or returns "" for anything else.
func qualified(x ast.Expr) (pkg, name string) {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			return id.Name, sel.Sel.Name
		}
	}
	return "", ""
}

func TestInternalExportsHaveCallers(t *testing.T) {
	files := parseModule(t)
	// named holds every identifier of a non-test file other than the names
	// of its top-level function, method and type declarations.
	named := map[string]bool{}
	for path, f := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		decl := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decl[n.Name] = true
			case *ast.TypeSpec:
				decl[n.Name] = true
			case *ast.Ident:
				named[n.Name] = named[n.Name] || !decl[n]
			}
			return true
		})
	}
	facade := facadeTypes(files)
	var dead []string
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		pkg := f.Name.Name
		for _, d := range f.Decls {
			var keys []string
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					keys = append(keys, pkg+"."+d.Name.Name)
					break
				}
				recv := d.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					}
					break
				}
				if id, ok := recv.(*ast.Ident); ok && !facade[pkg+"."+id.Name] {
					keys = append(keys, pkg+"."+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && !facade[pkg+"."+ts.Name.Name] {
						keys = append(keys, pkg+"."+ts.Name.Name)
					}
				}
			}
			for _, key := range keys {
				name := key[strings.LastIndexByte(key, '.')+1:]
				if ast.IsExported(name) && !named[name] && internalAllowed[key] == "" {
					dead = append(dead, key+" ("+path+")")
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported, but no non-test code names it: delete it, or allowlist it with a reason", d)
	}
}

package waitfree_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exports under internal/ that no production file
// uses and that stay anyway, each with its bin from DESIGN §17:
//
//	lemma — a lemma implementation an EXPERIMENTS entry cites;
//	test  — used by a test in another package, which export_test.go
//	        cannot reach;
//	bench — compiled against by cmd/wfbench, a module of its own;
//	iface — a method that satisfies an interface.
//
// Keys are "pkg.Name" for top-level declarations and "pkg.Type.Method" for
// methods.
var exportAllowlist = map[string]string{
	// lemma
	"homology.BoundaryComplex":               "lemma: E9, Lemma 2.2 (the sphere controls)",
	"homology.HasNoHolesBelow":               "lemma: E9, Lemma 2.2",
	"homology.IsSphere":                      "lemma: E9, Lemma 2.2 (links of interior vertices)",
	"homology.VerifySubdividedSimplex":       "lemma: E9, Lemma 2.2 (structural certificate)",
	"modelcheck.OrderedPartitionOutcomeKeys": "lemma: E17, Lemma 3.2's outcome set",
	"modelcheck.ReachableOutcomes":           "lemma: E17, Lemma 3.2 on the real algorithm",
	"tasks.LoopAgreement":                    "lemma: E16, the loop agreement family",
	"topology.SDSToBsd":                      "lemma: E8, Lemma 5.3",
	// test
	"cluster.Cluster.MembersHash":      "test: serve's churn soak",
	"engine.Metrics.Counter":           "test: serve and cluster tests",
	"engine.Metrics.HistCount":         "test: serve's observability tests",
	"faultfs.Faulty.Injected":          "test: engine and serve fault tests",
	"immediate.OrderedPartitionOf":     "test: protocol's execution reconstruction, model's cross-check",
	"model.KConcurrency":               "test: solver and topology model tests",
	"model.KSet":                       "test: solver and topology model tests",
	"model.TResilient":                 "test: solver and topology model tests",
	"netfault.Transport.Injected":      "test: serve's chaos and churn soaks",
	"obs.TraceSnapshot.Find":           "test: engine, serve, solver and topology span tests",
	"sched.Controller.Crashed":         "test: the runtimes' schedule tests",
	"sched.ExploreFiltered":            "test: the model, modelcheck and solver schedule cross-checks",
	"topology.Complex.CanonicalString": "test: engine and solver differential tests",
	"topology.Complex.Link":            "test: homology's link condition",
	"topology.RandomChromaticComplex":  "test: converge and solver property tests",
	// bench
	"engine.DecodeComplexGob": "bench: cmd/wfbench's decode timing",
	"engine.EncodeComplexGob": "bench: the rest of the codec cmd/wfbench decodes with",
	"topology.SDSParallelCtx": "bench: cmd/wfbench's direct phase",
}

// exportDecl is one exported top-level declaration.
type exportDecl struct {
	key    string // pkg.Name or pkg.Type.Method
	name   string
	method bool
	pos    token.Position
}

// TestEveryExportHasAProductionCaller is a syntax scan: every exported
// top-level func, method, type, const and var declared in a non-test file
// under internal/ must be named in some non-test Go file outside
// cmd/wfbench, other than at its declaration, or be allowlisted. A
// top-level name counts as used as pkg.Name in another package or as a bare
// Name in its own, so a call of one package's Explore is no use of another's.
// A method counts as used when its name appears anywhere: a shared name (two
// types' Injected methods) counts as used when either is, so the scan
// undercounts methods. A method that only a standard-library interface
// calls (MarshalJSON, say) would read as unused; it gets an iface entry.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}     // identifier → occurrences in production files
	declared := map[string]int{} // exported name → declarations under internal/
	refs := map[string]int{}     // pkg.Name → qualified and own-package bare references
	byKey := map[string]int{}    // pkg.Name → top-level declarations under internal/
	var decls []exportDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("cmd", "wfbench") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
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
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		pkg := f.Name.Name
		imports := map[string]string{} // local name → package under internal/
		for _, imp := range f.Imports {
			ipath, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if ipkg, ok := strings.CutPrefix(ipath, "waitfree/internal/"); ok {
				local := ipkg
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = ipkg
			}
		}
		// Selected names, method names and field names are not bare
		// references to a top-level declaration.
		notBare := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notBare[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ipkg, ok := imports[x.Name]; ok {
						refs[ipkg+"."+n.Sel.Name]++
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					notBare[n.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					notBare[id] = true
				}
			case *ast.Ident:
				uses[n.Name]++
				if internal && !notBare[n] {
					refs[pkg+"."+n.Name]++
				}
			}
			return true
		})
		if !internal {
			return nil
		}
		add := func(key string, id *ast.Ident, method bool) {
			decls = append(decls, exportDecl{key: key, name: id.Name, method: method, pos: fset.Position(id.Pos())})
			declared[id.Name]++
			if !method {
				byKey[key]++
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				if decl.Recv == nil {
					add(pkg+"."+decl.Name.Name, decl.Name, false)
					continue
				}
				recv := receiverName(decl.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue // reachable only through an exported interface
				}
				add(pkg+"."+recv+"."+decl.Name.Name, decl.Name, true)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							add(pkg+"."+spec.Name.Name, spec.Name, false)
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								add(pkg+"."+id.Name, id, false)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := func(d exportDecl) bool {
		if d.method {
			return uses[d.name] > declared[d.name]
		}
		return refs[d.key] > byKey[d.key]
	}
	declByKey := map[string]exportDecl{}
	var unused []string
	for _, d := range decls {
		declByKey[d.key] = d
		if used(d) {
			continue
		}
		if _, ok := exportAllowlist[d.key]; ok {
			continue
		}
		unused = append(unused, d.key+" ("+d.pos.String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("export with no production caller: %s; delete it, move it into a _test.go file, or allowlist it with its bin", u)
	}
	var stale []string
	for key := range exportAllowlist {
		switch d, ok := declByKey[key]; {
		case !ok:
			stale = append(stale, key+", which is no longer declared")
		case used(d):
			stale = append(stale, key+", which has a production caller now")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("allowlist names %s; drop the entry", s)
	}
}

// receiverName returns the type name of a method receiver.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

package waitfree_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
	key  string // pkg.Name or pkg.Type.Method
	name string
	pos  token.Position
}

// TestEveryExportHasAProductionCaller is a name-matching scan: every
// exported top-level func, method, type, const and var declared in a
// non-test file under internal/ must appear as an identifier in some
// non-test Go file outside cmd/wfbench, other than at its declaration, or
// be allowlisted. A shared name (two types' Injected methods) counts as used
// when either is, so the scan undercounts. A method that only a
// standard-library interface calls (MarshalJSON, say) would read as unused;
// it gets an iface entry.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}     // identifier → occurrences in production files
	declared := map[string]int{} // exported name → declarations under internal/
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
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := f.Name.Name
		add := func(key string, id *ast.Ident) {
			decls = append(decls, exportDecl{key: key, name: id.Name, pos: fset.Position(id.Pos())})
			declared[id.Name]++
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				key := pkg + "." + decl.Name.Name
				if decl.Recv != nil {
					recv := receiverName(decl.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue // reachable only through an exported interface
					}
					key = pkg + "." + recv + "." + decl.Name.Name
				}
				add(key, decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							add(pkg+"."+spec.Name.Name, spec.Name)
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if id.IsExported() {
								add(pkg+"."+id.Name, id)
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

	seen := map[string]bool{}
	var unused []string
	for _, d := range decls {
		seen[d.key] = true
		if uses[d.name] > declared[d.name] {
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
		switch name := key[strings.LastIndexByte(key, '.')+1:]; {
		case !seen[key]:
			stale = append(stale, key+", which is no longer declared")
		case uses[name] > declared[name]:
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

package lbmm_test

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

// exportAllowlist names the exported functions and methods under internal/
// that no program calls, each with the reason it stays. A key is
// "pkg.Func" or "pkg.Type.Method", pkg being the directory under internal/.
var exportAllowlist = map[string]string{
	// Test seams ROADMAP keeps: they let a test reach state no program path exposes.
	"lbm.NewExec":             "test seam: a bare executor for the compiled-engine unit tests",
	"lbm.Exec.PutSlot":        "test seam: seeds one store slot of a bare executor",
	"lbm.Exec.GetSlot":        "test seam: reads one store slot of a bare executor",
	"lbm.SlotSpace.EachKey":   "test seam: visits a hand-compiled plan's slots to compare its stores with the map engine's",
	"lbm.SlotSpace.Sizes":     "test seam: sizes a bare executor's arenas for a hand-compiled plan",
	"lbm.WithStoreLimit":      "test seam: drives the store-capacity fault",
	"lbm.WithCollector":       "test seam: docs/OBSERVABILITY.md's attach point for a machine's counters",
	"batch.Coalescer.Pending": "test seam: observes parked lanes without launching them",
	"dist.Mesh.Part":          "test seam: reads the partition a formed mesh runs",
	"chaos.Drill.Victims":     "test seam: names the ranks a drill killed",
	// Oracles a test checks live code with.
	"graph.Cluster.Valid":      "oracle: checks a found cluster's part sizes and members",
	"graph.NodeCounts":         "oracle: the per-node d² bound of the US triangle-bound test",
	"graph.PairMultiplicity":   "oracle: the per-pair d² bound of the US triangle-bound test",
	"algo.VerifyDissemination": "oracle: checks the §1.6 dissemination's final holdings",
	"matrix.Support.InClass":   "oracle: checks a generated support lies in its sparsity class",
	"lbm.Layout.MaxPerNode":    "oracle: checks a layout's per-node balance",
	"lbm.Exec.StoreLen":        "oracle: checks how many values BeginLoad stamps on each node",
	"ring.GFp.Neg":             "oracle: the check on GFp.Sub",
	"ring.Real.Neg":            "oracle: the check on Real.Sub",
	"service.Cache.Keys":       "oracle: checks the plan cache's LRU order",
	"control.Controller.Keys":  "oracle: checks the controller's MaxKeys bound",
	// Helpers shared by the tests of several packages.
	"lbm.TKey":               "test helper: builds a triangle product key in several packages' tests",
	"ring.All":               "test helper: every ring, for the cross-ring differentials",
	"ring.Fields":            "test helper: the rings with subtraction, for the field-only tests",
	"vnet.New":               "test helper: a virtual network from an explicit host assignment",
	"workload.BlocksShifted": "test helper: distinct structures for BenchmarkServeCacheMiss",
	// internal/cclique is README's §1.5 row: its tests hold the simulation to
	// a clique oracle, and no program path runs it.
	"cclique.Simulate": "README §1.5 row: the n·T(n) simulation, checked by TestCliqueRoundReadsStartState",
	"cclique.AllToAll": "README §1.5 row: the all-to-all round the simulation theorem is tested on",
	"cclique.DenseMM":  "README §1.5 row: the folklore clique dense multiplication the simulation is tested on",
	"cclique.LocalMM":  "README §1.5 row: DenseMM's local products",
}

// stdlibCalls are the method names the standard library calls through an
// interface, so a method by that name has a caller without a selector.
var stdlibCalls = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"String": true, "Error": true, "ServeHTTP": true,
}

// TestEveryExportHasACaller fails on an exported function or method under
// internal/ that nothing outside _test.go files references, unless
// exportAllowlist names it; and on an allowlist entry that no longer exists
// or has gained a program caller. bench/, cmd/ and examples/ count as
// callers.
//
// A function is referenced by pkg.Name in a file that imports its package,
// or by a bare Name inside its own package. A method is referenced by any
// .Name selector, or by a name in stdlibCalls: a shared name keeps a dead
// method, but a live one is never flagged.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct{ pkg, recv, name string }
	var decls []decl
	funcRefs := map[string]bool{} // "pkg.Name"
	methodRefs := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := "" // the directory under internal/, or "" outside it
		if parts := strings.Split(filepath.ToSlash(path), "/"); len(parts) == 3 && parts[0] == "internal" {
			pkg = parts[1]
		}
		imports := map[string]string{} // local name -> package under internal/
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rest, ok := strings.CutPrefix(p, "lbmm/internal/")
			if !ok {
				continue
			}
			local := rest
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = rest
		}
		for _, d := range f.Decls {
			var self *ast.FuncDecl
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = fd
				if pkg != "" && fd.Name.IsExported() {
					recv := ""
					if fd.Recv != nil {
						recv = receiverName(fd.Recv.List[0].Type)
					}
					decls = append(decls, decl{pkg, recv, fd.Name.Name})
				}
			}
			// A function's own name and its recursive calls are not callers,
			// nor is a selector's name a bare reference.
			notBare := map[*ast.Ident]bool{}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					notBare[n.Sel] = true
					methodRefs[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							funcRefs[p+"."+n.Sel.Name] = true
						}
					}
				case *ast.Ident:
					if pkg == "" || notBare[n] || (self != nil && (n == self.Name || self.Recv == nil && n.Name == self.Name.Name)) {
						break
					}
					funcRefs[pkg+"."+n.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	defined := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		key, called := d.pkg+"."+d.name, funcRefs[d.pkg+"."+d.name]
		if d.recv != "" {
			key, called = d.pkg+"."+d.recv+"."+d.name, methodRefs[d.name] || stdlibCalls[d.name]
		}
		defined[key] = true
		_, allowed := exportAllowlist[key]
		switch {
		case !called && !allowed:
			uncalled = append(uncalled, key)
		case called && allowed:
			t.Errorf("allowlisted %s has a program caller: remove its entry", key)
		}
	}
	sort.Strings(uncalled)
	for _, key := range uncalled {
		t.Errorf("%s is exported but nothing outside tests calls it: delete it, or allowlist it with a reason", key)
	}
	for key := range exportAllowlist {
		if !defined[key] {
			t.Errorf("allowlisted %s is not an exported function or method under internal/: remove its entry", key)
		}
	}
}

// receiverName is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

package lbmm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that no program calls, each with the reason it stays. A key is
// "pkg.Func" or "pkg.Type.Method", pkg being the directory under internal/.
var exportAllowlist = map[string]string{
	// Test seams ROADMAP keeps: they let a test reach state no program path exposes.
	"lbm.NewExec":             "test seam: a bare executor for the compiled-engine unit tests",
	"lbm.Exec.Run":            "test seam: runs one compiled plan on a bare executor, under a transport as a chain of one",
	"lbm.Exec.PutSlot":        "test seam: seeds one store slot of a bare executor",
	"lbm.Exec.GetSlot":        "test seam: reads one store slot of a bare executor",
	"lbm.SlotSpace.EachKey":   "test seam: visits a hand-compiled plan's slots to compare its stores with the map engine's",
	"lbm.SlotSpace.Sizes":     "test seam: sizes a bare executor's arenas for a hand-compiled plan",
	"lbm.WithStoreLimit":      "test seam: drives the store-capacity fault",
	"lbm.WithCollector":       "test seam: docs/OBSERVABILITY.md's attach point for a machine's counters",
	"batch.Coalescer.Pending": "test seam: observes parked lanes without launching them",
	"dist.Mesh.Part":          "test seam: reads the partition a formed mesh runs",
	"dist.Mesh.Err":           "test seam: reads the sticky error a poisoned mesh keeps",
	"chaos.Drill.Victims":     "test seam: names the ranks a drill killed",
	// Oracles a test checks live code with.
	"graph.Cluster.Valid":                          "oracle: checks a found cluster's part sizes and members",
	"graph.NodeCounts":                             "oracle: the per-node d² bound of the US triangle-bound test",
	"graph.PairMultiplicity":                       "oracle: the per-pair d² bound of the US triangle-bound test",
	"algo.VerifyDissemination":                     "oracle: checks the §1.6 dissemination's final holdings",
	"matrix.Support.InClass":                       "oracle: checks a generated support lies in its sparsity class",
	"lbm.Layout.MaxPerNode":                        "oracle: checks a layout's per-node balance",
	"lbm.Exec.StoreLen":                            "oracle: checks how many values BeginLoad stamps on each node",
	"ring.GFp.Neg":                                 "oracle: the check on GFp.Sub",
	"ring.Real.Neg":                                "oracle: the check on Real.Sub",
	"service.Cache.Keys":                           "oracle: checks the plan cache's LRU order",
	"service.Cache.Bytes":                          "oracle: checks the plan cache's byte accounting",
	"service.Cache.Contains":                       "oracle: checks which plans the cache holds without touching its LRU order",
	"matrix.Class.Contains":                        "oracle: checks an instance's classes against the class lattice",
	"service.wireMultiplyResponse.AppendJSON":      "oracle: the struct encoding the streamed /v1/multiply body must equal",
	"service.wireMultiplyBatchResponse.AppendJSON": "oracle: the struct encoding the streamed /v1/multiply/batch body must equal",
	"control.Controller.Keys":                      "oracle: checks the controller's MaxKeys bound",
	// Helpers shared by the tests of several packages.
	"lbm.TKey":               "test helper: builds a triangle product key in several packages' tests",
	"matrix.Sparse.Add":      "test helper: accumulates the expected product of a triangle set in several packages' tests",
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
// interface, so a method by that name has a caller the type checker does not
// see.
var stdlibCalls = map[string]bool{
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"String": true, "Error": true, "ServeHTTP": true,
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

// goList returns the packages `go list -deps -export` names for patterns in
// dir, dependencies first.
func goList(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// TestEveryExportHasACaller fails on an exported function or method under
// internal/ that no program calls: no reference outside _test.go files,
// bench/, cmd/ and examples/ included, unless exportAllowlist names it; and
// on an allowlist entry that no longer exists or has gained a program
// caller.
//
// The program is type-checked (go/types, the module's packages and bench/'s
// from source in `go list -deps` order, the standard library from export
// data), so a reference is to one declared function or method, never to a
// name. A function's reference from its own body is not a caller. A
// method called through an interface is called on every type of the module
// that implements it; a method named in stdlibCalls has a caller.
func TestEveryExportHasACaller(t *testing.T) {
	var listed []listedPackage
	seen := map[string]bool{}
	for _, l := range [][]listedPackage{goList(t, ".", "./..."), goList(t, "bench", ".")} {
		for _, p := range l {
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}

	fset := token.NewFileSet()
	export := map[string]string{}
	for _, p := range listed {
		export[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	type decl struct {
		key string
		fn  *types.Func
	}
	var decls []decl
	called := map[*types.Func]bool{}
	var viaInterface []*types.Func // interface methods the program calls
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		short, under := strings.CutPrefix(lp.ImportPath, "lbmm/internal/")
		under = under && !strings.Contains(short, "/")
		for _, f := range files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name].(*types.Func)
					if under && fd.Name.IsExported() {
						key := short + "." + fd.Name.Name
						if fd.Recv != nil {
							key = short + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
						}
						decls = append(decls, decl{key, self})
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					fn = fn.Origin()
					called[fn] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						viaInterface = append(viaInterface, fn)
					}
					return true
				})
			}
		}
	}

	// implemented reports whether a call through an interface can reach m.
	implemented := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for _, im := range viaInterface {
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == m.Name() && types.Implements(recv, iface) {
				return true
			}
		}
		return false
	}
	defined := map[string]bool{}
	var uncalled []string
	for _, d := range decls {
		isMethod := d.fn.Type().(*types.Signature).Recv() != nil
		ok := called[d.fn] || isMethod && (stdlibCalls[d.fn.Name()] || implemented(d.fn))
		defined[d.key] = true
		_, allowed := exportAllowlist[d.key]
		switch {
		case !ok && !allowed:
			uncalled = append(uncalled, d.key)
		case ok && allowed:
			t.Errorf("allowlisted %s has a program caller: remove its entry", d.key)
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

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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

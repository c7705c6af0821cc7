package celestial_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The reachability gate: every exported function, method, type, var and
// const under internal/ has a reference from product code — every
// package's non-test files except bench/'s, which is a client of the
// product and not part of it. An identifier only a test (or the bench)
// needs goes on testdata/reachability_allowlist.txt, one line naming the
// file that needs it; an entry that gains a product caller, or whose
// identifier is gone, fails the gate too, so the list only shrinks.
//
// A method also counts as reached when
//   - its receiver is a type the module's root package aliases (the public
//     API re-exports the whole method set), or
//   - its name is a method of an interface that product code declares,
//     names or converts to, or that a standard package it imports writes
//     down, and its receiver type implements that interface (that is how a
//     ResponseWriter wrapper's WriteHeader and a String method fmt calls
//     are reached).

// maxAllowlisted caps the allowlist at its size when the gate landed:
// entries leave it as their identifiers gain product callers or go, and
// a new one means raising the cap in this file.
const maxAllowlisted = 16

func TestEveryExportedIdentifierHasAProductCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	problems, n, err := reachability(".", "testdata/reachability_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if n > maxAllowlisted {
		t.Errorf("the allowlist has %d entries, more than %d", n, maxAllowlisted)
	}
}

// TestReachabilityGateOnFixture runs the gate over a small module with one
// exported function a product file calls, one only a test calls, one
// method that satisfies a standard-library interface, one type only its
// own method receivers mention and one allowlisted function that has a
// product caller. It must report exactly the test-only function, the
// receiver-only type and the stale allowlist entry.
func TestReachabilityGateOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	dir := filepath.Join("testdata", "reachfixture")
	got, _, err := reachability(dir, "allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.OnlyTested: only tests reach this exported identifier; delete it, move it into a _test.go file, or allowlist it with the file that needs it",
		"internal/lib.Self: only tests reach this exported identifier; delete it, move it into a _test.go file, or allowlist it with the file that needs it",
		"internal/lib.Allowed: allowlisted but reached by product code (or gone); remove it from the allowlist",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// reachability runs the census over the module in dir and checks it
// against the allowlist at dir/allowPath. It returns one line per problem
// and the number of allowlist entries.
func reachability(dir, allowPath string) ([]string, int, error) {
	found, err := unreached(dir)
	if err != nil {
		return nil, 0, err
	}
	allow, err := readAllowlist(filepath.Join(dir, allowPath))
	if err != nil {
		return nil, 0, err
	}
	return compareAllowlist(dir, found, allow), len(allow), nil
}

// compareAllowlist returns one line per unreached identifier missing from
// the allowlist and per allowlist entry that is not unreached, or whose
// named file does not mention it.
func compareAllowlist(dir string, unreached []string, allow map[string]string) []string {
	var problems []string
	set := map[string]bool{}
	for _, id := range unreached {
		set[id] = true
		if _, ok := allow[id]; !ok {
			problems = append(problems, id+": only tests reach this exported identifier; delete it, move it into a _test.go file, or allowlist it with the file that needs it")
		}
	}
	ids := make([]string, 0, len(allow))
	for id := range allow {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !set[id] {
			problems = append(problems, id+": allowlisted but reached by product code (or gone); remove it from the allowlist")
			continue
		}
		name := id[strings.LastIndexByte(id, '.')+1:]
		src, err := os.ReadFile(filepath.Join(dir, allow[id]))
		if err != nil || !bytes.Contains(src, []byte(name)) {
			problems = append(problems, fmt.Sprintf("%s: allowlisted for %s, which does not use it", id, allow[id]))
		}
	}
	return problems
}

// readAllowlist parses "<identifier> <file>" lines; # starts a comment.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<identifier> <file>\"", path, n)
		}
		if _, dup := allow[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, fields[0])
		}
		allow[fields[0]] = fields[1]
	}
	return allow, sc.Err()
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// moduleImporter type-checks the module's packages from their non-test
// files, each once, and the standard library from source.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*listedPackage
	done  map[string]*types.Package
	infos map[string]*types.Info
	// recvs holds the identifiers inside method receivers: a type's own
	// methods naming it there do not reach it.
	recvs map[*ast.Ident]bool
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	lp, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						m.recvs[id] = true
					}
					return true
				})
			}
		}
	}
	m.done[path], m.infos[path] = p, info
	return p, nil
}

// census is the type-checked module in dir: its packages in dependency
// order, and the standard packages they import.
type census struct {
	*moduleImporter
	module string
	paths  []string
	stdPkg map[string]*listedPackage
}

func loadCensus(dir string) (*census, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	fset := token.NewFileSet()
	c := &census{
		moduleImporter: &moduleImporter{
			fset:  fset,
			std:   importer.ForCompiler(fset, "source", nil),
			pkgs:  map[string]*listedPackage{},
			done:  map[string]*types.Package{},
			infos: map[string]*types.Info{},
			recvs: map[*ast.Ident]bool{},
		},
		stdPkg: map[string]*listedPackage{},
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, err
		}
		switch {
		case lp.Standard:
			c.stdPkg[lp.ImportPath] = lp
		case lp.Module != nil && len(lp.GoFiles) > 0:
			c.module = lp.Module.Path
			c.pkgs[lp.ImportPath] = lp
			c.paths = append(c.paths, lp.ImportPath)
		}
	}
	for _, path := range c.paths {
		if _, err := c.Import(path); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// isProduct reports whether a module package is product code: every
// package but the benchmark's.
func (c *census) isProduct(path string) bool {
	return path != c.module+"/bench" && !strings.HasPrefix(path, c.module+"/bench/")
}

// interfaceSet collects interface types with methods, once each.
type interfaceSet map[*types.Interface]bool

func (s interfaceSet) add(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		s[it] = true
	}
}

// productUses returns every object product code refers to outside method
// receivers (generic methods by their origin), every interface type it declares, names or
// converts to, and the standard packages it imports.
func (c *census) productUses() (map[types.Object]bool, interfaceSet, []string) {
	used := map[types.Object]bool{}
	ifaces := interfaceSet{}
	imported := map[string]bool{}
	for _, path := range c.paths {
		if !c.isProduct(path) {
			continue
		}
		for _, imp := range c.done[path].Imports() {
			if c.stdPkg[imp.Path()] != nil {
				imported[imp.Path()] = true
			}
		}
		info := c.infos[path]
		for id, obj := range info.Uses {
			if c.recvs[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				ifaces.add(tv.Type)
			}
		}
	}
	std := make([]string, 0, len(imported))
	for path := range imported {
		std = append(std, path)
	}
	sort.Strings(std)
	return used, ifaces, std
}

// addStdInterfaces adds every interface type the given standard packages
// write down. The standard library reaches methods through interfaces
// product code never spells: fmt.Stringer, json.Marshaler, the anonymous
// interface{ Unwrap() error } inside errors.Is. Each file is parsed again
// and each interface literal evaluated at its place in the importer's copy
// of the file, so the file's imports resolve; literals that name a
// function's local types or type parameters do not resolve at file scope
// and are skipped.
func (c *census) addStdInterfaces(ifaces interfaceSet, paths []string) error {
	files := map[string]*token.File{}
	c.fset.Iterate(func(f *token.File) bool { files[f.Name()] = f; return true })
	for _, path := range paths {
		pkg, err := c.std.Import(path)
		if err != nil {
			return err
		}
		lp := c.stdPkg[path]
		for _, name := range lp.GoFiles {
			name = filepath.Join(lp.Dir, name)
			tf := files[name]
			if tf == nil {
				continue // not part of this build
			}
			local := token.NewFileSet()
			f, err := parser.ParseFile(local, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
					at := tf.Pos(local.Position(it.Pos()).Offset)
					if types.CheckExpr(c.fset, pkg, at, it, info) == nil {
						ifaces.add(info.Types[it].Type)
					}
				}
				return true
			})
		}
	}
	return nil
}

// publicTypes returns the named types the module's root package aliases:
// the public API re-exports their whole method set.
func (c *census) publicTypes() map[*types.TypeName]bool {
	public := map[*types.TypeName]bool{}
	root, ok := c.done[c.module]
	if !ok {
		return public
	}
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[n.Obj()] = true
			}
		}
	}
	return public
}

// unreached lists, sorted, the exported identifiers under dir's internal/
// that no product code reaches, as "<dir-relative package>.<Name>" or
// "<package>.<Type>.<Method>".
func unreached(dir string) ([]string, error) {
	c, err := loadCensus(dir)
	if err != nil {
		return nil, err
	}
	used, ifaces, std := c.productUses()
	if err := c.addStdInterfaces(ifaces, std); err != nil {
		return nil, err
	}
	public := c.publicTypes()
	reachedAsMethod := func(fn *types.Func, recv *types.Named) bool {
		if public[recv.Obj()] {
			return true
		}
		ptr := types.NewPointer(recv)
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(ptr, it) {
				return true
			}
		}
		return false
	}

	var found []string
	for _, path := range c.paths {
		if !strings.HasPrefix(path, c.module+"/internal/") {
			continue
		}
		rel := strings.TrimPrefix(path, c.module+"/")
		for _, obj := range c.infos[path].Defs {
			if obj == nil || !obj.Exported() || used[obj] {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				recv := obj.Type().(*types.Signature).Recv()
				if recv == nil {
					found = append(found, rel+"."+obj.Name())
					continue
				}
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				named, ok := t.(*types.Named)
				if !ok || named.Obj().Parent() != obj.Pkg().Scope() {
					continue // a method of a local type
				}
				if _, ok := named.Underlying().(*types.Interface); ok {
					continue // an interface's method: implementations answer for it
				}
				if !reachedAsMethod(obj, named) {
					found = append(found, rel+"."+named.Obj().Name()+"."+obj.Name())
				}
			case *types.TypeName, *types.Var, *types.Const:
				if obj.Parent() == obj.Pkg().Scope() {
					found = append(found, rel+"."+obj.Name())
				}
			}
		}
	}
	sort.Strings(found)
	return found, nil
}

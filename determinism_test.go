package celestial_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The determinism gates keep a run's report a function of its scenario and
// seed: every random draw of the product comes from internal/rng, whose
// streams derive from the seed, and no range over a map — whose order Go
// randomises — goes unreviewed. Product code is every package's non-test
// files except bench/'s, as for the reachability gate.

// maxMapRanges caps the map-order allowlist at its size when the gate
// landed: entries leave it as loops are rewritten or go, and a new one
// means raising the cap in this file.
const maxMapRanges = 14

func TestNoMathRandInProduct(t *testing.T) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			t.Fatal(err)
		}
		if !isProduct(lp.Module.Path, lp.ImportPath) {
			continue
		}
		for _, imp := range lp.Imports {
			if imp == "math/rand" || imp == "math/rand/v2" {
				t.Errorf("%s imports %s: draw from an internal/rng stream derived from the run seed", lp.ImportPath, imp)
			}
		}
	}
}

func TestMapRangesAreAllowlisted(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	problems, n, err := mapRanges(".", "testdata/maporder_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if n > maxMapRanges {
		t.Errorf("the map-order allowlist has %d entries, more than %d", n, maxMapRanges)
	}
}

// TestMapOrderGateOnFixture runs the gate over the reachability fixture,
// whose lib package sums floats over a map (flagged), counts a map's
// entries (allowlisted) and has one allowlist entry for a function that
// is gone (stale).
func TestMapOrderGateOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	got, _, err := mapRanges(filepath.Join("testdata", "reachfixture"), "maporder_allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go gone: 1 allowlisted, 0 found; remove the stale entries",
		"internal/lib/lib.go total: 1 range over a map, 0 allowlisted; make the result independent of iteration order and allowlist the loop with why",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// mapRanges counts the range-over-map loops of the product code in dir
// per "<file> <function>" and checks the counts against the allowlist at
// dir/allowPath. It returns one line per mismatch and the number of
// allowlist entries.
func mapRanges(dir, allowPath string) ([]string, int, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, 0, err
	}
	c, err := loadCensus(dir)
	if err != nil {
		return nil, 0, err
	}
	found := map[string]int{}
	for _, path := range c.paths {
		if !isProduct(c.module, path) {
			continue
		}
		info := c.infos[path]
		for _, f := range c.files[path] {
			name, err := filepath.Rel(root, c.fset.Position(f.Pos()).Filename)
			if err != nil {
				return nil, 0, err
			}
			for _, d := range f.Decls {
				key := filepath.ToSlash(name) + " " + declName(d)
				ast.Inspect(d, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok {
						if _, ok := info.TypeOf(rs.X).Underlying().(*types.Map); ok {
							found[key]++
						}
					}
					return true
				})
			}
		}
	}
	allow, n, err := readMapAllowlist(filepath.Join(dir, allowPath))
	if err != nil {
		return nil, 0, err
	}
	keys := make([]string, 0, len(found)+len(allow))
	for k := range found {
		keys = append(keys, k)
	}
	for k := range allow {
		if _, ok := found[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var problems []string
	for _, k := range keys {
		switch f, a := found[k], allow[k]; {
		case f > a:
			problems = append(problems, fmt.Sprintf("%s: %d range over a map, %d allowlisted; make the result independent of iteration order and allowlist the loop with why", k, f, a))
		case f < a:
			problems = append(problems, fmt.Sprintf("%s: %d allowlisted, %d found; remove the stale entries", k, a, f))
		}
	}
	return problems, n, nil
}

// declName names a top-level declaration the way the allowlist does:
// "Type.Method", "Func", or "-" for a var, const or type declaration.
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return "-"
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name + "." + fd.Name.Name
}

// readMapAllowlist parses "<file> <function> <reason>" lines, one per
// allowed loop; # starts a comment. It returns the loops allowed per
// "<file> <function>" and the number of entries.
func readMapAllowlist(path string) (map[string]int, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	allow, n := map[string]int{}, 0
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, 0, fmt.Errorf("%s:%d: want \"<file> <function> <reason>\"", path, line)
		}
		allow[fields[0]+" "+fields[1]]++
		n++
	}
	return allow, n, sc.Err()
}

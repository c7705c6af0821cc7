package toml

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseTOMLScalars(t *testing.T) {
	doc, err := Parse(`
# comment line
name = "celestial run"   # trailing comment
count = 42
big = 1_000_000
ratio = 0.75
neg = -3.5
on = true
off = false
hash = "a#b"
`)
	if err != nil {
		t.Fatal(err)
	}
	want := Doc{
		"name":  "celestial run",
		"count": int64(42),
		"big":   int64(1000000),
		"ratio": 0.75,
		"neg":   -3.5,
		"on":    true,
		"off":   false,
		"hash":  "a#b",
	}
	if !reflect.DeepEqual(doc, want) {
		t.Errorf("doc = %#v", doc)
	}
}

func TestParseTOMLArrays(t *testing.T) {
	doc, err := Parse(`
bbox = [34.65, -13.88, 39.21, -4.07]
mixed = [1, 2.5]
empty = []
names = ["a", "b,c"]
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc["bbox"].([]any); len(got) != 4 || got[0] != 34.65 {
		t.Errorf("bbox = %v", got)
	}
	if got := doc["names"].([]any); got[1] != "b,c" {
		t.Errorf("names = %v", got)
	}
	if got := doc["empty"].([]any); len(got) != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestParseTOMLTables(t *testing.T) {
	doc, err := Parse(`
top = 1
[network_params]
bandwidth_kbits = 10000000
min_elevation = 40
[compute_params]
vcpu_count = 2
[a.b]
deep = true
`)
	if err != nil {
		t.Fatal(err)
	}
	np := doc["network_params"].(map[string]any)
	if np["bandwidth_kbits"] != int64(10000000) {
		t.Errorf("bandwidth = %v", np["bandwidth_kbits"])
	}
	ab := doc["a"].(map[string]any)["b"].(map[string]any)
	if ab["deep"] != true {
		t.Errorf("a.b.deep = %v", ab["deep"])
	}
}

func TestParseTOMLTableArrays(t *testing.T) {
	doc, err := Parse(`
[[shell]]
planes = 72
sats = 22
[[shell]]
planes = 6
sats = 11
[shell.compute_params]
vcpu_count = 1
`)
	if err != nil {
		t.Fatal(err)
	}
	shells := doc["shell"].([]map[string]any)
	if len(shells) != 2 {
		t.Fatalf("shells = %d", len(shells))
	}
	if shells[0]["planes"] != int64(72) {
		t.Errorf("shell 0 planes = %v", shells[0]["planes"])
	}
	// The nested table attaches to the most recent array element.
	cp := shells[1]["compute_params"].(map[string]any)
	if cp["vcpu_count"] != int64(1) {
		t.Errorf("nested compute = %v", cp)
	}
}

func TestParseTOMLErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"unterminated table", "[abc"},
		{"unterminated table array", "[[abc]"},
		{"missing equals", "justakey"},
		{"missing value", "key ="},
		{"unterminated string", `key = "abc`},
		{"unterminated array", "key = [1, 2"},
		{"duplicate key", "a = 1\na = 2"},
		{"bad value", "a = notavalue"},
		{"table over value", "a = 1\n[a]"},
		{"empty table name", "[]"},
		{"bad escape", `a = "x\q"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.in); err == nil {
				t.Errorf("accepted %q", tt.in)
			}
		})
	}
}

func TestParseTOMLEscapes(t *testing.T) {
	doc, err := Parse(`s = "line\nnext\t\"q\" \\"`)
	if err != nil {
		t.Fatal(err)
	}
	if doc["s"] != "line\nnext\t\"q\" \\" {
		t.Errorf("s = %q", doc["s"])
	}
}

// TestParseTOMLEscapedQuotesWithDelimiters guards the in-string scanners:
// an escaped quote must not flip the string state, so '#' and ',' after
// one are still literal content, not a comment or an array separator.
func TestParseTOMLEscapedQuotesWithDelimiters(t *testing.T) {
	doc, err := Parse(`
msg = "a \"#\" b"
arr = ["x\",y", "z#w"]
`)
	if err != nil {
		t.Fatal(err)
	}
	if doc["msg"] != `a "#" b` {
		t.Errorf("msg = %q", doc["msg"])
	}
	arr, ok := doc["arr"].([]any)
	if !ok || len(arr) != 2 || arr[0] != `x",y` || arr[1] != "z#w" {
		t.Errorf("arr = %#v", doc["arr"])
	}
}

func TestStripComment(t *testing.T) {
	tests := []struct{ in, want string }{
		{`a = 1 # comment`, `a = 1 `},
		{`a = "x # y"`, `a = "x # y"`},
		{`# whole line`, ``},
		{`plain`, `plain`},
	}
	for _, tt := range tests {
		if got := stripComment(tt.in); got != tt.want {
			t.Errorf("stripComment(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// readerDoc holds one key of every leaf type plus a table and a table
// array, the shapes a Table read can meet.
const readerDoc = `
s = "str"
i = 7
f = 2.5
whole = 3.0
b = true
arr = [1, 2.5]
[tbl]
x = 1
[[rows]]
n = 1
[[rows]]
n = 2
`

func readerTable(t *testing.T, text string) *Table {
	t.Helper()
	doc, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(doc)
}

// TestTypedAccessors: every typed read of the Table on a well-formed document.
func TestTypedAccessors(t *testing.T) {
	r := readerTable(t, readerDoc)
	if v := r.String("s"); v != "str" {
		t.Errorf("String = %q", v)
	}
	if v := r.Int("i"); v != 7 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Int64("whole"); v != 3 {
		t.Errorf("Int64(integral float) = %d", v)
	}
	if v := r.Float("f"); v != 2.5 {
		t.Errorf("Float = %v", v)
	}
	if !r.Bool("b") {
		t.Error("Bool = false")
	}
	if v := r.Floats("arr"); len(v) != 2 || v[0] != 1 || v[1] != 2.5 {
		t.Errorf("Floats = %v", v)
	}
	if v := r.Table("tbl").Float("x"); v != 1 {
		t.Errorf("Float(int) in table = %v", v)
	}
	rows := r.Tables("rows")
	if len(rows) != 2 || rows[1].Int("n") != 2 || rows[0].Int("n") != 1 {
		t.Errorf("Tables = %d rows", len(rows))
	}
	// Missing keys read as zero values and are not errors.
	if r.String("nope") != "" || r.Int("nope") != 0 || r.Float("nope") != 0 || r.Bool("nope") ||
		r.Floats("nope") != nil || r.Seconds("nope") != 0 || len(r.Tables("nope")) != 0 ||
		r.Table("nope").Int("deeper") != 0 {
		t.Error("missing key read as non-zero")
	}
	if !r.Has("s") || r.Has("nope") {
		t.Error("Has misreports presence")
	}
	if err := r.Err(); err != nil {
		t.Errorf("Err = %v after reading every key", err)
	}
}

func TestTableDurations(t *testing.T) {
	r := readerTable(t, "sec = 1.5\nms = 0.25\nneg = -2")
	if d := r.Seconds("sec"); d != 1500*time.Millisecond {
		t.Errorf("Seconds = %v", d)
	}
	if d := r.Millis("ms"); d != 250*time.Microsecond {
		t.Errorf("Millis = %v", d)
	}
	if d := r.Seconds("neg"); d != -2*time.Second {
		t.Errorf("negative Seconds = %v (sign is the caller's check)", d)
	}
	if err := r.Err(); err != nil {
		t.Error(err)
	}
}

// TestTableMismatches: every wrong-typed, non-finite or out-of-range read
// is an error naming the key's dotted path, and reads zero.
func TestTableMismatches(t *testing.T) {
	cases := []struct {
		name, doc string
		read      func(*Table) any
		want      string
	}{
		{"string from int", "k = 1", func(r *Table) any { return r.String("k") }, "k must be a string, have integer"},
		{"bool from string", `k = "x"`, func(r *Table) any { return r.Bool("k") }, "k must be a boolean, have string"},
		{"int from fraction", "k = 2.5", func(r *Table) any { return r.Int("k") }, "k must be an integer, have 2.5"},
		{"int from huge float", "k = 1e30", func(r *Table) any { return r.Int64("k") }, "k must be an integer"},
		{"int from string", `k = "7"`, func(r *Table) any { return r.Int("k") }, "k must be an integer"},
		{"float from bool", "k = true", func(r *Table) any { return r.Float("k") }, "k must be a number, have boolean"},
		{"nan", "k = nan", func(r *Table) any { return r.Float("k") }, "k must be finite, have NaN"},
		{"inf", "k = -inf", func(r *Table) any { return r.Float("k") }, "k must be finite, have -Inf"},
		{"seconds overflow", "k = 1e30", func(r *Table) any { return r.Seconds("k") }, "k does not fit a duration"},
		{"millis overflow", "k = -1e300", func(r *Table) any { return r.Millis("k") }, "k does not fit a duration"},
		{"seconds nan", "k = nan", func(r *Table) any { return r.Seconds("k") }, "k must be finite"},
		{"floats from scalar", "k = 1", func(r *Table) any { return len(r.Floats("k")) }, "k must be an array, have integer"},
		{"floats element", `k = [1, "x"]`, func(r *Table) any { return r.Floats("k")[1] }, "k[1] must be a number, have string"},
		{"floats nested", "k = [[1]]", func(r *Table) any { return r.Floats("k")[0] }, "k[0] must be a number, have array"},
		{"floats inf", "k = [inf]", func(r *Table) any { return r.Floats("k")[0] }, "k[0] must be finite"},
		{"table from scalar", "k = 1", func(r *Table) any { return r.Table("k").Int("x") }, "k must be a table, have integer"},
		{"table from array of tables", "[[k]]", func(r *Table) any { return r.Table("k").Int("x") }, "k must be a table, have array of tables"},
		{"tables from table", "[k]", func(r *Table) any { return len(r.Tables("k")) }, "k must be an array of tables, have table"},
		{"nested path", "[a.b]\n[[a.b.c]]\n[[a.b.c]]\nk = true", func(r *Table) any {
			return r.Table("a").Table("b").Tables("c")[1].Int("k")
		}, "a.b.c[1].k must be an integer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := readerTable(t, tc.doc)
			got := tc.read(r)
			if !reflect.ValueOf(got).IsZero() {
				t.Errorf("mismatched read returned %v, want the zero value", got)
			}
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestTableFirstMismatchWins(t *testing.T) {
	r := readerTable(t, "a = 1\n[t]\nb = 2\nc = 3")
	sub := r.Table("t")
	sub.String("b")
	sub.Fail("c", "must be one of x, y")
	r.String("a")
	// The root's own mismatch comes before those of tables opened through it.
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "a must be a string") {
		t.Errorf("root Err = %v", err)
	}
	if err := sub.Err(); err == nil || !strings.Contains(err.Error(), "t.b must be a string") {
		t.Errorf("sub Err = %v, want the first of its two mismatches", err)
	}
}

func TestTableUnknownKeys(t *testing.T) {
	r := readerTable(t, `
known = 1
zeta = 2
alpha = 3
[sub]
ok = 1
typo = 2
[[row]]
n = 1
[[row]]
m = 1
[never_opened]
x = 1
`)
	r.Int("known")
	r.Table("sub").Int("ok")
	for _, row := range r.Tables("row") {
		row.Int("n")
	}
	err := r.Err()
	if err == nil {
		t.Fatal("unread keys accepted")
	}
	// A table's own keys sorted, then the tables opened through it in order.
	want := "toml: unknown key alpha, never_opened, zeta, sub.typo, row[1].m"
	if err.Error() != want {
		t.Errorf("Err = %q, want %q", err, want)
	}
	// Has does not count as a read.
	r2 := readerTable(t, "k = 1")
	if !r2.Has("k") || r2.Err() == nil {
		t.Error("Has consumed the key")
	}
}

// FuzzParse: the parser never panics, and every document it accepts can be
// walked by the reader — each key through every typed read — without a
// panic, ending with a non-nil Err only for mismatches (all keys are read).
func FuzzParse(f *testing.F) {
	for _, glob := range []string{"../../examples/scenarios/*.toml", "../../examples/configs/*.toml", "../../bench/workloads/*.toml"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed files under %s (%v)", glob, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(data))
		}
	}
	f.Add(readerDoc)
	f.Add("k = nan\nd = 1e300\narr = [[1], \"x\", inf]\n[[t]]\n[t.u]\n\"q\" = -0x1p-2")
	var walk func(r *Table, m map[string]any)
	walk = func(r *Table, m map[string]any) {
		for k := range m {
			r.Has(k)
			r.String(k)
			r.Bool(k)
			r.Int(k)
			r.Int64(k)
			r.Float(k)
			r.Floats(k)
			r.Seconds(k)
			r.Millis(k)
			if sub, ok := m[k].(map[string]any); ok {
				walk(r.Table(k), sub)
			} else {
				r.Table(k).Int("x")
			}
			rows := r.Tables(k)
			for i, sub := range rows {
				walk(sub, m[k].([]map[string]any)[i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		doc, err := Parse(text)
		if err != nil {
			return
		}
		r := NewTable(doc)
		walk(r, doc)
		if err := r.Err(); err != nil && strings.Contains(err.Error(), "unknown key") {
			t.Fatalf("walk read every key, yet: %v", err)
		}
	})
}

func TestSplitTopLevel(t *testing.T) {
	parts, err := splitTopLevel(`1, "a,b", [2, 3], 4`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", ` "a,b"`, ` [2, 3]`, "4"}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("parts = %q", parts)
	}
	if _, err := splitTopLevel(`[1, 2`); err == nil {
		t.Error("accepted unbalanced brackets")
	}
}

func TestParseTOMLLineNumbersInErrors(t *testing.T) {
	_, err := Parse("a = 1\nb = 2\nc = ???")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error = %v, want line 3", err)
	}
}

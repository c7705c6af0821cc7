package toml

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Table reads one parsed table. It is the single place that decides what
// malformed input means: a typed read returns the zero value for a missing
// key, records the first mismatch (wrong type, non-finite or out-of-range
// number) under the key's dotted path from the document root —
// "hosts.frame_delay_ms", "testbed.shell[2].planes" — and returns zero for
// it, so callers decode into plain struct literals and check Err once.
// Err also rejects every key nobody read, which is how a misspelt setting
// becomes an error instead of a silently different run.
//
// Table and Tables hand out a fresh reader per call: read each sub-table
// through one of them, or the other's keys count as unread.
type Table struct {
	path string // dotted path from the root; "" for the root itself
	m    map[string]any
	read map[string]bool
	subs []*Table
	err  error
}

// NewTable returns the reader of a document's root table.
func NewTable(doc Doc) *Table { return &Table{m: doc, read: map[string]bool{}} }

// Err returns the first mismatch recorded by this table or the tables
// opened through it, in the order they were read, else an error naming
// every key in them that no read consumed.
func (t *Table) Err() error {
	if err := t.firstErr(); err != nil {
		return err
	}
	if keys := t.unread(nil); len(keys) > 0 {
		return fmt.Errorf("toml: unknown key %s", strings.Join(keys, ", "))
	}
	return nil
}

func (t *Table) firstErr() error {
	if t.err != nil {
		return t.err
	}
	for _, s := range t.subs {
		if err := s.firstErr(); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) unread(keys []string) []string {
	mine := len(keys)
	for k := range t.m {
		if !t.read[k] {
			keys = append(keys, t.keyPath(k))
		}
	}
	sort.Strings(keys[mine:])
	for _, s := range t.subs {
		keys = s.unread(keys)
	}
	return keys
}

// Fail records a mismatch at key, phrased as a predicate of it ("must be
// one of …"), unless an earlier one is already held. Callers use it for
// checks only they can make, such as enumerations.
func (t *Table) Fail(key, format string, args ...any) {
	if t.err == nil {
		t.err = fmt.Errorf("toml: %s %s", t.keyPath(key), fmt.Sprintf(format, args...))
	}
}

// Has reports whether key is present, without reading it.
func (t *Table) Has(key string) bool {
	_, ok := t.m[key]
	return ok
}

func (t *Table) keyPath(key string) string {
	if t.path == "" {
		return key
	}
	return t.path + "." + key
}

// get returns key's value and marks it read.
func (t *Table) get(key string) (any, bool) {
	v, ok := t.m[key]
	t.read[key] = true
	return v, ok
}

// String reads a string key.
func (t *Table) String(key string) string {
	v, ok := t.get(key)
	s, match := v.(string)
	if ok && !match {
		t.Fail(key, "must be a string, have %s", kind(v))
	}
	return s
}

// Bool reads a boolean key.
func (t *Table) Bool(key string) bool {
	v, ok := t.get(key)
	b, match := v.(bool)
	if ok && !match {
		t.Fail(key, "must be a boolean, have %s", kind(v))
	}
	return b
}

// Int64 reads an integer key; integral floats are accepted.
func (t *Table) Int64(key string) int64 {
	v, ok := t.get(key)
	switch n := v.(type) {
	case int64:
		return n
	case float64:
		if n == math.Trunc(n) && math.Abs(n) < 1<<63 {
			return int64(n)
		}
	}
	if ok {
		t.Fail(key, "must be an integer, have %v", v)
	}
	return 0
}

// Int reads an integer key that fits an int.
func (t *Table) Int(key string) int {
	n := t.Int64(key)
	if int64(int(n)) != n {
		t.Fail(key, "must fit an int, have %d", n)
		return 0
	}
	return int(n)
}

// Float reads a finite number key (integer or float).
func (t *Table) Float(key string) float64 {
	v, ok := t.get(key)
	if !ok {
		return 0
	}
	return t.number(key, v)
}

// number converts a numeric leaf, rejecting nan and inf: no setting means
// anything at them, and they pass every "x < 0 || x > 1" range check.
func (t *Table) number(name string, v any) float64 {
	switch n := v.(type) {
	case int64:
		return float64(n)
	case float64:
		if math.IsNaN(n) || math.IsInf(n, 0) {
			t.Fail(name, "must be finite, have %v", n)
			return 0
		}
		return n
	}
	t.Fail(name, "must be a number, have %s", kind(v))
	return 0
}

// Floats reads a flat numeric array key: nil when missing, non-nil (even
// if empty) when present.
func (t *Table) Floats(key string) []float64 {
	v, ok := t.get(key)
	if !ok {
		return nil
	}
	arr, match := v.([]any)
	if !match {
		t.Fail(key, "must be an array, have %s", kind(v))
	}
	out := make([]float64, len(arr))
	for i, e := range arr {
		out[i] = t.number(fmt.Sprintf("%s[%d]", key, i), e)
	}
	return out
}

// Seconds reads a number of seconds as a duration.
func (t *Table) Seconds(key string) time.Duration { return t.duration(key, time.Second) }

// Millis reads a number of milliseconds as a duration.
func (t *Table) Millis(key string) time.Duration { return t.duration(key, time.Millisecond) }

func (t *Table) duration(key string, unit time.Duration) time.Duration {
	d := t.Float(key) * float64(unit)
	if math.Abs(d) >= 1<<63 {
		t.Fail(key, "does not fit a duration (about ±292 years)")
		return 0
	}
	return time.Duration(d)
}

// Table opens a [table] key; a missing key yields an empty table.
func (t *Table) Table(key string) *Table {
	v, ok := t.get(key)
	m, match := v.(map[string]any)
	if ok && !match {
		t.Fail(key, "must be a table, have %s", kind(v))
	}
	return t.sub(t.keyPath(key), m)
}

// Tables opens an [[array of tables]] key; a missing key yields none.
func (t *Table) Tables(key string) []*Table {
	v, ok := t.get(key)
	arr, match := v.([]map[string]any)
	if ok && !match {
		t.Fail(key, "must be an array of tables, have %s", kind(v))
	}
	out := make([]*Table, len(arr))
	for i, m := range arr {
		out[i] = t.sub(fmt.Sprintf("%s[%d]", t.keyPath(key), i), m)
	}
	return out
}

func (t *Table) sub(path string, m map[string]any) *Table {
	s := &Table{path: path, m: m, read: map[string]bool{}}
	t.subs = append(t.subs, s)
	return s
}

// kind names a parsed value's TOML type for error messages.
func kind(v any) string {
	switch v.(type) {
	case string:
		return "string"
	case int64:
		return "integer"
	case float64:
		return "float"
	case bool:
		return "boolean"
	case []any:
		return "array"
	case map[string]any:
		return "table"
	}
	return "array of tables"
}

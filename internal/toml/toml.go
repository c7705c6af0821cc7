// Package toml implements the subset of TOML that Celestial configuration
// and scenario files use: top-level key/value pairs, [tables], [[arrays of
// tables]], dotted table headers, strings, integers, floats, booleans and
// flat arrays, plus comments. It intentionally does not implement TOML
// features those formats never use (dates, multiline strings, inline
// tables).
//
// Documents parse into a tree of nested maps. Decoders read that tree
// through a Table, the one strict reader: wrong types, non-finite or
// out-of-range numbers and keys nobody reads are errors naming the key's
// dotted path, and there is no lenient mode.
package toml

import (
	"fmt"
	"strconv"
	"strings"
)

// Doc is a parsed TOML document: a tree of nested map[string]any where
// arrays of tables appear as []map[string]any.
type Doc = map[string]any

// Parse decodes the supported TOML subset.
func Parse(text string) (Doc, error) {
	root := Doc{}
	current := map[string]any(root)

	lines := strings.Split(text, "\n")
	for num, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lineNo := num + 1

		switch {
		case strings.HasPrefix(line, "[["):
			if !strings.HasSuffix(line, "]]") {
				return nil, fmt.Errorf("toml: line %d: unterminated table array header", lineNo)
			}
			path := strings.TrimSpace(line[2 : len(line)-2])
			tbl, err := appendTableArray(root, path)
			if err != nil {
				return nil, fmt.Errorf("toml: line %d: %w", lineNo, err)
			}
			current = tbl
		case strings.HasPrefix(line, "["):
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("toml: line %d: unterminated table header", lineNo)
			}
			path := strings.TrimSpace(line[1 : len(line)-1])
			tbl, err := openTable(root, path)
			if err != nil {
				return nil, fmt.Errorf("toml: line %d: %w", lineNo, err)
			}
			current = tbl
		default:
			key, val, err := parseKeyValue(line)
			if err != nil {
				return nil, fmt.Errorf("toml: line %d: %w", lineNo, err)
			}
			if _, exists := current[key]; exists {
				return nil, fmt.Errorf("toml: line %d: duplicate key %q", lineNo, key)
			}
			current[key] = val
		}
	}
	return root, nil
}

// stripComment removes a trailing # comment, honoring quoted strings
// (including escaped quotes within them).
func stripComment(line string) string {
	inString := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inString {
				i++ // skip the escaped character
			}
		case '"':
			inString = !inString
		case '#':
			if !inString {
				return line[:i]
			}
		}
	}
	return line
}

// openTable walks (creating as needed) a dotted table path and returns the
// innermost table. If a path element is an array of tables, the last
// element of the array is used, per the TOML specification.
func openTable(root map[string]any, path string) (map[string]any, error) {
	if path == "" {
		return nil, fmt.Errorf("empty table name")
	}
	cur := root
	for _, part := range strings.Split(path, ".") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty table path element in %q", path)
		}
		switch v := cur[part].(type) {
		case nil:
			next := map[string]any{}
			cur[part] = next
			cur = next
		case map[string]any:
			cur = v
		case []map[string]any:
			if len(v) == 0 {
				return nil, fmt.Errorf("table array %q is empty", part)
			}
			cur = v[len(v)-1]
		default:
			return nil, fmt.Errorf("%q is a value, not a table", part)
		}
	}
	return cur, nil
}

// appendTableArray appends a new table to the array at a dotted path and
// returns it.
func appendTableArray(root map[string]any, path string) (map[string]any, error) {
	if path == "" {
		return nil, fmt.Errorf("empty table array name")
	}
	parts := strings.Split(path, ".")
	parent := root
	if len(parts) > 1 {
		var err error
		parent, err = openTable(root, strings.Join(parts[:len(parts)-1], "."))
		if err != nil {
			return nil, err
		}
	}
	name := strings.TrimSpace(parts[len(parts)-1])
	next := map[string]any{}
	switch v := parent[name].(type) {
	case nil:
		parent[name] = []map[string]any{next}
	case []map[string]any:
		parent[name] = append(v, next)
	default:
		return nil, fmt.Errorf("%q is not a table array", name)
	}
	return next, nil
}

// parseKeyValue decodes one `key = value` line.
func parseKeyValue(line string) (string, any, error) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return "", nil, fmt.Errorf("expected key = value, got %q", line)
	}
	key := strings.TrimSpace(line[:eq])
	key = strings.Trim(key, `"`)
	if key == "" {
		return "", nil, fmt.Errorf("empty key in %q", line)
	}
	val, err := parseValue(strings.TrimSpace(line[eq+1:]))
	if err != nil {
		return "", nil, fmt.Errorf("key %q: %w", key, err)
	}
	return key, val, nil
}

// parseValue decodes a scalar or flat array value.
func parseValue(s string) (any, error) {
	if s == "" {
		return nil, fmt.Errorf("missing value")
	}
	switch {
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	case s[0] == '"':
		if len(s) < 2 || s[len(s)-1] != '"' {
			return nil, fmt.Errorf("unterminated string %q", s)
		}
		return unescapeString(s[1 : len(s)-1])
	case s[0] == '[':
		if s[len(s)-1] != ']' {
			return nil, fmt.Errorf("unterminated array %q", s)
		}
		return parseArray(s[1 : len(s)-1])
	default:
		// TOML allows underscores in numbers for readability.
		clean := strings.ReplaceAll(s, "_", "")
		if i, err := strconv.ParseInt(clean, 10, 64); err == nil {
			return i, nil
		}
		if f, err := strconv.ParseFloat(clean, 64); err == nil {
			return f, nil
		}
		return nil, fmt.Errorf("cannot parse value %q", s)
	}
}

// parseArray decodes the contents of a flat [a, b, c] array.
func parseArray(inner string) (any, error) {
	inner = strings.TrimSpace(inner)
	if inner == "" {
		return []any{}, nil
	}
	parts, err := splitTopLevel(inner)
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, len(parts))
	for _, p := range parts {
		v, err := parseValue(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// splitTopLevel splits on commas outside of quotes and brackets, honoring
// escaped quotes within strings.
func splitTopLevel(s string) ([]string, error) {
	var parts []string
	depth := 0
	inString := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			if inString {
				i++ // skip the escaped character
			}
		case '"':
			inString = !inString
		case '[':
			if !inString {
				depth++
			}
		case ']':
			if !inString {
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("unbalanced brackets in %q", s)
				}
			}
		case ',':
			if !inString && depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if inString {
		return nil, fmt.Errorf("unterminated string in %q", s)
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced brackets in %q", s)
	}
	if rest := strings.TrimSpace(s[start:]); rest != "" {
		parts = append(parts, rest)
	}
	return parts, nil
}

func unescapeString(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling escape in %q", s)
		}
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			return "", fmt.Errorf("unsupported escape \\%c", s[i])
		}
	}
	return b.String(), nil
}

package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusesBadCommandLines runs each refused command line in process:
// flag errors exit 2 and an unreadable CA file exits 1, all before the
// agent dials anything.
func TestRunRefusesBadCommandLines(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing-ca.pem")
	for _, tt := range []struct {
		args []string
		code int
		say  string // stderr must contain it
	}{
		{[]string{"-agent", "0"}, 2, "-coordinator"},
		{[]string{"-coordinator", "127.0.0.1:7700", "-agent", "-1"}, 2, "-agent"},
		{[]string{"-coordinator", "127.0.0.1:7700", "-agent", "0", "-no-such-flag"}, 2, "no-such-flag"},
		{[]string{"-coordinator", "127.0.0.1:7700", "-agent", "0", "-tls-ca", missing}, 1, "-tls-ca"},
	} {
		var stderr bytes.Buffer
		if code := run(tt.args, io.Discard, &stderr); code != tt.code {
			t.Errorf("run(%q) = %d, want %d (stderr %q)", tt.args, code, tt.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tt.say) {
			t.Errorf("run(%q) stderr %q does not mention %s", tt.args, stderr.String(), tt.say)
		}
	}
}

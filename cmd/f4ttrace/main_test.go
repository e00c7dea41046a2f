package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// failWriter refuses every write, like a closed pipe or a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestRunExitCode: a bad flag or algorithm exits 2, output that cannot
// be written exits 1, a good run exits 0 and writes both traces.
func TestRunExitCode(t *testing.T) {
	var out strings.Builder
	if got := run([]string{"-ms", "1"}, &out); got != 0 {
		t.Fatalf("good run exited %d", got)
	}
	if !strings.HasPrefix(out.String(), "impl,time_us,cwnd_bytes\nf4t,") || !strings.Contains(out.String(), "\nreference,") {
		t.Errorf("good run wrote %q", out.String())
	}
	cases := []struct {
		args []string
		w    io.Writer
		want int
	}{
		{[]string{"-ms", "1"}, failWriter{}, 1},
		{[]string{"-alg", "bogus"}, io.Discard, 2},
		{[]string{"-bogus"}, io.Discard, 2},
	}
	for _, c := range cases {
		if got := run(c.args, c.w); got != c.want {
			t.Errorf("run(%q) = %d; want %d", c.args, got, c.want)
		}
	}
}

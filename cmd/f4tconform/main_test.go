package main

import (
	"io"
	"path/filepath"
	"testing"
)

// TestRunExitCode pins what CI's conformance sweep relies on: a bad
// flag or name exits 2, a failed run exits 1, a clean run exits 0.
func TestRunExitCode(t *testing.T) {
	short := []string{"-rig", "soft-soft", "-phases", "1", "-conns", "1"}
	// A capture that cannot be written is a recorded violation.
	unwritable := filepath.Join(t.TempDir(), "missing", "run.pcapng")
	cases := []struct {
		args []string
		want int
	}{
		{short, 0},
		{append(short, "-pcap", unwritable), 1},
		{[]string{"-rig", "bogus"}, 2},
		{[]string{"-alg", "bogus"}, 2},
		{[]string{"-bogus"}, 2},
	}
	for _, c := range cases {
		if got := run(c.args, io.Discard); got != c.want {
			t.Errorf("run(%q) = %d; want %d", c.args, got, c.want)
		}
	}
}

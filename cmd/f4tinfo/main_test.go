package main

import (
	"errors"
	"io"
	"testing"
)

// failWriter refuses every write, like a closed pipe or a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestRunExitCode: a bad flag or -show value exits 2, output that
// cannot be written exits 1, a good run exits 0.
func TestRunExitCode(t *testing.T) {
	cases := []struct {
		args []string
		w    io.Writer
		want int
	}{
		{[]string{"-show", "all"}, io.Discard, 0},
		{[]string{"-show", "names"}, io.Discard, 0},
		{[]string{"-show", "table1"}, failWriter{}, 1},
		{[]string{"-show", "bogus"}, io.Discard, 2},
		{[]string{"-bogus"}, io.Discard, 2},
	}
	for _, c := range cases {
		if got := run(c.args, c.w); got != c.want {
			t.Errorf("run(%q) = %d; want %d", c.args, got, c.want)
		}
	}
}

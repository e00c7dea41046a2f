package main

import (
	"errors"
	"io"
	"testing"

	"f4t/internal/exp"
)

// TestRunExitCode pins what CI's smoke steps rely on: a failed
// experiment is a failed command, not a note in a table that exits 0.
func TestRunExitCode(t *testing.T) {
	runners["test-ok"] = func(bool) *exp.Table { return &exp.Table{Title: "ok"} }
	runners["test-failed"] = func(bool) *exp.Table {
		return &exp.Table{Title: "failed", Err: errors.New("plateau missed")}
	}
	defer delete(runners, "test-ok")
	defer delete(runners, "test-failed")

	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-exp", "test-ok", "-quick"}, 0},
		{[]string{"-exp", "test-failed"}, 1},
		{[]string{"-exp", "bogus"}, 2},
		{[]string{"-exp", ""}, 2},
		{[]string{"-exp", "list"}, 0},
		{[]string{"-h"}, 0},
		{[]string{"-aqm", "bogus", "-exp", "test-ok"}, 2},
		// Sweeps are sized by GOMAXPROCS; the old flag is gone.
		{[]string{"-workers", "4", "-exp", "test-ok"}, 2},
	}
	for _, c := range cases {
		if got := run(c.args, io.Discard); got != c.want {
			t.Errorf("run(%q) = %d; want %d", c.args, got, c.want)
		}
	}
}

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
		name string
		want int
	}{
		{"test-ok", 0},
		{"test-failed", 1},
		{"bogus", 2},
		{"", 2},
	}
	for _, c := range cases {
		if got := run(io.Discard, c.name, true); got != c.want {
			t.Errorf("run(%q) = %d; want %d", c.name, got, c.want)
		}
	}
}

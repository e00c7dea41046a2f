package main

import "testing"

// TestCheckArgs pins the fail-fast validation of -rig, -mode and -format.
func TestCheckArgs(t *testing.T) {
	cases := []struct {
		rig, mode, format string
		ok                bool
	}{
		{"echo", "snapshot", "csv", true},
		{"bulk", "series", "json", true},
		{"echo", "flows", "json", true},
		{"bulk", "trace", "csv", true},
		{"bogus", "snapshot", "csv", false},
		{"echo", "bogus", "csv", false},
		{"echo", "snapshot", "bogus", false},
		{"", "", "", false},
	}
	for _, c := range cases {
		if err := checkArgs(c.rig, c.mode, c.format); (err == nil) != c.ok {
			t.Errorf("checkArgs(%q, %q, %q) = %v; want ok=%v", c.rig, c.mode, c.format, err, c.ok)
		}
	}
}

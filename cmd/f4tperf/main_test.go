package main

import "testing"

// TestStackKind pins the fail-fast validation: every (pattern, stack)
// the rig builders accept maps to the builder's name, everything else is
// an error rather than a panic inside exp.
func TestStackKind(t *testing.T) {
	cases := []struct {
		pattern, stack, want string
	}{
		{"bulk", "f4t", "f4t"},
		{"bulk", "linux", "linux"},
		{"rr", "f4t", "f4t"},
		{"rr", "linux", "linux"},
		{"echo", "f4t", "f4t-hbm"},
		{"echo", "f4t-hbm", "f4t-hbm"},
		{"echo", "f4t-ddr", "f4t-ddr"},
		{"echo", "linux", "linux"},
		{"bulk", "bogus", ""},
		{"bulk", "f4t-ddr", ""},
		{"rr", "f4t-hbm", ""},
		{"echo", "bogus", ""},
		{"bogus", "f4t", ""},
		{"", "", ""},
	}
	for _, c := range cases {
		got, err := stackKind(c.pattern, c.stack)
		if got != c.want || (err == nil) != (c.want != "") {
			t.Errorf("stackKind(%q, %q) = %q, %v; want %q", c.pattern, c.stack, got, err, c.want)
		}
	}
}

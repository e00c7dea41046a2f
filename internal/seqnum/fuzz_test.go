package seqnum

import "testing"

// FuzzSeqnum checks the algebraic laws of RFC 793 modular sequence
// arithmetic on arbitrary triples, including (by construction of the
// corpus) values straddling the 2^32 wrap. Every property is phrased so
// it holds for all inputs within the half-space validity window the
// package documents.
func FuzzSeqnum(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0))
	f.Add(uint32(0xFFFFFFFF), uint32(1), uint32(10))         // wrap at add
	f.Add(uint32(0xFFFFFFF0), uint32(0x10), uint32(0x100))   // window across wrap
	f.Add(uint32(0x7FFFFFFF), uint32(0x80000000), uint32(1)) // half-space edge
	f.Add(uint32(1), uint32(0xFFFFFFFF), uint32(0x7FFFFFFF)) // reversed pair
	f.Add(uint32(0x80000000), uint32(0), uint32(0x7FFFFFFF)) // opposite poles
	f.Add(uint32(12345), uint32(54321), uint32(1460))        // mundane
	f.Fuzz(func(t *testing.T, a, b, s uint32) {
		v, w, sz := Value(a), Value(b), Size(s)

		// Add/Sub are inverses and match plain uint32 wrap.
		if got := v.Add(sz).Sub(sz); got != v {
			t.Errorf("Add/Sub not inverse: (%d+%d-%d) = %d", v, sz, sz, got)
		}
		if got := v.Add(sz); uint32(got) != a+s {
			t.Errorf("Add(%d,%d) = %d, want %d", a, s, got, a+s)
		}

		// Trichotomy: exactly one of <, ==, > unless the values are
		// antipodal (v-w == 2^31), where RFC 793 comparison is undefined;
		// the int32 convention makes both directions report "less than"
		// (int32(2^31) is negative) — pin that so a refactor can't
		// silently change tie-breaking.
		lt, gt, eq := v.LessThan(w), v.GreaterThan(w), v == w
		if a-b == 0x80000000 {
			if !lt || gt || eq || !w.LessThan(v) || w.GreaterThan(v) {
				t.Errorf("antipodal %d,%d: lt=%v gt=%v eq=%v wltv=%v wgtv=%v, want lt only (both directions)",
					a, b, lt, gt, eq, w.LessThan(v), w.GreaterThan(v))
			}
		} else {
			n := 0
			for _, c := range []bool{lt, gt, eq} {
				if c {
					n++
				}
			}
			if n != 1 {
				t.Errorf("trichotomy violated for %d,%d: lt=%v gt=%v eq=%v", a, b, lt, gt, eq)
			}
		}

		// Antisymmetry (skipping the antipodal point): v<w ⟺ w>v.
		if a-b != 0x80000000 {
			if v.LessThan(w) != w.GreaterThan(v) {
				t.Errorf("antisymmetry violated for %d,%d", a, b)
			}
			if v.LessThanEq(w) != w.GreaterThanEq(v) {
				t.Errorf("eq-antisymmetry violated for %d,%d", a, b)
			}
		}

		// Shift invariance: comparisons are unchanged by advancing both
		// operands the same distance — the property that makes the whole
		// scheme work across the wrap.
		if v.LessThan(w) != v.Add(sz).LessThan(w.Add(sz)) {
			t.Errorf("LessThan not shift invariant: %d,%d shift %d", a, b, s)
		}

		// Window membership: v ∈ [v, v+sz) whenever the window is
		// non-empty and within the valid half-space.
		if s > 0 && s <= 0x7FFFFFFF {
			if !v.InWindow(v, sz) {
				t.Errorf("%d not in its own window of size %d", a, s)
			}
			if v.InWindow(v.Add(sz), sz) && s != 0 {
				// [v+sz, v+2sz) can only contain v if 2sz wraps past v,
				// impossible for sz <= 2^31-1 ... except sz exactly 2^31-1
				// twice is 2^32-2, still short of the wrap. So: never.
				t.Errorf("%d in the disjoint following window (start %d size %d)", a, uint32(v.Add(sz)), s)
			}
			// Window shift invariance.
			if v.InWindow(w, sz) != v.Add(1).InWindow(w.Add(1), sz) {
				t.Errorf("InWindow not shift invariant: %d in [%d,+%d)", a, b, s)
			}
		}

		// DistanceFrom is the exact inverse of Add.
		if got := w.Add(v.DistanceFrom(w)); got != v {
			t.Errorf("Add(DistanceFrom) != identity: %d,%d -> %d", a, b, got)
		}

		// Max/Min agree with the comparisons and pick from {v, w}.
		mx, mn := Max(v, w), Min(v, w)
		if mx != v && mx != w {
			t.Errorf("Max(%d,%d) = %d not an operand", a, b, mx)
		}
		if mn != v && mn != w {
			t.Errorf("Min(%d,%d) = %d not an operand", a, b, mn)
		}
		if a-b != 0x80000000 {
			if mn.GreaterThan(mx) {
				t.Errorf("Min(%d,%d)=%d > Max=%d", a, b, mn, mx)
			}
			if v != w && !(mx == Max(w, v) && mn == Min(w, v)) {
				t.Errorf("Max/Min not symmetric for %d,%d", a, b)
			}
		}
	})
}

package simtest_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// recorder stands in for the test FabricMatrix reports to, keeping what
// it is told. Fatalf ends the goroutine, as testing.T's does.
type recorder struct {
	testing.TB
	reports []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.reports = append(r.reports, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	runtime.Goexit()
}

// reports runs the battery on run against a recorder, on a goroutine of
// its own so a Fatalf ends only that goroutine.
func reports(run func(sim.Fabric) string) []string {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		simtest.FabricMatrix(r, run)
	}()
	<-done
	return r.reports
}

// isShadow reports whether f is the always-step shadow kernel.
func isShadow(f sim.Fabric) bool {
	k, ok := f.(*sim.Kernel)
	return ok && !k.Skipping()
}

// A sharded row that parts from the serial one at its third sample is
// reported once, naming line 3 and both texts.
func TestFabricMatrixNamesFirstDivergingLine(t *testing.T) {
	got := reports(func(f sim.Fabric) string {
		third := "c=30000 del=300"
		if _, sharded := f.(*sim.ShardedKernel); sharded {
			third = "c=30000 del=299"
		}
		return strings.Join([]string{"c=10000 del=100", "c=20000 del=200", third, "c=40000 del=400"}, "\n")
	})
	if len(got) != 1 {
		t.Fatalf("got %d reports %q, want one", len(got), got)
	}
	for _, want := range []string{"sharded diverged", "at line 3:", "got c=30000 del=299", "want c=30000 del=300"} {
		if !strings.Contains(got[0], want) {
			t.Errorf("report %q does not say %q", got[0], want)
		}
	}
}

// A checker panic on the shadow row is reported under the row's name,
// and the sharded row still runs.
func TestFabricMatrixReportsRowPanic(t *testing.T) {
	rows := 0
	got := reports(func(f sim.Fabric) string {
		rows++
		if isShadow(f) {
			panic("sim: missed wake: *apps.Sink has work")
		}
		return "same"
	})
	if len(got) != 1 || !strings.HasPrefix(got[0], "shadow panicked: ") || !strings.Contains(got[0], "missed wake: *apps.Sink") {
		t.Fatalf("reports %q, want one naming the shadow row and the panic", got)
	}
	if rows != 3 {
		t.Fatalf("%d rows ran, want 3", rows)
	}
}

// A panic on the serial row leaves nothing to compare: one report, and
// no further row runs.
func TestFabricMatrixStopsOnSerialPanic(t *testing.T) {
	rows := 0
	got := reports(func(f sim.Fabric) string {
		rows++
		panic("boom")
	})
	if len(got) != 1 || got[0] != "serial panicked: boom" || rows != 1 {
		t.Fatalf("reports %q after %d rows, want one naming the serial row after one", got, rows)
	}
}

// A row with lines the serial one lacks is reported at the first of them.
func TestFabricMatrixNamesExtraLine(t *testing.T) {
	got := reports(func(f sim.Fabric) string {
		if isShadow(f) {
			return "c=1\nc=2\nNOT-READY"
		}
		return "c=1\nc=2"
	})
	if len(got) != 1 || !strings.Contains(got[0], "shadow diverged from serial at line 3: got 3 lines, want 2; extra: NOT-READY") {
		t.Fatalf("reports %q", got)
	}
}

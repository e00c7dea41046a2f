package timerq

import (
	"fmt"
	"testing"

	"f4t/internal/flow"
)

func lookup(tcbs map[flow.ID]*flow.TCB) func(flow.ID) *flow.TCB {
	return func(id flow.ID) *flow.TCB { return tcbs[id] }
}

func TestExpireFiresDueTimers(t *testing.T) {
	q := New()
	tcb := &flow.TCB{FlowID: 1, RetransAt: 100}
	tcbs := map[flow.ID]*flow.TCB{1: tcb}
	q.SyncFromTCB(tcb)

	var fired []uint8
	q.Expire(50, lookup(tcbs), func(id flow.ID, kind uint8) { fired = append(fired, kind) })
	if len(fired) != 0 {
		t.Fatal("fired before the deadline")
	}
	q.Expire(100, lookup(tcbs), func(id flow.ID, kind uint8) { fired = append(fired, kind) })
	if len(fired) != 1 || fired[0] != flow.TORetrans {
		t.Fatalf("fired = %v", fired)
	}
}

func TestStaleEntriesFiltered(t *testing.T) {
	q := New()
	tcb := &flow.TCB{FlowID: 1, RetransAt: 100}
	tcbs := map[flow.ID]*flow.TCB{1: tcb}
	q.SyncFromTCB(tcb)
	// The deadline moves later (re-arm) — the stale heap entry must not fire.
	tcb.RetransAt = 500
	q.SyncFromTCB(tcb)

	var fired int
	q.Expire(200, lookup(tcbs), func(flow.ID, uint8) { fired++ })
	if fired != 0 {
		t.Fatal("stale entry fired")
	}
	q.Expire(500, lookup(tcbs), func(flow.ID, uint8) { fired++ })
	if fired != 1 {
		t.Fatalf("re-armed entry fired %d times", fired)
	}
}

func TestDisarmedTimerNeverFires(t *testing.T) {
	q := New()
	tcb := &flow.TCB{FlowID: 1, ProbeAt: 100}
	tcbs := map[flow.ID]*flow.TCB{1: tcb}
	q.SyncFromTCB(tcb)
	tcb.ProbeAt = 0 // disarmed
	var fired int
	q.Expire(1000, lookup(tcbs), func(flow.ID, uint8) { fired++ })
	if fired != 0 {
		t.Fatal("disarmed timer fired")
	}
}

func TestFreedFlowEntriesDropped(t *testing.T) {
	q := New()
	tcb := &flow.TCB{FlowID: 1, RetransAt: 100, DelAckAt: 150}
	q.SyncFromTCB(tcb)
	var fired int
	q.Expire(1000, func(flow.ID) *flow.TCB { return nil }, func(flow.ID, uint8) { fired++ })
	if fired != 0 || q.Len() != 0 {
		t.Fatalf("freed-flow entries: fired=%d len=%d", fired, q.Len())
	}
}

func TestAllKindsSync(t *testing.T) {
	q := New()
	tcb := &flow.TCB{FlowID: 3, RetransAt: 10, ProbeAt: 20, DelAckAt: 30, TimeWaitAt: 40}
	tcbs := map[flow.ID]*flow.TCB{3: tcb}
	q.SyncFromTCB(tcb)
	var kinds []uint8
	q.Expire(100, lookup(tcbs), func(id flow.ID, kind uint8) { kinds = append(kinds, kind) })
	want := []uint8{flow.TORetrans, flow.TOProbe, flow.TODelAck, flow.TOTimeWait}
	if len(kinds) != 4 {
		t.Fatalf("kinds = %v", kinds)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("order: %v want %v", kinds, want)
		}
	}
}

func TestNextDeadline(t *testing.T) {
	q := New()
	if q.NextDeadline() != 0 {
		t.Fatal("empty queue deadline")
	}
	q.Arm(1, flow.TORetrans, 500)
	q.Arm(2, flow.TOProbe, 300)
	if q.NextDeadline() != 300 {
		t.Fatalf("next = %d", q.NextDeadline())
	}
}

// TestForgetDiscardsEarlierArms: entries armed for an ID before Forget
// never fire — not even against a new holder of the ID whose deadlines
// match theirs — while entries armed after it, and other flows' entries,
// do; the retired entries stay counted in Len and NextDeadline until
// they expire, like any stale entry.
func TestForgetDiscardsEarlierArms(t *testing.T) {
	q := New()
	other := &flow.TCB{FlowID: 5, RetransAt: 100}
	q.SyncFromTCB(&flow.TCB{FlowID: 4, RetransAt: 100, DelAckAt: 40}) // the ID's first holder
	q.SyncFromTCB(other)
	q.Forget(4)
	cur := &flow.TCB{FlowID: 4, RetransAt: 100, DelAckAt: 40} // its next holder
	q.SyncFromTCB(cur)
	tcbs := map[flow.ID]*flow.TCB{4: cur, 5: other}
	if q.Len() != 5 || q.NextDeadline() != 40 {
		t.Fatalf("Len=%d NextDeadline=%d, want 5 and 40", q.Len(), q.NextDeadline())
	}

	var fired []string
	fire := func(id flow.ID, kind uint8) { fired = append(fired, fmt.Sprintf("%d/%d", id, kind)) }
	q.Expire(50, lookup(tcbs), fire)
	if want := fmt.Sprintf("[4/%d]", flow.TODelAck); fmt.Sprint(fired) != want {
		t.Fatalf("fired %v at 50, want %s", fired, want)
	}
	if q.Len() != 3 || q.NextDeadline() != 100 {
		t.Fatalf("Len=%d NextDeadline=%d after 50, want 3 and 100", q.Len(), q.NextDeadline())
	}
	fired = nil
	q.Expire(100, lookup(tcbs), fire)
	if want := fmt.Sprintf("[5/%d 4/%d]", flow.TORetrans, flow.TORetrans); fmt.Sprint(fired) != want {
		t.Fatalf("fired %v at 100, want %s", fired, want)
	}

	// A second recycling: only what is armed after the latest Forget fires.
	q.Arm(4, flow.TOProbe, 150)
	q.Forget(4)
	*cur = flow.TCB{FlowID: 4, ProbeAt: 200}
	q.SyncFromTCB(cur)
	if q.Len() != 2 || q.NextDeadline() != 150 {
		t.Fatalf("Len=%d NextDeadline=%d after the second Forget, want 2 and 150", q.Len(), q.NextDeadline())
	}
	fired = nil
	q.Expire(300, lookup(tcbs), fire)
	if want := fmt.Sprintf("[4/%d]", flow.TOProbe); fmt.Sprint(fired) != want {
		t.Fatalf("fired %v at 300, want %s", fired, want)
	}
	if q.Len() != 0 || q.NextDeadline() != 0 {
		t.Fatalf("Len=%d NextDeadline=%d at the end, want 0 and 0", q.Len(), q.NextDeadline())
	}
}

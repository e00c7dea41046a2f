package conformance

import (
	"strings"
	"testing"

	"f4t/internal/cc"
	"f4t/internal/flow"
	"f4t/internal/seqnum"
	"f4t/internal/wire"
)

// The minimizer's correctness rests on schedules being prefix-stable:
// truncating the phase count must not change the phases that remain.
func TestSchedulePrefixProperty(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 12345} {
		long := NewSchedule(seed, 10)
		for n := 1; n < 10; n++ {
			short := NewSchedule(seed, n)
			for i := 0; i < n; i++ {
				if short.Phases[i] != long.Phases[i] {
					t.Fatalf("seed %d: phase %d differs between len-%d and len-10 schedules:\n%+v\n%+v",
						seed, i, n, short.Phases[i], long.Phases[i])
				}
			}
		}
	}
}

func TestScheduleCoversFaultMenu(t *testing.T) {
	// Across a modest seed range the generator must exercise every
	// archetype — otherwise CI sweeps silently lose coverage.
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 40; seed++ {
		for _, p := range NewSchedule(seed, 6).Phases {
			seen[p.Name] = true
		}
	}
	for _, want := range phaseMenu {
		if !seen[want] {
			t.Errorf("archetype %q never generated in 40 seeds × 6 phases", want)
		}
	}
}

func TestMinimizeFindsShortestPrefix(t *testing.T) {
	calls := 0
	fails := func(c Config) Result {
		calls++
		if c.Phases >= 4 {
			return Result{Violations: []Violation{{Invariant: "synthetic"}}}
		}
		return Result{}
	}
	cfg := DefaultConfig()
	cfg.Phases = 9
	min, res, ok := Minimize(cfg, fails)
	if !ok || min.Phases != 4 {
		t.Fatalf("minimized to %d phases (ok=%v), want 4", min.Phases, ok)
	}
	if !res.Failed() {
		t.Fatal("minimizer returned a passing result")
	}
	if calls != 4 {
		t.Fatalf("linear scan took %d runs, want 4", calls)
	}

	passes := func(Config) Result { return Result{} }
	if _, _, ok := Minimize(cfg, passes); ok {
		t.Fatal("minimizer claimed success on a passing config")
	}
}

// --- invariant checkers must trip on known-bad traces ---

type sinkT struct{ got []Violation }

func (s *sinkT) sink(v Violation) { s.got = append(s.got, v) }

func (s *sinkT) has(invariant string) bool {
	for _, v := range s.got {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func goodTCB(id flow.ID) *flow.TCB {
	return &flow.TCB{
		FlowID: id,
		Tuple:  wire.FourTuple{LocalPort: 100, RemotePort: uint16(id)},
		State:  flow.StateEstablished,
		SndUna: 1000, SndNxt: 2000, Req: 2000,
		RcvNxt: 5000, DeliveredTo: 5000,
		Cwnd: 14600, Ssthresh: cc.InitialSsthresh,
	}
}

func TestTrackerAckRegression(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tr.observe(tcb, 100)
	tcb.SndUna = 900 // the ACK pointer retreats
	tr.observe(tcb, 200)
	if !s.has("ack-regression") {
		t.Fatalf("ack regression not caught: %v", s.got)
	}
}

func TestTrackerSndUnaBeyondNxt(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.SndUna = 3000 // beyond SndNxt=2000
	tr.observe(tcb, 100)
	if !s.has("snd-una-beyond-nxt") {
		t.Fatalf("SndUna>SndNxt not caught: %v", s.got)
	}
}

func TestTrackerDeliveredBeyondRcvNxt(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.DeliveredTo = 6000 // announced data that never arrived
	tr.observe(tcb, 100)
	if !s.has("delivered-beyond-rcvnxt") {
		t.Fatalf("DeliveredTo>RcvNxt not caught: %v", s.got)
	}
}

func TestTrackerIllegalTransition(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tr.observe(tcb, 100)
	tcb.State = flow.StateSynSent // ESTABLISHED cannot go back to SYN-SENT
	tr.observe(tcb, 200)
	if !s.has("illegal-state-transition") {
		t.Fatalf("illegal transition not caught: %v", s.got)
	}
}

func TestTrackerLegalPathsAccepted(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	// A sampled walk with gaps: SYN_SENT → ESTABLISHED → (FIN_WAIT_1
	// skipped) → FIN_WAIT_2 → CLOSED. All legal under the closure.
	for _, st := range []flow.State{
		flow.StateSynSent, flow.StateEstablished, flow.StateFinWait2, flow.StateClosed,
	} {
		tcb.State = st
		tr.observe(tcb, 100)
	}
	if len(s.got) != 0 {
		t.Fatalf("legal trace produced violations: %v", s.got)
	}
}

func TestTrackerFlowIDReuseResetsHistory(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tr.observe(tcb, 100)
	// Engine slot reuse: same flow ID, brand-new connection with a
	// different tuple and completely unrelated sequence space.
	fresh := goodTCB(1)
	fresh.Tuple.RemotePort = 999
	fresh.State = flow.StateSynSent
	fresh.SndUna, fresh.SndNxt, fresh.Req = 50, 51, 50
	fresh.RcvNxt, fresh.DeliveredTo = 0, 0
	tr.observe(fresh, 200)
	if len(s.got) != 0 {
		t.Fatalf("tuple change should reset tracking, got: %v", s.got)
	}
}

// TestTrackerSameTupleReincarnation: a flow ID recycled to a new
// connection on the same tuple (a client reusing its port) is told apart
// by its ISS, so the new handshake is not checked against the old
// connection's pointers and state.
func TestTrackerSameTupleReincarnation(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.ISS = 999
	tr.observe(tcb, 100)
	fresh := goodTCB(1)
	fresh.ISS = 40
	fresh.State = flow.StateSynSent
	fresh.SndUna, fresh.SndNxt, fresh.Req = 40, 41, 41
	fresh.RcvNxt, fresh.DeliveredTo = 0, 0
	tr.observe(fresh, 200)
	if len(s.got) != 0 {
		t.Fatalf("a new incarnation on the same ID and tuple was checked against its predecessor: %v", s.got)
	}
}

// TestTrackerReportsEachIncarnation: the report dedup follows the same
// incarnation rule, so one violation on a recycled ID does not hide the
// same invariant on the connections that later carry that ID.
func TestTrackerReportsEachIncarnation(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	for i, iss := range []seqnum.Value{999, 40} {
		tcb := goodTCB(1)
		tcb.ISS = iss
		tcb.SndUna = 3000 // beyond SndNxt=2000
		tr.observe(tcb, int64(100*(i+1)))
		tr.observe(tcb, int64(100*(i+1)+50)) // same incarnation: deduplicated
	}
	if len(s.got) != 2 || s.got[0].Cycle != 100 || s.got[1].Cycle != 200 {
		t.Fatalf("want one snd-una-beyond-nxt per incarnation (cycles 100, 200), got: %v", s.got)
	}
}

func TestTrackerBackoffRewind(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.Backoff = 3
	tr.observe(tcb, 100)
	tcb.Backoff = 1 // rewinds while SndUna is pinned
	tr.observe(tcb, 200)
	if !s.has("backoff-rewind") {
		t.Fatalf("backoff rewind not caught: %v", s.got)
	}

	// But a rewind together with an ACK advance is legitimate.
	var s2 sinkT
	tr2 := newTracker("X", "newreno", 1460, s2.sink)
	tcb2 := goodTCB(2)
	tcb2.Backoff = 3
	tr2.observe(tcb2, 100)
	tcb2.Backoff = 0
	tcb2.SndUna = 1500
	tr2.observe(tcb2, 200)
	if s2.has("backoff-rewind") {
		t.Fatal("backoff reset after ACK progress flagged as violation")
	}
}

func TestTrackerTimerArmedOnClosed(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.State = flow.StateClosed
	tcb.RetransAt = 12345
	tr.observe(tcb, 100)
	if !s.has("timer-armed-on-closed") {
		t.Fatalf("armed timer on closed flow not caught: %v", s.got)
	}
}

// --- congestion-control state invariants ---

func TestTrackerCwndBelowMSS(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.Cwnd = 1459 // below one segment: the flow can never send again
	tr.observe(tcb, 100)
	if !s.has("cwnd-below-mss") {
		t.Fatalf("sub-MSS cwnd not caught: %v", s.got)
	}

	// The same window on a mid-handshake flow is not a violation: the
	// program's Init may not have run yet.
	var s2 sinkT
	tr2 := newTracker("X", "newreno", 1460, s2.sink)
	tcb2 := goodTCB(2)
	tcb2.State = flow.StateSynSent
	tcb2.Cwnd = 0
	tr2.observe(tcb2, 100)
	if len(s2.got) != 0 {
		t.Fatalf("pre-established cwnd flagged: %v", s2.got)
	}
}

func TestTrackerSsthreshBelowFloor(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "cubic", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.Ssthresh = 2919 // below MinSsthresh(1460) = 2920
	tr.observe(tcb, 100)
	if !s.has("ssthresh-below-floor") {
		t.Fatalf("sub-floor ssthresh not caught: %v", s.got)
	}

	// Exactly the floor, and the untouched sentinel, are both fine.
	var s2 sinkT
	tr2 := newTracker("X", "cubic", 1460, s2.sink)
	tcb2 := goodTCB(2)
	tcb2.Ssthresh = cc.MinSsthresh(1460)
	tr2.observe(tcb2, 100)
	tcb2.Ssthresh = cc.InitialSsthresh // fresh slot would present this…
	tcb2.Tuple.RemotePort = 999        // …under a new identity
	tr2.observe(tcb2, 200)
	if len(s2.got) != 0 {
		t.Fatalf("legal ssthresh values flagged: %v", s2.got)
	}
}

func TestTrackerSsthreshSentinelRevival(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tcb.Ssthresh = 20000 // lowered by some loss episode
	tr.observe(tcb, 100)
	tcb.Ssthresh = cc.InitialSsthresh // snaps back to "never lost"
	tr.observe(tcb, 200)
	if !s.has("ssthresh-sentinel-revival") {
		t.Fatalf("sentinel revival not caught: %v", s.got)
	}
}

func TestTrackerBBRSsthreshPinned(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "bbr", 1460, s.sink)
	tcb := goodTCB(1)
	tr.observe(tcb, 100) // sentinel: fine
	tcb.Ssthresh = 20000 // a loss-based path ran under bbr
	tr.observe(tcb, 200)
	if !s.has("bbr-ssthresh-mutated") {
		t.Fatalf("bbr ssthresh mutation not caught: %v", s.got)
	}
}

func TestTrackerCCVarsAliasing(t *testing.T) {
	var s sinkT
	tr := newTracker("X", "newreno", 1460, s.sink)
	tcb := goodTCB(1)
	tr.beginPass()
	tr.observe(tcb, 100)
	// The same arena slot surfacing under a second flow ID in the same
	// pass: two connections sharing one CCVars block.
	tcb.FlowID = 2
	tcb.Tuple.RemotePort = 2
	tr.observe(tcb, 100)
	if !s.has("ccvars-aliased") {
		t.Fatalf("CCVars aliasing not caught: %v", s.got)
	}

	// Across passes the same address is expected (it's the same flow's
	// slot being revisited) — no violation.
	var s2 sinkT
	tr2 := newTracker("X", "newreno", 1460, s2.sink)
	tcb2 := goodTCB(3)
	tr2.beginPass()
	tr2.observe(tcb2, 100)
	tr2.beginPass()
	tr2.observe(tcb2, 200)
	if len(s2.got) != 0 {
		t.Fatalf("cross-pass revisit flagged as aliasing: %v", s2.got)
	}
}

// --- full-rig sweeps ---

// smokeConfig keeps in-test sweeps quick; CI's f4tconform run covers the
// larger shapes.
func smokeConfig(rig RigKind, seed uint64) Config {
	return Config{Rig: rig, Seed: seed, Phases: 4, Conns: 3, Chunk: 4096}
}

func TestRigSweepClean(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, rig := range AllRigs {
		for _, seed := range seeds {
			t.Run(rig.String(), func(t *testing.T) {
				res := Run(smokeConfig(rig, seed))
				if res.Failed() {
					var b strings.Builder
					for _, v := range res.Violations {
						b.WriteString("\n  " + v.String())
					}
					t.Fatalf("seed %d violated invariants (%s):%s\n%s",
						seed, res.Sched, b.String(), ReplayCommand(smokeConfig(rig, seed)))
				}
				if !res.Drained {
					t.Fatalf("seed %d failed to drain", seed)
				}
			})
		}
	}
}

// TestAllAlgorithmsConformance drives every registered congestion-
// control program through the same chaos schedule on the engine rigs,
// including the routed one: whatever program is loaded, the protocol
// invariants and the per-program CC invariants must hold and the
// network must drain. This is the registry-driven guarantee that a new
// algorithm can't ship without surviving the chaos battery.
func TestAllAlgorithmsConformance(t *testing.T) {
	rigs := []RigKind{RigEngineEngine, RigEngineEngineRouted}
	if testing.Short() {
		rigs = rigs[:1]
	}
	for _, alg := range cc.Names() {
		for _, rig := range rigs {
			t.Run(alg+"/"+rig.String(), func(t *testing.T) {
				cfg := smokeConfig(rig, 1)
				cfg.Alg = alg
				res := Run(cfg)
				if res.Failed() {
					var b strings.Builder
					for _, v := range res.Violations {
						b.WriteString("\n  " + v.String())
					}
					t.Fatalf("%s on %s violated invariants (%s):%s\n%s",
						alg, rig, res.Sched, b.String(), ReplayCommand(cfg))
				}
				if !res.Drained {
					t.Fatalf("%s on %s failed to drain", alg, rig)
				}
			})
		}
	}
}

// findRSTStormSeed scans for a seed whose schedule arms forged-RST
// injection in phase 1 — directly after the clean warm-up, while the
// streams are still hot. (A storm later in the schedule can land while
// every connection sits in RTO backoff from a preceding loss phase, with
// no traffic to shadow.) Deterministic, so the tests using it are stable.
func findRSTStormSeed(t *testing.T, phases int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 200; seed++ {
		if NewSchedule(seed, phases).Phases[1].RstEvery > 0 {
			return seed
		}
	}
	t.Fatal("no rst-storm schedule in 200 seeds")
	return 0
}

// Forged out-of-window resets must be injected, must all be discarded by
// sequence validation, and must not kill any connection.
func TestForgedRSTsAreDropped(t *testing.T) {
	seed := findRSTStormSeed(t, 4)
	res := Run(smokeConfig(RigSoftSoft, seed))
	if res.ForgedRSTs == 0 {
		t.Fatal("rst-storm phase forged nothing")
	}
	if res.OowRstDrops == 0 {
		t.Fatal("no forged reset was counted as dropped — validation not exercised")
	}
	if res.Failed() {
		t.Fatalf("forged RSTs caused violations: %v", res.Violations)
	}
}

// The engine↔stack differential rig is the paper's own comparison:
// both substrates run the same tcpproc core, so a chaos run that is
// clean on one and dirty on the other pins a substrate bug.
func TestDifferentialRigMatchesSoftware(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short")
	}
	seed := findRSTStormSeed(t, 4)
	for _, rig := range []RigKind{RigSoftSoft, RigEngineSoft} {
		res := Run(smokeConfig(rig, seed))
		if res.Failed() {
			t.Fatalf("%s: %v", rig, res.Violations)
		}
	}
}

package netsim

import (
	"fmt"
	"math"
	"strings"

	"f4t/internal/wire"
)

// This file holds the active-queue-management disciplines a RouterPort
// (and, for the threshold-marking subset, a Pipe) applies to its output
// queue, plus the single ECN marking implementation every path in the
// package shares. All decisions are deterministic: RED uses the
// count-based variant (drop exactly every ceil(1/p_b)-th packet of the
// congested band) instead of a random draw, and CoDel's control law is
// already deterministic, so the same packet arrival sequence always
// produces the same drop/mark sequence — the property the differential
// battery and the hand-computed unit tests depend on.

// AQMKind selects a queue discipline.
type AQMKind int

const (
	// AQMDropTail is a plain FIFO with a byte limit; arrivals that would
	// overflow it are dropped. Combined with MarkThresholdNS it is the
	// DCTCP-style step-marking switch queue of the paper's §5 testbed.
	AQMDropTail AQMKind = iota
	// AQMRED is Random Early Detection (deterministic count-based
	// variant): an EWMA of the queue depth drives an early drop/mark
	// probability between a min and max threshold.
	AQMRED
	// AQMCoDel is Controlled Delay: packets carry their enqueue time and
	// are dropped (or CE-marked) at dequeue when sojourn time stays above
	// a target for longer than an interval, with the classic 1/sqrt(count)
	// control law.
	AQMCoDel
)

// aqmNames orders the parseable discipline names.
var aqmNames = []string{"droptail", "red", "codel"}

// AQMNames returns the accepted discipline names, in display order.
func AQMNames() []string { return append([]string(nil), aqmNames...) }

// String implements fmt.Stringer.
func (k AQMKind) String() string {
	if int(k) < len(aqmNames) {
		return aqmNames[k]
	}
	return fmt.Sprintf("AQMKind(%d)", int(k))
}

// ParseAQM resolves a discipline name (case-insensitive). Unknown names
// return an error listing the valid ones, mirroring cc.New.
func ParseAQM(name string) (AQMKind, error) {
	for i, n := range aqmNames {
		if strings.EqualFold(name, n) {
			return AQMKind(i), nil
		}
	}
	return 0, fmt.Errorf("netsim: unknown AQM %q (have %s)", name, strings.Join(aqmNames, ", "))
}

// AQMConfig parameterizes one port's queue discipline. The zero value is
// an unlimited DropTail FIFO with no marking.
type AQMConfig struct {
	Kind AQMKind

	// LimitBytes caps the queue in bytes (all Kinds). 0 = unlimited.
	LimitBytes int64

	// ECN makes RED and CoDel mark ECN-capable packets CE instead of
	// dropping them (drops still happen for non-ECT traffic and on
	// queue-limit overflow).
	ECN bool

	// MarkThresholdNS enables DCTCP step marking on top of any Kind:
	// when the instantaneous queueing delay ahead of an arriving
	// ECN-capable packet exceeds this, it is marked CE (RFC 3168 /
	// DCTCP's K threshold). 0 disables.
	MarkThresholdNS int64

	// RED thresholds on the averaged queue depth, and the drop
	// probability at REDMaxBytes. REDWeightShift is the EWMA weight
	// exponent: avg moves toward the instantaneous depth by 1/2^shift
	// per arrival (RFC 2309 recommends w=1/512, shift 9).
	REDMinBytes    int64
	REDMaxBytes    int64
	REDMaxP        float64
	REDWeightShift uint

	// CoDel control-law parameters (the reference values are 5 ms/100 ms;
	// datacenter fabrics scale both down with the RTT).
	CoDelTargetNS   int64
	CoDelIntervalNS int64
}

// Datacenter-scale defaults, sized for the testbed's 100 Gbps links and
// ~5 µs RTTs: a 256 KB queue is ~20 µs of drain time.
const (
	DefaultQueueLimitBytes = 256 << 10
	DefaultREDMinBytes     = 32 << 10
	DefaultREDMaxBytes     = 128 << 10
	DefaultREDMaxP         = 0.1
	DefaultREDWeightShift  = 6
	DefaultCoDelTargetNS   = 2_000
	DefaultCoDelIntervalNS = 20_000
)

// DropTail returns a FIFO discipline with the given byte limit
// (0 = DefaultQueueLimitBytes).
func DropTail(limitBytes int64) AQMConfig {
	if limitBytes == 0 {
		limitBytes = DefaultQueueLimitBytes
	}
	return AQMConfig{Kind: AQMDropTail, LimitBytes: limitBytes}
}

// RED returns a Random Early Detection discipline with the datacenter
// defaults, marking instead of dropping when ecn is set.
func RED(limitBytes int64, ecn bool) AQMConfig {
	if limitBytes == 0 {
		limitBytes = DefaultQueueLimitBytes
	}
	return AQMConfig{
		Kind: AQMRED, LimitBytes: limitBytes, ECN: ecn,
		REDMinBytes: DefaultREDMinBytes, REDMaxBytes: DefaultREDMaxBytes,
		REDMaxP: DefaultREDMaxP, REDWeightShift: DefaultREDWeightShift,
	}
}

// CoDel returns a Controlled Delay discipline with the datacenter
// defaults, marking instead of dropping when ecn is set.
func CoDel(limitBytes int64, ecn bool) AQMConfig {
	if limitBytes == 0 {
		limitBytes = DefaultQueueLimitBytes
	}
	return AQMConfig{
		Kind: AQMCoDel, LimitBytes: limitBytes, ECN: ecn,
		CoDelTargetNS: DefaultCoDelTargetNS, CoDelIntervalNS: DefaultCoDelIntervalNS,
	}
}

// ECNThreshold returns a DCTCP-style step-marking DropTail queue: mark
// CE above the delay threshold, tail-drop only at the byte limit.
func ECNThreshold(markNS, limitBytes int64) AQMConfig {
	cfg := DropTail(limitBytes)
	cfg.MarkThresholdNS = markNS
	return cfg
}

// verdict is one admission decision.
type verdict int

const (
	admitPass verdict = iota
	admitMark
	admitDrop
)

// aqm is the per-queue discipline state machine. It is pure decision
// logic: the owner (RouterPort or Pipe) owns the actual packet queue and
// counters and calls admitEnqueue for every arrival and admitDequeue for
// every head-of-line departure.
type aqm struct {
	cfg AQMConfig

	// RED state: avgShifted is the EWMA of the queue depth in bytes,
	// stored as avg * 2^weightShift so the update is integer-exact;
	// count is the packets admitted since the last early drop/mark.
	avgShifted int64
	count      int64

	// CoDel state (times in ns).
	firstAbove int64
	dropNext   int64
	dropCount  int64
	dropping   bool
}

func newAQM(cfg AQMConfig) aqm { return aqm{cfg: cfg} }

// admitEnqueue decides the fate of an arriving packet given the current
// queue depth (bytes, excluding the arrival), the arrival's wire length,
// the queueing delay it would experience (ns), and whether it is
// ECN-capable. DropTail limit and RED run here; CoDel admits everything
// within the limit and decides at dequeue.
func (a *aqm) admitEnqueue(qBytes, pktBytes, qDelayNS int64, ect bool) verdict {
	if a.cfg.LimitBytes > 0 && qBytes+pktBytes > a.cfg.LimitBytes {
		return admitDrop
	}
	v := admitPass
	if a.cfg.Kind == AQMRED {
		v = a.redArrival(qBytes)
	}
	// Step marking composes with any discipline: a packet that survived
	// the early-drop stage is still marked when the standing queue is
	// above the DCTCP threshold.
	if v == admitPass && a.cfg.MarkThresholdNS > 0 && ect && qDelayNS > a.cfg.MarkThresholdNS {
		v = admitMark
	}
	if v == admitMark && !ect {
		// RED wanted to mark but the packet cannot carry CE: drop, as a
		// real RED-ECN queue does for not-ECT traffic.
		v = admitDrop
	}
	return v
}

// redArrival runs the RED decision for one arrival. Deterministic
// count-based variant: in the congested band every ceil(1/p_b)-th packet
// is marked (ECN on) or dropped, where p_b grows linearly from 0 at
// REDMinBytes to REDMaxP at REDMaxBytes of averaged queue depth.
func (a *aqm) redArrival(qBytes int64) verdict {
	c := &a.cfg
	// avg += (q - avg) / 2^shift, in fixed point.
	a.avgShifted += qBytes - a.avgShifted>>c.REDWeightShift
	avg := a.avgShifted >> c.REDWeightShift
	switch {
	case avg < c.REDMinBytes:
		a.count = 0
		return admitPass
	case avg >= c.REDMaxBytes:
		a.count = 0
		if c.ECN {
			return admitMark
		}
		return admitDrop
	}
	pb := c.REDMaxP * float64(avg-c.REDMinBytes) / float64(c.REDMaxBytes-c.REDMinBytes)
	a.count++
	if float64(a.count)*pb >= 1 {
		a.count = 0
		if c.ECN {
			return admitMark
		}
		return admitDrop
	}
	return admitPass
}

// admitDequeue decides the fate of the head-of-line packet leaving the
// queue after sojournNS in it, with qBytes left behind it. Only CoDel
// acts here; every other discipline passes.
func (a *aqm) admitDequeue(nowNS, sojournNS, qBytes int64, ect bool) verdict {
	if a.cfg.Kind != AQMCoDel {
		return admitPass
	}
	c := &a.cfg
	okToDrop := false
	if sojournNS < c.CoDelTargetNS || qBytes == 0 {
		// Below target (or the queue is draining dry): leave the
		// dropping state and re-arm the interval timer.
		a.firstAbove = 0
	} else if a.firstAbove == 0 {
		a.firstAbove = nowNS + c.CoDelIntervalNS
	} else if nowNS >= a.firstAbove {
		okToDrop = true
	}

	if a.dropping {
		if !okToDrop {
			a.dropping = false
			return admitPass
		}
		if nowNS >= a.dropNext {
			a.dropCount++
			a.dropNext += intervalOverSqrt(c.CoDelIntervalNS, a.dropCount)
			if c.ECN && ect {
				return admitMark
			}
			return admitDrop
		}
		return admitPass
	}
	if okToDrop {
		a.dropping = true
		// Resume close to the previous drop rate if we left dropping
		// recently, else restart gently (the standard CoDel heuristic).
		if nowNS-a.dropNext < c.CoDelIntervalNS && a.dropCount > 2 {
			a.dropCount -= 2
		} else {
			a.dropCount = 1
		}
		a.dropNext = nowNS + intervalOverSqrt(c.CoDelIntervalNS, a.dropCount)
		if c.ECN && ect {
			return admitMark
		}
		return admitDrop
	}
	return admitPass
}

// intervalOverSqrt computes interval/sqrt(count) — CoDel's control law.
// float64 sqrt is fully specified by IEEE 754, so the result is
// deterministic across platforms.
func intervalOverSqrt(intervalNS, count int64) int64 {
	if count < 1 {
		count = 1
	}
	return int64(float64(intervalNS) / math.Sqrt(float64(count)))
}

// ecnCapable reports whether the packet negotiated ECN (carries an ECT
// codepoint): only such packets may be CE-marked; everything else must
// be dropped to signal congestion.
func ecnCapable(pkt *wire.Packet) bool {
	return pkt.Kind == wire.KindTCP &&
		(pkt.IP.ECN == wire.ECNECT0 || pkt.IP.ECN == wire.ECNECT1)
}

// markCE returns a CE-marked copy of the packet. The copy matters: the
// sender's pipe may still deliver a duplicate of the original, which
// must keep its ECT codepoint — and pooled packets own their payload
// storage, so the fork must deep-copy (Clone), not alias.
func markCE(pkt *wire.Packet) *wire.Packet {
	marked := pkt.Clone()
	marked.IP.ECN = wire.ECNCE
	return marked
}

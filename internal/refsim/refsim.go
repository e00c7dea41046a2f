// Package refsim is the independent reference simulator that plays NS3's
// role in Figure 14: a deliberately separate, packet-level, single-flow
// TCP congestion model written directly from the RFC prose (floating
// point arithmetic, no shared code with the F4T protocol engine), so
// agreement between the two implementations is evidence, not tautology.
//
// Beyond the loss-driven newreno/cubic models the witness covers the
// delay-driven (vegas), mark-driven (dctcp) and model-driven (bbr)
// programs: the fluid loop derives a queueing-delay RTT and an ECN mark
// signal from the amount in flight beyond the path's BDP, which is the
// minimal bottleneck model those algorithms need to express their
// character.
package refsim

import (
	"fmt"
	"math"
)

// Params configures one bulk-transfer run.
type Params struct {
	Alg        string  // one of Algorithms
	MSS        int     // payload bytes per segment
	RTTns      int64   // base round-trip time
	RateBps    float64 // bottleneck rate, bits/s
	DropEvery  int64   // drop every Nth data packet (0 = none)
	DurationNS int64
	SampleNS   int64 // cwnd sampling period
}

// Algorithms lists the congestion models the witness implements.
var Algorithms = []string{"newreno", "cubic", "vegas", "dctcp", "bbr"}

// Sample is one cwnd observation.
type Sample struct {
	AtNS int64
	Cwnd float64 // bytes
}

// state is the sender model.
type state struct {
	p            Params
	now          int64
	cwnd         float64 // segments
	ssthresh     float64
	inFlight     int64
	sent         int64 // data packets sent (for the drop pattern)
	dupAcks      int
	inRecovery   bool
	recoverPoint int64 // packet number that ends recovery

	packetNS float64 // bottleneck service time per segment
	bdpPkts  float64 // path bandwidth-delay product, segments

	// CUBIC state.
	wMax       float64
	epochStart int64

	// Vegas state.
	vegasFrozen bool // slow start ended by the gamma rule

	// DCTCP state (RFC 8257 window-fraction EWMA).
	dctcpAlpha float64
	winAcked   float64
	winMarked  float64
	winTarget  float64 // acks per observation window, latched at its start

	// BBR state: the float mirror of internal/cc's integer machine.
	bbrMode        int
	bbrCycle       int
	bbrFullCnt     int
	bbrBtlBw       float64 // bytes/second
	bbrBtlBwStamp  int64
	bbrMinRtt      float64 // ns
	bbrMinRttStamp int64
	bbrEpochStart  int64
	bbrEpochBytes  float64
	bbrFullBw      float64
	bbrPriorCwnd   float64
	bbrPhaseStamp  int64

	nextSeq      int64 // next packet number to send
	highestAcked int64
	lost         map[int64]bool

	samples []Sample
}

// BBR witness constants — same timing as internal/cc/bbr.go.
const (
	refBbrStartup  = 0
	refBbrDrain    = 1
	refBbrProbeBW  = 2
	refBbrProbeRTT = 3

	refBbrMinRttWinNS = 10_000_000
	refBbrProbeRttNS  = 200_000
	refBbrMinEpochNS  = 100_000
	refBbrBwWinRTTs   = 10
	refBbrMinCwndSegs = 4
	refBbrFullBwCnt   = 3
)

var refBbrGain = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// Run simulates the transfer and returns the cwnd trace. Unknown
// algorithm names are an error — the witness must never silently fall
// back to newreno and fake agreement for a model it does not implement.
func Run(p Params) ([]Sample, error) {
	known := false
	for _, a := range Algorithms {
		if p.Alg == a {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("refsim: unknown algorithm %q (have %v)", p.Alg, Algorithms)
	}
	if p.MSS == 0 {
		p.MSS = 1460
	}
	s := &state{
		p:            p,
		cwnd:         10,
		ssthresh:     math.MaxFloat64 / 4,
		lost:         make(map[int64]bool),
		highestAcked: -1,
	}
	s.packetNS = float64(p.MSS*8) / p.RateBps * 1e9
	s.bdpPkts = p.RateBps * float64(p.RTTns) / 1e9 / 8 / float64(p.MSS)

	nextSample := int64(0)
	for s.now < p.DurationNS {
		if s.now >= nextSample {
			s.samples = append(s.samples, Sample{AtNS: s.now, Cwnd: s.cwnd * float64(p.MSS)})
			nextSample += p.SampleNS
		}
		// Send while the window allows.
		for float64(s.inFlight) < s.cwnd {
			s.sent++
			if p.DropEvery > 0 && s.sent%p.DropEvery == 0 {
				s.lost[s.nextSeq] = true
			}
			s.nextSeq++
			s.inFlight++
		}
		// Advance one packet service time; one ACK (or loss signal)
		// returns per serviced packet, RTT-delayed. This fluid-ish
		// treatment keeps the model simple while preserving the
		// window dynamics the figure compares.
		s.now += int64(s.packetNS)
		s.ackOne()
	}
	return s.samples, nil
}

// rttNS is the fluid path's current round-trip time: the base propagation
// delay plus the queueing delay of whatever is in flight beyond the BDP.
// This is the delay signal Vegas and BBR modulate on.
func (s *state) rttNS() float64 {
	q := float64(s.inFlight) - s.bdpPkts
	if q <= 0 {
		return float64(s.p.RTTns)
	}
	return float64(s.p.RTTns) + q*s.packetNS
}

// marked is the ECN signal: the bottleneck marks when a standing queue
// has formed (inFlight beyond the BDP), mirroring the shallow
// ECN-marking threshold the F4T dctcp trace runs against.
func (s *state) marked() bool {
	return float64(s.inFlight) > s.bdpPkts+1
}

// ackOne models the arrival of feedback for the oldest outstanding
// packet.
func (s *state) ackOne() {
	if s.inFlight == 0 {
		return
	}
	pkt := s.highestAcked + 1
	if s.lost[pkt] {
		// Three duplicate ACKs arrive as later packets are delivered.
		s.dupAcks++
		if s.dupAcks >= 3 && !s.inRecovery {
			s.inRecovery = true
			s.recoverPoint = s.nextSeq
			s.enterLoss()
			delete(s.lost, pkt) // fast retransmit repairs it one RTT later
		}
		if s.dupAcks > 3 {
			// Retransmission arrived: the cumulative ACK jumps.
			delete(s.lost, pkt)
			s.dupAcks = 0
		}
		return
	}
	s.highestAcked = pkt
	s.inFlight--
	s.dupAcks = 0
	if s.inRecovery && pkt >= s.recoverPoint {
		s.inRecovery = false
		s.exitRecovery()
	}
	if !s.inRecovery {
		s.grow()
	}
}

// enterLoss applies the loss response of the configured algorithm.
func (s *state) enterLoss() {
	switch s.p.Alg {
	case "cubic":
		s.wMax = s.cwnd
		s.cwnd *= 0.7
		s.ssthresh = s.cwnd
		s.epochStart = 0
	case "bbr":
		// No multiplicative decrease: remember the window, conserve what
		// is in flight, let the model re-set it after recovery.
		s.bbrPriorCwnd = math.Max(s.bbrPriorCwnd, s.cwnd)
		s.cwnd = math.Max(math.Min(s.cwnd, float64(s.inFlight)), refBbrMinCwndSegs)
		return
	default: // newreno, vegas, dctcp fall back to the Reno halving
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.cwnd = s.ssthresh
	}
	if s.cwnd < 2 {
		s.cwnd = 2
	}
}

// exitRecovery applies the post-recovery window of the configured
// algorithm.
func (s *state) exitRecovery() {
	if s.p.Alg == "bbr" {
		s.cwnd = math.Max(s.cwnd, s.bbrPriorCwnd)
		s.bbrPriorCwnd = 0
		return
	}
	s.cwnd = s.ssthresh
}

// grow applies per-ACK window growth.
func (s *state) grow() {
	if s.p.Alg == "bbr" {
		// BBR has no slow-start/ssthresh split; its mode machine owns the
		// whole trajectory.
		s.growBBR()
		return
	}
	if s.cwnd < s.ssthresh {
		s.cwnd++
		if s.p.Alg == "vegas" && !s.vegasFrozen {
			// Vegas leaves slow start as soon as the queueing estimate
			// exceeds gamma = 1 segment.
			rtt := s.rttNS()
			if s.cwnd*(rtt-float64(s.p.RTTns))/rtt > 1 {
				s.ssthresh = s.cwnd
				s.vegasFrozen = true
			}
		}
		if s.p.Alg == "dctcp" {
			s.observeMark()
		}
		return
	}
	switch s.p.Alg {
	case "cubic":
		if s.epochStart == 0 {
			s.epochStart = s.now
			if s.wMax < s.cwnd {
				s.wMax = s.cwnd
			}
		}
		const c = 0.4
		k := math.Cbrt(s.wMax * 0.3 / c) // seconds
		t := float64(s.now-s.epochStart)/1e9 + float64(s.p.RTTns)/1e9
		target := s.wMax + c*math.Pow(t-k, 3)
		if target > s.cwnd {
			s.cwnd += (target - s.cwnd) / s.cwnd
		} else {
			s.cwnd += 0.01 / s.cwnd
		}
	case "vegas":
		// diff = cwnd·(rtt − baseRTT)/rtt is the queue the flow keeps at
		// the bottleneck, in segments; hold it between alpha and beta.
		rtt := s.rttNS()
		diff := s.cwnd * (rtt - float64(s.p.RTTns)) / rtt
		const alpha, beta = 2, 4
		switch {
		case diff < alpha:
			s.cwnd += 1 / s.cwnd
		case diff > beta:
			s.cwnd -= 1 / s.cwnd
			if s.cwnd < 2 {
				s.cwnd = 2
			}
		}
	case "dctcp":
		s.cwnd += 1 / s.cwnd
		s.observeMark()
	default: // newreno congestion avoidance
		s.cwnd += 1 / s.cwnd
	}
}

// observeMark accumulates the per-window ECN mark fraction and applies
// DCTCP's alpha-proportional decrease at window boundaries (RFC 8257).
func (s *state) observeMark() {
	if s.winTarget == 0 {
		// Latch the window length at its start — cwnd moves during the
		// window, so comparing against the live value would let the
		// boundary outrun the counter in slow start.
		s.winTarget = math.Max(s.cwnd, 1)
	}
	s.winAcked++
	if s.marked() {
		s.winMarked++
	}
	if s.winAcked < s.winTarget {
		return
	}
	frac := s.winMarked / s.winAcked
	const g = 1.0 / 16
	s.dctcpAlpha = (1-g)*s.dctcpAlpha + g*frac
	if frac > 0 {
		s.cwnd *= 1 - s.dctcpAlpha/2
		if s.cwnd < 2 {
			s.cwnd = 2
		}
		s.ssthresh = s.cwnd
	}
	s.winAcked, s.winMarked, s.winTarget = 0, 0, 0
}

// growBBR mirrors internal/cc's integer BBR machine in float arithmetic:
// min-RTT filter with expiry-driven ProbeRTT, epoch delivery-rate
// bandwidth filter, Startup/Drain/ProbeBW gain logic.
func (s *state) growBBR() {
	rtt := s.rttNS()
	if s.bbrMinRtt == 0 || rtt < s.bbrMinRtt {
		s.bbrMinRtt = rtt
		s.bbrMinRttStamp = s.now
	}
	minRtt := s.bbrMinRtt

	if s.bbrEpochStart == 0 {
		s.bbrEpochStart = s.now
	}
	s.bbrEpochBytes += float64(s.p.MSS)
	epochMin := math.Max(minRtt, refBbrMinEpochNS)
	if elapsed := float64(s.now - s.bbrEpochStart); elapsed >= epochMin {
		bw := s.bbrEpochBytes * 1e9 / elapsed
		if bw >= s.bbrBtlBw {
			s.bbrBtlBw = bw
			s.bbrBtlBwStamp = s.now
		} else if float64(s.now-s.bbrBtlBwStamp) > refBbrBwWinRTTs*minRtt {
			s.bbrBtlBw = bw
			s.bbrBtlBwStamp = s.now
		}
		s.bbrEpochStart = s.now
		s.bbrEpochBytes = 0

		if s.bbrMode == refBbrStartup {
			if s.bbrBtlBw < 1.25*s.bbrFullBw {
				s.bbrFullCnt++
				if s.bbrFullCnt >= refBbrFullBwCnt {
					s.bbrMode = refBbrDrain
				}
			} else {
				s.bbrFullBw = s.bbrBtlBw
				s.bbrFullCnt = 0
			}
		}
	}

	if s.bbrMode != refBbrProbeRTT &&
		float64(s.now-s.bbrMinRttStamp) > refBbrMinRttWinNS {
		s.bbrMode = refBbrProbeRTT
		s.bbrPriorCwnd = math.Max(s.bbrPriorCwnd, s.cwnd)
		s.bbrPhaseStamp = s.now
	}

	bdp := s.bbrBtlBw * minRtt / 1e9 / float64(s.p.MSS) // segments

	switch s.bbrMode {
	case refBbrStartup:
		s.cwnd++

	case refBbrDrain:
		target := math.Max(bdp, refBbrMinCwndSegs)
		if s.cwnd <= target+1 {
			s.cwnd = target
			s.bbrMode, s.bbrCycle = refBbrProbeBW, 0
			s.bbrPhaseStamp = s.now
		} else {
			s.cwnd--
		}

	case refBbrProbeBW:
		if float64(s.now-s.bbrPhaseStamp) >= minRtt {
			s.bbrCycle = (s.bbrCycle + 1) % len(refBbrGain)
			s.bbrPhaseStamp = s.now
		}
		s.cwnd = math.Max(bdp*refBbrGain[s.bbrCycle], refBbrMinCwndSegs)

	case refBbrProbeRTT:
		s.cwnd = refBbrMinCwndSegs
		if s.now-s.bbrPhaseStamp >= refBbrProbeRttNS {
			s.bbrMinRttStamp = s.now
			s.cwnd = math.Max(s.bbrPriorCwnd, bdp)
			s.bbrPriorCwnd = 0
			if s.bbrFullCnt >= refBbrFullBwCnt {
				s.bbrMode, s.bbrCycle = refBbrProbeBW, 0
			} else {
				s.bbrMode = refBbrStartup
			}
			s.bbrPhaseStamp = s.now
		}
	}
}

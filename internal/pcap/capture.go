package pcap

import (
	"os"
	"sort"

	"f4t/internal/netsim"
	"f4t/internal/wire"
)

// rec is one captured frame on one tap.
type rec struct {
	tsNS  int64
	frame []byte
	note  netsim.TapNote
}

// tapBuf accumulates one tap point's frames. A tap closure runs
// synchronously inside its element's execution context, so under a
// sharded fabric each tapBuf is only ever touched by the island that
// owns its element — no locking is needed, and captures stay
// deterministic because each buffer preserves its element's own
// event order.
type tapBuf struct {
	name string
	recs []rec
	errs int // frames skipped because Marshal failed
}

// Capture collects frames from any number of tap points and writes a
// single merged pcapng file. Install taps during rig construction,
// run the simulation, then call WriteTo/WriteFile after the fabric's
// Run has returned (island goroutines joined) — writing mid-run would
// race the taps.
type Capture struct {
	taps []*tapBuf
}

// New returns an empty capture.
func New() *Capture { return &Capture{} }

// newTap registers a named tap point (one pcapng interface) and
// returns the closure to install on a netsim element.
func (c *Capture) newTap(name string) netsim.Tap {
	tb := &tapBuf{name: name}
	c.taps = append(c.taps, tb)
	return func(nowNS int64, pkt *wire.Packet, note netsim.TapNote) {
		frame, err := pkt.Marshal()
		if err != nil {
			tb.errs++
			return
		}
		tb.recs = append(tb.recs, rec{tsNS: nowNS, frame: frame, note: note})
	}
}

// TapPipe captures one pipe direction under the given interface name.
func (c *Capture) TapPipe(p *netsim.Pipe, name string) {
	p.SetTap(c.newTap(name))
}

// TapLink captures both directions of a duplex link as two interfaces
// (name.ab / name.ba).
func (c *Capture) TapLink(l *netsim.Link, name string) {
	c.TapPipe(l.AtoB, name+".ab")
	c.TapPipe(l.BtoA, name+".ba")
}

// TapPort captures one router egress port.
func (c *Capture) TapPort(p *netsim.RouterPort, name string) {
	p.SetTap(c.newTap(name))
}

// Frames returns the total captured frame count across all taps.
func (c *Capture) Frames() int {
	n := 0
	for _, tb := range c.taps {
		n += len(tb.recs)
	}
	return n
}

// MarshalErrs returns how many frames were skipped because they could
// not be encoded (should be zero in any healthy rig).
func (c *Capture) MarshalErrs() int {
	n := 0
	for _, tb := range c.taps {
		n += tb.errs
	}
	return n
}

// annotation renders the tap note as the EPB comment. A plain send has
// no comment; everything unusual is spelled out for display filters
// (Wireshark: pkt_comment contains "drop").
func annotation(note netsim.TapNote) string {
	s := ""
	add := func(tag string) {
		if s != "" {
			s += " "
		}
		s += tag
	}
	switch {
	case note&netsim.TapDropFault != 0:
		add("drop=fault")
	case note&netsim.TapDropTail != 0:
		add("drop=tail")
	case note&netsim.TapDropAQM != 0:
		add("drop=aqm")
	}
	if note&netsim.TapMarkCE != 0 {
		add("ce")
	}
	if note&netsim.TapReorder != 0 {
		add("reorder")
	}
	if note&netsim.TapDup != 0 {
		add("dup")
	}
	return s
}

// WriteTo writes the merged capture as pcapng. Frames from all taps
// are interleaved by (timestamp, tap registration order, per-tap
// sequence) — a total order that is a pure function of simulation
// state, so the emitted bytes are reproducible run to run.
func (c *Capture) WriteTo(w0 interface{ Write([]byte) (int, error) }) error {
	w := newWriter(w0)
	for _, tb := range c.taps {
		w.interfaceBlock(tb.name)
	}
	type key struct {
		tap, idx int
	}
	order := make([]key, 0, c.Frames())
	for ti, tb := range c.taps {
		for ri := range tb.recs {
			order = append(order, key{ti, ri})
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		ta, tb2 := c.taps[a.tap].recs[a.idx].tsNS, c.taps[b.tap].recs[b.idx].tsNS
		if ta != tb2 {
			return ta < tb2
		}
		if a.tap != b.tap {
			return a.tap < b.tap
		}
		return a.idx < b.idx
	})
	for _, k := range order {
		r := &c.taps[k.tap].recs[k.idx]
		w.packetBlock(uint32(k.tap), r.tsNS, r.frame, annotation(r.note))
	}
	return w.flush()
}

// WriteFile writes the capture to path (creating or truncating it).
func (c *Capture) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package pcap

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"f4t/internal/netsim"
	"f4t/internal/seqnum"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
	"f4t/internal/sock"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden pcap fixtures")

// echoCapture runs a fixed-seed client/server echo exchange over one
// link with a capture tapping both directions, and returns the capture.
// Everything is seeded, so the capture bytes are reproducible.
func echoCapture(t *testing.T, faults netsim.Faults) *Capture {
	t.Helper()
	k := sim.New()
	link := netsim.NewLink(k, 100, 600, 42)
	cap0 := New()
	cap0.TapLink(link, "link0")
	link.AtoB.SetFaults(faults)

	optA := stack.Options{
		IP: wire.MakeAddr(10, 0, 0, 1), MAC: wire.MAC{2, 0, 0, 0, 0, 1},
		Cfg: tcpproc.DefaultConfig(), Alg: "newreno", CarryBytes: true, Seed: 1,
	}
	optB := stack.Options{
		IP: wire.MakeAddr(10, 0, 0, 2), MAC: wire.MAC{2, 0, 0, 0, 0, 2},
		Cfg: tcpproc.DefaultConfig(), Alg: "newreno", CarryBytes: true, Seed: 2,
	}
	a := stack.New(k, optA, link.AtoB.Send)
	b := stack.New(k, optB, link.BtoA.Send)
	link.AtoB.SetSink(func(p *wire.Packet) { b.HandlePacket(p) })
	link.BtoA.SetSink(func(p *wire.Packet) { a.HandlePacket(p) })
	k.Register(a)
	k.Register(b)

	msg := []byte("f4t pcap golden fixture: the quick brown fox jumps over the lazy dog")
	ha, hb := stack.NewHosts(a, 1)[0], stack.NewHosts(b, 1)[0]
	hb.Listen(80)
	cli := ha.Dial(optB.IP, 80)
	var srv sock.Conn
	var echoed []byte
	// The two applications, polling after the endpoints each cycle: the
	// server echoes what it reads, the client sends msg once connected.
	k.Register(sim.TickerFunc(func(int64) {
		for _, ev := range hb.Poll() {
			switch ev.Kind {
			case sock.EvAccepted:
				srv = ev.Conn
			case sock.EvReadable:
				if got, n := ev.Conn.Recv(1024); n > 0 {
					ev.Conn.Send(got[:n])
				}
			}
		}
		for _, ev := range ha.Poll() {
			switch ev.Kind {
			case sock.EvConnected:
				cli.Send(msg)
			case sock.EvReadable:
				got, n := cli.Recv(1024)
				echoed = append(echoed, got[:n]...)
			}
		}
	}))

	done := func() bool { return len(echoed) >= len(msg) }
	if !k.RunUntil(done, 5_000_000) {
		t.Fatalf("echo did not complete: got %d of %d bytes (srv=%v)", len(echoed), len(msg), srv != nil)
	}
	if !bytes.Equal(echoed, msg) {
		t.Fatalf("echoed bytes differ from sent message")
	}
	// Orderly teardown so the capture includes FIN exchanges.
	cli.Close()
	k.RunUntil(func() bool { return cli.Closed() && srv.Closed() }, 5_000_000)
	return cap0
}

// TestCaptureRoundTrip writes a capture and re-reads it with the
// package's own reader, checking structure and frame integrity.
func TestCaptureRoundTrip(t *testing.T) {
	cap0 := echoCapture(t, netsim.Faults{})
	if cap0.Frames() == 0 {
		t.Fatalf("capture is empty")
	}
	if cap0.MarshalErrs() != 0 {
		t.Fatalf("marshal errors: %d", cap0.MarshalErrs())
	}
	var buf bytes.Buffer
	if err := cap0.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	frames, err := ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(frames) != cap0.Frames() {
		t.Fatalf("reader found %d frames, capture recorded %d", len(frames), cap0.Frames())
	}
	lastTS := int64(-1)
	for i, f := range frames {
		if f.Interface != "link0.ab" && f.Interface != "link0.ba" {
			t.Fatalf("frame %d: unexpected interface %q", i, f.Interface)
		}
		if f.TsNS < lastTS {
			t.Fatalf("frame %d: timestamp went backwards (%d after %d)", i, f.TsNS, lastTS)
		}
		lastTS = f.TsNS
		if _, err := wire.Unmarshal(f.Data); err != nil {
			t.Fatalf("frame %d: does not parse as a wire frame: %v", i, err)
		}
	}
}

// TestCaptureGolden pins the exact capture bytes of the fixed-seed
// echo exchange against a checked-in fixture. Any change to the stack,
// the link model, or the pcapng encoding shows up as a diff here; run
// with -update to accept intentional changes.
func TestCaptureGolden(t *testing.T) {
	cap0 := echoCapture(t, netsim.Faults{})
	var buf bytes.Buffer
	if err := cap0.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	golden := filepath.Join("testdata", "echo.pcapng")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		// Decode both sides for a legible failure before the byte diff.
		gotF, gerr := ReadFile(bytes.NewReader(buf.Bytes()))
		wantF, werr := ReadFile(bytes.NewReader(want))
		t.Fatalf("capture differs from golden fixture: got %d bytes/%d frames (err=%v), want %d bytes/%d frames (err=%v); run 'go test ./internal/pcap -update' if intentional",
			buf.Len(), len(gotF), gerr, len(want), len(wantF), werr)
	}
}

// TestCaptureAnnotatesDrops checks fault drops carry their comment.
// DropOnce=3 kills the client's first data segment (SYN, handshake
// ACK, then data), forcing an RTO retransmission the capture shows.
func TestCaptureAnnotatesDrops(t *testing.T) {
	cap0 := echoCapture(t, netsim.Faults{DropOnce: 3})
	var buf bytes.Buffer
	if err := cap0.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	frames, err := ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	drops := 0
	for _, f := range frames {
		if f.Comment == "drop=fault" {
			drops++
		}
	}
	if drops != 1 {
		t.Fatalf("want exactly 1 drop=fault annotation in %d frames, got %d", len(frames), drops)
	}
}

// TestCapturePortTailDrops taps a router egress port that two senders
// overrun (200 Gbps into a 100 Gbps downlink with a 5 KB DropTail
// limit) and holds the capture to the port's own counter: one
// drop=tail comment per tail drop. The star puts every node and the
// router on its own island, so the sharded row checks the router
// island's tap buffer.
func TestCapturePortTailDrops(t *testing.T) {
	simtest.FabricMatrix(t, func(f sim.Fabric) string {
		addrs := []wire.Addr{
			wire.MakeAddr(10, 9, 3, 1),
			wire.MakeAddr(10, 9, 3, 2),
			wire.MakeAddr(10, 9, 3, 3),
		}
		specs := make([]netsim.NodeSpec, len(addrs))
		for i, a := range addrs {
			specs[i] = netsim.NodeSpec{Addr: a, Island: i, Gbps: 100, PropNS: 600}
		}
		topo := netsim.NewStarOn(f, len(addrs), specs, netsim.DropTail(5_000), 11)
		for i := range addrs {
			topo.SetNodeSink(i, func(*wire.Packet) {})
		}
		port := topo.NodePorts[1]
		cap0 := New()
		cap0.TapPort(port, "port1")
		for i := 0; i < 20; i++ {
			for _, src := range []int{0, 2} {
				p := &wire.Packet{Kind: wire.KindTCP, PayloadLen: 1460}
				p.IP.Src, p.IP.Dst = addrs[src], addrs[1]
				p.TCP.Seq = seqnum.Value(100*src + i)
				topo.NodeTX(src)(p)
			}
		}
		f.Run(50_000)

		var buf bytes.Buffer
		if err := cap0.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		frames, err := ReadFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		drops := 0
		for _, fr := range frames {
			if fr.Comment == "drop=tail" {
				drops++
			}
		}
		if port.TailDrops == 0 || int64(drops) != port.TailDrops {
			t.Fatalf("%d drop=tail comments in %d frames, port counted %d tail drops", drops, len(frames), port.TailDrops)
		}
		return fmt.Sprintf("frames=%d drops=%d pcap=%x", len(frames), drops, sha256.Sum256(buf.Bytes()))
	})
}

// TestTsharkInterop cross-checks the capture with tshark when it is
// installed (it usually is not in CI; the golden fixture and the
// package reader are the gating checks).
func TestTsharkInterop(t *testing.T) {
	tsharkPath, err := exec.LookPath("tshark")
	if err != nil {
		t.Skip("tshark not installed; skipping interop cross-check")
	}
	cap0 := echoCapture(t, netsim.Faults{})
	dir := t.TempDir()
	path := filepath.Join(dir, "echo.pcapng")
	if err := cap0.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	out, err := exec.Command(tsharkPath, "-r", path, "-T", "fields", "-e", "frame.number").Output()
	if err != nil {
		t.Fatalf("tshark failed to read the capture: %v", err)
	}
	lines := bytes.Count(bytes.TrimSpace(out), []byte("\n")) + 1
	if lines != cap0.Frames() {
		t.Fatalf("tshark saw %d frames, capture recorded %d", lines, cap0.Frames())
	}
}

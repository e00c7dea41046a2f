package netapi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"f4t/internal/core"
	"f4t/internal/engine"
	"f4t/internal/netsim"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

var (
	addrA = wire.MakeAddr(10, 0, 0, 1)
	addrB = wire.MakeAddr(10, 0, 0, 2)
	macA  = wire.MAC{2, 0, 0, 0, 0, 1}
	macB  = wire.MAC{2, 0, 0, 0, 0, 2}
)

// testOptions: the differential tests assert bit-identical digests.
func testOptions() Options { return DifferentialOptions(0) }

// engRig is two engine-backed facades over one link, island 0/1.
type engRig struct {
	r          sim.Runner
	stA, stB   *Stack
	link       *netsim.Link
	engA, engB *engine.Engine
}

// testLink is the two-node network both rigs sit on, island 0/1.
func testLink(f sim.Fabric, seed uint64) *netsim.Link {
	return netsim.NewNodeLinkOn(f,
		netsim.NodeSpec{Addr: addrA, MAC: macA, Island: 0, Gbps: 100, PropNS: 600},
		netsim.NodeSpec{Addr: addrB, MAC: macB, Island: 1, Gbps: 100, PropNS: 600}, seed)
}

// newEngRig builds two engines without machines — the facade owns the
// channels.
func newEngRig(f sim.Fabric, opt Options) *engRig {
	link := testLink(f, 1234)
	rig := core.Build(f, link, func(i int) engine.Config {
		cfg := engine.DefaultConfig()
		cfg.Channels, cfg.CarryBytes, cfg.Seed = 1, true, uint64(101*(i+1))
		return cfg
	}, nil)
	engA, engB := rig.Engines[0], rig.Engines[1]
	optA := opt
	optA.LocalIP = addrA
	optB := opt
	optB.LocalIP = addrB
	stA := NewEngineStack(f, 0, engA, 0, optA)
	stB := NewEngineStack(f, 1, engB, 0, optB)
	return &engRig{r: f, stA: stA, stB: stB, link: link, engA: engA, engB: engB}
}

func (r *engRig) teardown() {
	r.stA.Shutdown()
	r.stB.Shutdown()
	r.stA.Wait()
	r.stB.Wait()
}

// hostRig is two soft-host facades (stack.Endpoint substrate).
type hostRig struct {
	r        sim.Runner
	stA, stB *HostStack
}

func newHostRig(f sim.Fabric, opt Options) *hostRig {
	link := testLink(f, 77)
	soA := stack.Options{IP: addrA, MAC: macA, Cfg: tcpproc.DefaultConfig(), Alg: "newreno", Seed: 11}
	soB := stack.Options{IP: addrB, MAC: macB, Cfg: tcpproc.DefaultConfig(), Alg: "newreno", Seed: 22}
	a := NewHostStack(f, 0, soA, opt)
	b := NewHostStack(f, 1, soB, opt)
	core.AttachSoft(link, 0, a)
	core.AttachSoft(link, 1, b)
	return &hostRig{r: f, stA: a, stB: b}
}

func (r *hostRig) teardown() {
	r.stA.Shutdown()
	r.stB.Shutdown()
	r.stA.Wait()
	r.stB.Wait()
}

// runUntil drives the fabric on a coarse observation grid until the
// flag is set (the settled workloads advance only at pump settles, so
// fine-grained stepping buys nothing).
func runUntil(t *testing.T, r sim.Runner, done *atomic.Bool, budget int64, what string) {
	t.Helper()
	end := r.Now() + budget
	for !done.Load() {
		if r.Now() >= end {
			t.Fatalf("timed out waiting for %s after %d cycles", what, budget)
		}
		r.Run(20_000)
	}
}

// payload is a deterministic test pattern.
func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

// echoServer accepts conns and echoes each until EOF, on tracked
// goroutines.
func echoServer(st *Stack, ln net.Listener) {
	st.Go(func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			st.Go(func() {
				io.Copy(c, c)
				c.Close()
			})
		}
	})
}

func TestEngineEchoRoundTrip(t *testing.T) {
	rig := newEngRig(sim.New(), testOptions())
	defer rig.teardown()

	var done atomic.Bool
	var clientErr error
	var got []byte
	msg := payload(8000, 3)

	rig.stB.Go(func() {
		ln, err := rig.stB.Listen(80)
		if err != nil {
			clientErr = fmt.Errorf("listen: %w", err)
			done.Store(true)
			return
		}
		echoServer(rig.stB, ln)
	})
	rig.stA.Go(func() {
		defer done.Store(true)
		c, err := rig.stA.Dial("tcp", "10.0.0.2:80")
		if err != nil {
			clientErr = fmt.Errorf("dial: %w", err)
			return
		}
		if _, err := c.Write(msg); err != nil {
			clientErr = fmt.Errorf("write: %w", err)
			return
		}
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(c, buf); err != nil {
			clientErr = fmt.Errorf("read: %w", err)
			return
		}
		got = buf
		c.Close()
	})

	rig.stB.Settle()
	rig.stA.Settle()
	runUntil(t, rig.r, &done, 50_000_000, "echo round trip")
	if clientErr != nil {
		t.Fatal(clientErr)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo corrupted: got %d bytes, want %d", len(got), len(msg))
	}
	// Sanity: the conns carried addresses.
	if la := rig.stA.opt.LocalIP; la != addrA {
		t.Fatalf("local IP = %v", la)
	}
}

func TestHostEchoRoundTrip(t *testing.T) {
	rig := newHostRig(sim.New(), testOptions())
	defer rig.teardown()

	var done atomic.Bool
	var clientErr error
	var got []byte
	msg := payload(5000, 9)

	rig.stB.Go(func() {
		ln, err := rig.stB.Listen(80)
		if err != nil {
			clientErr = fmt.Errorf("listen: %w", err)
			done.Store(true)
			return
		}
		echoServer(rig.stB.Stack, ln)
	})
	rig.stA.Go(func() {
		defer done.Store(true)
		c, err := rig.stA.Dial("tcp", "10.0.0.2:80")
		if err != nil {
			clientErr = fmt.Errorf("dial: %w", err)
			return
		}
		if _, err := c.Write(msg); err != nil {
			clientErr = fmt.Errorf("write: %w", err)
			return
		}
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(c, buf); err != nil {
			clientErr = fmt.Errorf("read: %w", err)
			return
		}
		got = buf
		c.Close()
	})

	rig.stB.Settle()
	rig.stA.Settle()
	runUntil(t, rig.r, &done, 50_000_000, "host echo round trip")
	if clientErr != nil {
		t.Fatal(clientErr)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo corrupted: got %d bytes, want %d", len(got), len(msg))
	}
}

// TestNetHTTPRoundTrip runs an UNMODIFIED net/http server and client
// over the simulated network — the facade's headline acceptance test.
func TestNetHTTPRoundTrip(t *testing.T) {
	rig := newEngRig(sim.New(), testOptions())
	defer rig.teardown()

	body := payload(4096, 7)
	mux := http.NewServeMux()
	mux.HandleFunc("/data", func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	})

	var done atomic.Bool
	var clientErr error
	var got []byte

	rig.stB.Go(func() {
		ln, err := rig.stB.Listen(80)
		if err != nil {
			clientErr = fmt.Errorf("listen: %w", err)
			done.Store(true)
			return
		}
		http.Serve(ln, mux)
	})
	rig.stA.Go(func() {
		defer done.Store(true)
		client := &http.Client{Transport: &http.Transport{DialContext: rig.stA.DialContext}}
		resp, err := client.Get("http://10.0.0.2:80/data")
		if err != nil {
			clientErr = fmt.Errorf("get: %w", err)
			return
		}
		got, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			clientErr = fmt.Errorf("body: %w", err)
		}
	})

	rig.stB.Settle()
	rig.stA.Settle()
	runUntil(t, rig.r, &done, 80_000_000, "HTTP round trip")
	if clientErr != nil {
		t.Fatal(clientErr)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("HTTP body corrupted: got %d bytes, want %d", len(got), len(body))
	}
}

func TestDialRefused(t *testing.T) {
	rig := newEngRig(sim.New(), testOptions())
	defer rig.teardown()

	var done atomic.Bool
	var dialErr error
	rig.stA.Go(func() {
		defer done.Store(true)
		_, dialErr = rig.stA.Dial("tcp", "10.0.0.2:9999") // nobody listens
	})
	rig.stA.Settle()
	runUntil(t, rig.r, &done, 50_000_000, "dial refusal")
	if dialErr == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	var opErr *net.OpError
	if !errors.As(dialErr, &opErr) {
		t.Fatalf("dial error = %v (%T), want *net.OpError", dialErr, dialErr)
	}
}

func TestReadDeadline(t *testing.T) {
	rig := newEngRig(sim.New(), testOptions())
	defer rig.teardown()

	var done atomic.Bool
	var readErr error
	var isNetErr, isTimeout bool

	rig.stB.Go(func() {
		ln, err := rig.stB.Listen(80)
		if err != nil {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_ = c // hold open, send nothing
	})
	rig.stA.Go(func() {
		defer done.Store(true)
		c, err := rig.stA.Dial("tcp", "10.0.0.2:80")
		if err != nil {
			readErr = err
			return
		}
		c.SetReadDeadline(time.Now().Add(-time.Second))
		_, readErr = c.Read(make([]byte, 16))
		var ne net.Error
		if errors.As(readErr, &ne) {
			isNetErr = true
			isTimeout = ne.Timeout()
		}
	})

	rig.stB.Settle()
	rig.stA.Settle()
	runUntil(t, rig.r, &done, 50_000_000, "deadline read")
	if !errors.Is(readErr, os.ErrDeadlineExceeded) {
		t.Fatalf("read error = %v, want os.ErrDeadlineExceeded", readErr)
	}
	if !isNetErr || !isTimeout {
		t.Fatalf("deadline error is not a net.Error timeout (netErr=%v timeout=%v)", isNetErr, isTimeout)
	}
}

// TestDeadlineUnblocksParkedRead covers net/http's abortPendingRead
// idiom: a Read parks first, then another goroutine moves the deadline
// into the past and the parked Read must fail.
func TestDeadlineUnblocksParkedRead(t *testing.T) {
	rig := newEngRig(sim.New(), testOptions())
	defer rig.teardown()

	var done atomic.Bool
	var readErr error
	dialed := make(chan net.Conn, 1)

	rig.stB.Go(func() {
		ln, err := rig.stB.Listen(80)
		if err != nil {
			return
		}
		ln.Accept()
	})
	rig.stA.Go(func() {
		defer done.Store(true)
		c, err := rig.stA.Dial("tcp", "10.0.0.2:80")
		if err != nil {
			readErr = err
			return
		}
		dialed <- c
		_, readErr = c.Read(make([]byte, 16)) // parks: peer sends nothing
	})
	rig.stA.Go(func() {
		c := <-dialed
		// Let the Read park (at least one settle), then abort it.
		time.Sleep(2 * time.Millisecond)
		c.SetReadDeadline(time.Now().Add(-time.Hour))
	})

	rig.stB.Settle()
	rig.stA.Settle()
	runUntil(t, rig.r, &done, 200_000_000, "aborted read")
	if !errors.Is(readErr, os.ErrDeadlineExceeded) {
		t.Fatalf("read error = %v, want os.ErrDeadlineExceeded", readErr)
	}
}

func TestCloseUnblocksRead(t *testing.T) {
	rig := newEngRig(sim.New(), testOptions())
	defer rig.teardown()

	var done atomic.Bool
	var readErr error
	dialed := make(chan net.Conn, 1)

	rig.stB.Go(func() {
		ln, err := rig.stB.Listen(80)
		if err != nil {
			return
		}
		ln.Accept()
	})
	rig.stA.Go(func() {
		defer done.Store(true)
		c, err := rig.stA.Dial("tcp", "10.0.0.2:80")
		if err != nil {
			readErr = err
			return
		}
		dialed <- c
		_, readErr = c.Read(make([]byte, 16))
	})
	rig.stA.Go(func() {
		c := <-dialed
		time.Sleep(2 * time.Millisecond)
		c.Close()
	})

	rig.stB.Settle()
	rig.stA.Settle()
	runUntil(t, rig.r, &done, 200_000_000, "close-aborted read")
	if !errors.Is(readErr, net.ErrClosed) {
		t.Fatalf("read error = %v, want net.ErrClosed", readErr)
	}
}

// echoDigest runs a fixed multi-connection echo workload on the given
// fabric and digests the run's simulation-side state at a fixed end
// cycle. Identical digests across fabrics are the facade's determinism
// acceptance criterion.
func echoDigest(t *testing.T, f sim.Fabric) string {
	t.Helper()
	const endCycle = 3_000_000
	rig := newEngRig(f, testOptions())
	defer rig.teardown()

	var done atomic.Bool
	var clientErr error
	sum := sha256.New()

	rig.stB.Go(func() {
		ln, err := rig.stB.Listen(80)
		if err != nil {
			clientErr = err
			done.Store(true)
			return
		}
		echoServer(rig.stB, ln)
	})
	rig.stA.Go(func() {
		defer done.Store(true)
		for i := 0; i < 3; i++ {
			c, err := rig.stA.Dial("tcp", "10.0.0.2:80")
			if err != nil {
				clientErr = fmt.Errorf("dial %d: %w", i, err)
				return
			}
			msg := payload(2000*(i+1), byte(i))
			if _, err := c.Write(msg); err != nil {
				clientErr = fmt.Errorf("write %d: %w", i, err)
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				clientErr = fmt.Errorf("read %d: %w", i, err)
				return
			}
			sum.Write(buf)
			c.Close()
		}
	})

	rig.stB.Settle()
	rig.stA.Settle()
	runUntil(t, rig.r, &done, endCycle, "echo workload")
	if clientErr != nil {
		t.Fatal(clientErr)
	}
	// Normalize every fabric to the same end cycle so the digest
	// compares like with like.
	if rem := endCycle - rig.r.Now(); rem > 0 {
		rig.r.Run(rem)
	}
	return fmt.Sprintf("end=%d ab=%d/%dB ba=%d/%dB drops=%d/%d sha=%s",
		rig.r.Now(),
		rig.link.AtoB.SentPkts, rig.link.AtoB.SentBytes,
		rig.link.BtoA.SentPkts, rig.link.BtoA.SentBytes,
		rig.link.AtoB.DroppedPkts, rig.link.BtoA.DroppedPkts,
		hex.EncodeToString(sum.Sum(nil)))
}

// TestEchoDifferential asserts bit-identical execution of the same
// facade workload on every fabric.
func TestEchoDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery is not short")
	}
	simtest.FabricMatrix(t, func(f sim.Fabric) string { return echoDigest(t, f) })
}

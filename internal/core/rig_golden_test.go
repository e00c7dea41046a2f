package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"f4t/internal/conformance"
	"f4t/internal/exp"
	"f4t/internal/netsim"
	"f4t/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/rig_digests.golden")

// The fabric-differential batteries compare a rig against itself on
// another fabric; nothing there notices a builder change that shifts
// every fabric the same way (a seed, a registration slot, a
// construction-order swap). These goldens pin one serial-kernel
// signature per rig family against the committed file, so a rig-builder
// refactor has to reproduce the previous commit's runs bit for bit.
// Floats are folded through math.Float64bits: close is not equal.

const (
	goldenWarmup  = 50_000
	goldenMeasure = 150_000
)

func bits(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }

func bitsAll(vs []float64) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = bits(v)
	}
	return strings.Join(out, ",")
}

// fileSum hashes a link capture. It makes a signature packet-exact:
// every frame's bytes (ISNs included) and timestamp, both directions.
func fileSum(t *testing.T, path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

var rigGoldens = []struct {
	name string
	run  func(t *testing.T) string
}{
	{"pair-f4t", func(*testing.T) string {
		r := exp.TransferPointOn(sim.New(), "f4t", false, 128, 2, nil)
		return fmt.Sprintf("gbps=%s mrps=%s", bits(r.GoodputGbps), bits(r.Mrps))
	}},
	{"pair-linux", func(*testing.T) string {
		r := exp.TransferPointOn(sim.New(), "linux", true, 128, 2, nil)
		return fmt.Sprintf("gbps=%s mrps=%s", bits(r.GoodputGbps), bits(r.Mrps))
	}},
	{"incast", func(*testing.T) string {
		r := exp.IncastPointOn(sim.New(), 4, netsim.RED(0, true), "dctcp", 1, nil, goldenWarmup, goldenMeasure)
		return fmt.Sprintf("gbps=%s port=%+v", bits(r.GoodputGbps), r.Port)
	}},
	{"fanio", func(*testing.T) string {
		r := exp.FanioPointOn(sim.New(), 3, netsim.CoDel(0, true), "dctcp", 8_192, nil, goldenWarmup, goldenMeasure)
		return fmt.Sprintf("rps=%s p50=%d p99=%d port=%+v", bits(r.RoundsPerSec), r.P50NS, r.P99NS, r.Port)
	}},
	{"mixed", func(*testing.T) string {
		r := exp.MixedPointOn(sim.New(), netsim.ECNThreshold(netsim.DefaultCoDelTargetNS, 0), "dctcp", nil, goldenWarmup, goldenMeasure)
		return fmt.Sprintf("bulk=%s p50=%d p99=%d port=%+v", bits(r.BulkGbps), r.EchoP50, r.EchoP99, r.Port)
	}},
	{"wan", func(*testing.T) string {
		r := exp.WANPointOn(sim.New(), exp.DefaultWANSenders(), netsim.DropTail(0), "cubic", nil, goldenWarmup, goldenMeasure)
		return fmt.Sprintf("jain=%s senders=%s port=%+v", bits(r.Jain), bitsAll(r.SenderGbps), r.Port)
	}},
	{"fairness", func(*testing.T) string {
		r := exp.FairnessPointOn(sim.New(), []string{"bbr", "cubic", "dctcp"}, netsim.CoDel(0, true), 1, nil, goldenWarmup, goldenMeasure)
		return fmt.Sprintf("jain=%s senders=%s trunk=%+v", bits(r.Jain), bitsAll(r.SenderGbps), r.Trunk)
	}},
	{"httpload", func(t *testing.T) string {
		// No capture hash on the two facade rigs: real goroutines decide
		// the exact cycle an op is picked up (and net/http stamps a
		// wall-clock Date), so only the digest is reproducible.
		r, err := exp.HTTPLoadOn(sim.New(), exp.HTTPLoadConfig{Requests: 3, BodyLen: 8192, EndCycle: 80_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return r.Digest
	}},
	{"conformance-soft-soft", conformanceSig(conformance.RigSoftSoft)},
	{"conformance-engine-soft", conformanceSig(conformance.RigEngineSoft)},
	{"conformance-engine-engine", conformanceSig(conformance.RigEngineEngine)},
	{"conformance-engine-engine-routed", conformanceSig(conformance.RigEngineEngineRouted)},
	{"conformance-facade", func(t *testing.T) string {
		r := conformance.RunFacade(conformance.FacadeConfig{Seed: 2, Conns: 2, Bytes: 6_000})
		for _, v := range r.Violations {
			t.Errorf("facade violation: %s", v)
		}
		return r.Digest
	}},
}

func conformanceSig(kind conformance.RigKind) func(*testing.T) string {
	return func(t *testing.T) string {
		// Seed 6's schedule includes a forged-RST storm.
		pcapPath := filepath.Join(t.TempDir(), "chaos.pcapng")
		r := conformance.Run(conformance.Config{Rig: kind, Seed: 6, Phases: 4, Conns: 3, Chunk: 2048, PCAPPath: pcapPath})
		for _, v := range r.Violations {
			t.Errorf("%s violation: %+v", kind, v)
		}
		return fmt.Sprintf("end=%d drained=%v forged=%d oow=%d pcap=%s",
			r.EndCycle, r.Drained, r.ForgedRSTs, r.OowRstDrops, fileSum(t, pcapPath))
	}
}

// TestRigGoldens runs every rig family once and compares the result
// with the committed file. Run with -update only when a change is meant
// to alter a rig's behaviour, and say so in the commit.
func TestRigGoldens(t *testing.T) {
	path := filepath.Join("testdata", "rig_digests.golden")
	if *update {
		var b strings.Builder
		for _, g := range rigGoldens {
			fmt.Fprintf(&b, "%s: %s\n", g.name, g.run(t))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(rigGoldens) {
		t.Fatalf("%s has %d lines, the table has %d rigs", path, len(want), len(rigGoldens))
	}
	for i, g := range rigGoldens {
		if got := g.name + ": " + g.run(t); got != want[i] {
			t.Errorf("rig digest changed:\n got %s\nwant %s", got, want[i])
		}
	}
}

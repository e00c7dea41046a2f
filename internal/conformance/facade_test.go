package conformance

import (
	"path/filepath"
	"testing"

	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// TestFacadeSmoke is the default facade shape: concurrent net.Conn echo
// streams, byte-verified, under deterministic loss.
func TestFacadeSmoke(t *testing.T) {
	cfg := FacadeConfig{Seed: 1, Conns: 2, Bytes: 8_000}
	res := RunFacade(cfg)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Logf("replay: %s", FacadeReplayCommand(cfg))
	}
}

// TestFacadePCAP checks the -pcap plumbing: the facade run emits a
// non-empty capture file.
func TestFacadePCAP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facade.pcapng")
	cfg := FacadeConfig{Seed: 3, Conns: 1, Bytes: 4_000, PCAPPath: path}
	res := RunFacade(cfg)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Frames == 0 {
		t.Error("capture recorded no frames")
	}
}

// TestFacadeShardMatrix holds the facade to the repo's determinism bar:
// the same config produces a bit-identical digest on every fabric —
// with real goroutines blocking in net.Conn calls throughout.
func TestFacadeShardMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("shard matrix skipped in -short")
	}
	cfg := FacadeConfig{Seed: 2, Conns: 2, Bytes: 6_000}
	simtest.FabricMatrix(t, func(f sim.Fabric) string {
		res := RunFacadeOn(f, cfg)
		for _, v := range res.Violations {
			t.Fatalf("violation: %s\nreplay: %s", v, FacadeReplayCommand(cfg))
		}
		return res.Digest
	})
}

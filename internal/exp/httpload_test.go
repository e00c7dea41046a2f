package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"f4t/internal/pcap"
	"f4t/internal/sim"
	"f4t/internal/sim/simtest"
)

// TestHTTPLoadQuick is the smoke test: a short run completes all
// requests and reports a sane digest.
func TestHTTPLoadQuick(t *testing.T) {
	cfg := HTTPLoadConfig{Requests: 2, BodyLen: 4096, EndCycle: 60_000_000}
	res, err := HTTPLoadOn(sim.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != cfg.Requests {
		t.Fatalf("completed %d of %d requests", res.Requests, cfg.Requests)
	}
	if res.BodyBytes != int64(cfg.Requests*cfg.BodyLen) {
		t.Fatalf("body bytes = %d, want %d", res.BodyBytes, cfg.Requests*cfg.BodyLen)
	}
	if !strings.Contains(res.Digest, "reqs=2") {
		t.Fatalf("digest %q does not carry the request count", res.Digest)
	}
}

// TestHTTPLoadDifferential is the facade's headline acceptance test:
// an UNMODIFIED net/http server/client pair completes its requests with
// a bit-identical simulation digest on every fabric.
func TestHTTPLoadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery skipped in -short")
	}
	cfg := HTTPLoadConfig{Requests: 3, BodyLen: 8192, EndCycle: 80_000_000}
	simtest.FabricMatrix(t, func(f sim.Fabric) string {
		res, err := HTTPLoadOn(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	})
}

// TestHTTPLoadPCAP checks the -pcap plumbing end to end: the run emits
// a capture that the pcap reader parses frame for frame.
func TestHTTPLoadPCAP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "httpload.pcapng")
	cfg := HTTPLoadConfig{Requests: 2, BodyLen: 4096, EndCycle: 60_000_000, PCAPPath: path}
	res, err := HTTPLoadOn(sim.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("capture recorded no frames")
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	frames, err := pcap.ReadFile(fh)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != res.Frames {
		t.Fatalf("reader found %d frames, capture recorded %d", len(frames), res.Frames)
	}
}

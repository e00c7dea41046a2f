package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"f4t/internal/core"
	"f4t/internal/engine"
	"f4t/internal/netapi"
	"f4t/internal/pcap"
	"f4t/internal/sim"
	"f4t/internal/telemetry"
)

// HTTPLoadConfig parameterizes the httpload experiment: an UNMODIFIED
// net/http server and client talking across the simulated network
// through the netapi facade, both sides engine-backed.
type HTTPLoadConfig struct {
	Requests int    // sequential GETs the client issues
	BodyLen  int    // response body size per request
	EndCycle int64  // run budget; the digest is normalized to this cycle
	PCAPPath string // when non-empty, write the link capture here
}

// HTTPLoadResult is the outcome of one httpload run.
type HTTPLoadResult struct {
	Requests  int    // requests that completed with a verified body
	BodyBytes int64  // total HTTP payload bytes received
	DoneCycle int64  // cycle at which the client finished (coarse grid)
	EndCycle  int64  // cycle the digest was taken at
	Digest    string // fabric-comparable run fingerprint
	Frames    int    // captured frames (0 when no capture requested)
	Reg       *telemetry.Registry
}

// HTTPLoadOn runs the httpload workload on any fabric. The rig is two
// engines with the facade owning their single channel each (no
// F4TMachine — it would steal the completions the facade polls for).
func HTTPLoadOn(f sim.Fabric, cfg HTTPLoadConfig) (*HTTPLoadResult, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 8
	}
	if cfg.BodyLen <= 0 {
		cfg.BodyLen = 16 << 10
	}
	if cfg.EndCycle <= 0 {
		cfg.EndCycle = 200_000_000
	}

	link := pairLink(f, 1234)

	var capture *pcap.Capture
	if cfg.PCAPPath != "" {
		capture = pcap.New()
		capture.TapLink(link, "link0")
	}

	rig := core.Build(f, link, func(i int) engine.Config {
		ecfg := engine.DefaultConfig()
		ecfg.Channels, ecfg.CarryBytes, ecfg.Seed = 1, true, pairSeeds[i]
		return ecfg
	}, nil)
	engA, engB := rig.Engines[0], rig.Engines[1]

	stA := netapi.NewEngineStack(f, IslandA, engA, 0, netapi.DifferentialOptions(AddrA))
	stB := netapi.NewEngineStack(f, IslandB, engB, 0, netapi.DifferentialOptions(AddrB))
	defer func() {
		stA.Shutdown()
		stB.Shutdown()
		stA.Wait()
		stB.Wait()
	}()

	res := &HTTPLoadResult{Reg: telemetry.NewRegistry()}
	engA.Instrument(res.Reg, "eng_a")
	engB.Instrument(res.Reg, "eng_b")
	link.Instrument(res.Reg, "link")

	var gotReqs, gotBytes atomic.Int64
	res.Reg.Gauge("http.requests", gotReqs.Load)
	res.Reg.Gauge("http.bytes", gotBytes.Load)

	body := make([]byte, cfg.BodyLen)
	for i := range body {
		body[i] = byte(i)*31 + 5
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/data", func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	})

	var done atomic.Bool
	var workErr error
	sum := sha256.New()

	stB.Go(func() {
		ln, err := stB.Listen(80)
		if err != nil {
			workErr = fmt.Errorf("listen: %w", err)
			done.Store(true)
			return
		}
		http.Serve(ln, mux)
	})
	stA.Go(func() {
		defer done.Store(true)
		tr := &http.Transport{DialContext: stA.DialContext}
		client := &http.Client{Transport: tr}
		for i := 0; i < cfg.Requests; i++ {
			resp, err := client.Get("http://10.0.0.2:80/data")
			if err != nil {
				workErr = fmt.Errorf("get %d: %w", i, err)
				return
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				workErr = fmt.Errorf("body %d: %w", i, err)
				return
			}
			if len(got) != len(body) {
				workErr = fmt.Errorf("get %d: body %d bytes, want %d", i, len(got), len(body))
				return
			}
			sum.Write(got)
			gotReqs.Add(1)
			gotBytes.Add(int64(len(got)))
		}
		// Orderly teardown: the idle-close ops chain off the awake
		// client goroutine, so the FIN exchange lands inside settles
		// and the digest stays fabric-independent.
		tr.CloseIdleConnections()
	})

	stB.Settle()
	stA.Settle()
	if !RunUntilCoarse(f, done.Load, 20_000, cfg.EndCycle) {
		return res, fmt.Errorf("httpload: %d of %d requests after %d cycles",
			gotReqs.Load(), cfg.Requests, cfg.EndCycle)
	}
	if workErr != nil {
		return res, workErr
	}
	res.Requests = int(gotReqs.Load())
	res.BodyBytes = gotBytes.Load()
	res.DoneCycle = f.Now()

	// Normalize every fabric to the same end cycle so digests compare
	// like with like (retransmit timers etc. keep ticking after the
	// workload is done).
	if rem := cfg.EndCycle - f.Now(); rem > 0 {
		f.Run(rem)
	}
	res.EndCycle = f.Now()
	res.Digest = fmt.Sprintf("end=%d reqs=%d ab=%d/%dB ba=%d/%dB drops=%d/%d sha=%s",
		res.EndCycle, res.Requests,
		link.AtoB.SentPkts, link.AtoB.SentBytes,
		link.BtoA.SentPkts, link.BtoA.SentBytes,
		link.AtoB.DroppedPkts, link.BtoA.DroppedPkts,
		hex.EncodeToString(sum.Sum(nil)))

	if capture != nil {
		res.Frames = capture.Frames()
		if err := capture.WriteFile(cfg.PCAPPath); err != nil {
			return res, fmt.Errorf("httpload: write pcap: %w", err)
		}
	}
	return res, nil
}

// httpLoadPCAP is the capture destination installed by the f4tbench
// -pcap flag (empty = no capture).
var httpLoadPCAP string

// SetHTTPLoadPCAP routes the next HTTPLoad run's link capture to path.
func SetHTTPLoadPCAP(path string) { httpLoadPCAP = path }

// HTTPLoad runs the httpload experiment on a serial kernel and renders
// the result table (the f4tbench -exp httpload entry).
func HTTPLoad(quick bool) *Table {
	cfg := HTTPLoadConfig{Requests: 12, BodyLen: 64 << 10, EndCycle: 400_000_000, PCAPPath: httpLoadPCAP}
	if quick {
		cfg.Requests, cfg.BodyLen, cfg.EndCycle = 4, 16<<10, 120_000_000
	}
	res, err := HTTPLoadOn(sim.New(), cfg)

	tab := &Table{
		Title:  "httpload: unmodified net/http over the netapi socket facade",
		Header: []string{"metric", "value"},
	}
	if err != nil {
		tab.Err = err
		return tab
	}
	doneNS := res.DoneCycle * sim.CycleNS
	tab.AddRow("requests completed", fmt.Sprintf("%d", res.Requests))
	tab.AddRow("body bytes / request", fmt.Sprintf("%d", cfg.BodyLen))
	tab.AddRow("HTTP payload total", fmt.Sprintf("%d B", res.BodyBytes))
	tab.AddRow("completion time", fmt.Sprintf("%.3f ms (%d cycles)", float64(doneNS)/1e6, res.DoneCycle))
	tab.AddRow("HTTP goodput", fmt.Sprintf("%.2f Gbps", float64(res.BodyBytes*8)/float64(doneNS)))
	for _, s := range res.Reg.Snapshot() {
		switch s.Name {
		case "link.a_to_b.sent_pkts", "link.a_to_b.sent_bytes",
			"link.b_to_a.sent_pkts", "link.b_to_a.sent_bytes",
			"link.a_to_b.dropped_pkts", "link.b_to_a.dropped_pkts":
			tab.AddRow(s.Name, fmt.Sprintf("%d", s.Value))
		}
	}
	tab.AddRow("digest", res.Digest)
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("telemetry: %d metrics registered across engines, link and app", res.Reg.Len()),
		"server and client are stock net/http; only the Transport DialContext and the Listener are facade objects")
	if cfg.PCAPPath != "" {
		tab.Notes = append(tab.Notes, fmt.Sprintf("pcap: %d frames written to %s", res.Frames, cfg.PCAPPath))
	}
	return tab
}

// Command f4tconform runs the deterministic TCP conformance and chaos
// harness from the command line: a seed sweep over one rig pairing (or
// all of them), with automatic failure minimization.
//
// Every run is a pure function of (rig, alg, seed, phases, conns,
// chunk), so the command printed on failure reproduces it exactly:
//
//	go run ./cmd/f4tconform -rig engine-soft -seed 17 -phases 3 -conns 4 -chunk 4096
//
// -alg loads any registered congestion-control program into both
// endpoints (or 'all' to sweep every one); the CC state invariants —
// cwnd floor, ssthresh clamp and sentinel rules, CCVars arena aliasing
// — adapt per program.
//
// CI runs a bounded sweep (-rig all -seeds N) as a smoke test; exit
// status is nonzero iff any seed fails, after shrinking the failure to
// the shortest reproducing schedule prefix.
//
// The extra rig "facade" sweeps the netapi socket facade instead: byte
// exact echo streams verified through the stdlib net.Conn surface, with
// -bytes/-shards shaping the run. -pcap writes any rig's link capture
// for Wireshark forensics, and failure replay commands carry the flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"f4t/internal/cc"
	"f4t/internal/conformance"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run sweeps the rigs the command line names and returns the exit code:
// 2 for a bad flag, rig or algorithm name, 1 when any run fails, 0
// otherwise.
func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("f4tconform", flag.ContinueOnError)
	var (
		rigName = fs.String("rig", "all", "rig pairing: soft-soft, engine-soft, engine-engine, facade, or all")
		seed    = fs.Uint64("seed", 1, "first seed of the sweep")
		seeds   = fs.Int("seeds", 1, "number of consecutive seeds to run")
		phases  = fs.Int("phases", 6, "fault phases per run")
		conns   = fs.Int("conns", 4, "concurrent connections per run")
		chunk   = fs.Int("chunk", 4096, "application write size in bytes")
		algName = fs.String("alg", "newreno", "congestion-control program both endpoints run ("+strings.Join(cc.Names(), ", ")+"), or 'all' to sweep every registered one")
		bytes   = fs.Int("bytes", 20000, "facade rig: payload bytes per connection")
		shards  = fs.Int("shards", 0, "facade rig: run on a sharded fabric with this many shards")
		pcap    = fs.String("pcap", "", "write the run's link capture to this pcapng file")
		verbose = fs.Bool("v", false, "print per-run schedules and stats")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	algs := []string{*algName}
	if *algName == "all" {
		algs = cc.Names()
	} else if _, err := cc.New(*algName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	failures := 0
	rigs := conformance.AllRigs
	// The facade rig verifies the netapi net.Conn surface instead of the
	// raw socket API; it has its own sweep (no phase schedule).
	if *rigName == "facade" {
		rigs = nil
		for s := *seed; s < *seed+uint64(*seeds); s++ {
			cfg := conformance.FacadeConfig{
				Seed: s, Conns: *conns, Bytes: *bytes,
				Shards: *shards, PCAPPath: *pcap,
			}
			res := conformance.RunFacade(cfg)
			if !res.Failed() {
				fmt.Fprintf(w, "%-13s seed=%-6d PASS (%d conns x %d B, end cycle %d)\n",
					"facade", s, *conns, *bytes, res.EndCycle)
				continue
			}
			failures++
			fmt.Fprintf(w, "%-13s seed=%-6d FAIL (%d violations)\n", "facade", s, len(res.Violations))
			for _, v := range res.Violations {
				fmt.Fprintf(w, "  %s\n", v)
			}
			fmt.Fprintf(w, "  replay: %s\n", conformance.FacadeReplayCommand(cfg))
		}
	} else if *rigName != "all" {
		r, err := conformance.ParseRig(*rigName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		rigs = []conformance.RigKind{r}
	}

	for _, rig := range rigs {
		for _, alg := range algs {
			for s := *seed; s < *seed+uint64(*seeds); s++ {
				cfg := conformance.Config{
					Rig: rig, Seed: s, Phases: *phases, Conns: *conns, Chunk: *chunk,
					Alg: alg, PCAPPath: *pcap,
				}
				res := conformance.Run(cfg)
				if *verbose {
					fmt.Fprintf(w, "%-13s %s: forged=%d dropped=%d end=%dcyc\n",
						rig, res.Sched, res.ForgedRSTs, res.OowRstDrops, res.EndCycle)
				}
				if !res.Failed() {
					fmt.Fprintf(w, "%-13s %-8s seed=%-6d PASS (%d phases, drained at cycle %d)\n",
						rig, alg, s, *phases, res.EndCycle)
					continue
				}
				failures++
				report(w, cfg, res)
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "\n%d run(s) FAILED\n", failures)
		return 1
	}
	return 0
}

// report prints a failure and shrinks it to the shortest schedule prefix
// that still reproduces, then prints the exact replay command.
func report(w io.Writer, cfg conformance.Config, res conformance.Result) {
	fmt.Fprintf(w, "%-13s %-8s seed=%-6d FAIL (%d violations)\n", cfg.Rig, cfg.Alg, cfg.Seed, len(res.Violations))

	min, minRes, ok := conformance.Minimize(cfg, conformance.Run)
	if !ok {
		// Shouldn't happen for a deterministic harness, but never hide
		// the original failure behind a minimizer bug.
		fmt.Fprintln(w, "  (failure did not reproduce under minimization; original run:)")
		min, minRes = cfg, res
	} else if min.Phases < cfg.Phases {
		fmt.Fprintf(w, "  minimized: %d phases -> %d\n", cfg.Phases, min.Phases)
	}

	fmt.Fprintf(w, "  schedule: %s\n", minRes.Sched)
	for _, v := range minRes.Violations {
		fmt.Fprintf(w, "  %s\n", v.String())
	}
	fmt.Fprintf(w, "  replay: %s\n", conformance.ReplayCommand(min))
}

// f4tperf is the iPerf of the simulated testbed: run one data-transfer
// workload on either stack and print its goodput and request rate.
//
// Usage:
//
//	f4tperf -stack f4t -pattern bulk -size 128 -cores 2
//	f4tperf -stack linux -pattern rr -size 64 -cores 8
//	f4tperf -stack f4t -pattern echo -flows 4096
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"f4t/internal/exp"
)

const usage = "usage: f4tperf [-stack f4t|linux] [-pattern bulk|rr|echo] [-size N] [-cores N] [-flows N]"

func main() {
	stack := flag.String("stack", "f4t", "stack under test: f4t or linux (echo also takes f4t-ddr, f4t-hbm)")
	pattern := flag.String("pattern", "bulk", "workload: bulk, rr (round-robin), echo")
	size := flag.Int("size", 128, "request size in bytes")
	cores := flag.Int("cores", 2, "sender CPU cores")
	flows := flag.Int("flows", 1024, "concurrent flows (echo pattern)")
	flag.Parse()

	// Fail fast on a mistyped name instead of panicking inside the rig
	// builder.
	kind, err := stackKind(*pattern, *stack)
	if err != nil {
		fmt.Fprintf(os.Stderr, "f4tperf: %v\n%s\n", err, usage)
		os.Exit(2)
	}

	if *pattern == "echo" {
		mrps, frac := exp.EchoPoint(kind, *flows)
		fmt.Printf("%s echo: %d flows (%.0f%% established) -> %.2f Mrps round trips\n",
			kind, *flows, frac*100, mrps)
		return
	}
	res := exp.TransferPoint(kind, *pattern == "rr", *size, *cores, nil)
	fmt.Printf("%s %s: %d B requests, %d cores -> %.1f Gbps goodput, %.1f Mrps\n",
		kind, *pattern, *size, *cores, res.GoodputGbps, res.Mrps)
}

// stackKind checks -stack against what the pattern's rig builder accepts
// and returns the builder's name for it (echo's plain "f4t" is the HBM
// engine).
func stackKind(pattern, stack string) (string, error) {
	accepts := map[string][]string{
		"bulk": {"f4t", "linux"},
		"rr":   {"f4t", "linux"},
		"echo": {"f4t", "f4t-ddr", "f4t-hbm", "linux"},
	}
	valid, ok := accepts[pattern]
	if !ok {
		return "", fmt.Errorf("unknown pattern %q (bulk, rr, echo)", pattern)
	}
	if !slices.Contains(valid, stack) {
		return "", fmt.Errorf("unknown stack %q for -pattern %s %v", stack, pattern, valid)
	}
	if pattern == "echo" && stack == "f4t" {
		return "f4t-hbm", nil
	}
	return stack, nil
}

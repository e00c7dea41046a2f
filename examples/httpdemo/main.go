// Httpdemo runs an UNMODIFIED net/http server and client over the
// simulated network: two software-stack hosts attached to a two-router
// dumbbell, with the netapi facade translating blocking net.Conn calls
// into the simulator's cooperative scheduling. Nothing in the HTTP
// layer knows it is not talking to a real network.
//
//	go run ./examples/httpdemo            # three GETs over the dumbbell
//	go run ./examples/httpdemo -pcap d.pcapng   # plus a Wireshark capture
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"f4t/internal/core"
	"f4t/internal/netapi"
	"f4t/internal/netsim"
	"f4t/internal/pcap"
	"f4t/internal/sim"
	"f4t/internal/stack"
	"f4t/internal/tcpproc"
	"f4t/internal/wire"
)

func main() {
	pcapPath := flag.String("pcap", "", "write the access-link capture to this pcapng file")
	flag.Parse()

	// One serial kernel; hosts on islands 0/1, routers on 2/3 (island
	// numbers only matter when the same rig runs sharded).
	k := sim.New()
	ipA, ipB := wire.MakeAddr(10, 1, 0, 1), wire.MakeAddr(10, 1, 0, 2)
	macA, macB := wire.MAC{2, 1, 0, 0, 0, 1}, wire.MAC{2, 1, 0, 0, 0, 2}
	topo := netsim.NewDumbbellOn(k, [2]int{2, 3}, 100, 2_000, []netsim.NodeSpec{
		{Addr: ipA, MAC: macA, Island: 0, RouterIdx: 0, Gbps: 100, PropNS: 600},
		{Addr: ipB, MAC: macB, Island: 1, RouterIdx: 1, Gbps: 100, PropNS: 600},
	}, netsim.DropTail(0), 7)

	var capture *pcap.Capture
	if *pcapPath != "" {
		capture = pcap.New()
		capture.TapPipe(topo.Uplinks[0], "a.uplink")
		capture.TapPipe(topo.Uplinks[1], "b.uplink")
	}

	// Two soft hosts behind the facade. NewHostStack owns the endpoint's
	// tick; core.AttachSoft wires the topology's TX/RX around it.
	mk := func(node int, seed uint64) *netapi.HostStack {
		spec := topo.Node(node)
		st := netapi.NewHostStack(k, spec.Island, stack.Options{
			IP: spec.Addr, MAC: spec.MAC, Cfg: tcpproc.DefaultConfig(), Alg: "newreno", Seed: seed,
		}, netapi.Options{})
		core.AttachSoft(topo, node, st)
		return st
	}
	hostA := mk(0, 11)
	hostB := mk(1, 22)

	// Server: stock net/http on host B.
	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello from a simulated host at t=%d ns\n", hostB.NowNS())
	})
	hostB.Go(func() {
		ln, err := hostB.Listen(80)
		if err != nil {
			panic(err)
		}
		http.Serve(ln, mux)
	})

	// Client: stock net/http on host A; only the dialer is ours.
	var done atomic.Bool
	hostA.Go(func() {
		defer done.Store(true)
		client := &http.Client{Transport: &http.Transport{DialContext: hostA.DialContext}}
		for i := 0; i < 3; i++ {
			resp, err := client.Get("http://10.1.0.2:80/hello")
			if err != nil {
				fmt.Println("GET failed:", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			fmt.Printf("GET %d at t=%-8d ns: %s", i+1, hostA.NowNS(), body)
		}
	})

	hostB.Settle()
	hostA.Settle()
	for !done.Load() && k.Now() < 100_000_000 {
		k.Run(20_000)
	}
	fmt.Printf("done after %.3f ms simulated\n", float64(k.NowNS())/1e6)

	if capture != nil {
		if err := capture.WriteFile(*pcapPath); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %d frames to %s\n", capture.Frames(), *pcapPath)
	}
	hostA.Shutdown()
	hostB.Shutdown()
	hostA.Wait()
	hostB.Wait()
}

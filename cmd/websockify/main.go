// websockify bridges incoming WebSocket connections to a plain TCP
// server, as the kanaka/websockify program the paper uses (§5.3).
//
//	websockify -listen :8081 -target 127.0.0.1:7000
//
// With -metrics, SIGINT/SIGTERM print a telemetry snapshot (connection
// count, frames and bytes in each direction, handshake latency) before
// shutting down.
//
// With -fault-rate, the proxy deterministically injects faults at the
// given per-frame rate — a chaos mode for exercising clients against a
// flaky bridge. Plain connections see frame drops, resets and
// truncations; on a mux session every fault on a DATA frame resets the
// connection, which ends the session and fails its streams with
// ECONNRESET.
//
// With -ops, a live ops server exposes /metrics (Prometheus text),
// /debug/flight (recent connections, frames, and injected faults), and
// net/http/pprof while the bridge runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"doppio/internal/ops"
	"doppio/internal/sockets"
	"doppio/internal/telemetry"
	"doppio/internal/vfs/faultfs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8081", "WebSocket listen address")
	target := flag.String("target", "", "TCP target address (host:port)")
	metrics := flag.Bool("metrics", false, "print a telemetry metrics snapshot on shutdown")
	faultRate := flag.Float64("fault-rate", 0, "per-frame fault injection rate (0 disables): plain connections see drops and resets at this rate and truncations at half of it; on mux sessions each faulted DATA frame resets the connection and ends the session")
	faultSeed := flag.Int64("fault-seed", 42, "seed for the -fault-rate fault sequence")
	opsAddr := flag.String("ops", "", "serve the live ops endpoints (/metrics, /debug/sock, /debug/flight, pprof, ...) on this address, e.g. :6060")
	flightCap := flag.Int("flight", 0, "enable the flight recorder (connection/frame/fault events) with this event capacity (0 disables; -ops enables it at the default capacity)")
	window := flag.Int("window", 0, "per-stream flow-control window in bytes for mux sessions (0 = 64 KiB default)")
	maxStreams := flag.Int("max-streams", 0, "per-session stream cap for mux sessions; SYNs beyond it are shed (0 = 1024 default)")
	shedDepth := flag.Int("shed-depth", 0, "pause credit and shed new streams while live mux streams exceed this count (0 disables)")
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "usage: websockify -listen addr -target host:port")
		os.Exit(2)
	}
	var hub *telemetry.Hub
	if *metrics || *opsAddr != "" || *flightCap > 0 {
		hub = telemetry.NewHub()
		if *flightCap > 0 {
			hub.EnableFlight(*flightCap)
		} else if *opsAddr != "" {
			hub.EnableFlight(telemetry.DefaultFlightCapacity)
		}
	}
	opts := sockets.GatewayOptions{
		Window:     *window,
		MaxStreams: *maxStreams,
		Hub:        hub,
	}
	// Standalone the gateway has no tenant run queue to watch, so the
	// overload signal is its own live stream count. The sweep starts
	// inside NewGateway, hence the atomic self-reference.
	var gw atomic.Pointer[sockets.Websockify]
	if *shedDepth > 0 {
		opts.ShedDepth = *shedDepth
		opts.QueueDepth = func() int {
			if p := gw.Load(); p != nil {
				return p.LiveStreams()
			}
			return 0
		}
	}
	proxy, err := sockets.NewGateway(*listen, *target, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "websockify:", err)
		os.Exit(1)
	}
	gw.Store(proxy)
	if *opsAddr != "" {
		srv := ops.NewServer(hub)
		srv.RegisterGateway(proxy)
		addr, err := srv.Serve(*opsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "websockify:", err)
			os.Exit(1)
		}
		fmt.Printf("websockify: ops server on http://%s\n", addr)
	}
	if *faultRate > 0 {
		proxy.SetFaults(faultfs.Plan{
			Seed:      *faultSeed,
			ErrRate:   *faultRate,
			PostFrac:  0.5, // half the errno faults reset the bridge
			ShortRate: *faultRate / 2,
		})
		fmt.Printf("websockify: injecting faults at %.0f%% per frame (seed %d)\n", *faultRate*100, *faultSeed)
	}
	fmt.Printf("websockify: %s -> %s\n", proxy.Addr(), *target)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	s := <-ch
	fmt.Fprintf(os.Stderr, "websockify: %v: shutting down\n", s)
	if hub != nil {
		if *metrics {
			fmt.Fprint(os.Stderr, hub.Registry.Snapshot().Format())
		}
		if hub.Flight != nil {
			// The bridge's black box: recent connections, frames in
			// each direction, and injected faults.
			fmt.Fprint(os.Stderr, telemetry.FormatFlight(hub.Flight.Tail(50)))
		}
	}
	proxy.Close()
}

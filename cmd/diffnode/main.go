// Command diffnode is a deployable directed-diffusion node: the same
// protocol core the simulator runs, driven by wall-clock timers
// (internal/rt) over UDP datagrams (internal/transport), with an HTTP
// control plane for the application layer.
//
// A node is configured with a JSON file (-config) or flags:
//
//	diffnode -id 1 -listen 127.0.0.1:7001 -http 127.0.0.1:8001 \
//	    -neighbors 2=127.0.0.1:7002
//
// Instead of a static neighbor table, a node can join a running mesh by
// discovery: `-seed HOST:PORT` announces to an existing member and
// learns the rest by gossip (the first node of a fresh mesh passes
// `-discover` and just listens). Static entries and discovery compose —
// configured neighbors are pinned, discovered ones come and go.
//
// Control plane:
//
//	POST /subscribe    body: attribute formals ("type EQ x, interval IS 5")
//	POST /unsubscribe  body: {"handle": N}
//	POST /publish      body: attribute actuals
//	POST /unpublish    body: {"handle": N}
//	POST /send         body: {"publication": N, "attrs": "...", "exploratory": false}
//	GET  /deliveries   locally delivered data (?since=SEQ)
//	GET  /state        live subscriptions/publications and table sizes
//	GET  /metrics      telemetry in Prometheus text format
//	GET  /healthz      liveness incl. per-neighbor failure-detector state
//	                   (503 when partitioned from every configured neighbor)
//	GET  /neighbors    membership table: every neighbor and discovery
//	                   record with origin, liveness state and RTT
//	                   (difftrace -walk crawls the mesh through it)
//	GET  /custody      custody-transfer introspection: queue depth and
//	                   counters, journal stats, pending offers
//	POST /chaos        body: {"loss": P, "blocked": [ID, ...]} — live
//	                   transport impairment for fault experiments
//	GET  /spans        flight-path span ring as JSONL (requires
//	                   -trace-sample > 0; read by cmd/difftrace)
//	GET  /debug/pprof/ net/http/pprof profiling (requires -pprof)
//
// SIGTERM/SIGINT triggers a graceful shutdown: the application layer is
// withdrawn (unpublish + unsubscribe, stopping interest refresh so
// upstream gradients age out), forwarding continues for the drain window,
// then the sockets and the event loop stop.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	cfg, err := buildConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	d, err := startDaemon(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	signal.Stop(sig)
	fmt.Fprintf(os.Stderr, "diffnode %d: %v, shutting down\n", cfg.ID, s)
	if err := d.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// buildConfig reads the command line in two passes: the first finds
// -config, the second binds the flags to the Config loaded from that file.
// So every flag given wins over the file, whatever its value, except that
// -keys, -subscribe, -publish and -filters add to the file's lists. A bad
// flag or -h exits, as flag.Parse does.
func buildConfig(args []string) (cfg Config, err error) {
	var path string
	first := flagSet(&Config{}, &path, flag.ContinueOnError)
	first.SetOutput(io.Discard)
	if first.Parse(args) == nil && path != "" {
		if cfg, err = loadConfig(path); err != nil {
			return cfg, err
		}
	}
	flagSet(&cfg, &path, flag.ExitOnError).Parse(args)
	// A node with neither a static table nor discovery would sit deaf
	// forever; catch the misconfiguration at the CLI instead of booting a
	// useless process. (In-process embedders may still run standalone
	// single-node daemons; this check guards the command line only.)
	if len(cfg.Neighbors) == 0 && !cfg.discoveryEnabled() {
		return cfg, fmt.Errorf("diffnode: no neighbors and no discovery: set -neighbors, -seed, or -discover")
	}
	return cfg, nil
}

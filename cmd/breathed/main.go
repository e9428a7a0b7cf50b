// Command breathed serves Flip-model simulations over HTTP: a pool of
// workers, each with one engine re-armed for every job, behind a bounded
// admission queue, with a content-addressed result cache in front
// (internal/service; endpoints in service.NewHTTPHandler).
//
// Endpoints (JSON unless noted):
//
//	POST /v1/runs              submit an api.RunRequest; returns the job
//	                           status envelope. 200 on a cache hit, 202
//	                           when queued, 429 when the queue is full.
//	                           The X-Breathe-Cache header says hit|miss.
//	GET  /v1/runs/{id}         job status (state, wall time, response when
//	                           done).
//	GET  /v1/runs/{id}/result  the completed run's response, served from
//	                           the stored canonical bytes — byte-identical
//	                           between the computing run and every later
//	                           cache hit. ?wait=1 blocks until terminal.
//	GET  /v1/runs/{id}/stream  trajectory stream: NDJSON lines by default
//	                           ({"point":…}* then {"done":…}), SSE events
//	                           (point/done) when Accept: text/event-stream.
//	                           Submit with trajectory_every > 0.
//	POST /v1/runs/{id}/cancel  cancel queued or mid-run (honoured at the
//	                           engine's next round barrier).
//	GET  /v1/runs/{id}/trace   the run's NDJSON kernel trace — per-round
//	                           phase timings and regime, run totals.
//	                           Submit with trace_every > 0 (traces are per
//	                           execution; cache hits have none).
//	GET  /v1/stats             pool and cache counters (service.Stats).
//	GET  /metrics              Prometheus text exposition: kernel phase
//	                           decomposition, run/queue latency histograms,
//	                           pool gauges and lifecycle counters.
//	GET  /healthz              liveness.
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof/ (kept off the public mux so profiling stays bind-scoped
// to an operator-chosen address).
//
// A quick walkthrough:
//
//	breathed -addr :8344 &
//	curl -s localhost:8344/v1/runs -d '{"n":100000,"seed":1}'          # miss
//	curl -s localhost:8344/v1/runs -d '{"seed":1,"n":100000}'          # hit
//	curl -s localhost:8344/v1/runs -d '{"n":4096,"trajectory_every":8}' \
//	  | jq -r .id | xargs -I{} curl -sN localhost:8344/v1/runs/{}/stream
//	curl -s localhost:8344/v1/stats
//
// A running daemon also serves as a sweep backend: `sweep -remote
// http://host:8344` executes its grid cells here, and the result cache
// makes repeated or overlapping sweeps incremental. Each worker re-arms
// its one engine with every cell's whole configuration, so a grid of any
// width costs a worker the memory of one engine, sized for the last n it
// ran.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"breathe/internal/service"
)

// readHeaderTimeout bounds how long either listener waits for a request's
// headers.
const readHeaderTimeout = 5 * time.Second

func main() {
	cfg, addr, debug, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	svc := service.New(cfg)
	srv := &http.Server{
		Addr:              addr,
		Handler:           service.NewHTTPHandler(svc),
		ReadHeaderTimeout: readHeaderTimeout,
	}

	if debug != "" {
		dsrv := &http.Server{
			Addr:              debug,
			Handler:           debugMux(),
			ReadHeaderTimeout: readHeaderTimeout,
		}
		go func() {
			log.Printf("breathed debug (pprof) listening on %s", debug)
			if err := dsrv.ListenAndServe(); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	log.Printf("breathed listening on %s (workers=%d queue=%d cache=%d maxn=%d)",
		addr, svc.Stats().Workers, cfg.QueueDepth, cfg.CacheEntries, cfg.MaxN)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	svc.Close()
}

// parseFlags reads the command line into the service configuration, the
// listen address and the debug (pprof) address, empty when disabled.
// Usage and parse errors go to errOut.
func parseFlags(args []string, errOut io.Writer) (cfg service.Config, addr, debug string, err error) {
	fs := flag.NewFlagSet("breathed", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&addr, "addr", ":8344", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 0, "workers, one engine each (0 = all cores)")
	fs.IntVar(&cfg.QueueDepth, "queue", 256, "admission queue depth")
	fs.IntVar(&cfg.CacheEntries, "cache", 1024, "result cache entries")
	fs.IntVar(&cfg.MaxN, "maxn", 1<<24, "largest admitted population (0 = engine limit)")
	fs.IntVar(&cfg.JobHistory, "history", 0, "terminal jobs retrievable by ID (0 = default 16384)")
	fs.StringVar(&debug, "debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	err = fs.Parse(args)
	return cfg, addr, debug, err
}

// debugMux serves net/http/pprof under /debug/pprof/. It is a dedicated
// mux, not http.DefaultServeMux: the profiling surface exists only on
// the operator-chosen debug address.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

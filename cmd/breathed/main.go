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
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"breathe/internal/service"
)

func main() {
	fs := flag.NewFlagSet("breathed", flag.ExitOnError)
	var (
		addr    = fs.String("addr", ":8344", "listen address")
		workers = fs.Int("workers", 0, "workers, one engine each (0 = all cores)")
		queue   = fs.Int("queue", 256, "admission queue depth")
		cache   = fs.Int("cache", 1024, "result cache entries")
		maxN    = fs.Int("maxn", 1<<24, "largest admitted population (0 = engine limit)")
		history = fs.Int("history", 0, "terminal jobs retrievable by ID (0 = default 16384)")
		debug   = fs.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	fs.Parse(os.Args[1:])

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		MaxN:         *maxN,
		JobHistory:   *history,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHTTPHandler(svc),
		ReadHeaderTimeout: 5 * time.Second,
	}

	if *debug != "" {
		// A dedicated mux, not http.DefaultServeMux: the profiling
		// surface exists only on the operator-chosen debug address.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("breathed debug (pprof) listening on %s", *debug)
			if err := http.ListenAndServe(*debug, dmux); err != nil {
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
		*addr, svc.Stats().Workers, *queue, *cache, *maxN)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	svc.Close()
}

// Command mippd serves the analytical model over HTTP: an Engine holding
// named workload profiles behind the versioned /v1 JSON protocol of
// mipp/api. Profile once — here at boot, via cmd/aip files, or through
// POST /v1/profiles — then answer (workload, config) queries in
// microseconds from any number of clients.
//
// Usage:
//
//	mippd -addr :8091 -preload mcf,gcc -n 200000
//	mippd -profiles ./profiles            # load every cmd/aip *.json in a dir
//	mippd -store ./profile-store          # durable content-addressed store:
//	                                      # uploads persist, restarts serve the
//	                                      # whole catalog without re-profiling
//	mippd -remote-store http://peer:8091  # diskless replica: serve the peer's
//	                                      # catalog over its /v1/store endpoints
//	                                      # (generation-validated, LRU-cached)
//
// Then, from any HTTP client (see mipp/client for the Go one):
//
//	curl localhost:8091/healthz
//	curl localhost:8091/v1/workloads
//	curl -d '{"schema_version":1,"workload":"mcf","config":{"name":"reference"}}' \
//	     localhost:8091/v1/predict
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mipp"
	"mipp/obs"
	"mipp/server"
	"mipp/store"
	"mipp/store/remote"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("mippd: ")
	var (
		addr      = flag.String("addr", ":8091", "listen address")
		preload   = flag.String("preload", "", "comma-separated built-in workloads to profile at boot")
		n         = flag.Int("n", 200_000, "trace length in micro-ops for -preload profiling")
		profiles  = flag.String("profiles", "", "directory of profile JSON files (cmd/aip output) to load at boot")
		storeDir  = flag.String("store", "", "durable profile store directory (content-addressed; registrations persist across restarts)")
		remoteURL = flag.String("remote-store", "", "base URL of a peer mippd to use as the profile store (diskless replica; mutually exclusive with -store)")
		storeMax  = flag.Int64("store-resident-bytes", 0, "LRU bound on decoded profile bytes the store keeps in memory (0 = unbounded)")
		workers   = flag.Int("workers", 0, "default evaluation worker-pool size (0 = GOMAXPROCS)")
		debugAddr = flag.String("debug-addr", "", "separate listener for /metrics and /debug/pprof/* (empty = disabled; /metrics is always on -addr too)")

		fidBudget = flag.Int("fidelity-budget", 0, "ground-truth simulations the fidelity sampler may run (0 = sampling off, -1 = unlimited); report on GET /v1/fidelity")
		fidEvery  = flag.Int("fidelity-every", 16, "sample roughly 1 in this many served configs for ground-truth comparison")
		fidSeed   = flag.Int64("fidelity-seed", 0, "seed for the deterministic fidelity sample (ground truth replays each profile's own stream)")
		fidRate   = flag.Float64("fidelity-max-per-second", 2, "rate limit on ground-truth simulations (0 = unlimited)")
	)
	flag.Parse()

	var engineOpts []mipp.EngineOption
	if *workers > 0 {
		engineOpts = append(engineOpts, mipp.WithEngineWorkers(*workers))
	}
	if *fidBudget != 0 {
		engineOpts = append(engineOpts, mipp.WithFidelitySampling(mipp.FidelityOptions{
			Seed:         *fidSeed,
			SampleEvery:  *fidEvery,
			Budget:       *fidBudget,
			MaxPerSecond: *fidRate,
		}))
		log.Printf("fidelity sampling on: budget=%d every=%d seed=%d", *fidBudget, *fidEvery, *fidSeed)
	}
	switch {
	case *storeDir != "" && *remoteURL != "":
		log.Fatal("-store and -remote-store are mutually exclusive")
	case *storeDir != "":
		st, err := store.Open(*storeDir, store.WithMaxResidentBytes(*storeMax))
		if err != nil {
			log.Fatal(err)
		}
		engineOpts = append(engineOpts, mipp.WithEngineStore(st))
		log.Printf("profile store %s: %d stored profile(s)", *storeDir, st.Stats().Objects)
	case *remoteURL != "":
		st := remote.New(*remoteURL, remote.WithMaxCachedBytes(*storeMax))
		engineOpts = append(engineOpts, mipp.WithEngineStore(st))
		log.Printf("remote profile store %s (diskless replica)", *remoteURL)
	}
	// The engine logger enables trace spans (store.load, engine.compile,
	// search.generation) in the same log stream as the request lines.
	engineOpts = append(engineOpts, mipp.WithEngineLogger(log.Default()))
	engine := mipp.NewEngine(engineOpts...)
	if err := boot(engine, *preload, *n, *profiles); err != nil {
		log.Fatal(err)
	}

	handler := server.New(engine, server.WithLogger(log.Default()))
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if *debugAddr != "" {
		// pprof stays off the service port: profiling endpoints never share
		// a listener with untrusted traffic.
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugHandler(handler.MetricsRegistry()),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("debug listener (metrics, pprof) on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving %d workload(s) on %s", len(engine.WorkloadNames()), *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Print("shutting down (draining in-flight requests)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	// Stop the engine's background workers (the fidelity sampler) after the
	// listener drains: an in-flight /v1/fidelity?wait=1 finishes first.
	engine.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Print("bye")
}

// boot fills the engine's registry from the -preload and -profiles flags.
func boot(engine *mipp.Engine, preload string, n int, dir string) error {
	if preload != "" {
		profiler := mipp.NewProfiler()
		for _, name := range strings.Split(preload, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			// With -store, a previous run's profile is already durable:
			// serve it instead of re-paying the profiling step.
			if _, ok := engine.Profile(name); ok {
				log.Printf("preload %s: already in store, skipping re-profile", name)
				continue
			}
			t0 := time.Now()
			p, err := profiler.Profile(name, n)
			if err != nil {
				return fmt.Errorf("preload %s: %w", name, err)
			}
			if err := engine.Register(name, p); err != nil {
				return fmt.Errorf("preload %s: %w", name, err)
			}
			log.Printf("profiled %s (%d uops) in %v", name, p.TotalUops(), time.Since(t0).Round(time.Millisecond))
		}
	}
	if dir != "" {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return err
		}
		for _, f := range files {
			p, err := mipp.LoadProfile(f)
			if err != nil {
				return fmt.Errorf("load %s: %w", f, err)
			}
			// Register under the file's base name: two profiles of the
			// same workload (e.g. different trace lengths) stay distinct
			// instead of silently overwriting each other.
			name := strings.TrimSuffix(filepath.Base(f), ".json")
			if err := engine.Register(name, p); err != nil {
				return fmt.Errorf("load %s: %w", f, err)
			}
			log.Printf("loaded %s as %q (workload %s, %d uops)", f, name, p.Workload(), p.TotalUops())
		}
	}
	return nil
}

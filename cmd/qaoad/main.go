// Command qaoad is the QAOA-as-a-service daemon: an HTTP JSON API that
// accepts MaxCut instances and solves them with the naive or the
// ML-accelerated two-level flow on a bounded worker pool.
//
// Usage:
//
//	qaoad [flags]
//
// Endpoints:
//
//	POST   /v1/solve      submit an instance (wait=true blocks until done)
//	GET    /v1/jobs/{id}  poll a job
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /healthz       liveness + queue depth + registered models + kernel
//	GET    /metrics       telemetry snapshot (latency histograms, gauges)
//
// Pre-trained two-level predictors are loaded from -models (one
// core.Predictor JSON per model, name = file base) and hot-reloaded on
// SIGHUP without dropping in-flight jobs. -train bootstraps a "default"
// model at startup when the directory provides none. SIGINT/SIGTERM
// drain gracefully: accepted jobs finish (up to -drain-grace), new
// submissions get 503.
//
// Fleet mode (-role): "single" (default) serves and solves in one
// process; "worker" is the same but typically fronted by a
// coordinator; "coordinator" admits, dedups, journals and fans solves
// out to the -peers workers by consistent-hashed fingerprint, so each
// worker's result cache owns a shard of the key space. -wal journals
// accepted jobs and results to an fsync'd write-ahead log (any role):
// on restart, completed results re-seed the cache and incomplete jobs
// re-enqueue, so kill -9 loses no accepted work.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qaoaml/internal/cluster"
	"qaoaml/internal/core"
	"qaoaml/internal/quantum"
	"qaoaml/internal/server"
	"qaoaml/internal/telemetry"
)

type daemonConfig struct {
	addr       string
	pprofAddr  string
	models     string
	drainGrace time.Duration

	train       bool
	trainGraphs int
	trainDepth  int
	trainSeed   int64

	role  string
	peers string
	wal   string

	srv server.Config
}

func registerFlags(fs *flag.FlagSet, c *daemonConfig) {
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.pprofAddr, "pprof", "", "debug listen address for /debug/pprof and /debug/vars (empty = disabled)")
	fs.StringVar(&c.models, "models", "", "directory of pre-trained predictor JSON files (SIGHUP reloads)")
	fs.DurationVar(&c.drainGrace, "drain-grace", 30*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
	fs.BoolVar(&c.train, "train", false, "train a \"default\" model at startup if the registry has none")
	fs.IntVar(&c.trainGraphs, "train-graphs", 16, "dataset size for -train")
	fs.IntVar(&c.trainDepth, "train-depth", 5, "largest target depth for -train")
	fs.Int64Var(&c.trainSeed, "train-seed", 1, "dataset RNG seed for -train")
	fs.IntVar(&c.srv.Workers, "workers", 0, "solve worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&c.srv.QueueDepth, "queue", 0, "job queue bound; full queue returns 429 (0 = default 64)")
	fs.IntVar(&c.srv.CacheSize, "cache", 0, "LRU result cache entries (0 = default 256)")
	fs.IntVar(&c.srv.MaxJobs, "max-jobs", 0, "retained finished job records (0 = default 1024)")
	fs.DurationVar(&c.srv.DefaultTimeout, "job-timeout", 0, "default per-job deadline (0 = 60s)")
	fs.DurationVar(&c.srv.MaxTimeout, "max-timeout", 0, "cap on requested per-job deadlines (0 = 10m)")
	fs.IntVar(&c.srv.MaxNodes, "max-nodes", 0, "largest accepted instance (0 = default 20, hard cap 30)")
	fs.IntVar(&c.srv.MaxDepth, "max-depth", 0, "largest accepted circuit depth (0 = default 10)")
	fs.StringVar(&c.role, "role", "single", "fleet role: single, coordinator or worker")
	fs.StringVar(&c.peers, "peers", "", "comma-separated worker base URLs (coordinator role)")
	fs.StringVar(&c.wal, "wal", "", "write-ahead log path for durable job journaling (empty = no journal)")
}

func main() {
	var cfg daemonConfig
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "qaoad:", err)
		os.Exit(1)
	}
}

func run(cfg daemonConfig) error {
	logger := log.New(os.Stderr, "qaoad: ", log.LstdFlags)

	reg, err := server.NewRegistry(cfg.models)
	if err != nil {
		return err
	}
	if cfg.train {
		if _, ok := reg.Get("default"); !ok {
			if err := trainDefault(reg, cfg, logger); err != nil {
				return err
			}
		}
	}
	if names := reg.Names(); len(names) > 0 {
		logger.Printf("models: %v", names)
	} else {
		logger.Printf("no models registered: serving strategy \"naive\" only (use -models or -train)")
	}

	cfg.srv.Registry = reg
	if cfg.srv.Recorder == nil {
		cfg.srv.Recorder = telemetry.NewMemory()
	}

	// Fleet wiring. The WAL (any role) journals accepted jobs and
	// results; the dispatcher (coordinator role) fans solves out to the
	// -peers workers. Both plug into the server through its Journal and
	// Dispatcher config seams — nil means plain single-process serving.
	var recovery *cluster.Recovery
	if cfg.wal != "" {
		wal, rec, err := cluster.OpenWAL(cfg.wal)
		if err != nil {
			return err
		}
		defer wal.Close()
		cfg.srv.Journal = wal
		recovery = rec
		if rec.Torn {
			logger.Printf("wal %s: dropped a torn tail record (mid-write crash)", cfg.wal)
		}
	}
	switch cfg.role {
	case "single", "worker":
		if cfg.peers != "" {
			return fmt.Errorf("-peers is only meaningful with -role=coordinator")
		}
	case "coordinator":
		disp, err := cluster.NewDispatcher(cluster.DispatcherConfig{
			Workers:  splitPeers(cfg.peers),
			Recorder: cfg.srv.Recorder,
		})
		if err != nil {
			return err
		}
		defer disp.Close()
		cfg.srv.Dispatcher = disp
		logger.Printf("coordinator: dispatching to %d workers", len(splitPeers(cfg.peers)))
	default:
		return fmt.Errorf("unknown -role %q (single, coordinator or worker)", cfg.role)
	}

	s := server.New(cfg.srv)

	if recovery != nil && (len(recovery.Completed) > 0 || len(recovery.Incomplete) > 0) {
		for _, c := range recovery.Completed {
			s.SeedCache(c.Key, c.Result)
		}
		requeued := 0
		for _, in := range recovery.Incomplete {
			if _, err := s.Resubmit(in.Req); err != nil {
				logger.Printf("wal recovery: re-enqueueing %s: %v", in.Key, err)
				continue
			}
			requeued++
		}
		logger.Printf("wal recovery: %d results re-cached, %d/%d incomplete jobs re-enqueued",
			len(recovery.Completed), requeued, len(recovery.Incomplete))
	}

	// SIGHUP hot-reloads the model directory for the daemon's lifetime.
	hupCtx, hupCancel := context.WithCancel(context.Background())
	defer hupCancel()
	reg.WatchHUP(hupCtx, func(err error) {
		logger.Printf("model reload failed (previous set still serving): %v", err)
	})

	// The debug mux is opt-in and on its own listener, so profiling
	// endpoints are never reachable through the public API address.
	// /debug/vars serves expvar, including a live snapshot of the
	// server's telemetry sink (the same data as /metrics, plus the
	// runtime's memstats); /debug/pprof serves the standard profiles.
	if cfg.pprofAddr != "" {
		s.Metrics().PublishExpvar("qaoad")
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/debug/vars", expvar.Handler())
		go func() {
			logger.Printf("debug endpoints on %s (/debug/pprof, /debug/vars)", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, dbg); err != nil {
				logger.Printf("debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (kernel %s)", cfg.addr, quantum.Kernel())
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		s.Close()
		return err
	case sig := <-sigc:
		logger.Printf("%s: draining (grace %v)", sig, cfg.drainGrace)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	// Stop accepting connections first, then let queued and running jobs
	// finish inside the grace budget.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if err := s.Drain(drainCtx); err != nil {
		logger.Printf("drain expired: outstanding jobs cancelled (%v)", err)
	} else {
		logger.Printf("drained cleanly")
	}
	return nil
}

// splitPeers parses the -peers roster.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// trainDefault generates a small dataset and trains the "default"
// two-level predictor in-process — the zero-setup path for trying the
// daemon without a model directory.
func trainDefault(reg *server.Registry, cfg daemonConfig, logger *log.Logger) error {
	start := time.Now()
	logger.Printf("training default model: %d graphs × depths 1..%d (seed %d)...",
		cfg.trainGraphs, cfg.trainDepth, cfg.trainSeed)
	data, err := core.GenerateCtx(context.Background(), core.DataGenConfig{
		NumGraphs: cfg.trainGraphs, Nodes: 8, EdgeProb: 0.5,
		MaxDepth: cfg.trainDepth, Starts: 2, Tol: 1e-6,
		Seed: cfg.trainSeed, Workers: cfg.srv.Workers,
	})
	if err != nil {
		return fmt.Errorf("training dataset: %w", err)
	}
	train, _ := data.SplitIndices(0.8, cfg.trainSeed)
	pred := core.NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		return fmt.Errorf("training default model: %w", err)
	}
	reg.Register("default", pred)
	logger.Printf("default model ready in %v (target depths %v)",
		time.Since(start).Round(time.Millisecond), pred.TargetDepths())
	return nil
}

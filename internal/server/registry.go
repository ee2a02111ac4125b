package server

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"qaoaml/internal/core"
)

// Registry holds the pre-trained parameter predictors the two-level
// strategy dispatches to, keyed by model name. Models are loaded from a
// directory of core.Predictor JSON files (name = file base without the
// .json suffix) and can be hot-reloaded — the daemon wires Reload to
// SIGHUP via WatchHUP — without dropping in-flight jobs: running solves
// keep the *core.Predictor they resolved at start.
//
// A solve key names a model, not its contents, so the registry counts
// generations: every Register and every successful Reload starts a new
// one, and a server drops the answers it cached under an older one.
type Registry struct {
	mu     sync.RWMutex
	dir    string
	models map[string]*core.Predictor // serving view: files merged with inproc
	inproc map[string]*core.Predictor // Register()ed models, kept across reloads
	gen    atomic.Uint64
}

// NewRegistry returns a registry over dir, loading every *.json model
// in it. An empty dir yields an empty registry (naive-only serving)
// that Register can populate in-process.
func NewRegistry(dir string) (*Registry, error) {
	r := &Registry{
		dir:    dir,
		models: make(map[string]*core.Predictor),
		inproc: make(map[string]*core.Predictor),
	}
	if dir == "" {
		return r, nil
	}
	models, err := loadModelDir(dir)
	if err != nil {
		return nil, err
	}
	r.models = models
	return r, nil
}

// loadModelDir reads every *.json predictor in dir.
func loadModelDir(dir string) (map[string]*core.Predictor, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	models := make(map[string]*core.Predictor, len(paths))
	for _, path := range paths {
		pred, err := core.LoadPredictorFile(path)
		if err != nil {
			return nil, fmt.Errorf("server: loading model %s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		models[name] = pred
	}
	return models, nil
}

// Get resolves a model by name.
func (r *Registry) Get(name string) (*core.Predictor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.models[name]
	return p, ok
}

// Register installs (or replaces) an in-process model, e.g. one trained
// at daemon startup.
func (r *Registry) Register(name string, p *core.Predictor) {
	r.mu.Lock()
	r.inproc[name] = p
	r.models[name] = p
	r.gen.Add(1)
	r.mu.Unlock()
}

// Generation returns the model set's generation: it advances on every
// Register and every successful Reload.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Names lists the registered models, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reload re-scans the model directory and atomically swaps the model
// set. On any load error the previous models stay in service. Models
// registered in-process (Register) survive reloads unless a file of the
// same name shadows them.
func (r *Registry) Reload() error {
	if r.dir == "" {
		return nil
	}
	fresh, err := loadModelDir(r.dir)
	if err != nil {
		return err
	}
	r.mu.Lock()
	for name, p := range r.inproc {
		if _, shadowed := fresh[name]; !shadowed {
			fresh[name] = p // keep in-process registrations not shadowed by files
		}
	}
	r.models = fresh
	r.gen.Add(1)
	r.mu.Unlock()
	return nil
}

// WatchHUP reloads the registry on every SIGHUP until ctx is done.
// Reload failures are reported through onErr (nil ignores them) and
// never replace the serving model set.
func (r *Registry) WatchHUP(ctx context.Context, onErr func(error)) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	go func() {
		defer signal.Stop(ch)
		for {
			select {
			case <-ctx.Done():
				return
			case <-ch:
				if err := r.Reload(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
}

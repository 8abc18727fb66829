// Package registry caches one trained GNN model per architecture. It
// generalizes the experiment grid's Context.ModelFor pattern so the
// long-lived serving daemon and the experiment runners share one
// implementation: models can be pre-loaded from disk at startup (offline
// training, the paper's intended deployment) or trained lazily on first
// use, and concurrent callers for one target always observe exactly one
// training run.
//
// Each architecture slot is a small state machine (idle → busy → ready |
// failed) rather than a sync.Once: a training run that errors or panics
// parks the slot in failed with the cause cached, where it answers every
// subsequent request instantly instead of wedging callers or silently
// retraining on each hit. Failed slots heal through Put (a later offline
// model wins) or an explicit Retry (the daemon's reload path).
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/attr"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/traingen"
)

// ErrAlreadyLoaded marks a LoadFile that lost to an existing model for the
// same architecture — expected (and skippable) on a reload rescan.
var ErrAlreadyLoaded = errors.New("model already registered")

// Provenance records how a slot's model was obtained — the degradation
// ladder rung that answered: fetched from a ring peer, trained locally, or
// pre-loaded from disk. Surfaced per arch on /v1/archs and aggregated in
// /metrics.
type Provenance string

const (
	ProvLoaded  Provenance = "loaded"  // pre-loaded from a model file (or Put)
	ProvTrained Provenance = "trained" // trained locally on demand
	ProvShipped Provenance = "shipped" // fetched from a ring peer's /v1/model
)

// Permanent marks err as non-retryable: re-running the work that produced
// it returns the same answer until an operator intervenes (a peer serving a
// corrupt or version-skewed model payload, say — re-fetching gets the same
// bad bytes). The registry parks permanent fetch failures in the failed
// state, where they answer instantly until Retry or Put heals the slot;
// unmarked (transport-class) failures leave the slot idle so the next
// request simply tries again.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// IsPermanent reports whether err (or anything it wraps) was marked by
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// FetchFunc obtains a trained model for an architecture name from outside
// this process — in the daemon, from the ring owner's /v1/model endpoint.
// It returns the model, the source it came from (a peer URL), and an error
// optionally marked Permanent to control the retry policy.
type FetchFunc func(name string) (*gnn.Model, string, error)

// Config sets the budgets used when a model must be trained on demand.
type Config struct {
	TrainGen traingen.Config // dataset generation (§V)
	TrainCfg gnn.TrainConfig // four-network training (§IV)
	Seed     int64
	// Workers fans dataset generation out; 0 defers to TrainGen.Workers.
	Workers int
	// TrainOnDemand permits lazy training when no model was pre-loaded for
	// a requested architecture. When false, ModelFor returns an error for
	// such targets instead of spending minutes training inside a request.
	TrainOnDemand bool
}

// Registry holds at most one model per architecture name.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]*entry
	fetch   FetchFunc
	ctr     Counters
}

// Counters aggregates the registry's model-acquisition activity for
// /metrics. TrainRuns counts local training attempts (successful or not),
// Fetches counts models installed from a peer, FetchErrors counts failed
// fetch attempts.
type Counters struct {
	TrainRuns   int64 `json:"trainRuns"`
	Fetches     int64 `json:"fetches"`
	FetchErrors int64 `json:"fetchErrors"`
}

// trainState is the lifecycle of one architecture slot.
type trainState int

const (
	stateIdle   trainState = iota // nothing resolved, no training in flight
	stateBusy                     // one training run in flight; wait on done
	stateReady                    // model resolved
	stateFailed                   // last training attempt failed; err cached
)

// entry is the per-architecture slot.
type entry struct {
	state trainState
	done  chan struct{} // closed when the in-flight resolution settles (busy only)
	model *gnn.Model
	err   error

	prov     Provenance // how model was obtained (ready slots)
	source   string     // peer URL a shipped model came from
	fetchErr error      // last failed fetch attempt; kept across idle retries for /v1/archs
}

// New creates an empty registry.
func New(cfg Config) *Registry {
	return &Registry{cfg: cfg, entries: make(map[string]*entry)}
}

// ensure returns the slot for name, creating an idle one. r.mu must be held.
func (r *Registry) ensure(name string) *entry {
	e, ok := r.entries[name]
	if !ok {
		e = &entry{}
		r.entries[name] = e
	}
	return e
}

// Put registers a pre-trained model under its architecture name. It wins
// over idle and failed slots (healing a cached training failure) and loses
// to a ready model or an in-flight training run, returning false. A model
// with a non-finite weight or scale is refused (false) and leaves the slot
// as it was.
func (r *Registry) Put(m *gnn.Model) bool {
	if m.CheckFinite() != nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.ensure(m.ArchName)
	switch e.state {
	case stateReady, stateBusy:
		return false
	}
	e.state = stateReady
	e.model = m
	e.err = nil
	e.prov = ProvLoaded
	e.source = ""
	e.fetchErr = nil
	return true
}

// SetFetch installs the external model source consulted before local
// training — the daemon wires the cluster's owner-fetch here. Must be set
// before the registry takes traffic.
func (r *Registry) SetFetch(fn FetchFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fetch = fn
}

// Counters snapshots the acquisition counters.
func (r *Registry) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctr
}

// Info is the observable state of one architecture slot for /v1/archs.
type Info struct {
	Ready      bool
	Provenance Provenance // set when Ready
	Source     string     // peer URL, shipped models only
	Err        error      // cached failure of a failed slot
	FetchErr   error      // last failed fetch attempt, if any
}

// InfoFor reports how name's slot got (or failed to get) its model.
func (r *Registry) InfoFor(name string) Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return Info{}
	}
	info := Info{FetchErr: e.fetchErr}
	switch e.state {
	case stateReady:
		info.Ready = true
		info.Provenance = e.prov
		info.Source = e.source
	case stateFailed:
		info.Err = e.err
	}
	return info
}

// ProvenanceCounts tallies ready slots by how their model was obtained.
func (r *Registry) ProvenanceCounts() map[Provenance]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[Provenance]int{}
	//lisa:vet-ok maprange integer counters keyed by provenance; addition is commutative, order cannot change the tally
	for _, e := range r.entries {
		if e.state == stateReady {
			out[e.prov]++
		}
	}
	return out
}

// ModelBytes serializes name's resolved model with gnn.Save — the payload
// of the daemon's /v1/model endpoint. Slots that are not ready return an
// error; the endpoint maps it to 404 rather than resolving on demand, so a
// model fetch can never cascade into training on the serving peer.
func (r *Registry) ModelBytes(name string) ([]byte, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok || e.state != stateReady {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: no resolved model for %q", name)
	}
	m := e.model
	r.mu.Unlock()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("registry: serializing model for %q: %w", name, err)
	}
	return buf.Bytes(), nil
}

// LoadFile reads one model file saved by lisa-train / gnn.Save and registers
// it, returning the architecture name it serves.
func (r *Registry) LoadFile(path string) (string, error) {
	if err := fault.Inject(fault.RegistryLoad, fault.Token(path)); err != nil {
		return "", fmt.Errorf("registry: %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }() // read-only open: nothing to recover from a close error
	m, err := gnn.Load(f, gnn.NewModel(rand.New(rand.NewSource(1)), ""))
	if err != nil {
		return "", fmt.Errorf("registry: %s: %w", path, err)
	}
	if m.ArchName == "" {
		return "", fmt.Errorf("registry: %s: model file names no architecture", path)
	}
	if !r.Put(m) {
		return m.ArchName, fmt.Errorf("registry: %s: model for %q: %w", path, m.ArchName, ErrAlreadyLoaded)
	}
	return m.ArchName, nil
}

// LoadDir registers every *.json model file in dir (the lisa-train output
// convention) and returns the architecture names loaded, sorted. Files that
// fail to parse or collide with an already-registered architecture abort the
// load: a serving daemon must not come up half-configured.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var names []string
	for _, path := range files {
		name, err := r.LoadFile(path)
		if err != nil {
			return names, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Ready lists the architecture names whose model is already resolved,
// sorted. Targets that would still need on-demand training are absent.
func (r *Registry) Ready() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name, e := range r.entries {
		if e.state == stateReady {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Has reports whether a resolved model exists for the architecture name.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	return ok && e.state == stateReady
}

// Err returns the cached error of a failed slot, nil otherwise. It lets the
// daemon's /v1/archs report *why* a target has no model without re-running
// the failed training.
func (r *Registry) Err(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok || e.state != stateFailed {
		return nil
	}
	return e.err
}

// Retry clears a failed slot back to idle so the next ModelFor may train
// again, reporting whether there was a cached failure to clear. This is the
// one deliberate way to spend a second training attempt on a poisoned
// target (the daemon's reload path); ordinary requests only ever pay once.
func (r *Registry) Retry(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok || e.state != stateFailed {
		return false
	}
	e.state = stateIdle
	e.err = nil
	e.fetchErr = nil
	return true
}

// ModelFor returns the model for ar, resolving it on first use down the
// degradation ladder: fetch from the configured external source (SetFetch —
// the ring owner's serialized model), then local training when the config
// allows (training-data generation + four-network training, §V and §IV),
// then an error. Safe for concurrent use; the busy state singleflights
// resolution, so N concurrent callers for one architecture trigger one
// fetch and at most one training run.
//
// Failure caching follows the error class. A failed training run or a
// Permanent fetch failure (corrupt or version-skewed payload — re-fetching
// returns the same bytes) parks the slot in failed, where it answers every
// later call instantly until Put or Retry heals it. A transport-class fetch
// failure with no training fallback leaves the slot idle: the next request
// simply retries, which is cheap because the cluster's backoff gating
// answers ErrPeerDown without a dial while the peer stays down.
func (r *Registry) ModelFor(ar arch.Arch) (*gnn.Model, error) {
	name := ar.Name()
	for {
		r.mu.Lock()
		e := r.ensure(name)
		switch e.state {
		case stateReady:
			m := e.model
			r.mu.Unlock()
			return m, nil
		case stateFailed:
			err := e.err
			r.mu.Unlock()
			return nil, err
		case stateBusy:
			done := e.done
			r.mu.Unlock()
			<-done
			continue // re-read the settled state
		}
		// Idle: resolve here, or report that no rung of the ladder may run.
		fetch := r.fetch
		if fetch == nil && !r.cfg.TrainOnDemand {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: no model loaded for %q and on-demand training is disabled", name)
		}
		e.state = stateBusy
		e.done = make(chan struct{})
		r.mu.Unlock()

		m, prov, source, err := r.resolve(fetch, ar)

		r.mu.Lock()
		switch {
		case m != nil:
			e.state = stateReady
			e.model, e.err = m, nil
			e.prov, e.source = prov, source
			if prov == ProvShipped {
				// A trained install keeps the fetch trace: /v1/archs then
				// explains why the ladder fell through to local training.
				e.fetchErr = nil
			}
		case IsPermanent(err) || prov == ProvTrained:
			// Training failures and permanent fetch failures cache: re-running
			// them returns the same answer at real cost.
			e.state = stateFailed
			e.err = err
		default:
			// Transport-class fetch failure, no training fallback: back to
			// idle so the next request retries against a possibly-healed ring.
			e.state = stateIdle
			e.err = nil
		}
		close(e.done)
		e.done = nil
		r.mu.Unlock()
		if m == nil {
			return nil, err
		}
	}
}

// resolve runs the acquisition ladder outside the registry lock and
// reports what it got: the model plus its provenance, or the error of the
// last rung tried (prov then tells the caller which rung failed).
func (r *Registry) resolve(fetch FetchFunc, ar arch.Arch) (*gnn.Model, Provenance, string, error) {
	name := ar.Name()
	var fetchErr error
	if fetch != nil {
		m, source, err := fetch(name)
		r.mu.Lock()
		if err == nil {
			r.ctr.Fetches++
			r.mu.Unlock()
			return m, ProvShipped, source, nil
		}
		r.ctr.FetchErrors++
		r.entries[name].fetchErr = err // slot exists and is busy-held by us
		r.mu.Unlock()
		fetchErr = err
	}
	if !r.cfg.TrainOnDemand {
		if fetchErr != nil {
			return nil, ProvShipped, "", fetchErr
		}
		return nil, "", "", fmt.Errorf("registry: no model loaded for %q and on-demand training is disabled", name)
	}
	r.mu.Lock()
	r.ctr.TrainRuns++
	r.mu.Unlock()
	m, err := r.train(ar)
	if err != nil {
		return nil, ProvTrained, "", err
	}
	return m, ProvTrained, "", nil
}

// train runs one on-demand training pass outside the registry lock. A panic
// anywhere in generation or training (an injected fault or an organic bug)
// becomes the slot's cached error instead of a crashed caller.
func (r *Registry) train(ar arch.Arch) (m *gnn.Model, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m = nil
			err = fmt.Errorf("registry: training for %q panicked: %v", ar.Name(), rec)
		}
	}()
	if err := fault.Inject(fault.GNNTrain, fault.Token(ar.Name())); err != nil {
		return nil, fmt.Errorf("registry: training for %q: %w", ar.Name(), err)
	}
	cfg := r.cfg.TrainGen
	cfg.Seed = r.cfg.Seed
	if cfg.Workers == 0 {
		cfg.Workers = r.cfg.Workers
	}
	// An empty sample set leaves the model at its random init — the
	// label engines degrade gracefully, matching the experiment grid's
	// historical behavior under tiny smoke-test budgets.
	ds := traingen.Generate(ar, cfg)
	model := gnn.NewModel(rand.New(rand.NewSource(r.cfg.Seed)), ar.Name())
	model.Train(ds.Samples, r.cfg.TrainCfg)
	if err := model.CheckFinite(); err != nil {
		return nil, fmt.Errorf("registry: training for %q: %w", ar.Name(), err)
	}
	return model, nil
}

// LabelsFor predicts the four mapper labels for g using ar's model; it is
// the engine.LabelSource the daemon and CLIs hand to engine.Run, so a
// training failure surfaces there as the ladder's labels-unavailable rung
// rather than an aborted request. So does a prediction with a NaN or ±Inf
// label, which a finite model can still overflow to: annealing on it would
// serve a mapping the labels did not steer.
func (r *Registry) LabelsFor(ar arch.Arch, g *dfg.Graph) (*labels.Labels, error) {
	m, err := r.ModelFor(ar)
	if err != nil {
		return nil, err
	}
	l, err := m.Predict(attr.Generate(g))
	if err != nil {
		return nil, err
	}
	if err := l.CheckFinite(); err != nil {
		return nil, fmt.Errorf("registry: %s model: %w", ar.Name(), err)
	}
	return l, nil
}

// String summarizes the registry for logs.
func (r *Registry) String() string {
	names := r.Ready()
	if len(names) == 0 {
		return "registry: no models resolved"
	}
	return "registry: models for " + strings.Join(names, ", ")
}

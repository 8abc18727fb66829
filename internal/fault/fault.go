// Package fault is a deterministic, seeded fault-injection registry for the
// mapping pipeline. Production placement stacks pair the learned path with a
// deterministic fallback; exercising that fallback requires a failure model,
// and this package is it: a small set of named sites (model load, lazy
// training, the annealer, the router, the result cache, pool admission) that
// can be armed with a per-site probability and failure mode.
//
// Three properties drive the design:
//
//   - Deterministic: whether a site fires is a pure function of
//     (plan seed, site name, caller token) — a splitmix64 hash of the
//     triple, compared against the site's probability. The token is
//     request-scoped (the mapping seed for request-path sites, a name hash
//     for startup-path sites), so a fixed fault seed reproduces the exact
//     same faults for the same request stream, in any order, under any
//     scheduler. There is no shared RNG stream to race on.
//
//   - Zero-overhead when disabled: Inject with no active plan is one atomic
//     pointer load and a return. No locks, no allocation, no map lookup.
//
//   - Contained: error-mode faults surface as *fault.Error so recovery
//     layers can tell injected failures from organic ones; panic-mode
//     faults panic with *fault.PanicValue for the same reason.
package fault

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one instrumented failure point. The set is closed: arming an
// unknown site is a configuration error, caught at Activate time rather
// than silently never firing.
type Site string

// The instrumented sites of the mapping pipeline.
const (
	RegistryLoad Site = "registry.load" // model-file load (corrupt/unreadable model)
	GNNTrain     Site = "gnn.train"     // lazy on-demand training run
	MapperAnneal Site = "mapper.anneal" // SA-family engine invocation
	RouterRoute  Site = "router.route"  // exact-length route search
	CacheGet     Site = "cache.get"     // result-cache lookup
	PoolSubmit   Site = "pool.submit"   // worker-pool admission
	StoreRead    Site = "store.read"    // persistent result-store lookup
	StoreWrite   Site = "store.write"   // persistent result-store write (fires as a torn write)
	PeerRPC      Site = "peer.rpc"      // cluster peer proxy call / health probe
	ModelFetch   Site = "model.fetch"   // trained-model fetch from a ring peer
	// MapperPortfolio fires per portfolio chain, streamed by the chain's
	// derived seed: a sub-1 probability poisons a deterministic strict
	// subset of a restart race, which must degrade to the surviving
	// chains' winner rather than fail the request.
	MapperPortfolio Site = "mapper.portfolio"
)

// Sites lists every instrumented site in stable order.
func Sites() []Site {
	return []Site{RegistryLoad, GNNTrain, MapperAnneal, RouterRoute, CacheGet, PoolSubmit,
		StoreRead, StoreWrite, PeerRPC, ModelFetch, MapperPortfolio}
}

// Mode selects what an armed site does when it fires.
type Mode uint8

// The failure modes.
const (
	ModeError   Mode = iota // return a *fault.Error
	ModePanic               // panic with a *fault.PanicValue
	ModeLatency             // sleep for the configured latency, then proceed
)

// String returns the spec-syntax name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeLatency:
		return "latency"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

func parseMode(s string) (Mode, error) {
	switch s {
	case "error":
		return ModeError, nil
	case "panic":
		return ModePanic, nil
	case "latency":
		return ModeLatency, nil
	}
	return 0, fmt.Errorf("fault: unknown mode %q (error|panic|latency)", s)
}

// SiteConfig arms one site.
type SiteConfig struct {
	Prob    float64       // firing probability in [0, 1]
	Mode    Mode          // what firing does
	Latency time.Duration // sleep length for ModeLatency
}

// Plan is a full fault configuration: a seed and the armed sites.
type Plan struct {
	Seed  int64
	Sites map[Site]SiteConfig
}

// Error is the error returned by an error-mode fault.
type Error struct{ Site Site }

func (e *Error) Error() string { return "fault: injected error at " + string(e.Site) }

// PanicValue is the value a panic-mode fault panics with.
type PanicValue struct{ Site Site }

func (p *PanicValue) String() string { return "fault: injected panic at " + string(p.Site) }

// ParsePlan parses a fault spec of the form
//
//	site=mode:prob[:latency][,site=mode:prob[:latency]...]
//
// e.g. "mapper.anneal=error:1,cache.get=latency:0.5:50ms". An empty spec
// returns a nil plan (faults disabled).
func ParsePlan(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: seed, Sites: make(map[Site]SiteConfig)}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad site spec %q (want site=mode:prob[:latency])", part)
		}
		site := Site(strings.TrimSpace(name))
		if !knownSite(site) {
			return nil, fmt.Errorf("fault: unknown site %q (have %v)", site, Sites())
		}
		fields := strings.Split(rest, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("fault: bad site spec %q (want site=mode:prob[:latency])", part)
		}
		mode, err := parseMode(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, err
		}
		prob, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("fault: bad probability %q for %s (want [0,1])", fields[1], site)
		}
		cfg := SiteConfig{Prob: prob, Mode: mode}
		if mode == ModeLatency {
			if len(fields) != 3 {
				return nil, fmt.Errorf("fault: latency mode for %s needs a duration (e.g. %s=latency:1:50ms)", site, site)
			}
			d, err := time.ParseDuration(strings.TrimSpace(fields[2]))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: bad latency %q for %s", fields[2], site)
			}
			cfg.Latency = d
		} else if len(fields) == 3 {
			return nil, fmt.Errorf("fault: mode %s for %s takes no latency field", mode, site)
		}
		if _, dup := p.Sites[site]; dup {
			return nil, fmt.Errorf("fault: site %s armed twice", site)
		}
		p.Sites[site] = cfg
	}
	return p, nil
}

// FromEnv builds a plan from the LISA_FAULTS spec and LISA_FAULT_SEED
// environment variables. Unset or empty LISA_FAULTS returns a nil plan.
func FromEnv() (*Plan, error) {
	spec := os.Getenv("LISA_FAULTS")
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	seed := int64(1)
	if s := os.Getenv("LISA_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad LISA_FAULT_SEED %q: %v", s, err)
		}
		seed = v
	}
	return ParsePlan(spec, seed)
}

func knownSite(s Site) bool {
	for _, k := range Sites() {
		if s == k {
			return true
		}
	}
	return false
}

// String renders the plan back in spec syntax (sites in stable order), for
// startup logs.
func (p *Plan) String() string {
	if p == nil || len(p.Sites) == 0 {
		return "faults disabled"
	}
	var parts []string
	for _, site := range Sites() {
		cfg, ok := p.Sites[site]
		if !ok {
			continue
		}
		s := fmt.Sprintf("%s=%s:%g", site, cfg.Mode, cfg.Prob)
		if cfg.Mode == ModeLatency {
			s += ":" + cfg.Latency.String()
		}
		parts = append(parts, s)
	}
	return fmt.Sprintf("faults[seed=%d] %s", p.Seed, strings.Join(parts, ","))
}

// active is the armed plan; nil means disabled. Swapped atomically so the
// disabled-path cost in hot loops is a single pointer load.
var active atomic.Pointer[Plan]

// injected counts fires per site; slot order matches Sites().
var injected [11]atomic.Int64

func siteIndex(s Site) int {
	for i, k := range Sites() {
		if s == k {
			return i
		}
	}
	return -1
}

// Activate arms the plan process-wide (nil disables, like Deactivate) and
// resets the injection counters. It validates site names and probabilities
// so a typo fails loudly instead of never firing.
func Activate(p *Plan) error {
	if p != nil {
		// Validate in sorted site order so a plan with several bad entries
		// always reports the same one first.
		sites := make([]Site, 0, len(p.Sites))
		for site := range p.Sites {
			sites = append(sites, site)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		for _, site := range sites {
			cfg := p.Sites[site]
			if !knownSite(site) {
				return fmt.Errorf("fault: unknown site %q (have %v)", site, Sites())
			}
			if cfg.Prob < 0 || cfg.Prob > 1 {
				return fmt.Errorf("fault: site %s probability %g outside [0,1]", site, cfg.Prob)
			}
			if cfg.Mode == ModeLatency && cfg.Latency < 0 {
				return fmt.Errorf("fault: site %s negative latency", site)
			}
		}
	}
	for i := range injected {
		injected[i].Store(0)
	}
	active.Store(p)
	return nil
}

// Deactivate disarms all sites.
func Deactivate() { active.Store(nil) }

// Enabled reports whether any plan is armed.
func Enabled() bool { return active.Load() != nil }

// Counts reports how many times each site has fired since Activate.
// Only sites with a nonzero count appear; iteration of the result must be
// sorted by the caller (it is a map).
func Counts() map[Site]int64 {
	out := make(map[Site]int64)
	for i, site := range Sites() {
		if n := injected[i].Load(); n > 0 {
			out[site] = n
		}
	}
	return out
}

// Token hashes a string (an arch name, a model path) into a stream token
// for sites that have no request seed in scope. FNV-1a, 64-bit.
func Token(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Inject consults the armed plan for site under the caller's stream token.
// With no plan armed it returns nil immediately. When the site fires:
// ModeError returns a *fault.Error, ModePanic panics with a *fault.PanicValue,
// ModeLatency sleeps the configured duration and returns nil.
func Inject(site Site, token uint64) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	cfg, ok := p.Sites[site]
	if !ok || !decide(uint64(p.Seed), site, token, cfg.Prob) {
		return nil
	}
	if i := siteIndex(site); i >= 0 {
		injected[i].Add(1)
	}
	switch cfg.Mode {
	case ModeLatency:
		if cfg.Latency > 0 {
			time.Sleep(cfg.Latency)
		}
		return nil
	case ModePanic:
		panic(&PanicValue{Site: site})
	default:
		return &Error{Site: site}
	}
}

// decide is the per-request decision stream: a splitmix64 hash of
// (seed, site, token) compared against prob. Pure function — the same
// triple always decides the same way, so faults reproduce under a fixed
// seed regardless of goroutine scheduling or call order.
func decide(seed uint64, site Site, token uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	z := seed ^ Token(string(site)) ^ (token * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	// Top 53 bits → uniform in [0,1).
	return float64(z>>11)/(1<<53) < prob
}

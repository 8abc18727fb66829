// Package cluster is the multi-node routing layer of lisa-serve: a static
// peer list, consistent-hash ownership of mapping keys, and a proxy client
// with deterministic-backoff health gating.
//
// The design leans on the same property that makes the result store safe
// to share: a mapping is a pure function of its canonical cache key, so
// *where* it is computed does not matter — only that it is computed once.
// Consistent hashing assigns every key exactly one owner; non-owners proxy
// to the owner instead of computing, so a fleet of N daemons answers N
// nodes' worth of traffic with one compute per unique request fleet-wide.
// Every node is configured with the same peer list (order-insensitive; the
// ring is built from sorted URLs), so all nodes agree on ownership without
// any coordination protocol, leader, or membership gossip.
//
// Failure handling is availability-first: when the owner of a key is
// unreachable, the receiving node computes locally instead of failing the
// request — determinism makes the locally computed bytes identical to what
// the owner would have served, so the fallback costs duplicate work, never
// wrong answers. The fallback is labeled in response headers and counted
// in /metrics (the body stays byte-identical fleet-wide, which is the
// contract the degradation ladder's body labels would break). A failing
// peer is put in timed backoff — base×2^(failures−1), capped — so a dead
// node costs one probe per backoff window, not one timeout per request;
// the backoff schedule is a pure function of the failure count, keeping
// recovery behavior reproducible.
package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/lisa-go/lisa/internal/fault"
)

// ForwardedHeader marks a proxied request so the owner computes locally
// instead of re-routing — the loop guard for transiently disagreeing
// configurations (e.g. a peer restarted with a different -peers list).
const ForwardedHeader = "X-Lisa-Forwarded"

// ModelSHAHeader and ModelLenHeader self-describe a served model payload —
// the HTTP mirror of the store's "<store.Format> <sha256> <length>" entry
// header. The fetching side verifies both against the received body before
// it even tries gnn.Load, so a torn proxy response is caught at the wire.
const (
	ModelSHAHeader = "X-Lisa-Model-Sha256"
	ModelLenHeader = "X-Lisa-Model-Length"
)

// ErrPeerDown reports a peer skipped because it is inside its backoff
// window; the caller falls back to local compute without paying a timeout.
var ErrPeerDown = errors.New("cluster: peer in backoff")

// ErrNoModel reports a peer that answered the model fetch but has no model
// for the arch (HTTP 404). Transport-class for the ladder: the next ring
// candidate may have one, and this peer may train one later.
var ErrNoModel = errors.New("cluster: peer has no model for arch")

// ValidationError reports a fetched model payload that failed integrity or
// structural validation: the peer answered, but with bytes that must not be
// installed. Unlike a transport failure this is permanent until the peer's
// model changes, so callers cache it (cleared by Retry/reload) instead of
// re-fetching the same bad bytes on every request.
type ValidationError struct {
	Peer string
	Err  error
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("cluster: %s: invalid model payload: %v", e.Peer, e.Err)
}

func (e *ValidationError) Unwrap() error { return e.Err }

// Config describes one node's view of the fleet. Every node must be given
// the same Peers set (any order) for ownership to agree.
type Config struct {
	// Self is this node's own URL exactly as it appears in Peers.
	Self string
	// Peers lists every node of the fleet, including Self.
	Peers []string
	// BackoffBase and BackoffMax shape the failure backoff
	// base×2^(failures−1), capped at max (defaults 250ms and 8s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Now is the clock (tests inject a fake; the daemon leaves it nil for
	// time.Now).
	Now func() time.Time
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper
}

const (
	// replicas is the number of virtual ring points per peer; more points
	// smooth the key distribution.
	replicas = 64
	// rpcTimeout bounds one proxied mapping call. It sits above the
	// service's maximum request deadline, so the peer's own deadline
	// handling, not the transport, decides slow requests.
	rpcTimeout = 150 * time.Second
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
	// fetchTimeout bounds one model-fetch attempt: a model file is a few
	// hundred KB of JSON, so anything slower is a sick peer and local
	// training is the better spend.
	fetchTimeout = 10 * time.Second
)

// point is one virtual ring position.
type point struct {
	hash uint64
	peer int // index into Cluster.peers
}

// peerHealth tracks one remote peer's failure state. failures==0 means
// healthy; otherwise the peer is skipped until retryAt, when the next
// request is allowed through as the probe.
type peerHealth struct {
	failures int
	retryAt  time.Time
}

// Cluster is one node's routing table plus the health-gated proxy client.
type Cluster struct {
	self     string
	peers    []string // sorted; ring and Status order
	ring     []point  // sorted by hash
	client   *http.Client
	probe    *http.Client
	fetch    *http.Client
	now      func() time.Time
	backoff0 time.Duration
	backoffM time.Duration

	mu     sync.Mutex
	health map[string]*peerHealth // remote peers only
}

// New validates the peer list and builds the ring. It requires Self to be
// one of Peers, URLs to parse, and no duplicates.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: empty peer list")
	}
	if cfg.Self == "" {
		return nil, errors.New("cluster: -self is required with -peers")
	}
	peers := make([]string, 0, len(cfg.Peers))
	seen := map[string]bool{}
	selfSeen := false
	for _, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		u, err := url.Parse(p)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q is not an absolute URL", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		if p == strings.TrimRight(strings.TrimSpace(cfg.Self), "/") {
			selfSeen = true
		}
		peers = append(peers, p)
	}
	if !selfSeen {
		return nil, fmt.Errorf("cluster: -self %q is not in the peer list %v", cfg.Self, peers)
	}
	sort.Strings(peers)

	c := &Cluster{
		self:     strings.TrimRight(strings.TrimSpace(cfg.Self), "/"),
		peers:    peers,
		now:      cfg.Now,
		backoff0: cfg.BackoffBase,
		backoffM: cfg.BackoffMax,
		health:   make(map[string]*peerHealth),
	}
	if c.now == nil {
		c.now = func() time.Time {
			//lisa:vet-ok wallclock backoff gating only: the clock decides when a down peer is re-probed, never what any mapping result contains
			return time.Now()
		}
	}
	if c.backoff0 <= 0 {
		c.backoff0 = 250 * time.Millisecond
	}
	if c.backoffM <= 0 {
		c.backoffM = 8 * time.Second
	}
	c.client = &http.Client{Timeout: rpcTimeout, Transport: cfg.Transport}
	c.probe = &http.Client{Timeout: probeTimeout, Transport: cfg.Transport}
	c.fetch = &http.Client{Timeout: fetchTimeout, Transport: cfg.Transport}

	// Ring points are hashes of "peer|replica" over the *sorted* peer list,
	// so every node — whatever order its -peers flag came in — derives the
	// identical ring and agrees on ownership with no coordination.
	c.ring = make([]point, 0, len(peers)*replicas)
	for pi, p := range peers {
		for r := 0; r < replicas; r++ {
			c.ring = append(c.ring, point{hash: hash64(fmt.Sprintf("%s|%d", p, r)), peer: pi})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool {
		if c.ring[i].hash != c.ring[j].hash {
			return c.ring[i].hash < c.ring[j].hash
		}
		return c.ring[i].peer < c.ring[j].peer // deterministic tie-break on (astronomically unlikely) hash collisions
	})
	return c, nil
}

// hash64 is FNV-1a passed through murmur3's 64-bit finalizer (fmix64) —
// stable across processes and Go versions, unlike maphash. FNV-1a alone
// barely moves the high bits when only a string's last characters differ,
// so a peer's "peer|replica" points would land in one clump of the ring;
// the finalizer spreads every input bit over the whole word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s) // hash.Hash writes never fail
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// PayloadSHA is the hex SHA-256 of a model payload — the value both sides
// of the model wire format put in ModelSHAHeader.
func PayloadSHA(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Self returns this node's URL.
func (c *Cluster) Self() string { return c.self }

// Peers returns the full sorted peer list (including self).
func (c *Cluster) Peers() []string { return append([]string(nil), c.peers...) }

// Owner returns the peer URL owning key: the first ring point at or after
// the key's hash, wrapping around. Pure function of (peer list, key) —
// every correctly configured node answers identically.
func (c *Cluster) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if i == len(c.ring) {
		i = 0
	}
	return c.peers[c.ring[i].peer]
}

// OwnsSelf reports whether this node owns key.
func (c *Cluster) OwnsSelf(key string) bool { return c.Owner(key) == c.self }

// Successors returns the distinct remote peers in ring order starting at
// key's owner, self excluded. This is the model-fetch candidate list: the
// owner is the peer most likely to hold a trained model for the key (all
// label traffic for it routes there), and when the owner is down — or this
// node *is* the owner — the ring successors are the next most likely, in an
// order every node agrees on.
func (c *Cluster) Successors(key string) []string {
	h := hash64(key)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if start == len(c.ring) {
		start = 0
	}
	out := make([]string, 0, len(c.peers))
	seen := make(map[int]bool, len(c.peers))
	for i := 0; i < len(c.ring) && len(seen) < len(c.peers); i++ {
		pt := c.ring[(start+i)%len(c.ring)]
		if seen[pt.peer] {
			continue
		}
		seen[pt.peer] = true
		if p := c.peers[pt.peer]; p != c.self {
			out = append(out, p)
		}
	}
	return out
}

// Available reports whether peer may be contacted right now: healthy, or
// its backoff window has expired (the next call doubles as the probe).
func (c *Cluster) Available(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[peer]
	return h == nil || h.failures == 0 || !c.now().Before(h.retryAt)
}

// markFailure records a failed contact and arms the next backoff window:
// base×2^(failures−1), capped. The schedule is a pure function of the
// failure count — no jitter — so recovery timing reproduces in tests and
// chaos runs.
func (c *Cluster) markFailure(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[peer]
	if h == nil {
		h = &peerHealth{}
		c.health[peer] = h
	}
	h.failures++
	d := c.backoff0
	for i := 1; i < h.failures && d < c.backoffM; i++ {
		d *= 2
	}
	if d > c.backoffM {
		d = c.backoffM
	}
	h.retryAt = c.now().Add(d)
}

// markSuccess clears peer's failure state.
func (c *Cluster) markSuccess(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.health, peer)
}

// Response is one proxied HTTP exchange, body fully read.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// Forward proxies body to peer's path (POST, JSON) through the health
// gate: a peer inside its backoff window returns ErrPeerDown immediately;
// a transport failure (or an armed peer.rpc fault) marks the peer down and
// is returned for the caller to fall back on. An HTTP-level error status
// is a *successful* contact — the peer is alive and said so — and never
// marks it down. token scopes fault decisions per request.
func (c *Cluster) Forward(peer, path string, token uint64, body []byte) (*Response, error) {
	if !c.Available(peer) {
		return nil, ErrPeerDown
	}
	if err := fault.Inject(fault.PeerRPC, token); err != nil {
		c.markFailure(peer)
		return nil, fmt.Errorf("cluster: %s: %w", peer, err)
	}
	req, err := http.NewRequest(http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", peer, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		c.markFailure(peer)
		return nil, fmt.Errorf("cluster: %s: %w", peer, err)
	}
	defer func() { _ = resp.Body.Close() }() // fully read below; close cannot lose data
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.markFailure(peer)
		return nil, fmt.Errorf("cluster: %s: reading response: %w", peer, err)
	}
	c.markSuccess(peer)
	return &Response{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// retryableConn reports whether err is a connection-level refusal or reset
// — the peer process is restarting or just bounced, and an immediate second
// dial plausibly lands on the fresh listener. Timeouts are excluded: a
// timed-out request may still be executing on the peer, and retrying it
// doubles the load exactly when the peer is slowest.
func retryableConn(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// doGet issues a GET through client, retrying exactly once on a
// connection-refused/reset error. Safe only because GETs here are
// idempotent reads (health probes, model fetches); Forward's POSTs are
// never retried — a mapping request that died mid-flight may have been
// executed, and replaying it would double-count in the peer's metrics.
func (c *Cluster) doGet(client *http.Client, url string) (*http.Response, error) {
	resp, err := client.Get(url)
	if err != nil && retryableConn(err) {
		resp, err = client.Get(url)
	}
	return resp, err
}

// FetchModel asks peer for its trained model for arch and returns the raw
// gnn.Save bytes, verified against the payload's own SHA-256 and length
// headers. Errors classify for the registry's retry policy: health-gate
// skips (ErrPeerDown), transport failures, and non-OK statuses other than
// 404 are transient — try the next ring candidate, retry later; ErrNoModel
// (404) means this peer just hasn't trained yet; a *ValidationError means
// the peer served bytes that fail integrity checks, which re-fetching will
// not fix. The injected model.fetch fault behaves as a transport failure.
func (c *Cluster) FetchModel(peer, arch string) ([]byte, error) {
	if !c.Available(peer) {
		return nil, ErrPeerDown
	}
	if err := fault.Inject(fault.ModelFetch, fault.Token(peer+"|"+arch)); err != nil {
		c.markFailure(peer)
		return nil, fmt.Errorf("cluster: %s: %w", peer, err)
	}
	resp, err := c.doGet(c.fetch, peer+"/v1/model/"+url.PathEscape(arch))
	if err != nil {
		c.markFailure(peer)
		return nil, fmt.Errorf("cluster: %s: %w", peer, err)
	}
	defer func() { _ = resp.Body.Close() }() // fully read below; close cannot lose data
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.markFailure(peer)
		return nil, fmt.Errorf("cluster: %s: reading model: %w", peer, err)
	}
	c.markSuccess(peer) // the peer answered; what it said is judged below
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("cluster: %s: %w", peer, ErrNoModel)
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("cluster: %s: model fetch status %d", peer, resp.StatusCode)
	}
	if want := resp.Header.Get(ModelLenHeader); want != "" {
		n, err := strconv.Atoi(want)
		if err != nil || n != len(body) {
			return nil, &ValidationError{Peer: peer, Err: fmt.Errorf("length header says %s, body is %d bytes", want, len(body))}
		}
	}
	if want := resp.Header.Get(ModelSHAHeader); want != "" {
		if got := PayloadSHA(body); got != want {
			return nil, &ValidationError{Peer: peer, Err: fmt.Errorf("sha256 header says %s, body hashes to %s", want, got)}
		}
	}
	return body, nil
}

// Probe contacts peer's liveness endpoint and updates its health state,
// reporting reachability. Peers inside their backoff window are not
// contacted (reported down) so a dead node costs one timeout per window.
func (c *Cluster) Probe(peer string) bool {
	if peer == c.self {
		return true
	}
	if !c.Available(peer) {
		return false
	}
	//lisa:vet-ok faultsite Probe and Forward share the PeerRPC site on purpose: a peer-RPC fault plan must hit both paths a request can reach that peer through
	if err := fault.Inject(fault.PeerRPC, fault.Token(peer)); err != nil {
		c.markFailure(peer)
		return false
	}
	resp, err := c.doGet(c.probe, peer+"/healthz")
	if err != nil {
		c.markFailure(peer)
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reusable
	_ = resp.Body.Close()                 // read-only response; nothing to recover
	if resp.StatusCode != http.StatusOK {
		c.markFailure(peer)
		return false
	}
	c.markSuccess(peer)
	return true
}

// PeerStatus is one row of Status: the node's current view of a peer.
type PeerStatus struct {
	URL      string `json:"url"`
	Self     bool   `json:"self,omitempty"`
	Healthy  bool   `json:"healthy"`
	Failures int    `json:"failures,omitempty"`
}

// Status snapshots every peer's health, sorted by URL. "Healthy" means
// contactable right now (self always is; a peer in backoff is not).
func (c *Cluster) Status() []PeerStatus {
	out := make([]PeerStatus, 0, len(c.peers))
	for _, p := range c.peers {
		st := PeerStatus{URL: p, Self: p == c.self, Healthy: true}
		if !st.Self {
			c.mu.Lock()
			if h := c.health[p]; h != nil && h.failures > 0 {
				st.Failures = h.failures
				st.Healthy = !c.now().Before(h.retryAt)
			}
			c.mu.Unlock()
		}
		out = append(out, st)
	}
	return out
}

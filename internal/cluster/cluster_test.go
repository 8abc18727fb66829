package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/lisa-go/lisa/internal/fault"
)

func threePeers() []string {
	return []string{"http://127.0.0.1:9001", "http://127.0.0.1:9002", "http://127.0.0.1:9003"}
}

func mustNew(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	peers := threePeers()
	cases := map[string]Config{
		"empty peers":      {Self: peers[0]},
		"no self":          {Peers: peers},
		"self not in list": {Self: "http://127.0.0.1:9999", Peers: peers},
		"duplicate":        {Self: peers[0], Peers: append(threePeers(), peers[1])},
		"relative url":     {Self: "node-a", Peers: []string{"node-a", "node-b"}},
	}
	for what, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

// TestRingAgreesAcrossPeerOrder is the no-coordination contract: every node
// derives the identical ownership map from any ordering of the same -peers
// flag.
func TestRingAgreesAcrossPeerOrder(t *testing.T) {
	peers := threePeers()
	shuffled := []string{peers[2], peers[0], peers[1]}
	a := mustNew(t, Config{Self: peers[0], Peers: peers})
	b := mustNew(t, Config{Self: peers[1], Peers: shuffled})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("%064x", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %s: node a says %s, node b says %s", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestOwnershipDistributionAndDeterminism(t *testing.T) {
	peers := threePeers()
	c := mustNew(t, Config{Self: peers[0], Peers: peers})
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%064x", i*7919)
		owner := c.Owner(key)
		if c.Owner(key) != owner {
			t.Fatal("Owner is not deterministic")
		}
		counts[owner]++
	}
	for _, p := range peers {
		if counts[p] < n/6 {
			t.Fatalf("peer %s owns only %d/%d keys; ring badly skewed: %v", p, counts[p], n, counts)
		}
	}

	// Two-node rings must split cache keys evenly whatever the ports: over
	// random 127.0.0.1 port pairs, one node's share of SHA-256 keys stays
	// near one half from the 5th to the 95th percentile.
	keys := make([]string, 2000)
	for i := range keys {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	rng := rand.New(rand.NewSource(1))
	shares := make([]float64, 400)
	for i := range shares {
		pa, pb := 1024+rng.Intn(64512), 1024+rng.Intn(64512)
		if pa == pb {
			pb = 1024 + (pb-1024+1)%64512
		}
		a, b := fmt.Sprintf("http://127.0.0.1:%d", pa), fmt.Sprintf("http://127.0.0.1:%d", pb)
		c := mustNew(t, Config{Self: a, Peers: []string{a, b}})
		owned := 0
		for _, k := range keys {
			if c.OwnsSelf(k) {
				owned++
			}
		}
		shares[i] = float64(owned) / float64(len(keys))
	}
	sort.Float64s(shares)
	if p5, p95 := shares[len(shares)*5/100], shares[len(shares)*95/100]; p5 < 0.40 || p95 > 0.60 {
		t.Fatalf("two-node key share runs %.3f–%.3f from p5 to p95, want within 0.40–0.60", p5, p95)
	}
}

// TestConsistentHashStability: removing one peer must only reassign the
// keys that peer owned — the point of consistent hashing over mod-N.
func TestConsistentHashStability(t *testing.T) {
	peers := threePeers()
	full := mustNew(t, Config{Self: peers[0], Peers: peers})
	reduced := mustNew(t, Config{Self: peers[0], Peers: peers[:2]})
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("%064x", i*104729)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != peers[2] && after != before {
			t.Fatalf("key %s moved %s→%s though its owner never left", key, before, after)
		}
	}
}

// fakeClock is a hand-cranked clock for backoff tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func TestBackoffScheduleDeterministic(t *testing.T) {
	peers := threePeers()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := mustNew(t, Config{Self: peers[0], Peers: peers, Now: clk.now,
		BackoffBase: 250 * time.Millisecond, BackoffMax: 2 * time.Second})
	peer := peers[1]

	if !c.Available(peer) {
		t.Fatal("fresh peer unavailable")
	}
	// failures → window: 250ms, 500ms, 1s, 2s, 2s (capped) ...
	for i, want := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second, 2 * time.Second} {
		c.markFailure(peer)
		if c.Available(peer) {
			t.Fatalf("failure %d: still available inside the window", i+1)
		}
		clk.advance(want - time.Millisecond)
		if c.Available(peer) {
			t.Fatalf("failure %d: window shorter than %v", i+1, want)
		}
		clk.advance(time.Millisecond)
		if !c.Available(peer) {
			t.Fatalf("failure %d: window longer than %v", i+1, want)
		}
	}
	c.markSuccess(peer)
	if !c.Available(peer) {
		t.Fatal("peer still down after success")
	}
	if st := c.Status(); st[0].Failures != 0 && st[1].Failures != 0 && st[2].Failures != 0 {
		t.Fatalf("Status retains failures after success: %+v", st)
	}
}

func TestForwardRoundTripAndLoopGuard(t *testing.T) {
	var gotForwarded string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForwarded = r.Header.Get(ForwardedHeader)
		w.Header().Set("X-Lisa-Cache", "miss")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	self := "http://127.0.0.1:9001"
	c := mustNew(t, Config{Self: self, Peers: []string{self, srv.URL}})
	resp, err := c.Forward(srv.URL, "/v1/map", 1, []byte(`{"kernel":"gemm"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusOK || string(resp.Body) != `{"ok":true}` {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
	if resp.Header.Get("X-Lisa-Cache") != "miss" {
		t.Fatal("peer headers not forwarded")
	}
	if gotForwarded != self {
		t.Fatalf("%s header = %q, want %q", ForwardedHeader, gotForwarded, self)
	}
}

func TestForwardTransportFailureMarksDown(t *testing.T) {
	peers := threePeers()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	// Peer 9002 is not listening: the dial fails fast.
	c := mustNew(t, Config{Self: peers[0], Peers: peers, Now: clk.now})
	if _, err := c.Forward(peers[1], "/v1/map", 1, nil); err == nil {
		t.Fatal("Forward to a dead peer succeeded")
	}
	// Now inside the backoff window: no dial, ErrPeerDown immediately.
	if _, err := c.Forward(peers[1], "/v1/map", 1, nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("second Forward = %v, want ErrPeerDown", err)
	}
	if st := c.Status(); st[1].Healthy || st[1].Failures != 1 {
		t.Fatalf("Status after one failure: %+v", st[1])
	}
}

func TestForwardHTTPErrorIsAliveContact(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	self := "http://127.0.0.1:9001"
	c := mustNew(t, Config{Self: self, Peers: []string{self, srv.URL}})
	resp, err := c.Forward(srv.URL, "/v1/map", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusTooManyRequests {
		t.Fatalf("status = %d", resp.Status)
	}
	if !c.Available(srv.URL) {
		t.Fatal("an HTTP 429 marked an alive peer down")
	}
}

func TestProbeUpdatesHealth(t *testing.T) {
	healthy := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		if !healthy {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	self := "http://127.0.0.1:9001"
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := mustNew(t, Config{Self: self, Peers: []string{self, srv.URL}, Now: clk.now})

	if !c.Probe(srv.URL) {
		t.Fatal("probe of a healthy peer failed")
	}
	if !c.Probe(self) {
		t.Fatal("self-probe must always succeed")
	}
	healthy = false
	if c.Probe(srv.URL) {
		t.Fatal("probe of a 503 peer succeeded")
	}
	// Inside backoff: probe reports down without contacting.
	if c.Probe(srv.URL) {
		t.Fatal("probe inside backoff succeeded")
	}
	healthy = true
	clk.advance(time.Second)
	if !c.Probe(srv.URL) {
		t.Fatal("probe after backoff expiry failed")
	}
}

func TestPeerRPCFaultSite(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	self := "http://127.0.0.1:9001"
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := mustNew(t, Config{Self: self, Peers: []string{self, srv.URL}, Now: clk.now})

	plan, err := fault.ParsePlan("peer.rpc=error:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(plan); err != nil {
		t.Fatal(err)
	}
	defer fault.Deactivate()

	_, err = c.Forward(srv.URL, "/v1/map", 7, nil)
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Site != fault.PeerRPC {
		t.Fatalf("Forward under peer.rpc fault = %v, want injected error", err)
	}
	if c.Available(srv.URL) {
		t.Fatal("injected RPC failure did not mark the peer down")
	}
	fault.Deactivate()
	clk.advance(time.Minute)
	if resp, err := c.Forward(srv.URL, "/v1/map", 7, nil); err != nil || resp.Status != http.StatusOK {
		t.Fatalf("recovery Forward = %v, %v", resp, err)
	}
}

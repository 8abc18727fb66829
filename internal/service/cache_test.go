package service

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/mapper"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2, 0)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheFirstBytesWin(t *testing.T) {
	c := NewCache(4, 0)
	c.Add("k", []byte("original"))
	c.Add("k", []byte("imposter"))
	got, _ := c.Get("k")
	if !bytes.Equal(got, []byte("original")) {
		t.Fatalf("re-Add replaced content-addressed bytes: %q", got)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	const followers = 7
	results := make([][]byte, followers+1)
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		res, shared := g.do("k", nil, func() flightResult {
			close(started)
			runs.Add(1)
			<-release
			return flightResult{body: []byte("payload"), status: 200}
		})
		if shared {
			t.Error("leader reported shared")
		}
		results[followers] = res.body
	}()
	<-started
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, shared := g.do("k", nil, func() flightResult {
				runs.Add(1)
				return flightResult{body: []byte("wrong"), status: 200}
			})
			if res.err != nil || !shared {
				t.Errorf("follower %d: err=%v shared=%v", i, res.err, shared)
			}
			results[i] = res.body
		}(i)
	}
	// Release the leader only after every follower has joined the in-flight
	// call; otherwise a late follower legitimately becomes a fresh leader.
	for g.waiting("k") != followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	<-leaderDone

	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	for i, r := range results {
		if !bytes.Equal(r, []byte("payload")) {
			t.Fatalf("caller %d saw %q", i, r)
		}
	}
	// The entry must be gone so the next request goes through the cache.
	_, shared := g.do("k", nil, func() flightResult { return flightResult{status: 200} })
	if shared {
		t.Fatal("completed flight entry not removed")
	}
}

func TestFlightGroupFollowerCancel(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	started := make(chan struct{})
	go g.do("k", nil, func() flightResult {
		close(started)
		<-release
		return flightResult{status: 200}
	})
	<-started
	cancel := make(chan struct{})
	close(cancel)
	res, _ := g.do("k", cancel, func() flightResult { return flightResult{status: 200} })
	if res.err != errCanceled {
		t.Fatalf("canceled follower got err=%v, want errCanceled", res.err)
	}
	close(release)
}

func TestCacheKeyDiscriminates(t *testing.T) {
	gemm := kernels.MustByName("gemm")
	atax := kernels.MustByName("atax")
	base := cacheKey(gemm.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 0, false)

	variants := map[string]string{
		"arch":     cacheKey(gemm.AppendCanonical(nil), "", "cgra-8x8", engine.SA, mapper.Options{Seed: 1}, 0, false),
		"engine":   cacheKey(gemm.AppendCanonical(nil), "", "cgra-4x4", engine.LISA, mapper.Options{Seed: 1}, 0, false),
		"seed":     cacheKey(gemm.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 2}, 0, false),
		"moves":    cacheKey(gemm.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1, MaxMoves: 9}, 0, false),
		"deadline": cacheKey(gemm.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 5000, false),
		"dfg":      cacheKey(atax.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 0, false),
		"kernel":   cacheKey(gemm.AppendCanonical(nil), "gemm", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 0, false),
		"stats":    cacheKey(gemm.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 0, true),
	}
	for what, key := range variants {
		if key == base {
			t.Errorf("cache key ignores %s", what)
		}
	}

	// Normalization: zero knobs and explicit defaults share an entry.
	def := mapper.DefaultOptions()
	def.Seed = 1
	if cacheKey(gemm.AppendCanonical(nil), "", "cgra-4x4", engine.SA, def, 0, false) != base {
		t.Error("explicit default options hash differently from zero options")
	}
	// Graph names never reach the key.
	renamed := kernels.MustByName("gemm")
	renamed.Name = "whatever"
	if cacheKey(renamed.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 0, false) != base {
		t.Error("cache key depends on the graph name")
	}
}

// The cache key must agree for a built-in kernel and the same DFG uploaded
// as JSON — the content-addressing property.
func TestCacheKeyContentAddressed(t *testing.T) {
	g := kernels.MustByName("gemm")
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dfg.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := cacheKey(g.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 0, false)
	b := cacheKey(back.AppendCanonical(nil), "", "cgra-4x4", engine.SA, mapper.Options{Seed: 1}, 0, false)
	if a != b {
		t.Fatalf("kernel and round-tripped DFG hash differently:\n%s\n%s",
			fmt.Sprintf("%.16s", a), fmt.Sprintf("%.16s", b))
	}
}

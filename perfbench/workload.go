package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/kernels"
	"github.com/lisa-go/lisa/internal/service"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wCompile  = "compile"
	wServeHot = "serve-hot"
	wLabels   = "labels"
)

// archName is the target of every workload: the paper's main 4x4 CGRA.
const archName = "cgra-4x4"

// clients is the closed-loop client count of every workload and replay.
// One client keeps the measured requests off each other's cores, and on
// the shared 2-vCPU machine the benchmark was built on it cut the spread of
// labels throughput over four seeds from 26% to 8% (IQR over median)
// against one client per CPU.
const clients = 1

// Request-mix constants. They define the workloads, so changing any of them
// starts a new baseline.
const (
	// hotCacheEntries is Config.CacheEntries of the benchmark's server; the
	// serve-hot working set is four times it, so L1 and the store share the
	// hits.
	hotCacheEntries = 32
	hotWorkingSet   = 4 * hotCacheEntries
	// hotZipfS is the Zipf exponent of serve-hot key popularity.
	hotZipfS = 1.1
	// maxLabelBatch is lisa-serve's /v1/labels batch cap.
	maxLabelBatch = 64
	// labelsRandomPool is how many §V generator DFGs the labels workload
	// draws its inline random graphs from.
	labelsRandomPool = 128
)

// mapReq is one /v1/map request of the compile and serve-hot workloads.
type mapReq struct {
	Kernel   string
	Unroll   int
	Seed     int64
	Restarts int
}

// body renders the request as the JSON a lisa-serve client sends.
func (r mapReq) body() []byte {
	seed := r.Seed
	req := service.MapRequest{Kernel: r.Kernel, Arch: archName, Engine: "lisa", Seed: &seed, Restarts: r.Restarts}
	if r.Unroll > 1 {
		req.Unroll = r.Unroll
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and integers always marshal
	}
	return b
}

// compileDeck is one request of every compile shape: each PolyBench kernel
// at unroll {1, 1, 2} and restarts {1, 1, 1, 4}, so a third of the requests
// are unrolled x2 and a quarter race a K=4 portfolio.
func compileDeck() []mapReq {
	var deck []mapReq
	for _, name := range kernels.Names() {
		for _, u := range []int{1, 1, 2} {
			for _, k := range []int{0, 0, 0, 4} {
				deck = append(deck, mapReq{Kernel: name, Unroll: u, Restarts: k})
			}
		}
	}
	return deck
}

// compileList draws the compile list: warm requests of random shapes, then
// n requests made of whole shuffled decks (n is a multiple of the deck), so
// every seed measures the same mix in another order. Each request has its
// own seed, so no two share a cache key.
func compileList(seed int64, warm, n int) []mapReq {
	rng := rand.New(rand.NewSource(seed))
	deck := compileDeck()
	out := make([]mapReq, 0, warm+n)
	for len(out) < warm {
		out = append(out, deck[rng.Intn(len(deck))])
	}
	for len(out) < warm+n {
		rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		out = append(out, deck...)
	}
	out = out[:warm+n]
	for i := range out {
		out[i].Seed = seed*1_000_000 + int64(i)
	}
	return out
}

// serveHotList returns the serve-hot working set (m keys, rank 0 the most
// popular) and n requests over it with Zipf popularity, as indices into the
// set. Rank r is kernel r/2 (cycling) at unroll 1 + r%2, so every seed has
// the same popularity-by-shape profile; the seeds, and so the mappings and
// the request order, differ. Distinct seeds make every key distinct, even
// where two kernels share a structure (gemm and syrk).
func serveHotList(seed int64, m, n int) ([]mapReq, []int32) {
	names := kernels.Names()
	set := make([]mapReq, m)
	for r := range set {
		set[r] = mapReq{Kernel: names[(r/2)%len(names)], Unroll: 1 + r%2, Seed: seed*1000 + int64(r)}
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, uint64(m-1))
	list := make([]int32, n)
	for i := range list {
		list[i] = int32(zipf.Uint64())
	}
	return set, list
}

// DFG kinds of a labels batch.
const (
	kindNamed    = iota // a built-in kernel, sent by name
	kindUnrolled        // a kernel unrolled x2 or x4, sent inline
	kindRandom          // a §V generator DFG, sent inline
)

// labelItem is one DFG of a labels batch: a kind and an index into its pool.
type labelItem struct {
	Kind  uint8
	Index uint16
}

// labelsPool holds every DFG a labels batch can carry.
type labelsPool struct {
	named    []string // kernel names
	unrolled [][]byte // compact JSON documents
	random   [][]byte
	graphs   [3][]*dfg.Graph // per kind, the graph each entry decodes to
}

// newLabelsPool builds the pool: the 12 PolyBench kernels, each unrolled x2
// and x4, and labelsRandomPool random DFGs drawn with the workload seed.
func newLabelsPool(seed int64) (*labelsPool, error) {
	p := &labelsPool{named: kernels.Names()}
	add := func(kind int, g *dfg.Graph) error {
		var raw bytes.Buffer
		if err := g.WriteJSON(&raw); err != nil {
			return err
		}
		var doc bytes.Buffer
		if err := json.Compact(&doc, raw.Bytes()); err != nil {
			return err
		}
		back, err := dfg.ReadJSON(bytes.NewReader(doc.Bytes()))
		if err != nil {
			return fmt.Errorf("pool DFG %s: %w", g.Name, err)
		}
		if kind == kindUnrolled {
			p.unrolled = append(p.unrolled, doc.Bytes())
		} else {
			p.random = append(p.random, doc.Bytes())
		}
		p.graphs[kind] = append(p.graphs[kind], back)
		return nil
	}
	for _, name := range p.named {
		p.graphs[kindNamed] = append(p.graphs[kindNamed], kernels.MustByName(name))
	}
	for _, name := range p.named {
		for _, f := range []int{2, 4} {
			if err := add(kindUnrolled, dfg.Unroll(kernels.MustByName(name), f)); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < labelsRandomPool; k++ {
		if err := add(kindRandom, dfg.Random(rng, dfg.DefaultRandomConfig(), "rand"+strconv.Itoa(k))); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// labelsList draws the labels list: warm batches of random sizes and DFGs,
// then n batches (n a multiple of maxLabelBatch) whose sizes are whole
// shuffled decks of 1..maxLabelBatch and whose DFGs are a fixed multiset
// dealt in shuffled order. The k-th DFG of that multiset is named,
// unrolled-inline or random-inline as k%3, cycling through its kind's
// pool, so every seed sends the same named and unrolled DFGs, and each
// entry of its random pool as often, in other batches and another order.
func labelsList(seed int64, warm, n int, p *labelsPool) [][]labelItem {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]labelItem, 0, warm+n)
	for len(out) < warm {
		items := make([]labelItem, 1+rng.Intn(maxLabelBatch))
		for j := range items {
			kind := rng.Intn(3)
			items[j] = labelItem{Kind: uint8(kind), Index: uint16(rng.Intn(len(p.graphs[kind])))}
		}
		out = append(out, items)
	}
	sizes := make([]int, 0, n+maxLabelBatch)
	deck := make([]int, maxLabelBatch)
	for len(sizes) < n {
		for j := range deck {
			deck[j] = j + 1
		}
		rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		sizes = append(sizes, deck...)
	}
	sizes = sizes[:n]
	total := 0
	for _, s := range sizes {
		total += s
	}
	items := make([]labelItem, total)
	for k := range items {
		kind := k % 3
		items[k] = labelItem{Kind: uint8(kind), Index: uint16(k / 3 % len(p.graphs[kind]))}
	}
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	for _, s := range sizes {
		out = append(out, items[:s:s])
		items = items[s:]
	}
	return out
}

// ordered returns a batch in the order lisa-serve answers it: named kernels
// first, then inline documents, each in request order.
func ordered(items []labelItem) []labelItem {
	out := make([]labelItem, 0, len(items))
	for _, it := range items {
		if it.Kind == kindNamed {
			out = append(out, it)
		}
	}
	for _, it := range items {
		if it.Kind != kindNamed {
			out = append(out, it)
		}
	}
	return out
}

// appendLabelsBody appends the /v1/labels request JSON for one batch.
func (p *labelsPool) appendLabelsBody(dst []byte, items []labelItem) []byte {
	dst = append(dst, `{"arch":"`+archName+`"`...)
	sep := byte('[')
	for _, it := range items {
		if it.Kind == kindNamed {
			if sep == '[' {
				dst = append(dst, `,"kernels":`...)
			}
			dst = append(dst, sep)
			dst = strconv.AppendQuote(dst, p.named[it.Index])
			sep = ','
		}
	}
	if sep == ',' {
		dst = append(dst, ']')
	}
	sep = '['
	for _, it := range items {
		if it.Kind != kindNamed {
			if sep == '[' {
				dst = append(dst, `,"dfgs":`...)
			}
			dst = append(dst, sep)
			dst = append(dst, p.doc(it)...)
			sep = ','
		}
	}
	if sep == ',' {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// doc returns the inline JSON document of an unrolled or random item.
func (p *labelsPool) doc(it labelItem) []byte {
	if it.Kind == kindUnrolled {
		return p.unrolled[it.Index]
	}
	return p.random[it.Index]
}

// graph returns the DFG an item stands for.
func (p *labelsPool) graph(it labelItem) *dfg.Graph { return p.graphs[it.Kind][it.Index] }

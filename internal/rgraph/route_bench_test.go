package rgraph

import (
	"math/rand"
	"testing"
)

// benchQueries builds one deterministic mixed workload (successes, congestion
// failures, waiting routes) shared by both router benchmarks so their
// numbers compare like for like.
type benchQuery struct {
	occ  *Occupancy
	sig  Signal
	src  int
	dst  int
	hops int
}

func benchQueries(g *Graph, count int) []benchQuery {
	rng := rand.New(rand.NewSource(1))
	fus := g.FUs()
	qs := make([]benchQuery, count)
	for i := range qs {
		qs[i] = benchQuery{
			occ:  randomOccupancy(g, rng, 0.3),
			sig:  Signal(rng.Intn(4)),
			src:  fus[rng.Intn(len(fus))],
			dst:  fus[rng.Intn(len(fus))],
			hops: 1 + rng.Intn(10),
		}
	}
	return qs
}

// BenchmarkRoute01BFS measures the deque-based 0-1 BFS router (the production
// path). Compare against BenchmarkRouteDijkstra, the retired container/heap
// implementation it replaced.
func BenchmarkRoute01BFS(b *testing.B) {
	g := lineGraph(8, 4)
	r := NewRouter(g, 24)
	qs := benchQueries(g, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		r.Route(q.occ, q.sig, q.src, q.dst, q.hops)
	}
}

// BenchmarkRouteDijkstra measures the reference heap Dijkstra on the
// identical workload.
func BenchmarkRouteDijkstra(b *testing.B) {
	g := lineGraph(8, 4)
	r := NewRouter(g, 24)
	qs := benchQueries(g, 64)
	var pq routeHeap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		r.routeDijkstra(&pq, q.occ, q.sig, q.src, q.dst, q.hops)
	}
}

// BenchmarkShortestHops measures the scratch-reusing reachability BFS the
// mapper calls when scanning feasible time slots.
func BenchmarkShortestHops(b *testing.B) {
	g := lineGraph(8, 4)
	r := NewRouter(g, 24)
	qs := benchQueries(g, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		r.ShortestHops(q.occ, q.sig, q.src, q.dst)
	}
}

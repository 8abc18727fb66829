package rgraph

import "container/heap"

// routeDijkstra is the original container/heap Dijkstra router, kept as the
// reference implementation for the 0-1 BFS in Route: the differential tests
// assert cost-for-cost agreement on random instances, and the route
// benchmarks quantify the win (no log factor, no interface{} boxing per
// push). It shares the router's dist/stamp/prev scratch and state encoding
// — do not interleave with Route within one logical query — and keeps its
// heap in pq.
//
// At equal cost the two implementations may legitimately pick different
// paths: the heap orders states by cost only, so its tie-break is the
// incidental sift order, while the deque's is the documented
// adjacency-order/FIFO rule.
func (r *Router) routeDijkstra(pq *routeHeap, occ *Occupancy, sig Signal, src, dst, hops int) (path []int, cost int, ok bool) {
	if hops < 1 || hops > r.MaxHops {
		return nil, 0, false
	}
	r.epoch++
	start := int32(src) << r.shift
	r.dist[start] = 0
	r.stamp[start] = r.epoch
	r.prev[start] = -1
	*pq = (*pq)[:0]
	*pq = append(*pq, routeItem{state: start, cost: 0})

	goal := int32(dst)<<r.shift | int32(hops)
	for len(*pq) > 0 {
		it := heap.Pop(pq).(routeItem)
		if r.stamp[it.state] == r.epoch && r.dist[it.state] < it.cost {
			continue // stale entry
		}
		if it.state == goal {
			return r.buildPath(goal, hops), int(it.cost), true
		}
		node := int(it.state >> r.shift)
		done := int(it.state & r.mask)
		if done >= hops {
			continue
		}
		for _, nb := range r.g.Out(node) {
			next := int(nb)
			nn := &r.g.Nodes[next]
			isDst := next == dst && done+1 == hops
			if !isDst {
				if !nn.RouteOK || !occ.CanEnter(next, sig) {
					continue
				}
			}
			step := int32(1)
			if occ.Carries(next, sig) {
				step = 0
			}
			if isDst {
				step = 0 // the consumer op already occupies its FU
			}
			ns := int32(next)<<r.shift | int32(done+1)
			nc := it.cost + step
			if r.stamp[ns] == r.epoch && r.dist[ns] <= nc {
				continue
			}
			r.stamp[ns] = r.epoch
			r.dist[ns] = nc
			r.prev[ns] = it.state
			heap.Push(pq, routeItem{state: ns, cost: nc})
		}
	}
	return nil, 0, false
}

type routeItem struct {
	state int32 // node<<shift | hopsDone
	cost  int32
}

type routeHeap []routeItem

func (h routeHeap) Len() int            { return len(h) }
func (h routeHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h routeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *routeHeap) Push(x interface{}) { *h = append(*h, x.(routeItem)) }
func (h *routeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

package service

import (
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/lisa-go/lisa/internal/engine"
	"github.com/lisa-go/lisa/internal/fault"
)

// latencyBuckets are the upper bounds (inclusive, milliseconds) of the
// per-engine latency histogram; the final +Inf bucket is implicit.
var latencyBuckets = [...]int64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

// counter indexes Metrics.ctr, the table of plain counters.
type counter int

const (
	ctrInflight         counter = iota // work requests (map, batch, labels) in flight
	ctrRejected                        // 429s from admission control
	ctrPanics                          // recovered panics (handlers and pool tasks)
	ctrCacheHits                       // L1 hits
	ctrCacheMisses                     // mapper actually ran
	ctrCoalesced                       // followers served by a singleflight leader
	ctrStoreHits                       // L1 miss answered from disk
	ctrStoreMisses                     // key absent from both tiers (mapper ran)
	ctrStoreReadErrors                 // read failures treated as misses (incl. corrupt entries)
	ctrStoreWriteErrors                // write failures (result still served, just not persisted)
	ctrProxied                         // answered by forwarding to the owning peer
	ctrFallbacks                       // owner unreachable/overloaded → computed locally anyway
	ctrBatchRequests                   // /v1/map/batch requests answered 200
	ctrBatchItems                      // their items
	ctrBatchFailed                     // items that did not produce a 200 result
	numCounters
)

// engineNames indexes Metrics' per-engine cells.
var engineNames = engine.Names()

// Metrics aggregates request-level counters for /metrics in fixed atomic
// cells, so every method is safe for concurrent use and none takes a lock.
type Metrics struct {
	start    time.Time
	ctr      [numCounters]atomic.Int64
	requests [numRoutes]atomic.Int64
	status   [1000]atomic.Int64 // by HTTP status, which net/http keeps to 100–999
	engines  []engineStats      // by engineNames index
}

type engineStats struct {
	count    atomic.Int64
	failures atomic.Int64 // mapper returned OK=false
	degraded atomic.Int64 // responses produced by a fallback rung, not the engine itself
	totalNS  atomic.Int64
	buckets  [len(latencyBuckets) + 1]atomic.Int64 // last = +Inf
}

// NewMetrics creates an empty metrics set anchored at now.
func NewMetrics(now time.Time) *Metrics {
	return &Metrics{start: now, engines: make([]engineStats, len(engineNames))}
}

// request counts one answer of a route with the status sent.
func (m *Metrics) request(rt route, status int) {
	m.requests[rt].Add(1)
	m.status[status].Add(1)
}

// Mapped records one completed mapper invocation for an engine; degraded
// marks a response a degradation-ladder fallback produced rather than the
// requested engine itself.
func (m *Metrics) Mapped(eng engine.Name, ok, degraded bool, elapsed time.Duration) {
	e := &m.engines[slices.Index(engineNames, string(eng))] // engine.Parse admits only these
	e.count.Add(1)
	if !ok {
		e.failures.Add(1)
	}
	if degraded {
		e.degraded.Add(1)
	}
	e.totalNS.Add(int64(elapsed))
	slot := len(latencyBuckets)
	for j, ub := range latencyBuckets {
		if elapsed.Milliseconds() <= ub {
			slot = j
			break
		}
	}
	e.buckets[slot].Add(1)
}

// Snapshot types mirror the /metrics JSON document.
type (
	// MetricsSnapshot is the full /metrics payload.
	MetricsSnapshot struct {
		UptimeSeconds float64                   `json:"uptimeSeconds"`
		Requests      map[string]int64          `json:"requests"`
		Status        map[string]int64          `json:"status"`
		Inflight      int64                     `json:"inflight"`
		Rejected      int64                     `json:"rejected"`
		Panics        int64                     `json:"panics"`
		Cache         CacheSnapshot             `json:"cache"`
		Engines       map[string]EngineSnapshot `json:"engines"`
		// Store and Cluster are present only when the daemon runs with a
		// persistent store / a peer list (the /metrics handler fills them in:
		// counters from Metrics, census gauges from the subsystems).
		Store   *StoreSnapshot   `json:"store,omitempty"`
		Cluster *ClusterSnapshot `json:"cluster,omitempty"`
		// Batch is present once /v1/map/batch has answered a batch.
		Batch *BatchSnapshot `json:"batch,omitempty"`
		// Models reports model acquisition (the /metrics handler fills it in
		// from the registry): resolved models by provenance, plus the
		// degradation-ladder counters.
		Models *ModelsSnapshot `json:"models,omitempty"`
		// Faults reports per-site injection counts; present only while a
		// fault plan is armed (the /metrics handler fills it in).
		Faults map[fault.Site]int64 `json:"faults,omitempty"`
	}
	// CacheSnapshot reports hit/miss/coalesced counts, the hit ratio, and
	// the L1 gauges (entry count and total body bytes).
	CacheSnapshot struct {
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Coalesced int64   `json:"coalesced"`
		HitRatio  float64 `json:"hitRatio"`
		Entries   int     `json:"entries"`
		Bytes     int64   `json:"bytes"`
	}
	// StoreSnapshot reports the persistent (L2) result store: request
	// counters plus the on-disk census.
	StoreSnapshot struct {
		Hits        int64  `json:"hits"`
		Misses      int64  `json:"misses"`
		ReadErrors  int64  `json:"readErrors"`
		WriteErrors int64  `json:"writeErrors"`
		Entries     int    `json:"entries"`
		Bytes       int64  `json:"bytes"`
		Dropped     int    `json:"dropped"`
		Generation  uint64 `json:"generation"`
	}
	// ClusterSnapshot reports multi-node routing: how many requests were
	// proxied to their owning peer, how many fell back to local compute, and
	// per-peer health.
	ClusterSnapshot struct {
		Self      string         `json:"self"`
		Proxied   int64          `json:"proxied"`
		Fallbacks int64          `json:"fallbacks"`
		Peers     []PeerSnapshot `json:"peers"`
	}
	// PeerSnapshot is one peer's health row.
	PeerSnapshot struct {
		URL      string `json:"url"`
		Self     bool   `json:"self,omitempty"`
		Healthy  bool   `json:"healthy"`
		Failures int    `json:"failures,omitempty"`
	}
	// ModelsSnapshot reports model acquisition: how many resolved models
	// came from disk, local training, or a ring peer, and the raw ladder
	// counters (training runs and fetch attempts, successful or not).
	ModelsSnapshot struct {
		Loaded      int   `json:"loaded"`
		Trained     int   `json:"trained"`
		Shipped     int   `json:"shipped"`
		TrainRuns   int64 `json:"trainRuns"`
		Fetches     int64 `json:"fetches"`
		FetchErrors int64 `json:"fetchErrors"`
	}
	// BatchSnapshot reports /v1/map/batch usage.
	BatchSnapshot struct {
		Requests    int64 `json:"requests"`
		Items       int64 `json:"items"`
		FailedItems int64 `json:"failedItems"`
	}
	// EngineSnapshot reports one engine's invocation stats and latency
	// histogram.
	EngineSnapshot struct {
		Count     int64            `json:"count"`
		Failures  int64            `json:"failures"`
		Degraded  int64            `json:"degraded"`
		AvgMillis float64          `json:"avgMillis"`
		Histogram []HistogramEntry `json:"histogram"`
	}
	// HistogramEntry is one latency bucket; Le is the inclusive upper
	// bound in milliseconds, -1 for the +Inf bucket.
	HistogramEntry struct {
		Le    int64 `json:"leMillis"`
		Count int64 `json:"count"`
	}
)

// Snapshot captures the current counters. cacheEntries and cacheBytes are
// supplied by the caller (the cache owns its gauges); now supplies the
// uptime reference. Routes, statuses and engines that have counted nothing
// are left out. The Store and Cluster blocks are left nil: the /metrics
// handler attaches them when those subsystems are configured.
func (m *Metrics) Snapshot(now time.Time, cacheEntries int, cacheBytes int64) MetricsSnapshot {
	s := MetricsSnapshot{
		UptimeSeconds: now.Sub(m.start).Seconds(),
		Requests:      make(map[string]int64),
		Status:        make(map[string]int64),
		Inflight:      m.ctr[ctrInflight].Load(),
		Rejected:      m.ctr[ctrRejected].Load(),
		Panics:        m.ctr[ctrPanics].Load(),
		Cache: CacheSnapshot{
			Hits:      m.ctr[ctrCacheHits].Load(),
			Misses:    m.ctr[ctrCacheMisses].Load(),
			Coalesced: m.ctr[ctrCoalesced].Load(),
			Entries:   cacheEntries,
			Bytes:     cacheBytes,
		},
		Engines: make(map[string]EngineSnapshot),
	}
	if n := m.ctr[ctrBatchRequests].Load(); n > 0 {
		s.Batch = &BatchSnapshot{Requests: n, Items: m.ctr[ctrBatchItems].Load(), FailedItems: m.ctr[ctrBatchFailed].Load()}
	}
	c := &s.Cache
	if total := c.Hits + c.Misses + c.Coalesced; total > 0 {
		// Coalesced followers count as hits: the mapper did not run for them.
		c.HitRatio = float64(c.Hits+c.Coalesced) / float64(total)
	}
	for rt := range m.requests {
		if n := m.requests[rt].Load(); n > 0 {
			s.Requests[routeNames[rt]] = n
		}
	}
	for code := range m.status {
		if n := m.status[code].Load(); n > 0 {
			s.Status[strconv.Itoa(code)] = n
		}
	}
	for i := range m.engines {
		e := &m.engines[i]
		es := EngineSnapshot{Count: e.count.Load(), Failures: e.failures.Load(), Degraded: e.degraded.Load()}
		if es.Count == 0 {
			continue
		}
		es.AvgMillis = float64(e.totalNS.Load()) / float64(es.Count) / 1e6
		es.Histogram = make([]HistogramEntry, len(e.buckets))
		for j := range e.buckets {
			le := int64(-1)
			if j < len(latencyBuckets) {
				le = latencyBuckets[j]
			}
			es.Histogram[j] = HistogramEntry{Le: le, Count: e.buckets[j].Load()}
		}
		s.Engines[engineNames[i]] = es
	}
	return s
}

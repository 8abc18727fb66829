package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"

	"github.com/lisa-go/lisa/internal/cluster"
	"github.com/lisa-go/lisa/internal/parallel"
)

// BatchRequest is the POST /v1/map/batch body: up to MaxBatchItems
// independent mapping requests (any mix of kernels, inline DFGs, archs and
// engines) answered in one round trip. Each item is kept as its own bytes,
// which /v1/map's decoder reads, so an item that does not decode fails
// alone, with /v1/map's error.
type BatchRequest struct {
	Items []json.RawMessage `json:"items"`
}

// BatchItemResult is one item's outcome, in request order. Status mirrors
// what POST /v1/map would have answered for the same request; on 200 the
// Response field holds the exact /v1/map document (compact, without the
// trailing newline), so batch and single-request bodies stay mutually
// byte-comparable. Items fail independently: one bad item never spoils the
// batch.
type BatchItemResult struct {
	Status   int             `json:"status"`
	Error    string          `json:"error,omitempty"`
	Defect   string          `json:"defect,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

// BatchResponse is the POST /v1/map/batch body on success (the batch
// itself succeeds whenever it parses; per-item failures live in Items).
type BatchResponse struct {
	Items  []BatchItemResult `json:"items"`
	OK     int               `json:"ok"`
	Failed int               `json:"failed"`
}

// handleMapBatch fans a batch of mapping requests out from the handler's
// goroutine, as /v1/labels does (parallel.MapOrdered, Config.Workers wide).
// Each item goes through the exact /v1/map serving stack — per-item cache
// lookup, store, cluster routing, singleflight, per-item deadline — so a
// batch is semantically N single requests minus N-1 round trips. An item
// waiting on the mapping pool holds a fan-out goroutine, never a mapping
// worker, and the pool stays the only admission point: a full pool answers
// that item 429. Volatile dispositions (cache/cluster state) are
// deliberately absent from the body: identical batches answer
// byte-identically.
func (s *Server) handleMapBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	var req BatchRequest
	if err := decodeStrict(body, &req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		fail(w, http.StatusBadRequest, "\"items\" must be non-empty")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		fail(w, http.StatusBadRequest, "batch of %d items exceeds the limit of %d", len(req.Items), s.cfg.MaxBatchItems)
		return
	}

	cancel := r.Context().Done()
	forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
	results := parallel.MapOrdered(s.cfg.Workers, len(req.Items), func(i int) BatchItemResult {
		return s.batchItem(req.Items[i], cancel, forwarded)
	})

	resp := BatchResponse{Items: results}
	for _, res := range results {
		if res.Status == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	s.metrics.ctr[ctrBatchItems].Add(int64(len(results)))
	s.metrics.ctr[ctrBatchFailed].Add(int64(resp.Failed))
	s.metrics.ctr[ctrBatchRequests].Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// batchItem answers one batch item, its own request bytes, as /v1/map
// answers the same request. Its panic fence answers the item 500 with the
// text the front door's fence writes and counts the panic; the other items
// are unaffected.
func (s *Server) batchItem(raw []byte, cancel <-chan struct{}, forwarded bool) (res BatchItemResult) {
	defer func() {
		if rec := recover(); rec != nil {
			s.panicked(rec, debug.Stack())
			res = BatchItemResult{Status: http.StatusInternalServerError, Error: fmt.Sprintf("internal error: %v", rec)}
		}
	}()
	job, err := s.prepare(raw)
	if err != nil {
		eb := errBody(err)
		return BatchItemResult{Status: http.StatusBadRequest, Error: eb.Error, Defect: eb.Defect}
	}
	out := s.execute(job, cancel, forwarded)
	if out.err == nil && out.status == http.StatusOK {
		// Trim the newline /v1/map appends: inside a JSON array the item is
		// the compact document itself.
		return BatchItemResult{Status: http.StatusOK, Response: json.RawMessage(bytes.TrimSuffix(out.body, []byte("\n")))}
	}
	status, eb := s.mapFailure(out)
	return BatchItemResult{Status: status, Error: eb.Error, Defect: eb.Defect}
}

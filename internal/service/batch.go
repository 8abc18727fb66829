package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"

	"github.com/lisa-go/lisa/internal/cluster"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/parallel"
)

// BatchRequest is the POST /v1/map/batch body: up to MaxBatchItems
// independent mapping requests (any mix of kernels, inline DFGs, archs and
// engines) answered in one round trip.
type BatchRequest struct {
	Items []MapRequest `json:"items"`
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
func (s *Server) handleMapBatch(w http.ResponseWriter, r *http.Request) {
	const route = "/v1/map/batch"
	if r.Method != http.MethodPost {
		s.fail(w, route, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.isDraining() {
		s.fail(w, route, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.metrics.InflightAdd(1)
	defer s.metrics.InflightAdd(-1)

	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, route, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, route, http.StatusBadRequest, "\"items\" must be non-empty")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.fail(w, route, http.StatusBadRequest, "batch of %d items exceeds the limit of %d", len(req.Items), s.cfg.MaxBatchItems)
		return
	}

	cancel := r.Context().Done()
	forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
	results := parallel.MapOrdered(s.cfg.Workers, len(req.Items), func(i int) BatchItemResult {
		return s.batchItem(&req.Items[i], cancel, forwarded)
	})

	resp := BatchResponse{Items: results}
	for _, res := range results {
		if res.Status == http.StatusOK {
			resp.OK++
		} else {
			resp.Failed++
		}
	}
	s.metrics.Batch(len(results), resp.Failed)
	s.metrics.Request(route, http.StatusOK)
	writeJSON(w, http.StatusOK, resp)
}

// batchItem answers one batch item as /v1/map answers the same request and
// folds the outcome into the per-item result shape. Its panic fence answers
// the item 500 with the text /v1/map's fence writes and counts the panic;
// the other items are unaffected.
func (s *Server) batchItem(item *MapRequest, cancel <-chan struct{}, forwarded bool) (res BatchItemResult) {
	defer func() {
		if rec := recover(); rec != nil {
			s.panicked(rec, debug.Stack())
			res = BatchItemResult{Status: http.StatusInternalServerError, Error: fmt.Sprintf("internal error: %v", rec)}
		}
	}()
	// Re-marshal the item: prepare and any proxy hop work from exact
	// request bytes, and for an item those are its own sub-document.
	raw, err := json.Marshal(item)
	if err != nil {
		return BatchItemResult{Status: http.StatusBadRequest, Error: err.Error()}
	}
	job, err := s.prepare(raw)
	if err != nil {
		res = BatchItemResult{Status: http.StatusBadRequest, Error: err.Error()}
		if de, ok := dfg.AsDefect(err); ok {
			res.Defect = string(de.Kind)
		}
		return res
	}
	out := s.execute(job, cancel, forwarded)
	switch {
	case errors.Is(out.err, errCanceled):
		return BatchItemResult{Status: http.StatusRequestTimeout, Error: "canceled while waiting"}
	case errors.Is(out.err, errBusy):
		s.metrics.Rejected()
		return BatchItemResult{Status: http.StatusTooManyRequests, Error: "mapping queue full, retry later"}
	case out.err != nil:
		return BatchItemResult{Status: out.status, Error: out.err.Error()}
	case out.status == http.StatusOK:
		// Trim the newline /v1/map appends: inside a JSON array the item is
		// the compact document itself.
		return BatchItemResult{Status: http.StatusOK, Response: json.RawMessage(bytes.TrimSuffix(out.body, []byte("\n")))}
	default:
		// A relayed non-200 from the owning peer: its body is an errorBody.
		var eb errorBody
		if json.Unmarshal(out.body, &eb) == nil && eb.Error != "" {
			return BatchItemResult{Status: out.status, Error: eb.Error, Defect: eb.Defect}
		}
		return BatchItemResult{Status: out.status, Error: string(bytes.TrimSpace(out.body))}
	}
}

package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/lisa-go/lisa/internal/arch"
	"github.com/lisa-go/lisa/internal/cluster"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/registry"
)

// Model distribution: the warm-model shipping layer. A fresh replica that
// has no model for a requested architecture asks the ring for one before
// it falls back to training — the fleet's knowledge travels to new nodes
// instead of being recomputed on each of them. The serving side is
// GET /v1/model/{arch} (handleModel); the fetching side is fetchModel,
// wired into the registry's acquisition ladder by New.

// modelKey is the ring key for an architecture's model. Every node derives
// the same key, so the fleet agrees on which peer is the model's home
// (where label traffic for the arch routes, hence where a trained model
// most likely lives).
func modelKey(name string) string { return "model/" + name }

// handleModel serves this node's resolved model for one architecture as
// raw gnn.Save bytes, self-described by SHA-256 and length headers
// (mirroring the store's entry-header format) so the fetching peer can
// verify the payload before parsing it. Deliberately read-only: a node
// with no resolved model answers 404 rather than training one — a model
// fetch must never cascade into training on the serving peer. It also
// answers while draining: shipping an already-resolved model is how a
// restarting fleet rewarms, exactly when drains happen.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request, _ []byte) {
	name, err := url.PathUnescape(strings.TrimPrefix(r.URL.Path, "/v1/model/"))
	if err != nil || name == "" || strings.Contains(name, "/") {
		fail(w, http.StatusBadRequest, "use GET /v1/model/{arch}")
		return
	}
	if _, ok := arch.ByName(name); !ok {
		fail(w, http.StatusNotFound, "unknown arch %q (have %v)", name, arch.Names())
		return
	}
	body, err := s.reg.ModelBytes(name)
	if err != nil {
		fail(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(cluster.ModelSHAHeader, cluster.PayloadSHA(body))
	w.Header().Set(cluster.ModelLenHeader, strconv.Itoa(len(body)))
	_, _ = w.Write(body) // client disconnect mid-ship; the fetcher's checksum rejects the torn copy
}

// fetchModel is the registry.FetchFunc the daemon runs with: try the ring
// candidates for name's model — owner first, then successors — and install
// the first payload that survives validation. Error classification drives
// the registry's caching: transport-class failures (peer down, nothing
// trained yet, an armed model.fetch fault) try the next candidate and are
// returned unmarked, so the next request simply retries against a
// possibly-healed ring; a payload that fails gnn.Load or names the wrong
// architecture is returned registry.Permanent immediately — every replica
// of that model would serve the same bytes, so walking more candidates or
// retrying buys nothing until an operator reloads.
func (s *Server) fetchModel(name string) (*gnn.Model, string, error) {
	cl := s.cfg.Cluster
	candidates := cl.Successors(modelKey(name))
	if len(candidates) == 0 {
		return nil, "", errors.New("service: single-node ring; no peer to fetch a model from")
	}
	var errs []error
	for _, peer := range candidates {
		raw, err := cl.FetchModel(peer, name)
		if err != nil {
			var ve *cluster.ValidationError
			if errors.As(err, &ve) {
				return nil, "", registry.Permanent(err)
			}
			errs = append(errs, err)
			continue
		}
		m, err := gnn.Load(bytes.NewReader(raw), gnn.NewModel(rand.New(rand.NewSource(1)), ""))
		if err != nil {
			// Wire checksum passed but the envelope did not parse or
			// validate: the peer's model is corrupt or version-skewed
			// (e.g. scale vectors for a different attribute schema).
			return nil, "", registry.Permanent(&cluster.ValidationError{Peer: peer, Err: err})
		}
		if m.ArchName != name {
			return nil, "", registry.Permanent(&cluster.ValidationError{Peer: peer,
				Err: fmt.Errorf("model is for arch %q, requested %q", m.ArchName, name)})
		}
		return m, peer, nil
	}
	return nil, "", errors.Join(errs...)
}

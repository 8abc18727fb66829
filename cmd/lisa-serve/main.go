// Command lisa-serve runs the mapping-as-a-service daemon: a stdlib-only
// HTTP/JSON server with pre-loaded (or lazily trained) per-architecture GNN
// models, a content-addressed result cache with singleflight deduplication,
// an admission-controlled worker pool, and request metrics.
//
// Usage:
//
//	lisa-serve -addr :8080 -models ./models        (offline-trained models)
//	lisa-serve -addr :8080 -train                  (train on first request)
//
// Endpoints:
//
//	POST /v1/map          {"kernel":"gemm","arch":"cgra-4x4","engine":"sa","seed":7}
//	POST /v1/map/batch    {"items":[...]} — many mapping requests, one round trip
//	POST /v1/labels       raw GNN label predictions, no annealer
//	GET  /v1/archs        capability discovery: targets + model readiness,
//	                      provenance (loaded/trained/shipped) and errors
//	GET  /v1/kernels      the built-in PolyBench kernels
//	GET  /v1/model/{arch} this node's trained model as verified gnn.Save bytes
//	POST /v1/reload       clear cached training/fetch failures, rescan models
//	GET  /healthz         liveness (always 200 while the process serves)
//	GET  /readyz          readiness (503 while draining or store unwritable)
//	GET  /metrics         request counts, cache tiers, cluster routing, models
//
// -store-dir persists results on disk (content-addressed, crash-tolerant):
// a restarted daemon answers previously computed requests byte-identically
// without re-running the mapper. -peers/-self join a static fleet: each
// request key has one owning node on a consistent-hash ring, non-owners
// proxy to it, and a dead owner degrades to local compute. Trained models
// ship the same channel: a node with no model for a requested arch fetches
// the ring owner's (checksum- and gnn.Load-validated) before falling back
// to local training.
//
// SIGINT/SIGTERM drains: the listener stops accepting, in-flight mappings
// finish, then the process exits.
//
// Requests that hit an engine failure are answered by the degradation
// ladder (lisa → sa → greedy) with the rungs labeled in the response; a
// panic anywhere in a handler or mapping task becomes a 500 plus a metrics
// tick, never a dead daemon. The -faults flag (or LISA_FAULTS) arms the
// deterministic fault-injection layer for chaos testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/lisa-go/lisa/internal/cluster"
	"github.com/lisa-go/lisa/internal/dfg"
	"github.com/lisa-go/lisa/internal/fault"
	"github.com/lisa-go/lisa/internal/gnn"
	"github.com/lisa-go/lisa/internal/labels"
	"github.com/lisa-go/lisa/internal/mapper"
	"github.com/lisa-go/lisa/internal/registry"
	"github.com/lisa-go/lisa/internal/service"
	"github.com/lisa-go/lisa/internal/store"
	"github.com/lisa-go/lisa/internal/traingen"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelsDir := flag.String("models", "", "directory of lisa-train model files (*.json) to pre-load")
	train := flag.Bool("train", true, "train a model on demand for targets without a pre-loaded one")
	workers := flag.Int("workers", 0, "concurrent mapping jobs (0 = all CPUs)")
	queue := flag.Int("queue", 64, "queued mapping jobs beyond the workers before requests get 429")
	cacheEntries := flag.Int("cache", 4096, "result-cache entries (LRU)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "result-cache byte bound (-1 = unbounded)")
	storeDir := flag.String("store-dir", "", "directory for the persistent result store (empty = memory only)")
	peers := flag.String("peers", "", "comma-separated peer base URLs forming a static cluster (requires -self)")
	self := flag.String("self", "", "this node's base URL as it appears in -peers")
	maxBatch := flag.Int("max-batch", 64, "max items per /v1/map/batch request")
	moves := flag.Int("moves", 2400, "default SA movement budget per II")
	maxRestarts := flag.Int("max-restarts", 8, "cap on the per-request portfolio width (-1 = uncapped)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request mapping deadline")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on the per-request deadline")
	trainDFGs := flag.Int("train-dfgs", 36, "random DFGs per on-demand training run")
	trainEpochs := flag.Int("train-epochs", 60, "epochs per on-demand training run")
	seed := flag.Int64("train-seed", 1, "seed for on-demand training")
	maxNodes := flag.Int("max-dfg-nodes", 512, "node cap for inline DFG uploads, post-unroll (-1 = uncapped)")
	maxEdges := flag.Int("max-dfg-edges", 2048, "edge cap for inline DFG uploads, post-unroll (-1 = uncapped)")
	faults := flag.String("faults", "", "fault-injection plan, e.g. 'gnn.train=error:1' (overrides LISA_FAULTS; chaos testing only)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault decisions")
	flag.Parse()

	if *faults != "" {
		plan, err := fault.ParsePlan(*faults, *faultSeed)
		if err != nil {
			log.Fatalf("lisa-serve: -faults: %v", err)
		}
		if err := fault.Activate(plan); err != nil {
			log.Fatalf("lisa-serve: -faults: %v", err)
		}
		log.Printf("lisa-serve: FAULT INJECTION ARMED: %s", plan)
	} else if plan, err := fault.FromEnv(); err != nil {
		log.Fatalf("lisa-serve: LISA_FAULTS: %v", err)
	} else if plan != nil {
		if err := fault.Activate(plan); err != nil {
			log.Fatalf("lisa-serve: LISA_FAULTS: %v", err)
		}
		log.Printf("lisa-serve: FAULT INJECTION ARMED (env): %s", plan)
	}

	reg := registry.New(registry.Config{
		TrainGen: traingen.Config{
			NumDFGs:    *trainDFGs,
			Iterations: 2,
			DFG:        dfg.DefaultRandomConfig(),
			MapOpts:    mapper.Options{MaxMoves: 700},
			Filter:     labels.DefaultFilterConfig(),
		},
		TrainCfg:      gnn.TrainConfig{Epochs: *trainEpochs, LR: 0.003, WeightDecay: 0.0005},
		Seed:          *seed,
		TrainOnDemand: *train,
	})
	if *modelsDir != "" {
		names, err := reg.LoadDir(*modelsDir)
		if err != nil {
			log.Fatalf("lisa-serve: loading models from %s: %v", *modelsDir, err)
		}
		log.Printf("loaded %d model(s) from %s: %v", len(names), *modelsDir, names)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			log.Fatalf("lisa-serve: -store-dir %s: %v", *storeDir, err)
		}
		log.Printf("lisa-serve: store %s: %d entries (%d bytes), %d dropped in recovery, generation %d",
			st.Dir(), st.Len(), st.Bytes(), st.Dropped(), st.Generation())
	}

	var cl *cluster.Cluster
	if *peers != "" || *self != "" {
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		var err error
		cl, err = cluster.New(cluster.Config{Self: *self, Peers: peerList})
		if err != nil {
			log.Fatalf("lisa-serve: -peers/-self: %v", err)
		}
		log.Printf("lisa-serve: cluster of %d nodes, self=%s", len(peerList), cl.Self())
	}

	svc := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		Store:           st,
		Cluster:         cl,
		MaxBatchItems:   *maxBatch,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		MapOpts:         mapper.Options{MaxMoves: *moves},
		MaxRestarts:     *maxRestarts,
		MaxDFGNodes:     *maxNodes,
		MaxDFGEdges:     *maxEdges,
		ModelsDir:       *modelsDir,
		OnPanic: func(recovered any, stack []byte) {
			log.Printf("lisa-serve: recovered panic: %v\n%s", recovered, stack)
		},
	}, reg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("lisa-serve listening on %s (workers=%d queue=%d cache=%d train-on-demand=%v)",
		*addr, *workers, *queue, *cacheEntries, *train)

	select {
	case err := <-errc:
		log.Fatalf("lisa-serve: %v", err)
	case <-ctx.Done():
	}

	log.Print("lisa-serve: draining ...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *maxDeadline+10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("lisa-serve: shutdown: %v", err)
	}
	svc.Close()
	fmt.Println("lisa-serve: drained, bye")
}

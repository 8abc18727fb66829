# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: build test bench examples figures serve cluster-smoke vet lint fuzz clean

build:
	go build ./...

vet:
	go vet ./...

# Static analysis gate: go vet plus lisa-vet, the repo's own determinism &
# concurrency linter (map-iteration order, global RNG streams, wall-clock
# reads, dropped errors). Fails on any unsuppressed diagnostic.
lint:
	go build ./...
	go run ./cmd/lisa-vet ./...
	go vet ./...

test:
	go test ./...

# One benchmark per paper table/figure; logs print the paper-style tables.
bench:
	go test -bench=. -benchmem ./...

examples:
	go run ./examples/quickstart
	go run ./examples/portability
	go run ./examples/unrolling
	go run ./examples/simulate
	go run ./examples/customarch
	go run ./examples/newaccel

# Regenerate every figure with the quick profile. Tables print to stdout;
# JSON+SVG land in results/ for the Fig. 9 panels only.
figures:
	go run ./cmd/lisa-bench -exp all -out results -shapes

# Start the mapping-as-a-service daemon on :8080 (see README "Mapping as a
# service"); pass MODELS=dir to pre-load lisa-train model files.
serve:
	go run ./cmd/lisa-serve -addr :8080 $(if $(MODELS),-models $(MODELS))

# End-to-end 3-node cluster smoke test (same script as the CI cluster-smoke
# job): byte-identical bodies on every node, one mapper run fleet-wide, a
# restarted node serving from its persistent store with zero fresh compute.
cluster-smoke:
	scripts/cluster-smoke.sh

fuzz:
	go test -fuzz FuzzParseDOT -fuzztime 30s ./internal/dfg/
	go test -fuzz FuzzReadJSON -fuzztime 30s ./internal/dfg/
	go test -run '^$$' -fuzz FuzzLabelsRequest -fuzztime 30s ./internal/service/
	go test -run '^$$' -fuzz '^FuzzMapRequestSplit$$' -fuzztime 30s ./internal/service/
	go test -run '^$$' -fuzz '^FuzzMapRequest$$' -fuzztime 30s ./internal/service/
	go test -fuzz FuzzParseSpec -fuzztime 30s ./internal/arch/

clean:
	rm -rf results *.model.json

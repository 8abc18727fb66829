#!/usr/bin/env bash
# bench-gnn.sh — run the GNN inference benchmarks and emit BENCH_gnn.json.
#
# Usage:
#   scripts/bench-gnn.sh            # measure, write BENCH_gnn.json
#   scripts/bench-gnn.sh --check    # additionally fail if the fused path's
#                                   # allocs/op exceeds ALLOC_CEILING or its
#                                   # alloc reduction over the taped path
#                                   # drops below MIN_ALLOC_RATIO (CI gate)
#
# BenchmarkGNNInference is the fused no-tape Predict on the gemm kernel — the
# serving hot path. BenchmarkGNNInferenceTaped is the taped reference forward
# pass it replaced, measured in the same run so the ratio is machine-neutral.
# BenchmarkGNNInferenceBatch8 is one PredictBatch call over eight PolyBench
# kernels, which is eight Predict calls in a row: set against eight times the
# gemm-only fused number it shows what the larger kernels cost.
#
# The alloc ceiling is loose (~3x the fused steady state, still >5x below the
# taped path) so the gate catches a real regression — an op that starts taping
# or an arena that stops being reused blows through it instantly — without
# flaking on noise.

set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-200x}"
ALLOC_CEILING="${ALLOC_CEILING:-60}"
MIN_ALLOC_RATIO="${MIN_ALLOC_RATIO:-5}"
OUT="${OUT:-BENCH_gnn.json}"

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
fi

echo "running GNNInference benchmarks (-benchtime $BENCHTIME)..." >&2
raw=$(go test -run '^$' -bench 'GNNInference' -benchtime "$BENCHTIME" -benchmem ./internal/gnn/)
echo "$raw" >&2

field() { # field <line> <unit>
  echo "$1" | awk -v unit="$2" '{for (i=1;i<=NF;i++) if ($(i+1)==unit) printf "%d", $i}'
}

# The name carries a -GOMAXPROCS suffix whenever GOMAXPROCS > 1.
fused_line=$(echo "$raw" | grep -E '^BenchmarkGNNInference(-[0-9]+)?[[:space:]]')
taped_line=$(echo "$raw" | grep '^BenchmarkGNNInferenceTaped')
batch_line=$(echo "$raw" | grep '^BenchmarkGNNInferenceBatch8')

fused_ns=$(field "$fused_line" "ns/op")
fused_bytes=$(field "$fused_line" "B/op")
fused_allocs=$(field "$fused_line" "allocs/op")
taped_ns=$(field "$taped_line" "ns/op")
taped_bytes=$(field "$taped_line" "B/op")
taped_allocs=$(field "$taped_line" "allocs/op")
batch_ns=$(field "$batch_line" "ns/op")
batch_allocs=$(field "$batch_line" "allocs/op")

if [[ -z "$fused_allocs" || -z "$taped_allocs" ]]; then
  echo "bench-gnn: could not parse benchmark output" >&2
  exit 1
fi

speedup=$(awk -v a="$taped_ns" -v b="$fused_ns" 'BEGIN {printf "%.2f", a/b}')
allocratio=$(awk -v a="$taped_allocs" -v b="$fused_allocs" 'BEGIN {printf "%.2f", a/b}')

cat > "$OUT" <<EOF
{
  "benchmark": "BenchmarkGNNInference",
  "benchtime": "$BENCHTIME",
  "taped": {
    "ns_per_op": $taped_ns,
    "bytes_per_op": $taped_bytes,
    "allocs_per_op": $taped_allocs
  },
  "fused": {
    "ns_per_op": $fused_ns,
    "bytes_per_op": $fused_bytes,
    "allocs_per_op": $fused_allocs
  },
  "batch8": {
    "ns_per_op": $batch_ns,
    "allocs_per_op": $batch_allocs
  },
  "speedup": $speedup,
  "alloc_reduction": $allocratio,
  "alloc_ceiling": $ALLOC_CEILING,
  "min_alloc_ratio": $MIN_ALLOC_RATIO
}
EOF
echo "wrote $OUT (fused ns/op=$fused_ns allocs/op=$fused_allocs, taped allocs/op=$taped_allocs, allocs ÷${allocratio})" >&2

if [[ "$check" == 1 ]]; then
  if (( fused_allocs > ALLOC_CEILING )); then
    echo "bench-gnn: FAIL — fused allocs/op $fused_allocs exceeds ceiling $ALLOC_CEILING" >&2
    exit 1
  fi
  below=$(awk -v r="$allocratio" -v m="$MIN_ALLOC_RATIO" 'BEGIN {print (r < m) ? 1 : 0}')
  if [[ "$below" == 1 ]]; then
    echo "bench-gnn: FAIL — alloc reduction ${allocratio}x below required ${MIN_ALLOC_RATIO}x" >&2
    exit 1
  fi
  echo "bench-gnn: fused allocs/op $fused_allocs within ceiling $ALLOC_CEILING, reduction ${allocratio}x >= ${MIN_ALLOC_RATIO}x" >&2
fi

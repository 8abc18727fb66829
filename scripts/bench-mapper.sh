#!/usr/bin/env bash
# bench-mapper.sh — run the mapper hot-path benchmark and emit BENCH_mapper.json.
#
# Usage:
#   scripts/bench-mapper.sh            # measure, write BENCH_mapper.json
#   scripts/bench-mapper.sh --check    # additionally fail if allocs/op exceeds
#                                      # ALLOC_CEILING (the CI perf-smoke gate)
#
# BenchmarkMapperCore maps the gemm kernel on the 4x4 CGRA with the LISA
# engine at a fixed movement budget; its ns/op and allocs/op are the canonical
# mapper hot-path numbers. The "seed" block below is the pre-incremental
# implementation (deep-clone rollback, full-recompute cost, container/heap
# Dijkstra) measured at the same -benchtime on the same workload; it is kept
# in the JSON so the before/after ratio travels with the artifact.
#
# The alloc ceiling is deliberately loose (~3x the current steady state, still
# ~10x below the seed) so the gate catches a regression of the incremental
# machinery — an accidental per-movement clone or per-route heap boxing blows
# through it instantly — without flaking on noise.

set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-100x}"
ALLOC_CEILING="${ALLOC_CEILING:-12000}"
# The portfolio path races 4 chains, so its steady state is ~4x one chain
# (currently ~48k on the unrolled-atax workload); the ceiling is ~3x that.
PORTFOLIO_ALLOC_CEILING="${PORTFOLIO_ALLOC_CEILING:-150000}"
OUT="${OUT:-BENCH_mapper.json}"

# Seed-implementation numbers (commit f63b491, -benchtime 100x, same machine
# class as CI): recorded once so the artifact documents the before/after.
SEED_NS=16109082
SEED_ALLOCS=115206
SEED_BYTES=5511960

check=0
if [[ "${1:-}" == "--check" ]]; then
  check=1
fi

echo "running BenchmarkMapperCore (-benchtime $BENCHTIME)..." >&2
raw=$(go test -run '^$' -bench '^BenchmarkMapperCore$' -benchtime "$BENCHTIME" -benchmem .)
echo "$raw" >&2

line=$(echo "$raw" | grep '^BenchmarkMapperCore')
ns=$(echo "$line" | awk '{for (i=1;i<=NF;i++) if ($(i+1)=="ns/op") printf "%d", $i}')
bytes=$(echo "$line" | awk '{for (i=1;i<=NF;i++) if ($(i+1)=="B/op") printf "%d", $i}')
allocs=$(echo "$line" | awk '{for (i=1;i<=NF;i++) if ($(i+1)=="allocs/op") printf "%d", $i}')

if [[ -z "$ns" || -z "$allocs" ]]; then
  echo "bench-mapper: could not parse benchmark output" >&2
  exit 1
fi

speedup=$(awk -v a="$SEED_NS" -v b="$ns" 'BEGIN {printf "%.2f", a/b}')
allocratio=$(awk -v a="$SEED_ALLOCS" -v b="$allocs" 'BEGIN {printf "%.2f", a/b}')

# Portfolio quality-vs-wallclock: K=1 vs K=4 restart chains on the unrolled
# atax workload over the same seed set. cost/op (II*1000 + hops, 1e6 per
# failed map) is deterministic — chain 0 of every portfolio IS the K=1 run,
# so cost(K4) <= cost(K1) must hold on any machine, and --check enforces it.
# ns/op is informational: chains run concurrently, so on a multi-core box
# K4 wall-clock approaches K1's while its cost is never worse.
echo "running BenchmarkMapperPortfolio{K1,K4} (-benchtime $BENCHTIME)..." >&2
praw=$(go test -run '^$' -bench '^BenchmarkMapperPortfolioK[14]$' -benchtime "$BENCHTIME" -benchmem .)
echo "$praw" >&2

pfield() { # pfield <benchmark-name> <unit>; the name may carry a -GOMAXPROCS suffix
  echo "$praw" | grep -E "^$1(-[0-9]+)? " | awk -v unit="$2" \
    '{for (i=1;i<=NF;i++) if ($(i+1)==unit) printf "%s", $i}'
}
k1_ns=$(pfield BenchmarkMapperPortfolioK1 "ns/op")
k1_cost=$(pfield BenchmarkMapperPortfolioK1 "cost/op")
k1_ii=$(pfield BenchmarkMapperPortfolioK1 "II/op")
k1_hops=$(pfield BenchmarkMapperPortfolioK1 "hops/op")
k1_allocs=$(pfield BenchmarkMapperPortfolioK1 "allocs/op")
k4_ns=$(pfield BenchmarkMapperPortfolioK4 "ns/op")
k4_cost=$(pfield BenchmarkMapperPortfolioK4 "cost/op")
k4_ii=$(pfield BenchmarkMapperPortfolioK4 "II/op")
k4_hops=$(pfield BenchmarkMapperPortfolioK4 "hops/op")
k4_allocs=$(pfield BenchmarkMapperPortfolioK4 "allocs/op")

if [[ -z "$k1_cost" || -z "$k4_cost" || -z "$k4_allocs" ]]; then
  echo "bench-mapper: could not parse portfolio benchmark output" >&2
  exit 1
fi

cat > "$OUT" <<EOF
{
  "benchmark": "BenchmarkMapperCore",
  "benchtime": "$BENCHTIME",
  "seed": {
    "commit": "f63b491",
    "ns_per_op": $SEED_NS,
    "bytes_per_op": $SEED_BYTES,
    "allocs_per_op": $SEED_ALLOCS
  },
  "current": {
    "ns_per_op": $ns,
    "bytes_per_op": $bytes,
    "allocs_per_op": $allocs
  },
  "speedup": $speedup,
  "alloc_reduction": $allocratio,
  "alloc_ceiling": $ALLOC_CEILING,
  "portfolio": {
    "benchmark": "BenchmarkMapperPortfolio",
    "workload": "atax unrolled x2, cgra-4x4, lisa engine, 1200 moves/II",
    "cost_metric": "II*1000 + hops per seed (1e6 per failed map), averaged",
    "k1": {
      "ns_per_op": $k1_ns,
      "cost_per_op": $k1_cost,
      "mean_ii": $k1_ii,
      "mean_hops": $k1_hops,
      "allocs_per_op": $k1_allocs
    },
    "k4": {
      "ns_per_op": $k4_ns,
      "cost_per_op": $k4_cost,
      "mean_ii": $k4_ii,
      "mean_hops": $k4_hops,
      "allocs_per_op": $k4_allocs
    },
    "alloc_ceiling": $PORTFOLIO_ALLOC_CEILING
  }
}
EOF
echo "wrote $OUT (ns/op=$ns allocs/op=$allocs speedup=${speedup}x allocs ÷${allocratio}; portfolio cost K1=$k1_cost K4=$k4_cost)" >&2

if [[ "$check" == 1 ]]; then
  if (( allocs > ALLOC_CEILING )); then
    echo "bench-mapper: FAIL — allocs/op $allocs exceeds ceiling $ALLOC_CEILING" >&2
    exit 1
  fi
  echo "bench-mapper: allocs/op $allocs within ceiling $ALLOC_CEILING" >&2
  k4a=${k4_allocs%%.*}
  if (( k4a > PORTFOLIO_ALLOC_CEILING )); then
    echo "bench-mapper: FAIL — portfolio allocs/op $k4_allocs exceeds ceiling $PORTFOLIO_ALLOC_CEILING" >&2
    exit 1
  fi
  echo "bench-mapper: portfolio allocs/op $k4_allocs within ceiling $PORTFOLIO_ALLOC_CEILING" >&2
  if awk -v a="$k4_cost" -v b="$k1_cost" 'BEGIN {exit !(a+0 <= b+0)}'; then
    echo "bench-mapper: portfolio cost/op K4=$k4_cost <= K1=$k1_cost" >&2
  else
    echo "bench-mapper: FAIL — K=4 portfolio cost/op $k4_cost worse than K=1 $k1_cost" >&2
    exit 1
  fi
fi

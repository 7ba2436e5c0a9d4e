#!/usr/bin/env bash
# Full local CI: build, tests, lints, formatting.
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> ferret-lint --deny (project contract rules + ratchet baseline)"
# Fails on any unsuppressed deny violation and on any ratchet count above
# lint-baseline.json. After intentionally fixing ratcheted debt, run
# `cargo run -p ferret-lint -- --fix-baseline` and commit the new baseline.
cargo run -q -p ferret-lint -- --deny

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> integration: server, determinism, telemetry, concurrent serving"
cargo test -q --test server_and_acquisition --test parallel_determinism --test telemetry \
    --test concurrent_serving

echo "==> sketch construction: estimator quality, golden fixtures"
cargo test -q -p ferret-eval --test estimator_quality
cargo test -q -p ferret-core --test golden_sketches --test golden_queries

echo "==> hybrid queries: pushdown equivalence, result cache, golden fusion"
# Fixed seed so the pushdown/cache equivalence corpora are reproducible.
PROPTEST_SEED=20260805 cargo test -q --test hybrid_query --test result_cache
cargo test -q -p ferret-query --test golden_fusion

echo "==> fault suite: crash points, torn tails, service crash recovery"
# Fixed seed so the randomized crash/recovery scripts are reproducible
# across CI runs; bump it to explore a fresh corner of the fault space.
PROPTEST_SEED=20260805 cargo test -q -p ferret-store
PROPTEST_SEED=20260805 cargo test -q -p ferret-query \
    --test service_crash_recovery --test store_fault_telemetry

echo "==> sketch arena: arena kernel == reference scan, every width"
# Fixed seed so the randomized corpora and op scripts are reproducible.
PROPTEST_SEED=20260805 cargo test -q --test sketch_arena

echo "==> macro-benchmark: harness self-tests, then every workload at smoke size"
# The harness is its own package (own lock file); sharing the root target
# directory reuses the release build above. --smoke drives the real binary
# through import -> serve -> load on 1000-object corpora and checks every
# reply; a wrong one prints "correct": false and exits non-zero.
CARGO_TARGET_DIR=target cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
BENCH_SMOKE="$(CARGO_TARGET_DIR=target cargo run -q --release --offline \
    --manifest-path benchmark/Cargo.toml -- --smoke)"
if echo "$BENCH_SMOKE" | grep -q '"correct": false'; then
    echo "benchmark smoke reported an incorrect run:"
    echo "$BENCH_SMOKE" | grep '"correct": false'
    exit 1
fi
echo "benchmark smoke OK: $(echo "$BENCH_SMOKE" | grep -c '"correct": true') runs correct"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets lints tests, benches, and examples too, and clippy.toml's
# disallowed-methods bans Vfs-bypassing durable writes in production code.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> smoke: serve + parallel clients + /metrics"
SMOKE_DIR="$(mktemp -d)"
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
# Dedicated watch dir (db/log outside it) so object ids are deterministic:
# path order assigns a.fvec=0, b.fvec=1. fvec lines are `weight c1 c2...`.
mkdir "$SMOKE_DIR/watch"
printf '1 0.1 0.2\n1 0.3 0.4\n' > "$SMOKE_DIR/watch/a.fvec"
printf '1 0.8 0.9\n' > "$SMOKE_DIR/watch/b.fvec"
target/release/ferret serve --db "$SMOKE_DIR/db" --watch "$SMOKE_DIR/watch" --dim 2 \
    --max-inflight 8 \
    --tcp 127.0.0.1:0 --http 127.0.0.1:0 > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
HTTP_ADDR=""
for _ in $(seq 1 50); do
    HTTP_ADDR="$(sed -n 's|^web interface on http://\([^/]*\)/$|\1|p' "$SMOKE_DIR/serve.log")"
    [ -n "$HTTP_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve exited early:"; cat "$SMOKE_DIR/serve.log"; exit 1; }
    sleep 0.2
done
[ -n "$HTTP_ADDR" ] || { echo "serve never printed its http address"; cat "$SMOKE_DIR/serve.log"; exit 1; }
# A fresh store is calibrated once, after the initial scan filled it.
grep -q '^sketch calibration: N=128 K=2 (derived from 2 objects)$' "$SMOKE_DIR/serve.log" \
    || { echo "fresh store not calibrated from its objects:"; cat "$SMOKE_DIR/serve.log"; exit 1; }
# Fetch without curl: bash's /dev/tcp. Raw socket reads can come back
# truncated under load, so verify the body against Content-Length and
# retry a few times before giving up (and accept the possibly-short
# final attempt rather than failing the fetch outright).
http_get_once() {
    exec 3<>"/dev/tcp/${HTTP_ADDR%:*}/${HTTP_ADDR##*:}" \
        && printf 'GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$1" >&3 && cat <&3
}
http_get() {
    local reply want got
    for _ in 1 2 3 4 5; do
        reply="$(http_get_once "$1")" || { sleep 0.2; continue; }
        want="$(printf '%s' "$reply" | tr -d '\r' | sed -n 's/^Content-Length: //p' | head -n 1)"
        got="$(printf '%s' "$reply" | sed '1,/^\r\{0,1\}$/d' | wc -c)"
        # wc counts a trailing newline the $() stripped; allow ±1.
        if [ -z "$want" ] || [ "$got" -ge "$((want - 1))" ]; then
            printf '%s\n' "$reply"
            return 0
        fi
        sleep 0.2
    done
    printf '%s\n' "$reply"
}
http_get /stat > /dev/null   # populate the per-endpoint request counters
# Multi-connection smoke: several parallel clients searching at once.
# (wait only on the client pids — a bare `wait` would block on SERVE_PID.)
CLIENT_PIDS=()
for i in 1 2 3 4; do
    http_get "/search?id=0&k=2&mode=brute" > "$SMOKE_DIR/search.$i" &
    CLIENT_PIDS+=("$!")
done
for pid in "${CLIENT_PIDS[@]}"; do
    wait "$pid"
done
for i in 1 2 3 4; do
    head -n 1 "$SMOKE_DIR/search.$i" | grep -qE " (200|503) " \
        || { echo "parallel /search client $i failed:"; head -n 3 "$SMOKE_DIR/search.$i"; exit 1; }
done
# At least one of the parallel searches must have actually returned results.
grep -l '"results":\[{"id":' "$SMOKE_DIR"/search.* > /dev/null \
    || { echo "no parallel /search returned results:"; head -n 20 "$SMOKE_DIR/search.1"; exit 1; }
# A filter-mode search runs the arena scan and shows up in the filter
# stage metrics below.
http_get "/search?id=0&k=2&mode=filter" | grep -q '"results":' \
    || { echo "filter-mode /search failed"; exit 1; }
# Hybrid query, twice: ingestion tagged both files with ext=fvec, so the
# attr predicate restricts the filter scan (pushdown); the identical
# replay must be served from the result cache (default --cache-capacity).
http_get "/search?id=0&k=2&mode=filter&attr=ext:fvec" | grep -q '"results":\[{"id":' \
    || { echo "hybrid /search (cold) failed"; exit 1; }
http_get "/search?id=0&k=2&mode=filter&attr=ext:fvec" | grep -q '"results":\[{"id":' \
    || { echo "hybrid /search (cached replay) failed"; exit 1; }
# Fused ranking over the same predicate.
http_get "/search?id=0&k=2&mode=brute&attr=ext:fvec&fusion=rrf" | grep -q '"results":\[{"id":' \
    || { echo "fused /search failed"; exit 1; }
METRICS="$(http_get /metrics)"
kill "$SERVE_PID" 2>/dev/null || true
echo "$METRICS" | head -n 1 | grep -q " 200 " \
    || { echo "/metrics did not return 200:"; echo "$METRICS" | head -n 5; exit 1; }
echo "$METRICS" | grep -q "^ferret_http_requests_total" \
    || { echo "/metrics exposition empty or missing expected series:"; echo "$METRICS" | head -n 20; exit 1; }
# Admission-control series are registered eagerly; they must be visible
# even before any query is rejected.
for series in ferret_inflight_queries ferret_inflight_queries_peak ferret_rejected_total; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep '^ferret_' | head -n 20; exit 1; }
done
# The recovery and memory accounts are published at start-up, one series
# per stage and per component.
for series in 'ferret_recovery_seconds{stage="sketch_index"}' 'ferret_sketch_out_of_range_total' \
              'ferret_memory_bytes{component="originals"}' 'ferret_memory_bytes{component="attr"}' \
              'ferret_memory_bytes{component="importer"}'; do
    echo "$METRICS" | grep -qF "$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep -E '^ferret_(recovery|memory)' ; exit 1; }
done
# The filter-mode search above timed its filter stage.
echo "$METRICS" | grep "^ferret_query_stage_seconds" | grep -q 'stage="filter"' \
    || { echo "/metrics missing the filter stage timer:"; echo "$METRICS" | grep '^ferret_query_stage' | head -n 20; exit 1; }
# The eagerly registered ingest series exist, the filter-mode search
# above timed its sketch stage, and sketch construction has one path, so
# no sketch or stage series carries a strategy label.
for series in ferret_sketch_objects_total ferret_sketch_objects_per_sec; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep '^ferret_' | head -n 20; exit 1; }
done
echo "$METRICS" | grep "^ferret_query_stage_seconds" | grep -q 'stage="sketch"' \
    || { echo "/metrics missing the sketch stage timer:"; echo "$METRICS" | grep '^ferret_query_stage' | head -n 20; exit 1; }
if echo "$METRICS" | grep -E "^(ferret_sketch_|ferret_query_stage_seconds)" | grep -q 'strategy='; then
    echo "/metrics sketch series still carry a strategy label:"
    echo "$METRICS" | grep -E "^(ferret_sketch_|ferret_query_stage_seconds)" | grep 'strategy='
    exit 1
fi
# Hybrid-query instrumentation: the result cache and predicate pushdown
# were both exercised above, so their series exist and the replayed
# hybrid search registered as a cache hit (and the cold one as a miss).
for series in ferret_cache_hits_total ferret_cache_misses_total ferret_cache_memory_bytes \
              ferret_pushdown_queries_total ferret_pushdown_skipped_total; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "/metrics missing $series:"; echo "$METRICS" | grep '^ferret_' | head -n 20; exit 1; }
done
echo "$METRICS" | grep "^ferret_cache_hits_total" | grep -qv ' 0$' \
    || { echo "replayed hybrid /search never hit the result cache:"; echo "$METRICS" | grep '^ferret_cache'; exit 1; }
echo "$METRICS" | grep "^ferret_cache_misses_total" | grep -qv ' 0$' \
    || { echo "cold hybrid /search never missed the result cache:"; echo "$METRICS" | grep '^ferret_cache'; exit 1; }
echo "$METRICS" | grep "^ferret_pushdown_queries_total" | grep -qv ' 0$' \
    || { echo "hybrid /search never recorded a pushdown:"; echo "$METRICS" | grep '^ferret_pushdown'; exit 1; }
echo "$METRICS" | grep "^ferret_fusion_queries_total" | grep -q 'mode="rrf"' \
    || { echo "/metrics missing rrf-labelled ferret_fusion_queries_total:"; echo "$METRICS" | grep '^ferret_fusion'; exit 1; }
echo "smoke OK: /metrics served $(echo "$METRICS" | grep -c '^ferret_') ferret series"

echo "==> calibration: explicit retune, stored record on restart, bad parameters"
wait "$SERVE_PID" 2>/dev/null || true
target/release/ferret retune --db "$SMOKE_DIR/db" --dim 2 --bits 64 > "$SMOKE_DIR/retune.log" 2>&1 \
    || { echo "ferret retune failed:"; cat "$SMOKE_DIR/retune.log"; exit 1; }
STATUS=0
target/release/ferret import --db "$SMOKE_DIR/db-bad" --watch "$SMOKE_DIR/watch" --dim 2 \
    --bits 0 > "$SMOKE_DIR/bad.log" 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "import --bits 0 exited $STATUS, not 2:"; cat "$SMOKE_DIR/bad.log"; exit 1; }
# An unknown flag (here one of the removed storage-layout flags) is
# refused, not silently dropped; the timeout stops a serve that took it.
STATUS=0
timeout 20 target/release/ferret serve --db "$SMOKE_DIR/db-bad" --watch "$SMOKE_DIR/watch" \
    --dim 2 --index-layout segmented --tcp 127.0.0.1:0 --http 127.0.0.1:0 \
    > "$SMOKE_DIR/flag.log" 2>&1 || STATUS=$?
[ "$STATUS" -eq 2 ] || { echo "serve --index-layout exited $STATUS, not 2:"; cat "$SMOKE_DIR/flag.log"; exit 1; }
echo "calibration OK: retune exited 0, --bits 0 and an unknown flag exited 2"

echo "==> smoke: default serve restart — stored calibration, arena scan, four-field stat"
# Every flag at its default, on the store retuned above: the open uses the
# stored record (not --bits), filter-mode searches run the arena scan, and
# stat reports the four object and byte counts in both renderings.
target/release/ferret serve --db "$SMOKE_DIR/db" --watch "$SMOKE_DIR/watch" --dim 2 \
    --tcp 127.0.0.1:0 --http 127.0.0.1:0 > "$SMOKE_DIR/serve0.log" 2>&1 &
SERVE_PID=$!
HTTP_ADDR=""
for _ in $(seq 1 50); do
    HTTP_ADDR="$(sed -n 's|^web interface on http://\([^/]*\)/$|\1|p' "$SMOKE_DIR/serve0.log")"
    [ -n "$HTTP_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "default serve exited early:"; cat "$SMOKE_DIR/serve0.log"; exit 1; }
    sleep 0.2
done
[ -n "$HTTP_ADDR" ] || { echo "default serve never printed its http address"; cat "$SMOKE_DIR/serve0.log"; exit 1; }
TCP_ADDR="$(sed -n 's|^tcp protocol on \(.*\)$|\1|p' "$SMOKE_DIR/serve0.log")"
grep -q '^sketch calibration: N=64 K=2 (stored record)$' "$SMOKE_DIR/serve0.log" \
    || { echo "restart did not serve the stored calibration:"; cat "$SMOKE_DIR/serve0.log"; exit 1; }
http_get "/search?id=0&k=2&mode=filter" | grep -q '"results":\[{"id":' \
    || { echo "default filter-mode /search failed"; exit 1; }
STAT="$(http_get /stat)"
TCP_STAT="$(target/release/ferret query --addr "$TCP_ADDR" stat)"
# Every mode validates k and the weight override alike, including a
# sketch-mode query seeded by id (object 0, a.fvec, has two segments).
for bad in 'query id=0 k=0 mode=sketch' 'query id=0 mode=sketch weights=2,-1'; do
    REPLY="$(target/release/ferret query --addr "$TCP_ADDR" "$bad")"
    printf '%s\n' "$REPLY" | grep -q '^ERR ' \
        || { echo "'$bad' did not reply ERR:"; echo "$REPLY"; exit 1; }
done
METRICS="$(http_get /metrics)"
kill "$SERVE_PID" 2>/dev/null || true
echo "$STAT" | tail -n 1 \
    | grep -qE '^\{"ok":true,"objects":2,"segments":3,"sketch_bytes":[0-9]+,"feature_bytes":[0-9]+\}$' \
    || { echo "/stat reply is not the four-field object:"; echo "$STAT" | tail -n 1; exit 1; }
printf '%s\n' "$TCP_STAT" | tr '\n' ' ' \
    | grep -qE '^OK 4 objects 2 segments 3 sketch_bytes [0-9]+ feature_bytes [0-9]+ $' \
    || { echo "tcp stat reply is not OK 4 with four lines:"; echo "$TCP_STAT"; exit 1; }
echo "$METRICS" | grep "^ferret_query_stage_seconds" | grep -q 'stage="filter"' \
    || { echo "default serve missing the filter stage timer:"; echo "$METRICS" | grep '^ferret_query_stage'; exit 1; }
echo "default smoke OK: arena scan, four-field stat on both surfaces, invalid sketch queries refused"

echo "CI OK"

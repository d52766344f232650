#!/usr/bin/env bash
# End-to-end smoke test for the spind daemon: build, boot with a temp
# cache dir, wait for /healthz, run one small mesh simulation twice and
# assert the repeat is a cache hit with byte-identical body, scrape
# /metrics (including the simulator-level telemetry series), run a
# telemetry-enabled request (latency percentiles + time-series in the
# response), assert the structured request log, then SIGTERM mid-flight
# and assert the in-flight request still completes (graceful drain).
# With SMOKE_ARTIFACTS_DIR set, sample observability outputs (a Perfetto
# trace, a time-series JSON, the telemetry response, the request log)
# are left there for CI to upload. Run from the repo root; CI runs it in
# the smoke job.
set -euo pipefail

ADDR="127.0.0.1:${SPIND_PORT:-18080}"
TMP="$(mktemp -d)"
trap 'kill "$SPIND_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== build"
go build -o "$TMP/spind" ./cmd/spind

echo "== boot (cachedir $TMP/cache)"
"$TMP/spind" -addr "$ADDR" -cachedir "$TMP/cache" 2> "$TMP/spind.log" &
SPIND_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SPIND_PID" 2>/dev/null; then echo "spind died during startup" >&2; exit 1; fi
  sleep 0.2
done
curl -fsS "http://$ADDR/healthz"

BODY='{"topology":"mesh:8x8","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":5000,"seed":1}'

echo "== first request (expect miss)"
curl -fsS -D "$TMP/h1" -o "$TMP/r1" -d "$BODY" "http://$ADDR/v1/simulate"
grep -i '^x-cache: miss' "$TMP/h1" || { echo "first request was not a miss:"; cat "$TMP/h1"; exit 1; }

echo "== second request (expect hit, byte-identical)"
curl -fsS -D "$TMP/h2" -o "$TMP/r2" -d "$BODY" "http://$ADDR/v1/simulate"
grep -i '^x-cache: hit' "$TMP/h2" || { echo "repeat was not a cache hit:"; cat "$TMP/h2"; exit 1; }
cmp "$TMP/r1" "$TMP/r2" || { echo "cache hit not byte-identical"; exit 1; }

echo "== metrics scrape"
curl -fsS "http://$ADDR/metrics" | tee "$TMP/metrics" | grep -E '^spind_cache_(hits|misses)_total'
grep -q '^spind_cache_hits_total 1$' "$TMP/metrics"
grep -q '^spind_cache_misses_total 1$' "$TMP/metrics"

echo "== simulator-level metrics"
grep -q '^spind_sim_spins_total ' "$TMP/metrics"
grep -q '^spind_sim_recoveries_total ' "$TMP/metrics"
grep -q '^spind_sim_probes_total ' "$TMP/metrics"
grep -q '^spind_sim_kill_moves_total ' "$TMP/metrics"
grep -q '^spind_sim_deadlock_firings_total ' "$TMP/metrics"
grep -q 'spind_sim_packet_latency_cycles_bucket{quantile="p50",le="+Inf"} 1' "$TMP/metrics"
grep -q 'spind_sim_packet_latency_cycles_count{quantile="p99"} 1' "$TMP/metrics"

echo "== another seed of the shape just run rewinds its network"
curl -fsS -o /dev/null -d "${BODY/\"seed\":1/\"seed\":2}" "http://$ADDR/v1/simulate"
curl -fsS -o "$TMP/metrics-rewind" "http://$ADDR/metrics"
grep -q '^spind_sim_setups_total{how="rewind"} 1$' "$TMP/metrics-rewind" || { echo "the second seed built a network"; exit 1; }

echo "== telemetry request (latency percentiles + time-series)"
TBODY='{"topology":"mesh:8x8","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":5000,"seed":1,"telemetry":true,"epoch":500}'
curl -fsS -D "$TMP/h3" -o "$TMP/r3" -d "$TBODY" "http://$ADDR/v1/simulate"
grep -i '^x-cache: miss' "$TMP/h3" >/dev/null || { echo "telemetry request shares the plain cache entry"; exit 1; }
grep -i '^x-request-id:' "$TMP/h3" >/dev/null || { echo "no X-Request-ID header"; exit 1; }
for field in '"latency"' '"p50"' '"p95"' '"p99"' '"time_series"' '"spin-timeseries-v1"'; do
  grep -q "$field" "$TMP/r3" || { echo "telemetry response missing $field:"; cat "$TMP/r3"; exit 1; }
done
grep -q '"latency"' "$TMP/r1" && { echo "plain response leaks telemetry fields"; exit 1; }

echo "== request log (structured JSON records)"
grep -E '"msg":"request","id":"[0-9a-f]+-[0-9]+","endpoint":"simulate","code":200,"cache":"miss","key":"[0-9a-f]{64}"' "$TMP/spind.log" >/dev/null \
  || { echo "no structured miss record:"; cat "$TMP/spind.log"; exit 1; }
grep -E '"endpoint":"simulate","code":200,"cache":"hit"' "$TMP/spind.log" >/dev/null \
  || { echo "no structured hit record:"; cat "$TMP/spind.log"; exit 1; }
grep -E '"trace":"[0-9a-f]{32}","span":"[0-9a-f]{16}"' "$TMP/spind.log" >/dev/null \
  || { echo "request records carry no trace/span IDs:"; cat "$TMP/spind.log"; exit 1; }

echo "== server-side tracing (?trace=server, /v1/trace/<id>)"
curl -fsS -o "$TMP/r7" -d "$BODY" "http://$ADDR/v1/simulate?trace=server"
grep -q '"trace_id":"' "$TMP/r7" || { echo "?trace=server carried no trace envelope:"; cat "$TMP/r7"; exit 1; }
grep -q '"name":"cache"' "$TMP/r7" || { echo "?trace=server has no cache span:"; cat "$TMP/r7"; exit 1; }
grep -q '"key":"' "$TMP/r7" || { echo "?trace=server lost the result body:"; cat "$TMP/r7"; exit 1; }
TRACE_ID="$(sed -n 's/.*"trace_id":"\([0-9a-f]\{32\}\)".*/\1/p' "$TMP/r7")"
curl -fsS -o "$TMP/trace.json" "http://$ADDR/v1/trace/$TRACE_ID"
grep -q '"name":"simulate"' "$TMP/trace.json" || { echo "/v1/trace lacks the root span:"; cat "$TMP/trace.json"; exit 1; }
curl -fsS -o "$TMP/trace-perfetto.json" "http://$ADDR/v1/trace/$TRACE_ID?format=perfetto"
grep -q '"traceEvents"' "$TMP/trace-perfetto.json" || { echo "perfetto trace malformed:"; cat "$TMP/trace-perfetto.json"; exit 1; }

echo "== build info (/v1/version + spind_build_info)"
curl -fsS -o "$TMP/version.json" "http://$ADDR/v1/version"
grep -q '"go":"go' "$TMP/version.json" || { echo "/v1/version malformed:"; cat "$TMP/version.json"; exit 1; }
curl -fsS -o "$TMP/metrics2" "http://$ADDR/metrics"
grep -q '^spind_build_info{' "$TMP/metrics2" || { echo "no spind_build_info metric"; exit 1; }
grep -q 'spind_span_duration_seconds_bucket{span="simulate"' "$TMP/metrics2" \
  || { echo "no span-duration histogram"; exit 1; }

echo "== trace upload (spintrace -pack -b64 -> /v1/simulate trace_b64)"
go build -o "$TMP/spintrace" ./cmd/spintrace
# A tiny deterministic CSV trace: 32 packets over 8 cycles on the 8x8 mesh.
for i in $(seq 0 31); do
  src=$((i % 64)); dst=$(((src + 1 + i % 61) % 64))
  echo "$((i / 4)),$src,$dst,$((1 + i % 5)),0"
done > "$TMP/trace.csv"
TB64="$("$TMP/spintrace" -pack "$TMP/trace.csv" -b64)"
TRACE_BODY="{\"topology\":\"mesh:8x8\",\"routing\":\"min_adaptive\",\"scheme\":\"spin\",\"cycles\":200,\"drain_cycles\":20000,\"seed\":2,\"trace_b64\":\"$TB64\"}"
curl -fsS -D "$TMP/h4" -o "$TMP/r4" -d "$TRACE_BODY" "http://$ADDR/v1/simulate"
grep -i '^x-cache: miss' "$TMP/h4" >/dev/null || { echo "trace upload was not a miss:"; cat "$TMP/h4"; exit 1; }
grep -Eq '"injected": *32' "$TMP/r4" || { echo "trace replay did not inject 32 packets:"; cat "$TMP/r4"; exit 1; }
curl -fsS -D "$TMP/h5" -o "$TMP/r5" -d "$TRACE_BODY" "http://$ADDR/v1/simulate"
grep -i '^x-cache: hit' "$TMP/h5" >/dev/null || { echo "trace repeat was not a hit:"; cat "$TMP/h5"; exit 1; }
cmp "$TMP/r4" "$TMP/r5" || { echo "trace cache hit not byte-identical"; exit 1; }

echo "== CLI round trip (spinsim -record -> spinsim -replay)"
go build -o "$TMP/spinsim" ./cmd/spinsim
"$TMP/spinsim" -topo mesh:4x4 -scheme spin -rate 0.1 -cycles 2000 -warmup 200 -seed 5 \
  -record "$TMP/t.spintrace" > "$TMP/rec.out"
RECORDED="$(sed -n 's/^trace  *\([0-9]*\) injections recorded.*/\1/p' "$TMP/rec.out")"
[ "${RECORDED:-0}" -gt 0 ] || { echo "spinsim -record captured nothing:"; cat "$TMP/rec.out"; exit 1; }
"$TMP/spintrace" -info "$TMP/t.spintrace" > "$TMP/info.out"
grep -q "^entries  *$RECORDED " "$TMP/info.out" \
  || { echo "recorded file does not hold $RECORDED entries:"; cat "$TMP/info.out"; exit 1; }
"$TMP/spinsim" -topo mesh:4x4 -scheme spin -cycles 2000 -warmup 200 -seed 5 \
  -replay "$TMP/t.spintrace" -drain > "$TMP/rep.out"
grep -q "^trace  *$RECORDED packets streamed" "$TMP/rep.out" \
  || { echo "replay did not inject the $RECORDED recorded packets:"; cat "$TMP/rep.out"; exit 1; }
grep -q '^drain  *complete' "$TMP/rep.out" || { echo "replayed run did not drain:"; cat "$TMP/rep.out"; exit 1; }

echo "== closed-loop workload request"
WBODY='{"topology":"mesh:8x8","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.2,"cycles":2000,"seed":4,"workload":{"mode":"closed","window":4,"req_len":1,"resp_len":1,"think":8}}'
curl -fsS -o "$TMP/r6" -d "$WBODY" "http://$ADDR/v1/simulate"
grep -q '"injected"' "$TMP/r6" || { echo "workload request failed:"; cat "$TMP/r6"; exit 1; }
grep -Eq '"vnets": *2' "$TMP/r6" || { echo "workload normalization did not reserve a reply vnet:"; cat "$TMP/r6"; exit 1; }

echo "== graceful drain: SIGTERM with a request in flight"
SLOW='{"topology":"mesh:8x8","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":200000,"seed":7}'
curl -fsS -o "$TMP/slow" -d "$SLOW" "http://$ADDR/v1/simulate" &
CURL_PID=$!
sleep 0.5                    # let the simulation start
kill -TERM "$SPIND_PID"
wait "$CURL_PID" || { echo "in-flight request failed during drain"; exit 1; }
grep -q '"stats"' "$TMP/slow" || { echo "drained response incomplete"; exit 1; }
wait "$SPIND_PID"

if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
  echo "== observability sample artifacts -> $SMOKE_ARTIFACTS_DIR"
  mkdir -p "$SMOKE_ARTIFACTS_DIR"
  "$TMP/spinsim" -topo mesh:8x8 -routing favors_min -scheme spin -vcs 1 \
    -traffic uniform_random -rate 0.40 -seed 7 -cycles 6000 -warmup 1000 \
    -trace "$SMOKE_ARTIFACTS_DIR/sample-trace.json" -epoch 500 -hist \
    -tsout "$SMOKE_ARTIFACTS_DIR/sample-timeseries.json" > "$SMOKE_ARTIFACTS_DIR/spinsim-summary.txt"
  cp "$TMP/r3" "$SMOKE_ARTIFACTS_DIR/telemetry-response.json"
  cp "$TMP/metrics" "$SMOKE_ARTIFACTS_DIR/metrics.txt"
  cp "$TMP/spind.log" "$SMOKE_ARTIFACTS_DIR/spind-request-log.txt"
  cp "$TMP/trace-perfetto.json" "$SMOKE_ARTIFACTS_DIR/request-trace-perfetto.json"
fi

echo "smoke: OK"

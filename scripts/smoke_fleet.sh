#!/usr/bin/env bash
# End-to-end smoke test for a spind fleet — only what needs real
# processes and real sockets: boot three gossiping daemons plus a
# single-node reference, fan a seed sweep (and one /v1/sweep) across the
# fleet and assert every response is byte-identical (sha256) to the
# reference node's answer, trace one proxied request end to end
# (traceparent across the hop, both nodes logging the same trace ID, a
# merged /v1/trace timeline with spans from >=2 nodes, a Perfetto-loadable
# rendering), and SIGKILL a node mid-sweep and assert the survivors answer
# everything, still byte-identical. Membership, failure detection,
# partitions, slow peers, restarts, failed backfills, repeat-hits and SSE
# are table tests on an in-memory transport and a stepped clock
# (go test ./internal/fleet ./internal/serve). With SMOKE_ARTIFACTS_DIR
# set, per-node logs and metrics are left there for CI to upload. Run
# from the repo root.
set -euo pipefail

BASE="${SPIND_FLEET_BASE_PORT:-18190}"
A1="127.0.0.1:$BASE"; A2="127.0.0.1:$((BASE+1))"; A3="127.0.0.1:$((BASE+2))"
REF="127.0.0.1:$((BASE+3))"
PEERS="$A1,$A2,$A3"
TMP="$(mktemp -d)"
PIDS=()

collect_artifacts() {
  if [ -n "${SMOKE_ARTIFACTS_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS_DIR"
    cp "$TMP"/*.log "$SMOKE_ARTIFACTS_DIR/" 2>/dev/null || true
    cp "$TMP/trace-merged.json" "$TMP/trace-merged-perfetto.json" "$SMOKE_ARTIFACTS_DIR/" 2>/dev/null || true
    for a in "$A1" "$A2" "$A3"; do
      curl -fsS --max-time 2 "http://$a/metrics" > "$SMOKE_ARTIFACTS_DIR/metrics-$a.txt" 2>/dev/null || true
      curl -fsS --max-time 2 "http://$a/v1/fleet" > "$SMOKE_ARTIFACTS_DIR/fleet-$a.json" 2>/dev/null || true
    done
  fi
}
cleanup() {
  collect_artifacts
  for p in "${PIDS[@]}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build"
go build -o "$TMP/spind" ./cmd/spind

boot() { # boot <addr> <node-id> <peers>
  local addr="$1" id="$2" peers="$3"
  "$TMP/spind" -addr "$addr" -cachedir "$TMP/cache-$id" -gossip 200ms \
    ${peers:+-peers "$peers"} ${id:+-node "$id"} 2> "$TMP/$id.log" &
  PIDS+=("$!")
}

echo "== boot reference node + 3-node fleet (gossip 200ms)"
boot "$REF" ref ""
boot "$A1" n1 "$PEERS"
boot "$A2" n2 "$PEERS"
boot "$A3" n3 "$PEERS"

wait_ready() { # wait_ready <addr> [path]
  local addr="$1" path="${2:-/readyz}"
  for i in $(seq 1 100); do
    if curl -fsS "http://$addr$path" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "node $addr never became ready ($path)" >&2
  return 1
}
wait_ready "$REF" /healthz
for a in "$A1" "$A2" "$A3"; do wait_ready "$a"; done

echo "== fleet admin view: all three alive on every node"
for a in "$A1" "$A2" "$A3"; do
  curl -fsS "http://$a/v1/fleet" > "$TMP/fleet.json"
  alive="$(grep -c '"state": "alive"' "$TMP/fleet.json" || true)"
  [ "$alive" -eq 3 ] || { echo "node $a sees $alive alive members, want 3:"; cat "$TMP/fleet.json"; exit 1; }
done

body() { # body <seed>
  printf '{"topology":"mesh:4x4","routing":"min_adaptive","scheme":"spin","traffic":"uniform_random","rate":0.05,"cycles":2000,"seed":%d}' "$1"
}
NODES=("$A1" "$A2" "$A3")

echo "== reference run (single node)"
for seed in $(seq 1 9); do
  curl -fsS -o "$TMP/ref-$seed.json" -d "$(body "$seed")" "http://$REF/v1/simulate"
done

echo "== fan the sweep across the fleet round-robin"
for seed in $(seq 1 9); do
  node="${NODES[$(( (seed - 1) % 3 ))]}"
  curl -fsS -o "$TMP/fleet-$seed.json" -d "$(body "$seed")" "http://$node/v1/simulate"
  cmp "$TMP/ref-$seed.json" "$TMP/fleet-$seed.json" \
    || { echo "seed $seed via $node differs from the single-node reference"; exit 1; }
done
sha256sum "$TMP"/ref-*.json > "$TMP/ref.sha256"
( cd "$TMP" && sed 's/ref-/fleet-/' ref.sha256 | sha256sum -c --quiet ) \
  || { echo "fleet responses not byte-identical to reference"; exit 1; }

echo "== sweep endpoint across the hop"
SWEEP='{"fig":"10","cycles":5000,"warmup":500}'
curl -fsS -o "$TMP/sweep-ref.json" -d "$SWEEP" "http://$REF/v1/sweep"
curl -fsS -o "$TMP/sweep-n2.json" -d "$SWEEP" "http://$A2/v1/sweep"
cmp "$TMP/sweep-ref.json" "$TMP/sweep-n2.json" || { echo "sweep differs from reference"; exit 1; }

echo "== distributed tracing: traceparent propagation across a proxied hop"
TID="feedfacecafebeeffeedfacecafebeef"
PROXIED=""
for seed in $(seq 40 60); do
  curl -fsS -D "$TMP/th" -o "$TMP/tr" \
    -H "traceparent: 00-$TID-00f067aa0ba902b7-01" \
    -d "$(body "$seed")" "http://$A1/v1/simulate"
  if grep -qi '^x-fleet: proxy:' "$TMP/th"; then PROXIED="$seed"; break; fi
done
[ -n "$PROXIED" ] || { echo "no seed in 40..60 proxied from n1; every key landed on n1?"; exit 1; }
grep -qi "^traceparent: 00-$TID-" "$TMP/th" \
  || { echo "response did not adopt the caller's trace ID:"; cat "$TMP/th"; exit 1; }
OWNER="$(grep -i '^x-fleet:' "$TMP/th" | tr -d '[:space:]\r' | cut -d: -f3)"
grep -q "\"trace\":\"$TID\"" "$TMP/n1.log" \
  || { echo "n1 request log lacks the propagated trace ID:"; cat "$TMP/n1.log"; exit 1; }
grep -q "\"trace\":\"$TID\"" "$TMP/$OWNER.log" \
  || { echo "owner $OWNER request log lacks the propagated trace ID:"; cat "$TMP/$OWNER.log"; exit 1; }

echo "== merged cross-node timeline (/v1/trace/<id>)"
curl -fsS -o "$TMP/trace-merged.json" "http://$A1/v1/trace/$TID"
nodes="$(grep -o '"node":"[^"]*"' "$TMP/trace-merged.json" | sort -u | wc -l)"
[ "$nodes" -ge 2 ] \
  || { echo "merged trace has spans from $nodes node(s), want >=2:"; cat "$TMP/trace-merged.json"; exit 1; }
grep -q '"name":"proxy:' "$TMP/trace-merged.json" \
  || { echo "merged trace lacks the proxy hop span:"; cat "$TMP/trace-merged.json"; exit 1; }
curl -fsS -o "$TMP/trace-merged-perfetto.json" "http://$A1/v1/trace/$TID?format=perfetto"
grep -q '"traceEvents"' "$TMP/trace-merged-perfetto.json" \
  || { echo "merged perfetto trace malformed:"; cat "$TMP/trace-merged-perfetto.json"; exit 1; }
echo "   merged timeline spans $nodes nodes (proxied seed $PROXIED, owner $OWNER)"

echo "== SIGKILL n3 mid-sweep: survivors keep answering, byte-identical"
N3_PID="${PIDS[3]}"
for seed in $(seq 20 25); do
  curl -fsS -o "$TMP/ref-$seed.json" -d "$(body "$seed")" "http://$REF/v1/simulate"
done
(
  sleep 0.3
  kill -9 "$N3_PID"
) &
KILLER=$!
for seed in $(seq 20 25); do
  node="${NODES[$(( seed % 2 ))]}" # survivors only; n3 keys fall back
  curl -fsS -o "$TMP/kill-$seed.json" -d "$(body "$seed")" "http://$node/v1/simulate"
  cmp "$TMP/ref-$seed.json" "$TMP/kill-$seed.json" \
    || { echo "seed $seed after the kill differs from reference"; exit 1; }
done
wait "$KILLER"
# Reap n3 and read how it died (kill -0 right after the SIGKILL could
# still see the not-yet-reaped zombie): 128 + 9.
n3_status=0
wait "$N3_PID" 2>/dev/null || n3_status=$?
[ "$n3_status" -eq 137 ] || { echo "n3 exited with status $n3_status, want 137 (SIGKILL)"; exit 1; }

echo "smoke_fleet: OK"

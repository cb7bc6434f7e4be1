#!/usr/bin/env bash
# End-to-end cluster smoke test: build ivoryd, boot two worker replicas and
# a coordinator wired to them, explore through the cluster, assert the
# response body is byte-identical to a single-node run of the same spec
# (modulo volatile timing stats) and that an adaptive search dispatches no
# shard, scrape /v1/cluster and the shard metrics, then SIGTERM all three
# daemons and assert clean drains.
#
# Used by `make smoke-cluster` and the CI cluster-smoke job. Needs bash,
# curl, jq and the go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() {
    # $pid covers a daemon still booting inside boot_daemon.
    for p in "${pid:-}" "${w1pid:-}" "${w2pid:-}" "${cpid:-}"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/ivoryd" ./cmd/ivoryd

# boot_daemon <logfile> <args...>: starts ivoryd and stores its pid and
# parsed listen address in the globals $pid and $addr. Runs in the current
# shell (not a command substitution) so the globals survive.
boot_daemon() {
    local log=$1
    shift
    "$workdir/ivoryd" "$@" >"$log" 2>&1 &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^ivoryd: listening on //p' "$log" | head -n 1)
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "ivoryd died during startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "ivoryd never printed its listen address:" >&2
        cat "$log" >&2
        exit 1
    fi
}

echo "== boot workers"
boot_daemon "$workdir/w1.log" -addr 127.0.0.1:0 -role worker -workers 2 -drain-timeout 20s
w1pid=$pid w1="http://$addr"
boot_daemon "$workdir/w2.log" -addr 127.0.0.1:0 -role worker -workers 2 -drain-timeout 20s
w2pid=$pid w2="http://$addr"
echo "   workers on $w1 $w2"

echo "== boot coordinator"
boot_daemon "$workdir/coord.log" -addr 127.0.0.1:0 -role coordinator \
    -cluster-workers "$w1,$w2" -workers 1 -drain-timeout 20s
cpid=$pid coord="http://$addr"
echo "   coordinator on $coord"

# dispatched prints the coordinator's total ivoryd_shards_dispatched_total.
dispatched() {
    curl -fsS "$coord/metrics" |
        awk '/^ivoryd_shards_dispatched_total\{/ { n += $2 } END { print n + 0 }'
}

# Three cases. Exhaustive at 2 mm² survives the mm²→m² float64 unit
# conversion exactly; at 0.8 mm² it drifts 1 ULP, so it only works if the
# shard wire carries the coordinator's engine-precision area
# (ShardRequest.area_m2). The adaptive search runs on the coordinator and
# must not dispatch a single shard.
for case in "2 exhaustive" "0.8 exhaustive" "2 adaptive"; do
    read -r area search <<<"$case"
    extra=""
    [ "$search" = adaptive ] && extra=',"search":"adaptive"'
    spec='{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":'$area$extra'},"top":-1}'
    label="area_mm2=$area, $search"
    before=$(dispatched)

    echo "== explore through the cluster ($label)"
    curl -fsS -X POST "$coord/v1/explore" -H 'Content-Type: application/json' \
        -d "$spec" >"$workdir/cluster.json"
    after=$(dispatched)
    if [ "$search" = adaptive ] && [ "$after" != "$before" ]; then
        echo "adaptive search dispatched $((after - before)) shards; it must run on the coordinator" >&2
        exit 1
    fi
    jq -e '.incomplete != true and .cancelled != true and (.candidates | length) > 0' \
        "$workdir/cluster.json" >/dev/null || {
        echo "cluster exploration returned no complete result:" >&2
        head -c 400 "$workdir/cluster.json" >&2
        exit 1
    }

    echo "== compare against single-node ($label)"
    # Worker 1 serves the same spec directly; everything except the volatile
    # timing stats must be byte-identical after canonical re-serialization.
    curl -fsS -X POST "$w1/v1/explore" -H 'Content-Type: application/json' \
        -d "$spec" >"$workdir/single.json"
    normalize='del(.stats.wall_ms, .stats.candidates_per_sec, .stats.topo_cache_hits,
                   .stats.topo_cache_misses)'
    jq -S "$normalize" "$workdir/cluster.json" >"$workdir/cluster.norm.json"
    jq -S "$normalize" "$workdir/single.json" >"$workdir/single.norm.json"
    if ! diff -q "$workdir/cluster.norm.json" "$workdir/single.norm.json" >/dev/null; then
        echo "cluster result diverged from single-node ($label):" >&2
        diff "$workdir/cluster.norm.json" "$workdir/single.norm.json" | head -n 20 >&2
        exit 1
    fi
done

echo "== probe /v1/cluster"
curl -fsS "$coord/v1/cluster" >"$workdir/cluster_status.json"
jq -e '.role == "coordinator" and (.workers | length) == 2 and
       ([.workers[] | select(.healthy)] | length) == 2 and
       ([.workers[].shards_ok] | add) > 0' "$workdir/cluster_status.json" >/dev/null || {
    echo "unexpected /v1/cluster body:" >&2
    cat "$workdir/cluster_status.json" >&2
    exit 1
}
# A worker replica answers /v1/cluster too, with its own role.
curl -fsS "$w1/v1/cluster" | jq -e '.role == "worker"' >/dev/null

echo "== probe coordinator /metrics"
metrics=$(curl -fsS "$coord/metrics")
echo "$metrics" | grep -q 'ivoryd_shards_dispatched_total{worker="' || {
    echo "no shard dispatch counters in the exposition" >&2
    exit 1
}
echo "$metrics" | grep -q 'ivoryd_worker_healthy{worker="' || {
    echo "no worker health gauges in the exposition" >&2
    exit 1
}

echo "== SIGTERM drain"
for p in "$cpid" "$w1pid" "$w2pid"; do
    kill -TERM "$p"
done
for p in "$cpid" "$w1pid" "$w2pid"; do
    for _ in $(seq 1 300); do
        kill -0 "$p" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$p" 2>/dev/null; then
        echo "daemon $p still running 30s after SIGTERM" >&2
        exit 1
    fi
    rc=0
    wait "$p" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "daemon $p exited $rc after SIGTERM" >&2
        cat "$workdir"/*.log >&2
        exit 1
    fi
done
for log in "$workdir/coord.log" "$workdir/w1.log" "$workdir/w2.log"; do
    grep -q 'drained cleanly' "$log" || {
        echo "no clean-drain message in $log:" >&2
        cat "$log" >&2
        exit 1
    }
done

echo "cluster smoke OK (coordinator $coord, workers $w1 $w2)"

#!/usr/bin/env bash
# Full verification pass: configure, build, run every test and every
# benchmark binary. Mirrors what CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

# No -G here: build/ is also the tier-1 tree (`cmake -B build -S .`), and
# a generator flag that differs from the tree's own fails the configure.
cmake -B build
cmake --build build
ctest --test-dir build --output-on-failure

for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "==== running $b"
  case "$(basename "$b")" in
    # The batch-kernel benches also emit the rat.bench.v1 perf trajectory:
    # bench_parallel_scaling writes the canonical BENCH_RAT.json at the
    # repo root (committed PR over PR), the micro-bench a sidecar in
    # build/. Both documents are schema-validated below.
    bench_parallel_scaling) "$b" --benchmark_min_time=0.05s \
      --json=BENCH_RAT.json ;;
    bench_batch_eval) "$b" --benchmark_min_time=0.05s \
      --json=build/bench_batch_eval.json ;;
    # The branch-and-bound explorer's headline (identity + pruning win +
    # warm plan cache), merged into BENCH_RAT.json and gated below.
    bench_explore_pruning) "$b" --benchmark_min_time=0.05s \
      --json=build/bench_explore.json ;;
    *) "$b" --benchmark_min_time=0.05s ;;
  esac
done

# Headline serving numbers (docs/LOADGEN.md): a pinned open-loop
# rat_loadgen configuration against the release rat_serve, merged into
# BENCH_RAT.json so the committed perf trajectory tracks the serving
# stack (latency percentiles, achieved rate) alongside the kernel.
echo "==== serving headline (pinned rat_loadgen config -> BENCH_RAT.json)"
head_dir=$(mktemp -d)
mkdir "$head_dir/fixtures"
cp tests/fixtures/worksheets/pdf1d.rat tests/fixtures/worksheets/pdf2d.rat \
  tests/fixtures/worksheets/md.rat "$head_dir/fixtures/"
build/src/apps/rat_serve --port=0 --port-file="$head_dir/port" \
  --queue-capacity=4096 >/dev/null 2>"$head_dir/serve.err" &
head_pid=$!
for _ in $(seq 100); do
  [ -s "$head_dir/port" ] && break
  sleep 0.1
done
[ -s "$head_dir/port" ] || { echo "rat_serve: never wrote port file"; exit 1; }
build/src/apps/rat_loadgen --port-file="$head_dir/port" \
  --fixtures="$head_dir/fixtures" --requests=2000 --connections=32 \
  --rate=2000 --arrival=poisson --seed=42 --duplicate-ratio=0.5 \
  --report="$head_dir/load.json"
kill -TERM "$head_pid"
rc=0
wait "$head_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "rat_serve: headline drain exited $rc"; exit 1; }
python3 - BENCH_RAT.json "$head_dir/load.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
load = json.load(open(sys.argv[2]))
assert load["schema"] == "rat.load.v1", load.get("schema")
step = load["steps"][0]
assert step["ok"] == step["sent"] and step["lost"] == 0, step
assert not step["error_codes"], step["error_codes"]
lat = step["latency_ms"]
m = bench["metrics"]
m["serving.offered_rate_hz"] = float(step["offered_rate_hz"])
m["serving.achieved_rate_hz"] = float(step["achieved_rate_hz"])
m["serving.p50_ms"] = float(lat["p50"])
m["serving.p99_ms"] = float(lat["p99"])
m["serving.p999_ms"] = float(lat["p999"])
bench["metrics"] = dict(sorted(m.items()))
with open(sys.argv[1], "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
print(f"serving headline: {step['achieved_rate_hz']:.0f} req/s achieved, "
      f"p50 {lat['p50']:.3f} ms, p99 {lat['p99']:.3f} ms")
EOF
rm -rf "$head_dir"

# Exploration headline (docs/EXPLORATION.md): merge the explore.* metrics
# from bench_explore_pruning into BENCH_RAT.json and gate on what the
# explorer promises — a byte-identical result to the exhaustive sweep,
# >= 10x fewer full gate-pipeline evaluations, and a warm plan cache
# eliminating >= 90% of the evaluations a cold campaign needed.
echo "==== exploration headline (bench_explore_pruning -> BENCH_RAT.json)"
python3 - BENCH_RAT.json build/bench_explore.json <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
explore = json.load(open(sys.argv[2]))
assert explore["schema"] == "rat.bench.v1", explore.get("schema")
e = explore["metrics"]
assert e["explore.identical"] == 1.0, e
assert e["explore.evaluation_reduction"] >= 10.0, \
    e["explore.evaluation_reduction"]
assert e["explore.warm_elimination_ratio"] >= 0.9, \
    e["explore.warm_elimination_ratio"]
m = bench["metrics"]
for k, v in e.items():
    if k.startswith("explore."):
        m[k] = float(v)
bench["metrics"] = dict(sorted(m.items()))
with open(sys.argv[1], "w") as f:
    json.dump(bench, f, indent=2)
    f.write("\n")
print(f"exploration headline: {e['explore.evaluation_reduction']:.0f}x fewer "
      f"full evaluations on {e['explore.points_total']:.0f} points, "
      f"{100 * e['explore.warm_elimination_ratio']:.0f}% warm elimination")
EOF

# The perf trajectory must exist and parse: a malformed or silently
# missing BENCH_RAT.json would break the PR-over-PR comparison.
echo "==== BENCH_RAT.json schema validation"
python3 - BENCH_RAT.json build/bench_batch_eval.json <<'EOF'
import json, sys
for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["schema"] == "rat.bench.v1", (path, doc.get("schema"))
    assert doc["bench"], path
    assert doc["simd_backend"] in ("scalar", "avx2", "neon"), doc
    assert doc["simd_width"] >= 1, doc
    m = doc["metrics"]
    assert m, f"{path}: empty metrics"
    assert all(isinstance(v, float) for v in m.values()), m
    assert m["kernel.batch_vs_scalar_speedup"] > 1.0, \
        (path, m["kernel.batch_vs_scalar_speedup"])
    print(f"{path}: OK ({len(m)} metrics, {doc['simd_backend']} lanes, "
          f"batch {m['kernel.batch_vs_scalar_speedup']:.1f}x scalar)")
EOF

# ThreadSanitizer pass over the parallel evaluation engine, the
# observability registry, the prediction service and the durable store: a
# separate build tree with -DRAT_SANITIZE=thread, building and running
# only the thread-pool + determinism + obs + svc + store tests (the -R
# patterns match exactly the suites in test_parallel, test_obs, test_svc
# and test_store — the Store pattern covers the parallel checkpoint
# recording suite; Load covers test_load's runner-vs-server
# integration). rat_serve, rat_router and rat_loadgen are built here too
# so the loopback + router soaks and the SLO smokes below run under TSan.
echo "==== ThreadSanitizer pass (parallel + obs + service + store tests)"
cmake -B build-tsan -G Ninja -DRAT_SANITIZE=thread
cmake --build build-tsan --target test_parallel test_obs test_svc \
  test_store test_batch test_load test_explore rat_serve rat_router \
  rat_loadgen
ctest --test-dir build-tsan --output-on-failure \
  -R '^(ThreadPool|ParallelFor|ParallelMap|ParallelDeterminism|Obs|Svc|Store|BatchIdentity|Load|Explore)'

# ASan+UBSan pass over the worksheet ingestion path, the durable store,
# the SIMD batch kernel and the prediction service: the io tests (strict
# parser, loaders, batch runner + checkpoint resume, and the JSON layer:
# the '^Json' pattern covers the request parser and the number
# formatter's property test against its printf reference), the store tests
# (including the recovery property suite, which truncates journals at
# every byte boundary and bit-flips payloads), the BatchIdentity suite
# (the '^Batch' pattern covers it: lane loads/stores and the SoA arena
# run sanitized) and the svc suites (UBSan exercises the deadline
# clamp — SvcService.HugeDeadlineIsClampedNotUndefined feeds 1e308
# through the float->uint64 cast) plus the rat_batch binary, then a
# smoke run on the checked-in fixture directory whose broken.rat must
# yield a per-file file:line:column diagnostic and the documented exit
# code 2 (partial failure) while the three good worksheets still
# evaluate. rat_serve is built in this tree because test_svc's router
# suite supervises real worker processes (RAT_SERVE_BIN), so the
# SIGPIPE/EMFILE/router regression tests all run sanitized here too.
echo "==== AddressSanitizer+UBSan pass (ingestion + store + batch + svc)"
cmake -B build-asan -G Ninja -DRAT_SANITIZE=address,undefined
cmake --build build-asan --target test_io test_store test_batch test_svc \
  rat_batch rat_serve
ctest --test-dir build-asan --output-on-failure \
  -R '^(LoadWorksheet|WorksheetDir|Batch|Store|Svc|Json)'

# Scalar-fallback pass: the same identity suite with SIMD forced off
# (-DRAT_SIMD=off), so the width-1 reference build — what a host without
# AVX2/NEON gets — proves it computes the very same bits the kernel
# suites pinned above.
echo "==== RAT_SIMD=off pass (scalar-fallback identity)"
cmake -B build-simdoff -G Ninja -DRAT_SIMD=off
cmake --build build-simdoff --target test_batch
ctest --test-dir build-simdoff --output-on-failure -R '^BatchIdentity'

echo "==== rat_batch smoke (fixture directory with one malformed file)"
smoke_out=$(mktemp)
smoke_err=$(mktemp)
rc=0
build-asan/src/apps/rat_batch --dir=tests/fixtures/worksheets --quiet \
  >"$smoke_out" 2>"$smoke_err" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "rat_batch: expected documented exit code 2 (partial failure), got $rc"
  cat "$smoke_out" "$smoke_err"
  exit 1
fi
if ! grep -q 'broken.rat:3:18: E_BAD_LIST' "$smoke_err"; then
  echo "rat_batch: missing file:line:column diagnostic for broken.rat"
  cat "$smoke_err"
  exit 1
fi
if ! grep -q '4 worksheet(s): 3 ok, 1 failed' "$smoke_out"; then
  echo "rat_batch: expected 3 good worksheets to still evaluate"
  cat "$smoke_out"
  exit 1
fi
rm -f "$smoke_out" "$smoke_err"

# Observability smoke: --metrics must emit a valid rat.metrics.v1 document
# with non-zero batch + thread-pool activity (--threads=2 forces the pool
# into play even on a single-core runner), and collection must not change
# the batch outputs — the JSON/CSV written with metrics on are byte-
# identical to a run with metrics off.
echo "==== rat_batch metrics smoke (rat.metrics.v1 export)"
metrics_dir=$(mktemp -d)
build/src/apps/rat_batch --dir=tests/fixtures/worksheets --quiet \
  --threads=2 --json="$metrics_dir/plain.json" \
  --csv="$metrics_dir/plain.csv" >/dev/null 2>&1 || true
build/src/apps/rat_batch --dir=tests/fixtures/worksheets --quiet \
  --threads=2 --json="$metrics_dir/observed.json" \
  --csv="$metrics_dir/observed.csv" \
  --metrics="$metrics_dir/metrics.json" >/dev/null 2>&1 || true
cmp "$metrics_dir/plain.json" "$metrics_dir/observed.json"
cmp "$metrics_dir/plain.csv" "$metrics_dir/observed.csv"
python3 - "$metrics_dir/metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "rat.metrics.v1", doc.get("schema")
c = doc["counters"]
assert c["batch.files"] == 4, c
assert c["batch.files_ok"] == 3, c
assert c["pool.tasks_completed"] > 0, c
assert doc["timers"]["batch.file"]["count"] == 4, doc["timers"]
assert any(s["name"] == "batch.file" for s in doc["spans"]), doc["spans"]
print("metrics OK:", len(c), "counters,", len(doc["timers"]), "timers,",
      len(doc["spans"]), "spans")
EOF
rm -rf "$metrics_dir"

# Service soak (docs/SERVICE.md): the TSan-built rat_serve answers 1000
# pipelined loopback requests cycling the four fixture worksheets (>= 50%
# duplicates, one malformed), so every request must get exactly one
# response, responses within one worksheet group must be byte-identical
# (cache hit == cache miss), the metrics JSON must show cache hits, and
# SIGTERM must drain and exit 0.
echo "==== rat_serve loopback soak (1000 requests, TSan build)"
soak_dir=$(mktemp -d)
build-tsan/src/apps/rat_serve --port=0 --port-file="$soak_dir/port" \
  --queue-capacity=1024 --metrics="$soak_dir/metrics.json" \
  >"$soak_dir/stdout" 2>"$soak_dir/stderr" &
serve_pid=$!
for _ in $(seq 100); do
  [ -s "$soak_dir/port" ] && break
  sleep 0.1
done
[ -s "$soak_dir/port" ] || { echo "rat_serve: never wrote port file"; exit 1; }
python3 - "$(cat "$soak_dir/port")" <<'EOF'
import json, socket, sys
port = int(sys.argv[1])
sheets = [open(f"tests/fixtures/worksheets/{n}.rat").read()
          for n in ("pdf1d", "pdf2d", "md", "broken")]
n = 1000
with socket.create_connection(("127.0.0.1", port)) as s:
    f = s.makefile("rw")
    for i in range(n):
        g = i % len(sheets)
        # One id per worksheet group: responses must not depend on
        # whether they were served from the cache, so every response in
        # a group must be byte-identical.
        f.write(json.dumps({"schema": "rat.svc.v1", "id": f"w{g}",
                            "op": "evaluate", "worksheet": sheets[g]}) + "\n")
    f.flush()
    groups = {}
    for _ in range(n):
        line = f.readline()
        assert line.endswith("\n"), "short read: a request went unanswered"
        rid = json.loads(line)["id"]
        groups.setdefault(rid, set()).add(line)
assert sorted(groups) == ["w0", "w1", "w2", "w3"], sorted(groups)
for rid, lines in groups.items():
    assert len(lines) == 1, f"{rid}: hit/miss responses differ in bytes"
for rid in ("w0", "w1", "w2"):
    assert '"status":"ok"' in next(iter(groups[rid])), rid
bad = json.loads(next(iter(groups["w3"])))
assert bad["error"]["code"] == "E_BAD_LIST", bad
print(f"soak OK: {n} requests, 4 groups, byte-identical within group")
EOF
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "rat_serve: expected SIGTERM drain to exit 0, got $rc"
  cat "$soak_dir/stderr"
  exit 1
fi
python3 - "$soak_dir/metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "rat.metrics.v1", doc.get("schema")
c = doc["counters"]
assert c["svc.requests"] == 1000, c.get("svc.requests")
assert c["svc.cache.hit"] > 0, c.get("svc.cache.hit")
assert c["svc.responses.ok"] == 750, c.get("svc.responses.ok")
assert c["svc.responses.error"] == 250, c.get("svc.responses.error")
print("service metrics OK:", c["svc.cache.hit"], "cache hits,",
      c["svc.responses.ok"], "ok,", c["svc.responses.error"], "errors")
EOF
rm -rf "$soak_dir"

# Slow-reader + idle-horde soak: the same TSan rat_serve must hold 500
# idle connections (with a constant thread count — the event loop's
# point) and a client that pipelines 400 requests but never reads its
# socket. The bounded write queue must drop the slow reader
# (svc.server.slow_client_dropped) instead of wedging, a well-behaved
# client threading through the chaos must see byte-identical responses,
# and SIGTERM must still drain to exit 0.
echo "==== rat_serve slow-reader + 500-idle-connection soak (TSan build)"
slow_dir=$(mktemp -d)
build-tsan/src/apps/rat_serve --port=0 --port-file="$slow_dir/port" \
  --queue-capacity=4096 --write-buffer-bytes=8192 --so-sndbuf=4096 \
  --metrics="$slow_dir/metrics.json" \
  >"$slow_dir/stdout" 2>"$slow_dir/stderr" &
serve_pid=$!
for _ in $(seq 100); do
  [ -s "$slow_dir/port" ] && break
  sleep 0.1
done
[ -s "$slow_dir/port" ] || { echo "rat_serve: never wrote port file"; exit 1; }
python3 - "$(cat "$slow_dir/port")" <<'EOF'
import json, socket, sys
port = int(sys.argv[1])
sheet = open("tests/fixtures/worksheets/pdf1d.rat").read()
def req(rid):
    return (json.dumps({"schema": "rat.svc.v1", "id": rid,
                        "op": "evaluate", "worksheet": sheet}) + "\n").encode()

# 1. Idle horde: 500 connections that never speak.
idle = [socket.create_connection(("127.0.0.1", port)) for _ in range(500)]

# 2. Slow reader: tiny receive window, 400 pipelined requests, never a
#    single read. A send error mid-burst just means the server already
#    dropped us — which is exactly the policy under test.
slow = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
slow.connect(("127.0.0.1", port))
try:
    for i in range(400):
        slow.sendall(req(f"slow{i}"))
except OSError:
    pass

# 3. A well-behaved client round-trips through the chaos; one id group,
#    so all 100 responses must be byte-identical (cache hit == miss).
lines = set()
with socket.create_connection(("127.0.0.1", port)) as s:
    f = s.makefile("rw")
    for _ in range(100):
        f.write(req("fast").decode())
        f.flush()
        line = f.readline()
        assert line.endswith("\n"), "short read: blocked behind slow reader"
        lines.add(line)
assert len(lines) == 1, "responses differ in bytes across hits/misses"
assert '"status":"ok"' in next(iter(lines))
for c in idle:
    c.close()
slow.close()
print("slow-reader soak OK: 100 clean round-trips, 500 idle held")
EOF
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "rat_serve: expected SIGTERM drain to exit 0, got $rc"
  cat "$slow_dir/stderr"
  exit 1
fi
python3 - "$slow_dir/metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
c = doc["counters"]
assert c["svc.server.connections"] >= 502, c.get("svc.server.connections")
assert c["svc.server.slow_client_dropped"] >= 1, \
    c.get("svc.server.slow_client_dropped")
assert c["svc.cache.hit"] > 0, c.get("svc.cache.hit")
print("slow-reader metrics OK:", int(c["svc.server.connections"]), "conns,",
      int(c["svc.server.slow_client_dropped"]), "slow drop(s),",
      int(c["svc.cache.hit"]), "cache hits")
EOF
rm -rf "$slow_dir"

# Router soak (docs/SERVICE.md): the TSan-built rat_router supervises 4
# TSan-built rat_serve workers; 600 pipelined requests cycle the four
# fixture worksheets (150 duplicates per fingerprint group, one of them
# malformed), one worker is kill -9'd mid-burst, and then one more round
# per group runs through the healed fleet. Every request must get exactly
# one response, responses within one group must be byte-identical (cache
# hit, cache miss, pre-kill, re-forwarded and post-respawn alike), the
# dead slot must hold a fresh pid, SIGTERM must drain the whole fleet to
# exit 0, and the metrics JSON must record the death and the respawn.
echo "==== rat_router fleet soak (4 workers, kill -9 mid-run, TSan build)"
router_dir=$(mktemp -d)
build-tsan/src/apps/rat_router --workers=4 --port=0 \
  --port-file="$router_dir/port" --worker-pid-file="$router_dir/pids" \
  --queue-capacity=1024 --metrics="$router_dir/metrics.json" \
  >"$router_dir/stdout" 2>"$router_dir/stderr" &
router_pid=$!
for _ in $(seq 100); do
  [ -s "$router_dir/port" ] && break
  sleep 0.1
done
[ -s "$router_dir/port" ] || { echo "rat_router: never wrote port file"
  cat "$router_dir/stderr"; exit 1; }
python3 - "$(cat "$router_dir/port")" "$router_dir/pids" <<'EOF'
import json, os, signal, socket, sys, time
port, pid_file = int(sys.argv[1]), sys.argv[2]
sheets = [open(f"tests/fixtures/worksheets/{n}.rat").read()
          for n in ("pdf1d", "pdf2d", "md", "broken")]
def req(g):
    # One id per worksheet group: every response in a group must be
    # byte-identical no matter which worker incarnation produced it.
    return json.dumps({"schema": "rat.svc.v1", "id": f"w{g}",
                       "op": "evaluate", "worksheet": sheets[g]}) + "\n"
n = 600
groups = {}
with socket.create_connection(("127.0.0.1", port)) as s:
    f = s.makefile("rw")
    for i in range(n):
        f.write(req(i % len(sheets)))
    f.flush()
    for i in range(n):
        line = f.readline()
        assert line.endswith("\n"), "short read: a request went unanswered"
        rid = json.loads(line)["id"]
        groups.setdefault(rid, set()).add(line)
        if i == 99:  # mid-burst: pull the plug on the first worker
            victim = int(open(pid_file).read().split()[0])
            os.kill(victim, signal.SIGKILL)
    # The healed fleet (respawned slot included) answers one more round,
    # still byte-identical to the pre-kill responses.
    for g in range(len(sheets)):
        f.write(req(g))
        f.flush()
        line = f.readline()
        assert line.endswith("\n"), "short read after respawn"
        groups.setdefault(json.loads(line)["id"], set()).add(line)
assert sorted(groups) == ["w0", "w1", "w2", "w3"], sorted(groups)
for rid, lines in groups.items():
    assert len(lines) == 1, f"{rid}: responses differ in bytes"
for rid in ("w0", "w1", "w2"):
    assert '"status":"ok"' in next(iter(groups[rid])), rid
bad = json.loads(next(iter(groups["w3"])))
assert bad["error"]["code"] == "E_BAD_LIST", bad
for _ in range(100):  # pid file is rewritten after the respawn
    pids = [int(p) for p in open(pid_file).read().split()]
    if len(pids) == 4 and pids[0] != victim and pids[0] > 0:
        break
    time.sleep(0.1)
assert pids[0] != victim and pids[0] > 0, (pids, victim)
print(f"router soak OK: {n + 4} requests, 4 groups byte-identical, "
      f"slot 0 respawned {victim} -> {pids[0]}")
EOF
kill -TERM "$router_pid"
rc=0
wait "$router_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "rat_router: expected SIGTERM drain to exit 0, got $rc"
  cat "$router_dir/stderr"
  exit 1
fi
python3 - "$router_dir/metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "rat.metrics.v1", doc.get("schema")
c = doc["counters"]
assert c["svc.router.requests"] == 604, c.get("svc.router.requests")
assert c["svc.router.worker_death"] >= 1, c.get("svc.router.worker_death")
assert c["svc.router.respawn"] >= 1, c.get("svc.router.respawn")
assert c["svc.router.forwarded"] >= 1, c.get("svc.router.forwarded")
print("router metrics OK:", int(c["svc.router.requests"]), "requests,",
      int(c["svc.router.worker_death"]), "death(s),",
      int(c["svc.router.respawn"]), "respawn(s)")
EOF
rm -rf "$router_dir"

# Loadgen SLO smoke (docs/LOADGEN.md): the open-loop generator drives the
# TSan rat_serve with the three good fixture worksheets (broken.rat
# excluded: this gate asserts *zero* unexpected E_* codes) and asserts
# its own SLOs — exit 0 means every request was answered OK within a p99
# bound generous enough for a sanitized build. The rat.load.v1 report is
# then schema-validated the same way as BENCH_RAT.json.
echo "==== rat_loadgen SLO smoke vs rat_serve (TSan build)"
lg_dir=$(mktemp -d)
mkdir "$lg_dir/fixtures"
cp tests/fixtures/worksheets/pdf1d.rat tests/fixtures/worksheets/pdf2d.rat \
  tests/fixtures/worksheets/md.rat "$lg_dir/fixtures/"
build-tsan/src/apps/rat_serve --port=0 --port-file="$lg_dir/port" \
  --queue-capacity=4096 >/dev/null 2>"$lg_dir/serve.err" &
serve_pid=$!
for _ in $(seq 100); do
  [ -s "$lg_dir/port" ] && break
  sleep 0.1
done
[ -s "$lg_dir/port" ] || { echo "rat_serve: never wrote port file"; exit 1; }
build-tsan/src/apps/rat_loadgen --port-file="$lg_dir/port" \
  --fixtures="$lg_dir/fixtures" --requests=300 --connections=16 \
  --rate=200 --arrival=poisson --seed=7 --duplicate-ratio=0.5 \
  --slo-p99-ms=5000 --slo-error-rate=0 --report="$lg_dir/load.json"
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "rat_serve: SLO smoke drain exited $rc"; exit 1; }
python3 - "$lg_dir/load.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "rat.load.v1", doc.get("schema")
assert doc["slo"]["checked"] and not doc["slo"]["violations"], doc["slo"]
(step,) = doc["steps"]
assert step["sent"] == step["ok"] == 300, step
assert step["errors"] == step["lost"] == step["connection_drops"] == 0, step
assert not step["error_codes"], step["error_codes"]
lat = step["latency_ms"]
assert lat["count"] == 300 and 0 < lat["p50"] <= lat["p99"] <= 5000, lat
print(f"loadgen SLO smoke OK: 300/300 ok, p50 {lat['p50']:.3f} ms, "
      f"p99 {lat['p99']:.3f} ms")
EOF
rm -rf "$lg_dir"

# Frontier sweep smoke: one rat_loadgen --sweep against a 2-worker TSan
# rat_router maps three arrival rates in a single rat.load.v1 report.
# Asserts: zero unexpected E_* at every step, achieved rate grows with
# offered rate (tolerantly — sanitized CI boxes are noisy), and the
# router's drain-time --metrics export carries the aggregated
# svc.fleet.* gauges covering everything the loadgen sent.
echo "==== rat_loadgen frontier sweep vs 2-worker rat_router (TSan build)"
sweep_dir=$(mktemp -d)
mkdir "$sweep_dir/fixtures"
cp tests/fixtures/worksheets/pdf1d.rat tests/fixtures/worksheets/pdf2d.rat \
  tests/fixtures/worksheets/md.rat "$sweep_dir/fixtures/"
build-tsan/src/apps/rat_router --workers=2 --port=0 \
  --port-file="$sweep_dir/port" --queue-capacity=1024 \
  --metrics="$sweep_dir/metrics.json" \
  >/dev/null 2>"$sweep_dir/router.err" &
router_pid=$!
for _ in $(seq 100); do
  [ -s "$sweep_dir/port" ] && break
  sleep 0.1
done
[ -s "$sweep_dir/port" ] || { echo "rat_router: never wrote port file"
  cat "$sweep_dir/router.err"; exit 1; }
build-tsan/src/apps/rat_loadgen --port-file="$sweep_dir/port" \
  --fixtures="$sweep_dir/fixtures" --requests=200 --connections=16 \
  --sweep=50,150,450 --arrival=poisson --seed=9 --duplicate-ratio=0.5 \
  --slo-error-rate=0 --report="$sweep_dir/load.json"
kill -TERM "$router_pid"
rc=0
wait "$router_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "rat_router: sweep drain exited $rc"
  cat "$sweep_dir/router.err"; exit 1; }
python3 - "$sweep_dir/load.json" "$sweep_dir/metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "rat.load.v1", doc.get("schema")
steps = doc["steps"]
assert len(steps) == 3, len(steps)
for step in steps:
    assert step["sent"] == step["ok"] == 200, step
    assert not step["error_codes"] and step["lost"] == 0, step
achieved = [s["achieved_rate_hz"] for s in steps]
p99s = [s["latency_ms"]["p99"] for s in steps]
# The frontier: more offered -> more achieved. 10% slack absorbs
# scheduler noise on loaded CI machines.
for lo, hi in zip(achieved, achieved[1:]):
    assert hi > lo * 0.9, (achieved, "achieved rate fell across the sweep")
assert all(0 < p < 10000 for p in p99s), p99s
metrics = json.load(open(sys.argv[2]))
g = metrics["gauges"]
assert g["svc.fleet.requests"] >= 600, g.get("svc.fleet.requests")
assert g["svc.fleet.responses_ok"] >= 600, g.get("svc.fleet.responses_ok")
assert g["svc.fleet.workers_alive"] == 2, g.get("svc.fleet.workers_alive")
print("sweep OK: achieved", [round(a, 1) for a in achieved],
      "req/s, p99", [round(p, 3) for p in p99s], "ms, fleet gauges present")
EOF
rm -rf "$sweep_dir"

# SIGPIPE smoke: the stdout reader exits after the first response while
# another 199 are still owed, so the server writes into a closed pipe.
# Before the fix that was death by SIGPIPE (exit 141, which pipefail
# surfaces here); now EPIPE is a normal close and the server drains to
# exit 0 with the one delivered response intact.
echo "==== rat_serve SIGPIPE smoke (stdout reader exits early)"
sigpipe_out=$(mktemp)
for i in $(seq 200); do
  printf '{"schema":"rat.svc.v1","id":"s%d","op":"evaluate","file":"tests/fixtures/worksheets/pdf1d.rat"}\n' "$i"
done | timeout 60 build/src/apps/rat_serve --stdio --no-tcp 2>/dev/null \
  | head -n 1 >"$sigpipe_out"
grep -q '"status":"ok"' "$sigpipe_out"
rm -f "$sigpipe_out"

# Stdio smoke: piped requests must each get one response and stdin EOF
# must drain the server to exit 0 (a hang here is the regression).
echo "==== rat_serve stdio smoke (EOF drains)"
stdio_out=$(mktemp)
printf '%s\n%s\n' \
  '{"schema":"rat.svc.v1","id":"p","op":"ping"}' \
  '{"id":"e","op":"evaluate","file":"tests/fixtures/worksheets/pdf1d.rat"}' \
  | timeout 60 build/src/apps/rat_serve --stdio --no-tcp >"$stdio_out" 2>/dev/null
grep -q '"id":"p","status":"ok","op":"ping"' "$stdio_out"
grep -q '"id":"e","status":"ok","op":"evaluate"' "$stdio_out"
[ "$(wc -l <"$stdio_out")" -eq 2 ]
rm -f "$stdio_out"

# Crash-recovery smoke (docs/STORE.md): a checkpointed rat_batch is
# kill -9'd mid-campaign (throttled so evaluations are slow enough to
# interrupt) and then resumed; the resumed run must restore at least one
# recorded item and its JSON output must be byte-for-byte identical to
# an uninterrupted run's. Uses the ASan+UBSan build so the recovery path
# itself runs sanitized.
echo "==== rat_batch kill -9 crash-recovery smoke (checkpoint resume)"
crash_dir=$(mktemp -d)
rc=0
build-asan/src/apps/rat_batch --dir=tests/fixtures/worksheets --quiet \
  --json="$crash_dir/plain.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]  # broken.rat: documented partial-failure exit code
build-asan/src/apps/rat_batch --dir=tests/fixtures/worksheets --quiet \
  --checkpoint="$crash_dir/campaign.ckpt" --throttle-ms=300 \
  --json="$crash_dir/interrupted.json" >/dev/null 2>&1 &
batch_pid=$!
# Wait for the first completed item to hit the checkpoint journal
# (header + campaign record + one item record), then pull the plug.
for _ in $(seq 200); do
  size=$(stat -c %s "$crash_dir/campaign.ckpt" 2>/dev/null || echo 0)
  [ "$size" -ge 150 ] && break
  sleep 0.05
done
kill -9 "$batch_pid" 2>/dev/null || true
wait "$batch_pid" 2>/dev/null || true
rc=0
build-asan/src/apps/rat_batch --dir=tests/fixtures/worksheets --quiet \
  --checkpoint="$crash_dir/campaign.ckpt" \
  --json="$crash_dir/resumed.json" >/dev/null 2>"$crash_dir/resume.err" \
  || rc=$?
[ "$rc" -eq 2 ]
if ! grep -q 'checkpoint: restored [1-4] of 4' "$crash_dir/resume.err"; then
  echo "rat_batch: resumed run restored nothing from the checkpoint"
  cat "$crash_dir/resume.err"
  exit 1
fi
cmp "$crash_dir/plain.json" "$crash_dir/resumed.json"
echo "crash-recovery OK: $(grep -o 'restored [0-9] of 4' \
  "$crash_dir/resume.err"), resumed JSON byte-identical"
rm -rf "$crash_dir"

# Plan-cache crash-recovery smoke (docs/EXPLORATION.md): a throttled
# pruned campaign (tolerance far below what any format reaches, so every
# throughput-passing point runs the full slow precision sweep and is
# cached) is kill -9'd after the plan cache's journal holds at least one
# complete evaluation, then rerun unthrottled on the same directory. The
# rerun must replay cached evaluations (cache hits >= 1 on stderr) and
# its stdout must be byte-for-byte identical to a cacheless clean run.
echo "==== design_space_exploration kill -9 plan-cache resume smoke"
plan_dir=$(mktemp -d)
build/examples/design_space_exploration --goal=2 --tolerance=0.0001 \
  >"$plan_dir/plain.out" 2>/dev/null
build/examples/design_space_exploration --goal=2 --tolerance=0.0001 \
  --prune --plan-cache="$plan_dir/cache" --throttle-ms=100 \
  >/dev/null 2>&1 &
explore_pid=$!
for _ in $(seq 200); do
  size=$(stat -c %s "$plan_dir/cache/journal" 2>/dev/null || echo 0)
  [ "$size" -ge 350 ] && break
  sleep 0.05
done
kill -9 "$explore_pid" 2>/dev/null || true
wait "$explore_pid" 2>/dev/null || true
build/examples/design_space_exploration --goal=2 --tolerance=0.0001 \
  --prune --plan-cache="$plan_dir/cache" \
  >"$plan_dir/resumed.out" 2>"$plan_dir/resumed.err"
if ! grep -Eq 'cache hits [1-9]' "$plan_dir/resumed.err"; then
  echo "design_space_exploration: resumed run replayed nothing"
  cat "$plan_dir/resumed.err"
  exit 1
fi
cmp "$plan_dir/plain.out" "$plan_dir/resumed.out"
echo "plan-cache crash-recovery OK: $(grep -o 'cache hits [0-9]*' \
  "$plan_dir/resumed.err"), resumed stdout byte-identical"
rm -rf "$plan_dir"

echo "ALL CHECKS PASSED"

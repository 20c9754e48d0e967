#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the harness and the servers from the checkout's sources into
.bench_build (or $CARGO_TARGET_DIR), runs one measurement and prints the
result object as the last line of stdout. Exits non-zero without a
result when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_unique", "serve_repeat", "serve_routed")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness plus rat_serve/rat_router."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("perfbench: the repository sources are missing next to perfbench/")
        return None
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "ratbench"])
    with open(log_path, "w") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                log("perfbench: build failed, see " + log_path)
                return None
    return out


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_harness(out, workload, seed, seconds, trace, inject=None, echo=True):
    """Runs ratbench once; returns (result dict, result line) or None."""
    cmd = [
        os.path.join(out, "ratbench"),
        "--workload=" + workload,
        "--seed=" + str(seed),
        "--seconds=" + str(seconds),
        "--trace=" + str(trace),
        "--bin-dir=" + os.path.join(out, "rat", "src", "apps"),
        "--fixtures=" + os.path.join(ROOT, "tests", "fixtures", "worksheets"),
        "--out-dir=" + os.path.join(build_dir(), "perfbench-out"),
        "--commit=" + source_id(),
    ]
    if inject:
        cmd.append("--inject=" + inject)
    # Own session, so a timeout takes the servers it spawned down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: ratbench exited with %d" % proc.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: last line is not a result object")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result object")
        return None
    if echo:
        for line in lines[:-1]:
            print(line)
    return result, lines[-1]


def self_test(out):
    """Tiny runs of every workload: every named metric present with its
    unit, all checks passing, and injected faults caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            run = run_harness(out, workload, 7, 2, trace, echo=False)
            tag = "%s trace=%d" % (workload, trace)
            expect(run is not None, tag + ": run completes")
            if run is None:
                continue
            r = run[0]
            expect(r["correct"], tag + ": every correctness check passes")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == want, tag + ": metrics and units match BENCHMARK.json")
            if got != want:
                print("     missing %s, extra %s, unit mismatches %s" % (
                    sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in set(got) & set(want) if got[k] != want[k])))
    caught = {"response": "differ from the in-process rendering",
              "explore": "pruned exploration equals the exhaustive scan"}
    for workload, inject in (("serve_unique", "response"), ("serve_routed", "response"),
                             ("serve_repeat", "explore")):
        run = run_harness(out, workload, 7, 2, 0, inject=inject, echo=False)
        record = os.path.join(build_dir(), "perfbench-out", "result-%s-7-t0.json" % workload)
        failures = []
        if run is not None and os.path.isfile(record):
            with open(record) as f:
                failures = json.load(f)["failures"]
        expect(run is not None and not run[0]["correct"]
               and any(caught[inject] in msg for msg in failures),
               "%s: an injected %s fault is caught by its check" % (workload, inject))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    out = build()
    if out is None:
        return 1
    if args.self_test:
        return self_test(out)
    run = run_harness(out, args.workload, args.seed, args.seconds, args.trace)
    if run is None:
        return 1
    print(run[1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

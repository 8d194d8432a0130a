#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run one workload, check
its outputs, and print one JSON line of metrics as the last line.

Run from the repository root:

    python3 perfbench/run.py --workload fig13-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, one line each
    python3 perfbench/run.py --self-test        # smoke run of every workload
    python3 perfbench/run.py --record-digests   # rewrite perfbench/digests.txt

The simulator is built from source into .bench_build/ (CMake, Release).
Workloads, metrics and bounds are declared in BENCHMARK.json; the output
is checked against those declarations before it is printed, so a run that
prints a result always names every declared metric with its unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "dws_perfbench"
DIGESTS = HERE / "digests.txt"
DEFAULT_SEED = 12345
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark binary; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The build system is generated only by a configure that succeeded.
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "dws_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(workload, seed, seconds, trace, extra=(), check_digests=True):
    """Run one workload; return (parsed result, raw last line) or None."""
    tmp = BUILD / "tmp"
    spans_dir = BUILD / "spans"
    tmp.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp-dir", str(tmp)]
    if check_digests:
        cmd += ["--digests", str(DIGESTS)]
    if trace:
        cmd += ["--spans-out", str(spans_dir / f"{workload}-seed{seed}.jsonl")]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode:
        log(f"{workload} exited with {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{workload} printed nothing")
        return None
    try:
        return json.loads(lines[-1]), lines[-1]
    except json.JSONDecodeError:
        log(f"{workload} printed a malformed result: {lines[-1]!r}")
        return None


def check_result(spec, result, trace):
    """Return a list of ways `result` disagrees with BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    return problems


def check_spans(path):
    """Self time >= 0 for every span; children inside their parents."""
    spans = [json.loads(line) for line in open(path)]
    problems = []
    child_ns = [0] * len(spans)
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
                problems.append(f"span {s['id']} {s['name']} exceeds parent "
                                f"{parent['id']} {parent['name']}")
            child_ns[p] += s["end_ns"] - s["start_ns"]
    for s, c in zip(spans, child_ns):
        if s["end_ns"] - s["start_ns"] - c < 0:
            problems.append(f"span {s['id']} {s['name']} has negative self time")
    return len(spans), problems


def self_test(spec):
    """Smoke-run every workload untraced and traced; check everything."""
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            out = run_binary(name, DEFAULT_SEED, 0, trace, ["--smoke"])
            if out is None:
                failures.append(f"{name} trace={trace}: no result")
                continue
            result, _ = out
            problems = check_result(spec, result, trace)
            if result.get("failed") != 0 or result.get("correct") is not True:
                problems.append(f"failed={result.get('failed')} correct={result.get('correct')}")
            metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            if trace:
                if metrics.get("fail_frac") != 0:
                    problems.append(f"fail_frac={metrics.get('fail_frac')}")
                n, span_problems = check_spans(
                    BUILD / "spans" / f"{name}-seed{DEFAULT_SEED}.jsonl")
                problems += span_problems
                if n == 0:
                    problems.append("no spans recorded")
                if name == "conv-serial":
                    for m in ("wpu.branch_splits", "wpu.mem_splits", "wpu.pc_merges"):
                        if metrics.get(m) != 0:
                            problems.append(f"conv-serial {m}={metrics.get(m)}, expected 0")
                if name == "dws-serial" and not metrics.get("wpu.mem_splits"):
                    problems.append("dws-serial made no memory splits")
            failures += [f"{name} trace={trace}: {p}" for p in problems]
            log(f"self-test {name} trace={trace}: "
                f"{'ok' if not problems else 'FAILED'}")

    # A wrong recorded digest must be caught and counted, not ignored.
    log("self-test: corrupting one digest; one FAILED line expected")
    with tempfile.NamedTemporaryFile("w", dir=BUILD, suffix=".txt",
                                     delete=False) as bad:
        for line in open(DIGESTS):
            if line.startswith("conv-serial "):
                wl, cell, hexd = line.split()
                line = f"{wl} {cell} {'0' * len(hexd)}\n"
            bad.write(line)
    out = run_binary("conv-serial", DEFAULT_SEED, 0, 0,
                     ["--smoke", "--digests", bad.name])
    os.unlink(bad.name)
    if out is None or out[0]["failed"] < 1 or out[0]["correct"] is not False:
        failures.append("a digest mismatch was not counted as a failure")

    for f in failures:
        log("FAILED " + f)
    log("self-test " + ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def record_digests(spec):
    """Rewrite digests.txt from full and smoke runs at the default seed."""
    lines = set()
    for w in spec["workloads"]:
        for extra in ([], ["--smoke"]):
            with tempfile.NamedTemporaryFile("r", dir=BUILD, suffix=".txt") as f:
                if run_binary(w["name"], DEFAULT_SEED, 0, 0,
                              extra + ["--record-digests", f.name],
                              check_digests=False) is None:
                    return 1
                lines |= {l for l in f.read().splitlines() if not l.startswith("#")}
    with open(DIGESTS, "w") as f:
        f.write(f"# seed {DEFAULT_SEED}\n")
        f.write("".join(l + "\n" for l in sorted(lines)))
    log(f"wrote {len(lines)} digests to {DIGESTS}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if not build():
        return 1
    if args.self_test:
        return self_test(spec)
    if args.record_digests:
        return record_digests(spec)

    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if args.workload not in names + ["all"]:
        log(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    for name in chosen:
        out = run_binary(name, args.seed, seconds, args.trace)
        if out is None:
            return 1
        result, line = out
        problems = check_result(spec, result, args.trace)
        if problems:
            for p in problems:
                log("BENCHMARK.json: " + p)
            return 1
        if len(chosen) > 1:
            line = json.dumps({"workload": name, **result})
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

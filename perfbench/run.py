#!/usr/bin/env python3
"""catenet end-to-end benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload soak --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the library under src/) into .bench_build/perfbench
at the root of the checkout, runs the catbench binary, checks its result
and prints the binary's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a traced run also writes its spans to
.bench_build/traces/<workload>.spans.tsv.gz. Every run appends the binary's
full result (seed, nproc, build type, digest, ...) to
.bench_build/results.jsonl. --all runs every workload untraced and ends
with one line per workload in the workload's own rate name and unit
(pkts_per_s, goodput_MBps, rpc_per_s).

Correctness: the binary checks conservation (fail_frac = failed /
attempted must be 0) and prints a digest of what was simulated; this
script also demands that the digest repeats across runs of one build and
seed, and that soak_sharded's digest equals soak's. Exit status is 0 only
when every check passed.
"""

import argparse
import fcntl
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "catbench"
WORKLOADS = ("soak", "soak_sharded", "tcp_bulk", "rpc")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then (re)builds the catbench target."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no catenet sources at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            step(configure)
        step(["cmake", "--build", str(BUILD), "--target", "catbench", "--parallel", jobs])
    if not BINARY.is_file():
        raise BenchError("build produced no catbench binary")


def step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    if done.returncode != 0:
        raise BenchError(f"failed ({done.returncode}): {' '.join(cmd)}")


def run_binary(workload, seed, seconds, trace, tiny=False, break_trunk=False):
    """Runs catbench once; returns (exit code, report lines, result dict)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    spans = ROOT / ".bench_build" / "traces" / f"{workload}.spans.tsv"
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    if tiny:
        cmd.append("--tiny")
    if break_trunk:
        cmd.append("--break-trunk")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"catbench timed out after {RUN_TIMEOUT_S} s") from e
    if trace and spans.is_file():
        # tcp_bulk records millions of spans; compressed they are ~10x smaller.
        with open(spans, "rb") as src, gzip.open(f"{spans}.gz", "wb", compresslevel=1) as dst:
            shutil.copyfileobj(src, dst)
        spans.unlink()
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError) as e:
        raise BenchError(f"catbench exited {done.returncode} without a result") from e
    return done.returncode, lines[:-1], result


def check_metrics(result, spec, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"missing {n}" for n in wanted if n not in got]
    problems += [f"unlisted {n}" for n in got if n not in wanted]
    problems += [f"{n} in {got[n]}, listed in {u}" for n, u in wanted.items()
                 if n in got and got[n] != u]
    return problems


def check_digest(result):
    """Same build + seed + size => same digest; soak_sharded == soak."""
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    group = "soak" if result["workload"].startswith("soak") else result["workload"]
    record = (ROOT / ".bench_build" / "digests" / build_id /
              f"{group}-seed{result['seed']}-{result['scale']}.txt")
    if record.is_file():
        expected = record.read_text().strip()
        if expected != result["digest"]:
            return [f"digest {result['digest']} differs from {expected} recorded for "
                    f"{group} at seed {result['seed']}"]
        return []
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(result["digest"] + "\n")
    return []


def measure(spec, workload, seed, seconds, trace):
    """One catbench run with every check; returns (correct, report, result)."""
    code, report, result = run_binary(workload, seed, seconds, trace)
    problems = check_metrics(result, spec, trace)
    if problems:
        raise BenchError("metrics do not match BENCHMARK.json: " + "; ".join(problems))
    failures = check_digest(result)
    with open(ROOT / ".bench_build" / "results.jsonl", "a") as f:
        f.write(json.dumps(result) + "\n")
    report += [f"  CHECK FAILED: {failure}" for failure in failures]
    return code == 0 and not failures, report, result


def benchmark(args):
    spec = load_spec()
    build()
    correct, report, result = measure(spec, args.workload, args.seed, args.seconds,
                                      args.trace)
    print("\n".join(report))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload once, untraced; then each end-to-end metric by the
    workload's own name and unit."""
    spec = load_spec()
    build()
    summary = []
    all_correct = True
    for workload in WORKLOADS:
        correct, report, result = measure(spec, workload, args.seed, args.seconds, 0)
        print("\n".join(report))
        all_correct = all_correct and correct
        m = result["metrics"]
        rate = result["rate"]
        summary.append(
            f"{workload:13} setup_s {m['setup_s']['value']:.4g} s  "
            f"{rate['name']} {rate['value']:.6g} {rate['unit']}  "
            f"peak_rss_MB {m['peak_rss_MB']['value']:.1f} MB  "
            f"bytes_per_host {m['bytes_per_host']['value']:.1f} B  "
            f"fail_frac {result['fail_frac']:.3g} ratio  "
            f"{'correct' if correct else 'FAILED'}")
    print("\n".join(summary))
    return 0 if all_correct else 1


def self_test():
    """Tiny-size runs of every workload: names, units, checks, digests,
    and a broken input that must fail."""
    spec = load_spec()
    build()
    failures = []
    digests = {}

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_binary(workload, 1, 0.5, trace, tiny=True)
            what = f"{workload} trace={trace}"
            problems = check_metrics(result, spec, trace)
            expect(not problems, f"{what}: metric names and units "
                   + ("; ".join(problems) if problems else "as listed"))
            expect(code == 0 and result["correct"], f"{what}: checks pass "
                   + "; ".join(result["failures"]))
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   f"{what}: fail_frac 0 over {result['attempted']} attempted")
            digests.setdefault(workload, set()).add(result["digest"])
    for workload, seen in digests.items():
        expect(len(seen) == 1, f"{workload}: digest repeats across runs {sorted(seen)}")
    expect(digests["soak"] == digests["soak_sharded"],
           "soak_sharded digest equals soak's")

    code, _, result = run_binary("soak", 1, 0.5, 0, tiny=True, break_trunk=True)
    expect(code != 0 and not result["correct"] and result["fail_frac"] > 0,
           f"soak with a trunk cut: exit {code}, fail_frac {result['fail_frac']:.3g}")

    print(f"self-test: {'PASS' if not failures else f'{len(failures)} FAILED'}")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced, with a summary")
    parser.add_argument("--self-test", action="store_true",
                        help="tiny runs of every workload plus a broken input")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark runner for the ETH harness.

Run from the repository root:

  python3 perfbench/run.py --workload hacc-explore --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py --workload xrage-proxy --seed 7 --seconds 50 --trace 1
  python3 perfbench/run.py --compare before.jsonl after.jsonl
  python3 perfbench/run.py --self-test

A measuring run builds perfbench/ (and through it the library) as a
Release build under .bench_build/, then starts fresh eth_perfbench
processes, closed loop: each sweep starts when the previous one has
returned, from a cleared artifact cache. Benchmark seed S stands for the
input seeds S*1000 .. S*1000+2; the program sees only the specs they
generate. --trace 0 reports the end-to-end metrics of BENCHMARK.json
from timed sweeps with tracing off; --trace 1 reports its per-layer
metrics (see layers.json) from the traced replay of input seed S*1000.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's provenance.

Correctness: every point of every sweep is compared with a reference
(final-image hash, PPM hashes, robustness and data-plane columns), and
every replayed point with Harness::run. A point that throws or differs
counts as failed. The references of seed 1 are pinned in
perfbench/reference/; for any other seed they are computed at set-up at
one pool thread, scalar SIMD and the cache off. --record FILE appends
each run's result to FILE (JSON lines) for --compare.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
# Timed sweeps per fresh process. peak_rss_mb is only comparable at a
# fixed sweep count: the artifact cache's allocations keep growing RSS
# over tens of sweeps with two sweep workers.
SWEEPS_PER_PROCESS = 3
# Data sets per run. Work differs between data sets (halo placement moves
# raster primitive counts by ~20%), so a run mixes several: it runs
# rounds of one fresh process per data set until --seconds are used up.
INPUTS_PER_RUN = 3
RUN_DEADLINE_S = 165.0  # measuring phase (after the build) must end by then
TRACE_SWEEPS = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark(root):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found; run from the repository root")
    return json.loads(path.read_text())


def check_layer_map(bench):
    """Every per-layer metric must be described in layers.json."""
    described = json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]
    for metric in bench["per_layer"]:
        name = metric["name"]
        if name.endswith("_calls"):
            name = name[:-len("_calls")] + "_ms"
        if name not in described:
            fail(f"{metric['name']} is not described in layers.json")


def nproc():
    return len(os.sched_getaffinity(0))


def build(root):
    """Configure and build eth_perfbench; returns the binary path."""
    build_dir = root / ".bench_build" / "perfbench"
    log_path = root / ".bench_build" / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(build_dir), "--target", "eth_perfbench",
             "-j", str(nproc())],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")
    return build_dir / "eth_perfbench"


def child_env(threads):
    """The program's environment: no ETH_* setting except the pool size,
    so the spec alone picks codec, depth and sweep workers."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ETH_")}
    env["ETH_THREADS"] = str(threads)
    return env


def run_driver(binary, args, env, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(binary)] + args, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"eth_perfbench {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        fail(f"eth_perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_sha256(root):
    """Provenance when no git metadata is at hand: hash of the sources."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def input_seeds(seed):
    """The program's input seeds for benchmark seed `seed`."""
    return [seed * 1000 + k for k in range(INPUTS_PER_RUN)]


def references(binary, workload, seeds, work, deadline):
    """Reference digests per input seed: pinned when present, else computed
    now (one single-threaded process per seed, side by side)."""
    paths, procs = {}, []
    try:
        for seed in seeds:
            pinned = BENCH_DIR / "reference" / f"{workload}.seed{seed}.txt"
            if pinned.is_file():
                paths[seed] = pinned
                continue
            paths[seed] = work / f"reference-{seed}.txt"
            procs.append(subprocess.Popen(
                [str(binary), "--mode", "reference", "--workload", workload,
                 "--seed", str(seed), "--work", str(work / f"reference-{seed}"),
                 "--out", str(paths[seed])],
                env=child_env(1), stdout=subprocess.DEVNULL))
        for proc in procs:
            if proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
                fail(f"reference computation exited with {proc.returncode}")
    except subprocess.TimeoutExpired:
        fail("reference computation did not finish in time")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return paths


def measure(args, root, bench):
    if os.environ.get("ETH_TRACE"):
        fail("refusing to time a run with ETH_TRACE set")
    binary = build(root)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    threads = nproc()
    work = root / ".bench_build" / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        seeds = input_seeds(args.seed)
        refs = references(binary, args.workload, seeds, work, deadline)
        env = child_env(threads)

        def driver_args(seed):
            return ["--workload", args.workload, "--seed", str(seed),
                    "--work", str(work / "run"), "--reference", str(refs[seed])]

        if args.trace:
            check_layer_map(bench)
            traces = root / ".bench_build" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            out = run_driver(binary, driver_args(seeds[0]) + [
                "--mode", "trace", "--sweeps", str(TRACE_SWEEPS),
                "--trace-out", str(traces / f"{args.workload}-s{args.seed}.json")],
                env, deadline)
            layers = dict(out["layers"], **out["layers_e2e"])
            names = [m["name"] for m in bench["per_layer"]]
            missing = [n for n in names if n not in layers]
            if missing:
                fail(f"driver did not report {missing}")
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in bench["per_layer"]}
            # A replayed point whose image differs from Harness::run's fails.
            attempted = int(out["attempted"]) + int(out["replayed"])
            failed = int(out["failed"]) + int(out["replay_mismatches"])
            provenance = out["provenance"]
        else:
            runs = []
            measure_start = time.monotonic()
            while True:
                t0 = time.monotonic()
                for seed in seeds:
                    runs.append(run_driver(binary, driver_args(seed) + [
                        "--mode", "timed", "--sweeps", str(SWEEPS_PER_PROCESS)],
                        env, deadline))
                # Start another round only if it should end within
                # --seconds (and the deadline); always run one.
                now = time.monotonic()
                if now + (now - t0) > min(measure_start + args.seconds, deadline):
                    break
            values = {
                "sweep_s": statistics.median(v for r in runs for v in r["sweep_s"]),
                "first_point_s": statistics.median(
                    v for r in runs for v in r["first_point_s"]),
                "setup_s": statistics.median(r["setup_s"] for r in runs),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            }
            missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in values]
            if missing:
                fail(f"runner does not compute {missing}")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in bench["end_to_end"]}
            attempted = sum(int(r["attempted"]) for r in runs)
            failed = sum(int(r["failed"]) for r in runs)
            provenance = dict(runs[0]["provenance"], processes=len(runs),
                              sweeps_per_process=SWEEPS_PER_PROCESS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = dict(provenance, workload=args.workload, seed=args.seed,
                      input_seeds=seeds,
                      trace=args.trace, source_sha256=source_sha256(root))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result,
                                "provenance": provenance}) + "\n")
    print(json.dumps(result))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, va, vb):
    """better, worse, same or unresolved for runs `vb` against runs `va`.

    Counts and byte totals are exact: their medians compare directly.
    Otherwise both sides need two runs or more. The limit is the metric's
    bound, or for per-layer metrics (no bound) the wider quartile spread
    of the two sides, spread being (q3 - q1) / median. unresolved: a
    side's spread exceeds the bound. worse: B's median is worse than A's
    by more than the limit. better: B's median is better by more than A's
    own spread."""
    qa, qb = quartiles(va), quartiles(vb)
    worse_by = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float(qb[1] != qa[1])
    if spec["better"] == "higher":
        worse_by = -worse_by
    if spec["unit"] in ("count", "B"):
        return "same" if worse_by == 0 else "worse" if worse_by > 0 else "better"
    if min(len(va), len(vb)) < 2:
        return "unresolved"
    spread_a, spread_b = (
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    bound = spec.get("bound")
    if bound is not None and max(spread_a, spread_b) > bound:
        return "unresolved"
    limit = bound if bound is not None else max(spread_a, spread_b)
    if worse_by > limit:
        return "worse"
    if -worse_by > spread_a:
        return "better"
    return "same"


def compare(path_a, path_b, bench):
    """Per workload and metric: both sides' medians and quartiles, the
    relative change of the median and a verdict (see verdict())."""
    specs = bench["end_to_end"] + bench["per_layer"]

    def load(path):
        table = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                for name, metric in rec["result"]["metrics"].items():
                    table.setdefault(rec["workload"], {}).setdefault(
                        name, []).append(metric["value"])
        return table

    def cell(values):
        q1, median, q3 = quartiles(values)
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"

    a, b = load(path_a), load(path_b)
    print(f"{'workload':<20} {'metric':<26} {'A median [q1, q3]':<40} "
          f"{'B median [q1, q3]':<40} {'change':>8}  verdict")
    for workload in sorted(set(a) & set(b)):
        for spec in specs:
            va, vb = a[workload].get(spec["name"]), b[workload].get(spec["name"])
            if not va or not vb:
                continue
            med_a, med_b = quartiles(va)[1], quartiles(vb)[1]
            change = f"{100 * (med_b - med_a) / abs(med_a):+.1f}%" if med_a else "n/a"
            print(f"{workload:<20} {spec['name']:<26} {cell(va):<40} {cell(vb):<40} "
                  f"{change:>8}  {verdict(spec, va, vb)}")


def self_test(root, workload):
    """A damaged reference must be counted as a failure, an intact one not."""
    binary = build(root)
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = root / ".bench_build" / "work" / f"self-test-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        seed = input_seeds(DEFAULT_SEED)[0]
        pinned = BENCH_DIR / "reference" / f"{workload}.seed{seed}.txt"
        lines = pinned.read_text().splitlines()
        name, image, rest = lines[0].split(" ", 2)
        digits = image.split("=")[1]
        flipped = ("1" if digits[0] == "0" else "0") + digits[1:]
        damaged = work / "damaged.txt"
        damaged.write_text("\n".join([f"{name} image={flipped} {rest}"] + lines[1:]) + "\n")
        failed = {}
        for label, ref in (("intact", pinned), ("damaged", damaged)):
            out = run_driver(binary, [
                "--mode", "timed", "--workload", workload, "--seed", str(seed),
                "--work", str(work / label), "--reference", str(ref), "--sweeps", "1"],
                child_env(nproc()), deadline)
            failed[label] = int(out["failed"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = failed["intact"] == 0 and failed["damaged"] > 0
    print(f"self-test {workload}: intact reference failed={failed['intact']}, "
          f"damaged reference failed={failed['damaged']}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run's result to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files")
    parser.add_argument("--self-test", action="store_true",
                        help="check that a damaged reference counts as a failure")
    args = parser.parse_args()

    root = Path.cwd()
    bench = load_benchmark(root)
    names = [w["name"] for w in bench["workloads"]]
    if args.compare:
        compare(args.compare[0], args.compare[1], bench)
        return 0
    if args.self_test:
        return self_test(root, args.workload or names[-1])
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    measure(args, root, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())

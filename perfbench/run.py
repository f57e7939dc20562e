"""Benchmark for klingen: run one workload for a fixed time, check every
output, and print its metrics.

    python3 perfbench/run.py --workload census --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload

Run from the repository root; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details of each run go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
SETUP_CHUNKS = 10
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("census", "finite-groups", "rg-sampler")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=32)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_program():
    """Put ./src first on the path and make sure klingen comes from there."""
    src = ROOT / "src"
    if not (src / "klingen" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no klingen sources under {src}")
    sys.path.insert(0, str(src))
    import klingen
    if Path(klingen.__file__).resolve().parent != (src / "klingen").resolve():
        raise SystemExit(f"perfbench: klingen was imported from {klingen.__file__}")


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh interpreter to the point where the
    workload would time its first op, once per probe, scaled to the
    reference speed by calibration chunks run just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        chunks = [speed.time_chunk() for _ in range(SETUP_CHUNKS)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: setup probe failed ({proc.returncode})")
        chunks += [speed.time_chunk() for _ in range(SETUP_CHUNKS)]
        times.append((t1 - t0) * speed.factor(chunks))
    return times


def run_round(wl, tracer) -> dict:
    """One pass over the workload's ops: per-op times and per-op problems."""
    clock = time.perf_counter_ns
    state = wl.new_state()
    times, chunks, problems = [], [], {}
    for op in wl.ops:
        chunks.append(speed.time_chunk())
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        try:
            out, error = op.run(state), None
        except Exception as exc:  # a failing op is counted and reported
            out, error = None, exc
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        times.append(t1 - t0)
        try:
            found = [f"{op.label}: raised {error!r}"] if error else op.check(out, state)
        except Exception as exc:
            found = [f"{op.label}: check raised {exc!r}"]
        if found:
            problems[op.label] = found
        out = None
    for label, found in wl.end_round(state).items():
        problems.setdefault(label, []).extend(found)
    return {"times_ns": times, "chunk_ns": chunks, "problems": problems,
            "traced": tracer is not None}


def run_workload(args) -> dict:
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.prepare()
    if args.probe_setup:
        print("ready", flush=True)
        return {}
    prepared_problems = wl.check_prepared()
    setups = measure_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # A unit is one round, or with tracing an untraced and a traced round.
    # At least two rounds, so every op is timed twice; after that a unit
    # starts only if it still fits in the run.
    unit = (False, True) if args.trace else (False,)
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            t_unit = time.perf_counter()
            for traced in unit:
                rounds.append(run_round(wl, tracer if traced else None))
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS and now - start + (now - t_unit) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factors = speed.local_factors([c for r in rounds for c in r["chunk_ns"]])
    at = 0
    for r in rounds:
        k = len(r["times_ns"])
        r["scaled_ns"] = [t * f for t, f in zip(r["times_ns"], factors[at:at + k])]
        r["wall_s"] = sum(r["scaled_ns"]) / 1e9
        at += k

    labels = {op.label: op for op in wl.ops}
    failed = sum(len(r["problems"]) for r in rounds)
    unexpected = sorted({msg for r in rounds for label, found in r["problems"].items()
                         if not labels[label].known_fault for msg in found})
    unexpected += prepared_problems
    failed_labels = sorted({label for r in rounds for label in r["problems"]})

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        base = statistics.median(r["wall_s"] for r in plain)
        overhead = 100 * (statistics.median(r["wall_s"] for r in traced) - base) / base
        metrics = tracer.metrics(len(traced), overhead)
    else:
        times_ms = [t / 1e6 for r in plain for t in r["scaled_ns"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_p50_ms": statistics.median(times_ms),
            "op_p90_ms": statistics.quantiles(times_ms, n=10)[-1],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s": setups, "rounds": [
            {"wall_s": r["wall_s"], "raw_wall_s": sum(r["times_ns"]) / 1e9,
             "chunk_median_ns": statistics.median(r["chunk_ns"]),
             "traced": r["traced"], "ops": len(r["times_ns"]),
             "failed": sorted(r["problems"])} for r in rounds],
        "unexpected_problems": unexpected, "failed_ops": failed_labels, "metrics": metrics,
        "op_median_ms": {op.label: statistics.median(r["scaled_ns"][k] / 1e6 for r in plain)
                         for k, op in enumerate(wl.ops)},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.tsv")

    for msg in unexpected[:20]:
        print(f"perfbench: UNEXPECTED {msg}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": sum(len(r["times_ns"]) for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if args.probe_setup:
        return 0
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

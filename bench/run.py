"""Benchmark of swiptsched: one workload at one seed, metrics as JSON.

    python3 bench/run.py --workload analytic-cold --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is taken from src/ next to this directory.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run. See bench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REQUIRED = (ROOT / "src" / "swiptsched" / "__init__.py", ROOT / workloads.CONFIG)

IMPORTTIME_SAMPLES = 3
# Every time of an untraced run is scaled by the reference job's time around
# it (worker.reference_s) to the host speed where that job takes REF_S.
REF_S = 0.1
DEADLINE_S = 170.0  # every run ends within 180 s

class BenchError(RuntimeError):
    pass


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def declared_units(section):
    """{metric name: unit} of an end_to_end or per_layer list in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def child_env():
    env = dict(os.environ)
    # at most one thread per native pool: the machine has two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv, deadline):
    """Run a child to completion, killing it at the deadline."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(map(str, argv[:3])))
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(map(str, argv))}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"exit {proc.returncode}: {' '.join(map(str, argv))}\n{proc.stderr[-2000:]}"
        )
    return proc


def worker(args, deadline, *extra):
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            *extra]
    launched = monotonic()
    proc = run_child(argv, deadline)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]!r}") from exc
    out["setup_s"] = out["ready"] - launched
    return out


def import_times(deadline):
    """(total, scipy) seconds of `import swiptsched` from -X importtime."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import swiptsched"
    proc = run_child([sys.executable, "-X", "importtime", "-c", code], deadline)
    return parse_importtime(proc.stderr)


def parse_importtime(stderr):
    """(swiptsched cumulative s, scipy s) from -X importtime output.

    scipy time sums the cumulative time of every scipy module imported from
    outside scipy, so nested scipy imports are not counted twice.
    """
    entries = []  # (depth, name, cumulative s), children listed before parents
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) * 1e-6))
    total = scipy = 0.0
    ancestors = []  # walking backwards visits every parent before its children
    for depth, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "swiptsched":
            total = cum
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] for a in ancestors):
            scipy += cum
        ancestors.append((depth, is_scipy))
    return total, scipy


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled(seconds, ref_s):
    """seconds at the host speed where the reference job takes REF_S."""
    return seconds * REF_S / ref_s


def end_to_end(args, deadline):
    out = worker(args, deadline, "--seconds", str(args.seconds), "--trace", "0")
    # the worker's own set-up and one probe after each of its rounds
    setup = [scaled(out["setup_s"], out["setup_ref_s"])]
    setup += [scaled(p["setup_s"], p["ref_s"]) for p in out["probes"]]
    rounds = out["rounds"]
    walls = [scaled(r["wall_s"], r["ref_s"]) for r in rounds]
    point_ms = [scaled(ms, r["ref_s"]) for r in rounds for ms in r["point_ms"]]
    busy = sum(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": busy / len(rounds),
        "points_per_s": sum(r["points"] for r in rounds) / busy,
        "point_p50_ms": statistics.median(point_ms),
        "point_p90_ms": quantile(point_ms, 90),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    notes = {
        "rounds": len(rounds),
        "setup_samples": len(setup),
        "points": len(point_ms),
        "slots_per_s": sum(r["slots"] for r in rounds) / busy,
        "unscaled_wall_s": statistics.mean(r["wall_s"] for r in rounds),
        "unscaled_setup_s": statistics.median(
            [out["setup_s"]] + [p["setup_s"] for p in out["probes"]]
        ),
        "reference_s": statistics.median(r["ref_s"] for r in rounds),
    }
    return out, metrics, notes


def per_layer(args, deadline):
    samples = [import_times(deadline) for _ in range(IMPORTTIME_SAMPLES)]
    out = worker(args, deadline, "--seconds", str(args.seconds), "--trace", "1")
    metrics = {
        "import.total_s": statistics.median(s[0] for s in samples),
        "import.scipy_s": statistics.median(s[1] for s in samples),
        **out["layers"],
        "trace.overhead_s": statistics.mean(out["traced_wall_s"])
        - statistics.mean(out["plain_wall_s"]),
    }
    notes = {"traced_rounds": len(out["traced_wall_s"])}
    return out, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print("bench: the program is missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    try:
        if args.trace:
            out, metrics, notes = per_layer(args, deadline)
            units = declared_units("per_layer")
        else:
            out, metrics, notes = end_to_end(args, deadline)
            units = declared_units("end_to_end")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    bad += sorted(set(metrics) ^ set(units))
    if bad:
        print(f"bench: metrics not finite or not as declared: {bad}", file=sys.stderr)
        return 1
    error_rate = out["failed"] / out["attempted"]
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print(f"{'error_rate':40s} {error_rate:16.6g} ratio")
    for name, value in notes.items():
        print(f"# {name}: {value:.6g}")
    for failure in out["failures"]:
        print(f"# failed: {failure}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the repository benchmark: one workload, all of them, or repeated
sets that calibrate the regression bounds.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload serve-open --seed 3
    python3 benchmarks/suite/run.py --workload train-mixed --trace 1
    python3 benchmarks/suite/run.py                # every workload
    python3 benchmarks/suite/run.py --sets 2       # spreads -> bounds

A single-workload run prints every metric with its unit, writes
``benchmarks/suite/out/<workload>.json`` (``.traced.json`` and the
``.trace.jsonl`` span file when traced), and ends its standard output
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Untraced runs report the ``end_to_end`` metrics of
``BENCHMARK.json``; ``--trace 1`` runs report its ``per_layer`` ones.
The exit code is 0 only when every output check passed.

Without ``--workload`` each workload runs in a fresh interpreter, so
peak RSS and pool state never leak from one workload into the next.
``--sets N`` interleaves N sets of untraced runs over ``--seeds``
seeds each, prints every end-to-end metric's spread (quartile distance
over median) and drift between set medians next to its bound, and
writes the bounds back into ``BENCHMARK.json`` and the label-accuracy
floor (half the lowest accuracy seen) into ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parents[1]
BENCHMARK = REPO / "BENCHMARK.json"
PINS = SUITE / "pins.json"
OUT = SUITE / "out"

#: Regression bounds: the floor for steady metrics, the ceiling for any
#: metric, and setup_s, which always gets the widest bound.
MIN_BOUND = 0.10
MAX_BOUND = 0.25


def _git_commit() -> str | None:
    """HEAD's commit from ``.git`` files (no subprocess); ``None``
    outside a git checkout."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stamps(seed: int) -> dict[str, object]:
    import numpy

    from repro.serving import available_cpus
    return {"nproc": os.cpu_count(), "available_cpus": available_cpus(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _git_commit(),
            "seed": seed}


def _declared(benchmark: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in benchmark[key]}


def run_one(args: argparse.Namespace, benchmark: dict) -> int:
    import workloads

    trace = bool(args.trace)
    declared = _declared(benchmark, trace)
    produced = workloads.PER_LAYER if trace else workloads.END_TO_END
    if set(declared) != set(produced):
        sys.exit(f"BENCHMARK.json declares {sorted(declared)} but the "
                 f"workloads produce {sorted(produced)}")
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    OUT.mkdir(exist_ok=True)
    outcome, tracer = workloads.run(
        args.workload, args.seed, args.seconds, trace,
        OUT / f"work-{args.workload}-{os.getpid()}", pins, args.smoke)
    metrics = {name: {"value": float(outcome.metrics[name]),
                      "unit": declared[name]} for name in declared}
    stem = args.workload + (".traced" if trace else "")
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{args.workload}.trace.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "trace": trace, "smoke": args.smoke,
        "seconds": args.seconds, "stamps": _stamps(args.seed),
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "checks": outcome.checks,
        "metrics": metrics, "extra": outcome.extra,
    }, indent=2, default=str) + "\n")

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(trace)}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in outcome.extra.items():
        if isinstance(value, (int, float)):
            print(f"  ({name} = {value:.6g})")
    for name, passed in outcome.checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


def _subprocess_run(workload: str, seed: int, seconds: float, trace: bool,
                    smoke: bool) -> tuple[int, dict | None, str]:
    """Run one workload in a fresh interpreter; returns its exit code,
    its result line and its full standard output."""
    command = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    proc = subprocess.run(command, capture_output=True, text=True,
                          cwd=REPO)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode in (0, 1) and lines:
        result = json.loads(lines[-1])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result, proc.stdout


def run_all(args: argparse.Namespace, benchmark: dict) -> int:
    failures = 0
    for entry in benchmark["workloads"]:
        code, _, stdout = _subprocess_run(entry["name"], args.seed,
                                          args.seconds, bool(args.trace),
                                          args.smoke)
        print(stdout, end="")
        failures += code != 0
    return 1 if failures else 0


def _spread(values: list[float]) -> float:
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


def _worse(first: list[float], second: list[float], better: str) -> float:
    """How much worse the second set's median is, as a share of the
    first's (0 when it is better)."""
    before, after = statistics.median(first), statistics.median(second)
    change = (after - before) if better == "lower" else (before - after)
    return max(change / before, 0.0) if before else 0.0


def run_sets(args: argparse.Namespace, benchmark: dict) -> int:
    names = [entry["name"] for entry in benchmark["workloads"]]
    # values[workload][metric][set] -> values over seeds
    values = {w: {m["name"]: [[] for _ in range(args.sets)]
                  for m in benchmark["end_to_end"]} for w in names}
    accuracy: dict[str, list[float]] = {w: [] for w in names}
    failures = 0
    for index in range(args.seeds):
        for set_index in range(args.sets):
            seed = set_index * args.seeds + index
            for workload in names:
                code, result, _ = _subprocess_run(workload, seed,
                                                  args.seconds, False,
                                                  args.smoke)
                if code != 0 or result is None:
                    failures += 1
                    print(f"{workload} seed={seed}: FAILED (exit {code})")
                    continue
                for metric, entry in result["metrics"].items():
                    values[workload][metric][set_index].append(
                        entry["value"])
                extra = json.loads((OUT / f"{workload}.json")
                                   .read_text())["extra"]
                if "label_accuracy" in extra:
                    accuracy[workload].append(extra["label_accuracy"])
                print(f"{workload} seed={seed}: " + ", ".join(
                    f"{m}={e['value']:.6g}"
                    for m, e in result["metrics"].items()), flush=True)

    print(f"\n{'metric':16s} {'workload':16s} "
          + " ".join(f"spread{i + 1:<3d}" for i in range(args.sets))
          + "  worse    bound")
    for entry in benchmark["end_to_end"]:
        metric = entry["name"]
        needed = 0.0
        for workload in names:
            sets = values[workload][metric]
            spreads = [_spread(s) for s in sets]
            worse = max((_worse(sets[0], s, entry["better"])
                         for s in sets[1:] if sets[0] and s), default=0.0)
            if metric != "setup_s":
                needed = max(needed, *spreads)
            needed = max(needed, worse)
            print(f"{metric:16s} {workload:16s} "
                  + " ".join(f"{s:9.4f}" for s in spreads)
                  + f"  {worse:.4f}  {entry['bound']:.2f}")
        # Three times the worst spread seen, so a second set of runs of
        # the same code stays inside the bound.
        bound = MAX_BOUND if metric == "setup_s" else min(
            MAX_BOUND, max(MIN_BOUND, math.ceil(300 * needed) / 100))
        entry["bound"] = bound
        print(f"{metric:16s} -> bound {bound:.2f}")
    BENCHMARK.write_text(json.dumps(benchmark, indent=2) + "\n")

    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    floors = pins.setdefault("label_accuracy_floor", {})
    for workload, observed in accuracy.items():
        if observed and workload in floors:
            # Accuracy moves by about a fifth from seed to seed, more than
            # any bound allows, so the floor only catches a collapse.
            floors[workload] = math.floor(50 * min(observed)) / 100
            print(f"label_accuracy floor {workload}: {floors[workload]:.2f}"
                  f" (half the minimum {min(observed):.4f} over "
                  f"{len(observed)} runs, spread {_spread(observed):.3f})")
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    return 1 if failures else 0


def main() -> int:
    if not (REPO / "src" / "repro").is_dir():
        print(f"run.py: no library source at {REPO / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(SUITE)]
    benchmark = json.loads(BENCHMARK.read_text())
    names = [entry["name"] for entry in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test")
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=5,
                        help="seeds per set with --sets")
    args = parser.parse_args()
    if args.sets:
        return run_sets(args, benchmark)
    if args.workload is None:
        return run_all(args, benchmark)
    return run_one(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())

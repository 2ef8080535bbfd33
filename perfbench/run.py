"""Benchmark of the surrogate-coupled step: galaxy, gasbox and sn_burst.

Run from the repository root::

    python3 perfbench/run.py --workload gasbox --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload, both modes
    python3 perfbench/run.py --manifest                 # rewrite BENCHMARK.json

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace
1`` reports the per-layer metrics of a traced run of the same steps.  Both
modes run every correctness check.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the metrics and which layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads: the main process plus one
# serve worker then use at most two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def run_one(args) -> int:
    import harness
    from workloads import WORKLOADS

    res = harness.measure(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    expected = [m[0] for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    if sorted(res.metrics) != sorted(expected):
        raise RuntimeError(
            f"metric set differs from spec: {sorted(set(res.metrics) ^ set(expected))}"
        )
    print(f"== {args.workload} seed {args.seed} trace {args.trace}")
    for name in expected:
        value, unit = res.metrics[name]
        print(f"  {name:40s} {value:14.6g} {unit}")
    for note in res.notes:
        print(f"  {note}")
    print(f"  ops attempted {res.attempted} failed {res.failed}")
    for name, ok, detail in res.gates:
        print(f"  gate {name:18s} {'PASS' if ok else 'FAIL'}  {detail}")
    print(_result_line(res.correct, res.attempted, res.failed, res.metrics), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in both modes, one process each."""
    status = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"perfbench: {name} trace {trace} printed no result", file=sys.stderr)
                status = 1
                continue
            if proc.returncode or not result["correct"]:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        text = json.dumps(spec.manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

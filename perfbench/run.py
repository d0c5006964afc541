"""Benchmark of the zeroone package (``src/zeroone`` of this checkout).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-large|grid-small|serve \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

An untraced run (``--trace 0``) prints the workload's reported figures, the
run's reproduction record, and as its last line one JSON object carrying
the end-to-end metrics of ``BENCHMARK.json``.  A traced run (``--trace 1``)
carries the per-layer metrics instead.  The full record, with every span of
a traced run, is written under ``.perfbench/`` in the checkout.  The exit
code is 0 when the run completed, whatever its checks found (``correct``
says that); it is 2 when the checkout has no ``src/zeroone`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# The default seed, and the held-out seed on which a claim made with the
# default is to be confirmed.
DEFAULT_SEED = 7
HELDOUT_SEED = 20231


def import_package():
    """Import ``zeroone`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "zeroone" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import zeroone
    from zeroone import (admm, baselines, cli, data, kernels, model,
                         stationarity)
    if Path(zeroone.__file__).resolve().parent != src / "zeroone":
        return None
    return SimpleNamespace(admm=admm, baselines=baselines, cli=cli, data=data,
                           kernels=kernels, model=model,
                           stationarity=stationarity)


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def reproduction(seed: int) -> dict:
    """What a reader needs to reproduce the run."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in sorted(os.environ.items())
               if re.search(r"THREAD|CPU|AFFINITY", k)}
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": threads,
        "git_commit": git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train-large", "grid-small", "serve"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args(argv)

    Z = import_package()
    if Z is None:
        print(f"error: no zeroone package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import catalog
    import workloads

    scale = workloads.FULL if args.size == "full" else workloads.TINY
    run = workloads.execute(Z, args.workload, args.seed, args.seconds,
                            bool(args.trace), scale)
    units = {n: u for n, u, *_ in catalog.END_TO_END + catalog.PER_LAYER}
    better = {n: b for n, _, b, *_ in catalog.END_TO_END + catalog.PER_LAYER
              + catalog.REPORTED}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "reproduction": {**reproduction(args.seed), **run.info},
        "reported": {n: {"value": v, "unit": u, "better": better[n]}
                     for n, (v, u) in run.reported.items()},
        "failures": run.failures,
    }
    for name, (value, unit) in run.reported.items():
        print(f"{name} = {value:.6g} {unit} ({better[name]} is better)")
    print("reproduction:", json.dumps(record["reproduction"]))
    for failure in run.failures:
        print("FAILED:", failure)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {n: {"value": float(v), "unit": units[n]}
                    for n, v in run.metrics.items()},
    }
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["result"] = result
    record["op_walls_s"] = [w for w, _ in run.untraced]
    if run.tracer is not None:
        record["spans"] = run.tracer.spans
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

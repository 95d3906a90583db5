"""patsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Run from the root of a patsim checkout; the package is imported from
its `src/` directory, and from nowhere else. Inputs are generated from
the seed and cached under `.perfbench-cache/inputs/`, so generation is
never timed. Set-up (`import patsim` plus loading the inputs) is timed
in fresh interpreters, several times, and the median is reported. The
timed phase runs in its own process (child.py), so input generation
does not count towards its peak memory.

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, and every
span is written to `.perfbench-cache/traces/`. The line before it is a
JSON record of the machine, the kernel lane, the per-iteration times
and each output check.

End-to-end metrics (every workload):
    wall_s       median wall time of one timed iteration
    setup_s      median of the set-up probes
    peak_rss_mb  peak resident memory of the workload process
    quality      grid: mean over the 42 cells of the cell's mean Kendall
                 tau-b against the annotations; pairs-*: mean over the
                 measures of precision@5 against the planted clusters
    ok_ratio     operations and checks that succeeded over those attempted

A checkout without `src/patsim` makes the benchmark exit with code 2
before it prints any result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "quality": "score", "ok_ratio": "ratio"}


def _child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child.py {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ensure_inputs(workloads, inputs: str, seed: int) -> Path:
    """The cached input set for a seed, generated on first use."""
    target = CACHE / "inputs" / f"{inputs}-{seed}"
    if not (target / "complete").exists():
        tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        workloads.generate(inputs, seed, tmp)
        (tmp / "complete").write_text("", encoding="utf-8")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    return target


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_info() -> dict:
    """Machine and kernel lane, as found; nothing is set or pinned."""
    import numpy as np
    import scipy

    from patsim import kernels

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache": _cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "kernels_backend": kernels.BACKEND,
    }


def _digest_check(workloads, workload, inputs_dir: Path, digest: str) -> tuple[str, bool, str]:
    """Same outputs as every earlier run of this workload at this seed.

    A pooled run must also match the single-worker run of the same
    inputs, which is computed here when no such run has been recorded.
    """
    record = inputs_dir / "digests.json"
    known = json.loads(record.read_text()) if record.exists() else {}
    reference = workload.name
    if workload.pooled:
        reference = next(w.name for w in workloads.WORKLOADS.values()
                         if w.inputs == workload.inputs and not w.pooled)
    expected = known.get(reference)
    if expected is None and workload.pooled:
        serial = workloads.WORKLOADS[reference]
        loaded = workloads.load(serial, inputs_dir)
        work = CACHE / "runs" / f"{reference}-{os.getpid()}"
        try:
            workloads.run_once(serial, loaded, inputs_dir, work)
            expected = workloads.digest(serial, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        known[reference] = expected
    known.setdefault(workload.name, digest)
    record.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    ok = digest == known[workload.name] and (expected is None or digest == expected)
    return ("digest_matches_earlier_runs", ok, f"{digest[:16]} vs {reference}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "patsim" / "__init__.py").is_file():
        sys.stderr.write(f"no patsim sources under {ROOT / 'src'}; "
                         "run from a patsim checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs_dir = _ensure_inputs(workloads, workload.inputs, args.seed)

    setup = []
    if not args.trace:
        setup = [_child(["probe", workload.name, str(inputs_dir)], deadline)["setup_s"]
                 for _ in range(SETUP_PROBES)]

    work = CACHE / "runs" / f"{workload.name}-{args.seed}-{os.getpid()}"
    trace_out = CACHE / "traces" / f"{workload.name}-{args.seed}.json"
    try:
        reply = _child(["run", workload.name, str(inputs_dir), str(work), str(args.seed),
                        str(args.seconds), str(args.trace), str(trace_out)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = reply["checks"]
    name, ok, detail = _digest_check(workloads, workload, inputs_dir, reply["digest"])
    checks.append({"name": name, "ok": ok, "detail": detail})
    attempted = reply["attempted"] + 1 + len(setup)
    failed = reply["failed"] + (not ok)

    computed = None
    if args.trace:
        from spans import COMPUTED, LAYER_UNITS

        computed = COMPUTED
        metrics = {k: {"value": reply["layers"][k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(reply["walls"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": reply["peak_rss_mb"],
            "quality": reply["quality"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "why": workload.why,
        "idle_layers": workload.idle, "workers": workloads.workers_for(workload),
        "machine": machine_info(), "iteration_walls_s": reply["walls"],
        "setup_samples_s": setup, "checks": checks,
        "trace_file": str(trace_out.relative_to(ROOT)) if args.trace else None,
        "computed_from_shapes": computed,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

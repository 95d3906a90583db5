"""The workload process and the set-up probe, started by run.py.

    child.py probe <workload> <inputs_dir>
        Times `import patsim` plus loading the workload's inputs, in a
        fresh interpreter, and prints {"setup_s": ...}.

    child.py run <workload> <inputs_dir> <work_dir> <seed> <seconds> <trace> <trace_out>
        Untraced (trace 0): runs the timed phase once, then again for as
        long as another iteration is expected to end within <seconds>,
        then checks the outputs.
        Traced (trace 1): loads the inputs under the tracer, runs the
        phase once untraced and once traced, and derives the per-layer
        metrics from the spans. Prints one JSON result line.

Only the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]


def probe(name: str, inputs_dir: Path) -> dict:
    t0 = time.perf_counter()
    import patsim  # noqa: F401  (the import is part of what is timed)
    import workloads

    workloads.load(workloads.WORKLOADS[name], inputs_dir)
    return {"setup_s": time.perf_counter() - t0}


def run(name: str, inputs_dir: Path, work: Path, seed: int, seconds: float,
        traced: bool, trace_out: Path) -> dict:
    import numpy as np

    import spans
    import workloads
    from patsim import kernels

    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    if traced:
        tracer.phase = "load"
        tracer.install()
    loaded = workloads.load(workload, inputs_dir)
    tracer.uninstall()

    walls: list[float] = []
    digests: list[str] = []
    attempted = failed = 0
    out = None

    def iteration() -> None:
        nonlocal out, attempted
        t0 = time.perf_counter()
        out = workloads.run_once(workload, loaded, inputs_dir, work)
        walls.append(time.perf_counter() - t0)
        attempted += out["ops"]
        digests.append(workloads.digest(workload, work))

    start = time.perf_counter()
    iteration()
    if traced:
        tracer.phase = "run"
        tracer.install()
        try:
            iteration()
        finally:
            tracer.uninstall()
    else:
        # stop before an iteration that would end past the window
        while time.perf_counter() - start + statistics.median(walls) <= seconds:
            iteration()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = workloads.checks(workload, loaded, out, work, seed)
    results.append(("digest_stable_in_run", len(set(digests)) == 1,
                    f"{len(digests)} iterations"))
    attempted += len(results)
    failed += sum(1 for _, ok, _ in results if not ok)
    reply = {
        "walls": walls,
        "digest": digests[0],
        "attempted": attempted,
        "failed": failed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
    }
    if not traced:
        reply["peak_rss_mb"] = peak_rss_mb
        reply["quality"] = workloads.quality(workload, out, inputs_dir)
        return reply

    # Dinkelbach iteration counts on a fixed seeded sample of scored pairs
    iters = [kernels.eds_score_with_iters(a @ b.T)[1]
             for a, b in workloads.eds_pairs(tracer.spans, seed)]
    cap = getattr(kernels, "_MAX_DINKELBACH_ITERS", 100)
    reply["layers"] = spans.layer_metrics(tracer, walls[1], walls[0], iters, cap)
    tracer.dump(trace_out, {"workload": name, "seed": seed,
                            "untraced_wall_s": walls[0], "traced_wall_s": walls[1],
                            "eds_iters_sample": iters,
                            "eds_iters_hist": np.bincount(iters).tolist() if iters else []})
    return reply


def main(argv: list[str]) -> int:
    mode, name, inputs_dir = argv[0], argv[1], Path(argv[2])
    if mode == "probe":
        reply = probe(name, inputs_dir)
    else:
        work, seed, seconds, traced, trace_out = argv[3:8]
        reply = run(name, inputs_dir, Path(work), int(seed), float(seconds),
                    traced == "1", Path(trace_out))
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

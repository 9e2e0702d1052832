#!/usr/bin/env python3
"""Benchmark of the spikefusion trainer and retrieval evaluator.

Run from the root of a checkout; the program is imported from its ``src/``:

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` spends half the time untraced and half with every
layer's entry points wrapped, and reports the per-layer metrics; the spans
are written under ``.perfbench_out/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  BLAS is pinned to one thread; a run whose BLAS reports more
threads is refused.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import sys
import tempfile

import hostinfo
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("train-desk", "train-wide", "eval-gallery")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the generated inputs and of the model")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny shapes, for the benchmark's own tests")
    return p.parse_args(argv)


def _json_number(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def run_workload(workloads, workload, args, peak) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        bench = workloads.Bench(workload, args.seed, work_dir)
        bench.prepare()  # input generation is not part of any metric
        gc.collect()
        peak.reset()
        setups = bench.extra_setups()
        if not args.trace:
            rounds = bench.loop(args.seconds)
            metrics, info = workloads.end_to_end(workload, rounds, setups,
                                                 peak.peak_mib())
            units = workloads.END_TO_END
        else:
            untraced = bench.loop(args.seconds / 2)
            tracer = Tracer()
            workloads.install_tracer(tracer)
            try:
                traced = bench.loop(args.seconds / 2)
            finally:
                tracer.unwrap_all()
            tracer.dump(os.path.join(
                OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json"))
            rounds = untraced + traced
            metrics = workloads.per_layer(tracer, len(traced), untraced, traced)
            _, info = workloads.end_to_end(workload, rounds, setups,
                                           peak.peak_mib())
            units = workloads.PER_LAYER
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = [p for r in rounds for p in r.problems]
    return {
        "workload": workload.name,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "correct": not problems,
        "metrics": {k: {"value": _json_number(v), "unit": units[k]}
                    for k, v in metrics.items()},
        "info": {k: _json_number(v) for k, v in info.items()},
        "checked": workloads.checked_outputs(rounds),
        "problems": problems,
    }


def print_result(result: dict, args):
    mode = "traced" if args.trace else "untraced"
    print(f"== {result['workload']} (seed {args.seed}, {args.seconds:g} s, "
          f"{mode}) ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']!s:>22} {metric['unit']}")
    info = result["info"]
    print(f"  fail_frac {info['fail_frac']} ({result['failed']} of "
          f"{result['attempted']} operations); {info['rounds']} rounds; "
          f"step_ms_p90 {info['step_ms_p90']} over {info['step_samples']} steps")
    print(f"  checked outputs: {json.dumps(result['checked'])}")
    for problem in dict.fromkeys(result["problems"]):
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    replaced = hostinfo.pin_blas_threads()  # must precede the numpy import
    if not os.path.isfile(os.path.join(SRC, "spikefusion", "__init__.py")):
        print(f"error: no spikefusion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spikefusion

    if os.path.dirname(os.path.abspath(spikefusion.__file__)) != \
            os.path.join(SRC, "spikefusion"):
        print(f"error: spikefusion imported from {spikefusion.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    env = hostinfo.environment(args.seed, replaced)
    if env["blas_threads"] not in (None, 1):
        print(f"error: BLAS runs {env['blas_threads']} threads despite "
              f"{hostinfo.THREAD_VARS}=1; refusing to time", file=sys.stderr)
        return 3
    if env["blas_threads"] is None:
        print("warning: BLAS thread count could not be queried; "
              "timings are flagged blas_pinned=false", file=sys.stderr)

    import workloads

    table = workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    peak = hostinfo.PeakMemory()
    results = []
    for name in names:
        result = run_workload(workloads, table[name], args, peak)
        result["env"] = env
        env["peak_rss_resettable"] = peak.resettable
        print_result(result, args)
        with open(os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        results.append(result)
    print("env: " + json.dumps(env, sort_keys=True))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Host-time benchmark for the stochmem simulator.

    python3 bench/run.py --workload grid-L1024 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # every workload, each in a fresh process

Load model: a closed loop with one client in one process and ``jobs=1``.  Each
repetition of the workload starts when the previous one ends, until
``--seconds`` have passed.  The package is imported from ``src/`` next to this
directory; nothing is installed.

With ``--trace 0`` the benchmark reports the end-to-end metrics:

* ``wall_s``: host seconds of the fastest repetition.  The median, quartiles
  and sample count are printed above the result line.  The minimum is the
  scored figure because this shared host slows down in phases lasting up to
  minutes, and a phase slows most repetitions but rarely all of them (see
  README.md for the measured spreads);
* ``stream_Mbit_per_s``: logical stream bits asked for per host second of the
  fastest repetition;
* ``peak_rss_MB``: high-water RSS of this process;
* ``setup_s``: import, input synthesis and cache warm-up before the first timed
  repetition; the median of one in-process and four fresh-process set-ups.

With ``--trace 1`` it alternates traced and untraced repetitions and reports
per-layer metrics (see ``spans.py``); spans are written to
``bench/out/spans-<workload>-seed<seed>.jsonl``.

Every repetition's outputs are verified (``verify.py``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
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

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT_DIR = BENCH / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "stream_Mbit_per_s": "Mbit/s",
                    "peak_rss_MB": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_MB"):
        return "MB"
    return "count"


def setup(workload: str, seed: int) -> tuple[float, float]:
    """Everything before the first timed repetition; returns (seconds, of
    which input synthesis)."""
    t0 = time.perf_counter()
    import workloads  # imports numpy and stochmem

    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)} or all")
    inputs_s = workloads.warm_up(workloads.WORKLOADS[workload], seed)
    return time.perf_counter() - t0, inputs_s


def _child(args: list[str]) -> str:
    """Run this script in a fresh process; its stderr passes through."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=BENCH.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, inputs_s = setup(name, seed)
    setup_samples = [setup_s]
    if not trace:
        # the other set-ups run before the timed loop, in the same host state as this one
        setup_samples += [
            json.loads(_child(["--setup-probe", "--workload", name, "--seed", str(seed)]))["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
    import verify
    import workloads

    w = workloads.WORKLOADS[name]
    checker = verify.Checker(verify.load_reference()["workloads"][name], seed)
    runs_per_rep = len(w.configs(seed)) * max(1, w.sweep_seeds)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()

    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    problems: list[str] = []
    summary = None
    clock = time.perf_counter
    min_reps = 4 if trace else 2
    start = clock()
    rep = 0
    while rep < min_reps or clock() - start < seconds:
        traced = tracer is not None and rep % 2 == 0
        if traced:
            with tracer.installed(), tracer.root("rep") as root:
                wall, records, lines = workloads.run_repetition(w, seed, clock)
            layers.append(spans.layer_metrics(tracer.spans, root[0]))
        else:
            wall, records, lines = workloads.run_repetition(w, seed, clock)
        walls[traced].append(wall)
        bad, other = checker.check(records, workloads.csv_digest(lines) if lines else None)
        if name == "grid-L1024" and not bad:
            summary = workloads.paper_summary(records)
            other += verify.check_paper(summary)
        attempted += runs_per_rep
        failed += min(len(bad), runs_per_rep)
        for msg in bad[:3] + other:
            print(f"FAIL rep {rep}: {msg}", file=sys.stderr)
        problems += other
        rep += 1

    fastest = min(walls[False])
    q1, q2, q3 = statistics.quantiles(walls[False], n=4)
    print(f"workload {name}  seed {seed}  {rep} repetitions  {attempted} runs  "
          f"closed loop, 1 client, jobs=1")
    print(f"  wall_s             min {fastest:.4f} s  (median {q2:.4f}, p25 {q1:.4f}, "
          f"p75 {q3:.4f}, n={len(walls[False])})")
    print(f"  failed_frac        {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"  verify             {checker.mode()}")
    if summary is not None:
        for key, value in summary.items():
            print(f"  {key:<34} {value:.4f}")

    if tracer is None:
        metrics = {
            "wall_s": fastest,
            "stream_Mbit_per_s": w.logical_bits() / 1e6 / fastest,
            "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(setup_samples),
        }
        print(f"  setup_s samples    {' '.join(f'{s:.4f}' for s in setup_samples)} s")
        units = END_TO_END_UNITS
    else:
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["synth.inputs.s"] = inputs_s
        traced_median = statistics.median(walls[True])
        metrics["trace.overhead_s"] = min(walls[True]) - fastest
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(out)
        print(f"  traced wall_s      median {traced_median:.4f} s  (n={len(walls[True])}); "
              f"spans in {out.relative_to(BENCH.parent)}")
        units = {key: layer_unit(key) for key in metrics}
    for key, value in metrics.items():
        share = ""
        if tracer is not None and units[key] == "s" and key not in ("synth.inputs.s",
                                                                    "trace.overhead_s"):
            share = f"  {100 * value / traced_median:5.1f} % of traced wall_s"
        print(f"  {key:<26} {value:.6g} {units[key]}{share}")

    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own fresh process; prints one table at the end."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        out = _child(["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)])
        lines = out.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print()
    for name, res in results.items():
        cells = "  ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:<14} failed_frac {res['failed']}/{res['attempted']}  {cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process and print it as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "stochmem" / "__init__.py").is_file():
        print(f"error: no stochmem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

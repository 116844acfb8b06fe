#!/usr/bin/env python3
"""Regenerate ``reference.json`` from the current code.

    python3 bench/make_reference.py

Runs one repetition of every workload at every reference seed and records
each run's digest and its seed-independent fields, and the largest mean
inaccuracy over a repetition's runs.  Regenerate only in a change that means to alter outputs, and say so.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import verify  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ref = {"default_seed": verify.DEFAULT_SEED, "held_out_seed": verify.HELD_OUT_SEED,
           "seeds": list(verify.REFERENCE_SEEDS), "workloads": {}}
    for name, w in workloads.WORKLOADS.items():
        entry = {"fixed": {}, "mean_inaccuracy_max": 0.0, "digests": {}}
        for seed in verify.REFERENCE_SEEDS:
            t0 = time.perf_counter()
            _, records, lines = workloads.run_repetition(w, seed, time.perf_counter)
            errors = {k: r for k, r in records.items() if isinstance(r, Exception)}
            if errors:
                raise RuntimeError(f"{name} seed {seed}: {errors}")
            for key, rec in sorted(records.items()):
                if entry["fixed"].setdefault(key, rec.fixed) != rec.fixed:
                    raise RuntimeError(f"{name} {key}: seed-independent fields vary with the seed")
            entry["mean_inaccuracy_max"] = max(entry["mean_inaccuracy_max"],
                                               verify.mean_inaccuracy(records))
            # one digest per run, in the order of the sorted run keys
            entry["digests"][str(seed)] = " ".join(records[k].digest for k in sorted(records))
            if lines:
                entry.setdefault("csv_sha256", {})[str(seed)] = workloads.csv_digest(lines)
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        ref["workloads"][name] = entry
    verify.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

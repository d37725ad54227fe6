"""Determinism check: two seeds x two hash seeds give the same answers and counts.

Usage::

    python3 perfbench/determinism.py --workload catalog

Runs ``run.py --trace 1 --seconds 1`` four times, in fresh processes, with
each pair of workload seed (1 and 2) and ``PYTHONHASHSEED`` value (0 and 1).
The job order differs between seeds; the answers, the exact span and call
counts, the structure counts and the profiler's call counts must not.  Exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_METRICS = ("poly.init_calls", "poly.mul_calls", "scalars.init_calls")
SEEDS = (1, 2)
HASH_SEEDS = (0, 1)
SECONDS = 1.0  # run.py makes at least two traced passes whatever this is


def traced_run(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or len(lines) < 2:
        raise RuntimeError(f"run.py exited with {proc.returncode}: {proc.stderr.strip()}")
    detail = json.loads(lines[-2].removeprefix("detail "))
    result = json.loads(lines[-1])
    if detail["seed"] != seed:
        raise RuntimeError(f"result records seed {detail['seed']}, ran with {seed}")
    return {
        "correct": result["correct"],
        "answers": detail["answers"],
        "counts": detail["counts"],
        "structure": detail["structure"],
        "profile_counts": {k: result["metrics"][k]["value"] for k in COUNT_METRICS},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)
    runs = {}
    for seed in SEEDS:
        for hash_seed in HASH_SEEDS:
            runs[(seed, hash_seed)] = traced_run(args.workload, seed, hash_seed)
    ref_key = next(iter(runs))
    ref = runs[ref_key]
    status = 0
    for key, got in runs.items():
        diff = [field for field in ref if got[field] != ref[field]]
        if not got["correct"]:
            diff.append("correct")
        print(f"{args.workload} seed={key[0]} PYTHONHASHSEED={key[1]}: "
              + ("identical" if not diff else "differs in " + ", ".join(diff)))
        status |= bool(diff)
    return status


if __name__ == "__main__":
    sys.exit(main())

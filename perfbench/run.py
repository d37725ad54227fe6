"""cprojver benchmark: time to verdict on fixed catalog workloads.

Usage::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One run is one fresh Python process and a closed loop with one caller: the
workload's jobs run one after another, in an order permuted by ``--seed``,
and the whole list is repeated until ``--seconds`` have passed.  Each job
calls the library entry point the matching ``cproj`` command calls, and every
answer is checked against the literals in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes of the same job order, then makes one
pass under ``cProfile``, and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it, prefixed ``detail``, holds the environment,
the seed, the answers and the exact counts.  The exit status is 0 when every
check passes, 1 when an answer is wrong, and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
# Trace self-test tolerances.  A pass's own job times include a little
# harness work outside the job spans; a probe that fires inside a clock read
# can step that read back by about one probe; and the time inside no named
# layer (the jobs' and batteries' own code) was under 0.5% on every workload.
HARNESS_SHARE = 0.01
CLOCK_SLACK_S = 0.002
UNATTRIBUTED_SHARE = 0.05

sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from speedclock import SpeedClock  # noqa: E402


def _library_present():
    return os.path.isfile(os.path.join(SRC, "cprojver", "__init__.py"))


def _import_library():
    sys.path.insert(0, SRC)
    import cprojver
    from cprojver import cli, verify  # noqa: F401  (the entry points the jobs call)

    here = os.path.dirname(os.path.abspath(cprojver.__file__))
    if os.path.commonpath([here, SRC]) != SRC:
        raise ImportError(f"cprojver imported from {here}, not from {SRC}")
    return cprojver


# -- environment ----------------------------------------------------------------


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    lib = os.path.join(SRC, "cprojver")
    for dirpath, dirnames, filenames in os.walk(lib):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith((".py", ".model", ".alg")):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, lib).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(cprojver):
    return {
        "python": sys.version.split()[0],
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "backend": cprojver.backend_name(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# -- one pass over the job list --------------------------------------------------


class Pass:
    def __init__(self):
        self.times = {}  # job -> seconds
        self.ref_times = {}  # job -> reference seconds
        self.answers = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def ref(self):
        return sum(self.ref_times.values())


def _gate(job, answers, res):
    for key, want in job.expected.items():
        res.attempted += 1
        got = answers.get(key)
        if got != want:
            res.failed += 1
            res.problems.append(f"{job.label}: {key} = {got!r}, expected {want!r}")


def _run_job(job, res, tracer):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            checks, answers = wl.run_job(job)
        else:
            checks, answers = tracer.job_span(lambda: wl.run_job(job))
    except Exception as exc:  # a raising job is a failed check, not a crash
        res.attempted += 1 + len(job.expected)
        res.failed += 1 + len(job.expected)
        res.problems.append(f"{job.label}: raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    res.answers[job.label] = answers
    res.attempted += len(checks)
    bad = [c.check for c in checks if not c.passed]
    res.failed += len(bad)
    res.problems.extend(f"{job.label}: check failed: {b}" for b in bad)
    _gate(job, answers, res)
    return dt


def run_pass(order, clock, tracer=None):
    """Run every job once, timing each in seconds and in reference seconds."""
    res = Pass()
    now = clock.now if clock else (lambda: 0.0)
    for job in order:
        r0 = now()
        res.times[job.label] = _run_job(job, res, tracer)
        res.ref_times[job.label] = now() - r0
    return res


# -- set-up ---------------------------------------------------------------------


def setup_samples(workload, reps):
    """Reference seconds from process start to ready, for `reps` fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload]
    out = []
    for _ in range(reps):
        env = dict(os.environ, PERFBENCH_T0=repr(time.perf_counter()))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with {proc.returncode}: {proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def set_up_here(workload):
    """The set-up process: reference seconds since the parent spawned it."""
    spawned = float(os.environ["PERFBENCH_T0"])
    with SpeedClock() as clock:
        started = time.perf_counter()
        _import_library()
        wl.set_up(workload)
        # CLOCK_MONOTONIC is shared by all processes, so the interpreter's own
        # start-up is the time since the parent's mark, at the first probe's speed
        return (started - spawned) * clock.speed + clock.now()


# -- the two kinds of run -------------------------------------------------------


def end_to_end(workload, rng, seconds):
    jobs = list(workload.jobs)
    passes = []
    start = time.perf_counter()
    with SpeedClock() as clock:
        while not passes or time.perf_counter() - start < seconds:
            rng.shuffle(jobs)
            passes.append(run_pass(jobs, clock))
    per_job = {
        j.label: statistics.median(p.ref_times[j.label] for p in passes) for j in workload.jobs
    }
    extra = Pass()
    _selftest(extra, "every pass attempts the same checks",
              all(p.attempted == passes[0].attempted for p in passes))
    metrics = {
        "wall_s": (statistics.median(p.ref for p in passes), "s"),
        "slowest_job_s": (max(per_job.values()), "s"),
        "checks_total": (passes[0].attempted, "count"),
    }
    raw = statistics.median(sum(p.times.values()) for p in passes)
    return passes, extra, metrics, {"job_ref_s": per_job, "raw_wall_s": raw}


def traced(workload, rng, seconds):
    import cProfile
    import pstats

    from tracer import Tracer, profile_metrics

    jobs = list(workload.jobs)
    plain, traced_passes, snaps = [], [], []
    extra = Pass()  # the trace self-test and the structure gate
    start = time.perf_counter()
    with SpeedClock() as clock:
        tr = Tracer(clock.now)  # spans in reference seconds, probes left out
        while len(traced_passes) < 2 or time.perf_counter() - start < seconds:
            rng.shuffle(jobs)
            plain.append(run_pass(jobs, clock))
            tr.install()
            try:
                p = run_pass(jobs, clock, tr)
            finally:
                tr.uninstall()
            traced_passes.append(p)
            snaps.append(_snapshot(tr, p, jobs, extra))
    first, second = snaps[0], snaps[1]
    _selftest(extra, "counts repeat exactly across two traced passes",
              first["counts"] == second["counts"] and first["structure"] == second["structure"])

    prof = cProfile.Profile()
    prof.enable()
    try:
        profiled = run_pass(jobs, None)  # no probes: they would show in the profile
    finally:
        prof.disable()
    metrics = {}
    for name in first["metrics"]:
        value, unit = first["metrics"][name]
        if unit == "s":
            value = statistics.median(s["metrics"][name][0] for s in snaps)
        metrics[name] = (value, unit)
    metrics.update(profile_metrics(pstats.Stats(prof)))
    overhead = (
        statistics.median(p.ref for p in traced_passes)
        / statistics.median(p.ref for p in plain)
        - 1.0
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    detail = {"counts": first["counts"], "structure": first["structure"]}
    return plain + traced_passes + [profiled], extra, metrics, detail


def _selftest(res, label, ok):
    res.attempted += 1
    if not ok:
        res.failed += 1
        res.problems.append(f"trace self-test: {label}")


def _snapshot(tr, p, order, extra):
    from tracer import JOB, STAGE_METRICS, layer_metrics

    metrics = layer_metrics(tr)
    _selftest(extra, "spans nest under their parent", tr.nesting_ok())
    # the job spans, timed by the tracer, against the pass's own job times
    roots = tr.root_durations()
    own = [p.ref_times[job.label] for job in order]
    total = sum(roots)
    _selftest(extra, "job spans agree with the pass's own job times",
              len(roots) == len(own)
              and all(r <= t + CLOCK_SLACK_S for r, t in zip(roots, own))
              and total >= (1.0 - HARNESS_SHARE) * p.ref)
    _selftest(extra, "non-overlapping layer metrics add up to no more than the job time",
              sum(metrics[k][0] for k in STAGE_METRICS) <= total + CLOCK_SLACK_S)
    selfs = tr.self_times()
    _selftest(extra, f"time outside every named layer is under {UNATTRIBUTED_SHARE:.0%}",
              selfs[JOB] + selfs["verify.battery"] <= UNATTRIBUTED_SHARE * total)
    for job, got in zip(order, tr.structure):
        if job.structure is None:
            continue
        for key in ("ansatz", "solves"):
            extra.attempted += 1
            want = [tuple(x) for x in job.structure[key]]
            if [tuple(x) for x in got[key]] != want:
                extra.failed += 1
                extra.problems.append(f"{job.label}: {key} = {got[key]}, expected {want}")
    by_label = {j.label: s for j, s in zip(order, tr.structure)}
    return {
        "metrics": metrics,
        "counts": dict(sorted(tr.span_counts().items())),
        "structure": dict(sorted(by_label.items())),
    }


# -- command line ---------------------------------------------------------------


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args):
    workload = wl.WORKLOADS[args.workload]
    if args.setup_only:
        print(repr(set_up_here(workload)))
        return 0
    samples = [] if args.trace else setup_samples(workload.name, SETUP_REPS)
    cprojver = _import_library()
    wl.set_up(workload)
    env = environment(cprojver)
    rng = random.Random(args.seed)
    if args.trace:
        passes, extra, metrics, detail_extra = traced(workload, rng, args.seconds)
    else:
        passes, extra, metrics, detail_extra = end_to_end(workload, rng, args.seconds)
        metrics["setup_s"] = (statistics.median(samples), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        detail_extra["setup_samples_s"] = samples
    attempted = sum(p.attempted for p in passes + [extra])
    failed = sum(p.failed for p in passes + [extra])
    problems = [msg for p in passes + [extra] for msg in p.problems]
    answers = {j.label: passes[0].answers.get(j.label) for j in workload.jobs}

    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): "
          f"{len(passes)} passes, {attempted} checks, {failed} failed")
    for msg in sorted(set(problems)):
        print(f"  FAIL {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {_fmt(value):>14s} {unit}")
    if not args.trace:
        print(f"  {'checks_failed':32s} {failed:>14d} count")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "passes": len(passes),
        "answers": answers,
        **detail_extra,
    }
    print("detail " + json.dumps(detail, sort_keys=True, default=repr))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own process; one table of metrics with units."""
    status = 0
    rows = []
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        res = json.loads(lines[-1])
        if proc.returncode != 0:
            status = 1
            sys.stdout.write("\n".join(l for l in lines if "FAIL" in l) + "\n")
        for metric, m in res["metrics"].items():
            rows.append((name, metric, _fmt(m["value"]), m["unit"]))
        if not args.trace:
            rows.append((name, "checks_failed", str(res["failed"]), "count"))
        rows.append((name, "correct", str(res["correct"]).lower(), "-"))
    for row in rows:
        print(f"{row[0]:10s} {row[1]:32s} {row[2]:>14s} {row[3]}")
    return status


def main(argv=None):
    if argv is None and "PYTHONHASHSEED" not in os.environ:
        # String hashing moves a run's time by a few percent from process to
        # process; fix it unless the caller chose a value.  determinism.py
        # shows that answers and counts do not depend on it.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not _library_present():
        print(f"cprojver sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

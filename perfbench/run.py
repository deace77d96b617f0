"""bvcalc benchmark: scenario workloads, each pass in a fresh process.

    python3 perfbench/run.py --workload chainrule-battery --seed 7 --seconds 58 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Every pass is a new child process that imports bvcalc, parses the
workload's scenario files and runs them with ``run_scenario(..., jobs=1)``,
as ``bvcalc run`` does, so each pass pays every cache fill a CLI user pays.
Passes run one after another (a closed loop with one client) until
``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics over the passes: the mean wall
and CPU time of the run, and the median set-up time (process start through
``parse_scenario``) and peak resident memory.  ``--trace 1`` alternates
untraced and traced passes of the workload seed, then runs the layer
microbenchmarks, and reports the per-layer metrics (see ``layers.py``).

The first two passes use ``--seed`` itself, each later pass a seed derived
from it.  Every pass must produce the expected number of report rows, all
passing, and output files that are byte-identical to those of any other
pass of the same seed; a pass that does not counts all its rows as failed.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from layers import PER_LAYER, TIME_UNITS, UNITS, workload_layer_values  # noqa: E402
from workloads import WORKLOADS, expected_rows  # noqa: E402

# Every child is killed by this many seconds after the run started, so a
# hung program still ends the run in time.
HARD_LIMIT_S = 165
MAX_PASSES = 64
# Time kept back in a traced run for the microbenchmark process.
MICRO_RESERVE_S = 7.0
# Files of a pass that are not program results (timings, the child's own
# result record); left out of digests.
NOT_RESULTS = {"timing.csv", "result.json"}
DIGESTS = os.path.join(HERE, "digests.json")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Metrics reported as the mean over a run's passes rather than the median.
# Passes after the first two run different generated inputs, whose cost
# varies by a CV of 0.15 to 0.25; the mean weights every input alike, while
# the median of ten such passes jumps from one input to another.
MEAN_METRICS = {"wall_s", "cpu_s"}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pass_seed(seed, k):
    """Seed of the ``k``-th pass: ``seed`` itself for the first two, which
    must agree byte for byte, then a seed derived from it."""
    if k < 2:
        return seed
    digest = hashlib.sha256(f"{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def outputs_digest(out):
    """sha256 over every result file of a pass (path and bytes), and their
    total size."""
    h = hashlib.sha256()
    size = 0
    for dirpath, dirnames, filenames in os.walk(out):
        dirnames.sort()
        for name in sorted(filenames):
            if name in NOT_RESULTS:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, out).encode() + b"\0")
            h.update(data)
            size += len(data)
    return h.hexdigest(), size


def run_child(argv, hard_end):
    """Run a child to completion, or kill it at ``hard_end``; returns (exit
    code, stderr tail)."""
    timeout = max(1.0, hard_end - _now())
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, f"killed after {timeout:.0f} s"
    return proc.returncode, proc.stderr.decode(errors="replace")[-2000:]


def one_pass(workload, seed, out, trace, hard_end):
    """Run one pass in a fresh process and check its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    cfg = {"workload": workload, "seed": seed, "out": out, "trace": trace, "t0": _now()}
    code, err = run_child([os.path.join(HERE, "child.py"), json.dumps(cfg)], hard_end)
    result = {"seed": seed, "trace": trace, "attempted": expected_rows(workload)}
    try:
        with open(os.path.join(out, "result.json")) as fh:
            result.update(json.load(fh))
    except (OSError, ValueError):
        result["error"] = f"no result (exit {code}): {err}"
    if "error" not in result:
        result["digest"], result["bytes_written"] = outputs_digest(out)
        expect = WORKLOADS[workload]
        bad = [
            f"{name}: {n_pass}/{n_total} rows passed, {expect[name]} expected"
            for name, (n_pass, n_total) in result["rows"].items()
            if not n_pass == n_total == expect[name]
        ]
        if bad:
            result["error"] = "; ".join(bad)
            result["wrong"] = True
    shutil.rmtree(out, ignore_errors=True)
    return result


def check_twins(passes):
    """Passes of one seed must agree byte for byte; mark any that do not."""
    by_seed = {}
    for p in passes:
        if "error" not in p:
            by_seed.setdefault(p["seed"], []).append(p)
    for group in by_seed.values():
        if len({p["digest"] for p in group}) > 1:
            for p in group:
                p["error"] = "output files differ between passes of the same seed"
                p["wrong"] = True


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_e2e(workload, seed, seconds, work, start):
    passes = []
    longest = 0.0
    k = 0
    while k < 2 or (k < MAX_PASSES and _now() + longest <= start + seconds):
        t0 = _now()
        out = os.path.join(work, f"p{k}")
        passes.append(one_pass(workload, pass_seed(seed, k), out, False, start + HARD_LIMIT_S))
        longest = max(longest, _now() - t0)
        k += 1
    check_twins(passes)
    good = [p for p in passes if "error" not in p]
    metrics = {}
    for name, unit in E2E_UNITS.items():
        values = [p[name] for p in good]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        mean = statistics.fmean(values)
        print(
            f"{name}: mean {mean:.6g} {unit}, median {med:.6g}, "
            f"quartiles {q1:.6g}..{q3:.6g}, n={len(values)}"
        )
        print(f"{name} per pass: {' '.join(f'{v:.4g}' for v in values)}")
        metrics[name] = {"value": mean if name in MEAN_METRICS else med, "unit": unit}
    return passes, metrics, [] if good else ["no pass completed"]


def run_traced(workload, seed, seconds, work, start):
    """Untraced and traced passes of one seed in turn, then the
    microbenchmarks; per-layer metrics."""
    passes = []
    durations = {False: 0.0, True: 0.0}
    k = 0
    while k < 2 or _now() + durations[k % 2 == 1] <= start + seconds - MICRO_RESERVE_S:
        trace = k % 2 == 1
        t0 = _now()
        out = os.path.join(work, f"t{k}")
        passes.append(one_pass(workload, seed, out, trace, start + HARD_LIMIT_S))
        durations[trace] = max(durations[trace], _now() - t0)
        k += 1
        if k >= MAX_PASSES:
            break
    check_twins(passes)
    problems = []

    traced = [p for p in passes if p["trace"] and "error" not in p]
    plain = [p for p in passes if not p["trace"] and "error" not in p]
    values = {}
    if traced:
        per_pass = []
        for p in traced:
            p["layers"]["counters"]["scenario.bytes_written"] = p["bytes_written"]
            per_pass.append(workload_layer_values(p["layers"]))
        for name in per_pass[0]:
            column = [v[name] for v in per_pass]
            if UNITS[name] in TIME_UNITS:
                values[name] = statistics.median(column)
            else:
                if len(set(column)) > 1:
                    problems.append(f"{name} differs between traced passes: {column}")
                values[name] = column[0]
    if traced and plain:
        values["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in plain)
        print(
            f"tracing overhead: {values['trace.overhead_s']:.4g} s per pass "
            f"({len(traced)} traced, {len(plain)} untraced passes)"
        )

    micro_out = os.path.join(work, "micro.json")
    code, err = run_child([os.path.join(HERE, "micro.py"), micro_out], start + HARD_LIMIT_S)
    try:
        with open(micro_out) as fh:
            micro = json.load(fh)
        values.update(micro["metrics"])
        problems.extend(micro["problems"])
    except (OSError, ValueError, KeyError):
        problems.append(f"microbenchmarks failed (exit {code}): {err}")

    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in PER_LAYER
        if name in values
    }
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        problems.append(f"missing per-layer metrics: {', '.join(missing)}")
    return passes, metrics, problems


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def report_digests(workload, passes):
    """Compare each seed's output digest with the recorded one.  A changed
    digest is reported, not failed: an explained last-digit change is
    allowed."""
    try:
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(workload, {})
    except (OSError, ValueError):
        recorded = {}
    seen = {}
    for p in passes:
        if "digest" in p:
            seen.setdefault(str(p["seed"]), p["digest"])
    for seed, digest in seen.items():
        want = recorded.get(seed)
        state = "not recorded" if want is None else ("same" if want == digest else "report changed")
        print(f"digest seed={seed} sha256={digest} recorded: {state}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = _now()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "bvcalc", "__init__.py")):
        print(f"perfbench: no bvcalc sources under {SRC}", file=sys.stderr)
        return 2

    # Byte-compile once, as an installed package would be, so that no pass
    # pays for compiling.
    compileall.compile_dir(os.path.join(SRC, "bvcalc"), quiet=1)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    load_before = os.getloadavg()
    mode = run_traced if args.trace else run_e2e
    try:
        passes, metrics, problems = mode(args.workload, args.seed, args.seconds, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    load_after = os.getloadavg()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["attempted"] for p in passes if "error" in p)
    for p in passes:
        if "error" in p:
            kind = "wrong output" if p.get("wrong") else "raised"
            print(f"failed pass ({kind}; seed {p['seed']}, trace {p['trace']}): {p['error']}")
    for problem in problems:
        print(f"problem: {problem}")
    report_digests(args.workload, passes)
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    provenance = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "blas_threads": 1,
        "jobs": 1,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"failed_frac: {failed / attempted:.6g} ({failed}/{attempted} rows, {len(passes)} passes)")
    print(
        json.dumps(
            {
                "correct": not problems and not any(p.get("wrong") for p in passes),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

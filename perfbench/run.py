"""pqeuler benchmark: three workloads through the public Python API.

Usage (from the repository root):

    python3 perfbench/run.py --workload series|enumeration|objects \
        [--seed N] [--seconds S] [--trace 0|1] [--quick]

With ``--trace 0`` the run repeats whole passes over the workload's
operations for about ``--seconds`` seconds and reports the end-to-end
metrics ``wall_ref`` and ``cpu_ref`` (a pass's time in units of the
reference work timed around each operation; see ``measure``),
``peak_rss_mb`` (the peak of the run) and ``setup_s`` (median over fresh
interpreters).
With ``--trace 1`` each round runs the operations of all three workloads once
untraced and once with spans (``spans.py``), and reports the per-layer
metrics.  Every result of every pass is checked (``workloads.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The workloads are exhaustive: ``--seed`` is accepted and recorded but
changes no input.  ``--quick`` runs the small sizes, a few seconds a workload.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 25
REFERENCE_ROUNDS = 8  # about 12 ms at the fast speed
KERNEL_SCANS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("series", "enumeration", "objects"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes: every operation and check in seconds")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# A process keeps its children's peak across exec, so it starts with that of
# whatever its launcher waited for (a shell's earlier commands, say).
INHERITED_CHILDREN_MAXRSS = children_maxrss()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    The own peak is ``VmHWM``, which exec resets, where ``ru_maxrss`` would
    keep the peak of the process image the launcher forked.  A child's peak
    counts only where it rose above the inherited figure."""
    own = None
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    if own is None:  # no procfs: fall back to getrusage
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = children_maxrss()
    if kids <= INHERITED_CHILDREN_MAXRSS:
        kids = 0
    return (own + kids) / 1024.0  # kilobytes


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work shaped like the
    package's inner loop: products of sparse polynomials held as dicts from
    exponent tuples to integers.  It is the benchmark's own code, so a change
    to the package leaves it alone."""
    start = time.perf_counter()
    a = {(i, j, i ^ j): i * 7 + j + 1 for i in range(9) for j in range(9)}
    for _ in range(REFERENCE_ROUNDS):
        out = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                out[key] = out.get(key, 0) + ca * cb
    return time.perf_counter() - start


def run_pass(ops, tracer=None, reference=None):
    """Run each operation once; return ({name: result}, {label: (wall
    seconds, CPU seconds)}, number of operations that raised).  With a list
    as ``reference``, time the reference work before each operation and after
    the last, and append those times to it."""
    results, seconds, failed = {}, {}, 0
    for op in ops:
        if reference is not None:
            reference.append(reference_seconds())
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                results[op.name] = op.call()
            else:
                with tracer.span("op." + op.label):
                    results[op.name] = op.call()
        except Exception:  # one failing operation must not stop the run
            failed += 1
            print(f"operation {op.label} raised:", file=sys.stderr)
            traceback.print_exc()
        seconds[op.label] = (time.perf_counter() - start, cpu_seconds() - cpu0)
    if reference is not None:
        reference.append(reference_seconds())
    return results, seconds, failed


def setup_seconds(code: str) -> list[float]:
    """Wall time from starting a fresh interpreter until it has run ``code``
    and exited, once per sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(name, values, unit):
    q1, q3 = quartiles(values)
    return (f"{name:14s} {statistics.median(values):10.4f} {unit:3s} "
            f"(median of {len(values)}; quartiles {q1:.4f} .. {q3:.4f})")


def measure(workload, sizes, seconds):
    """Whole passes until the next one would end after ``seconds``.

    The shared machine this benchmark was tuned on runs at a fast or a slow
    speed (the slow one takes 1.5-2.2 times as long), switching every few
    seconds and sometimes staying slow for minutes, so a pass in seconds
    differs from run to run by up to 70 %.  Each operation is therefore timed
    against the reference work run just before and just after it:
    ``wall_ref`` and ``cpu_ref`` are, summed over the pass's operations, the
    median over the passes of the operation's wall (CPU) time divided by the
    mean of those two reference times."""
    ops = workload.ops(sizes)
    walls, refs, problems = [], [], []
    op_walls, op_cpus, op_wall_refs, op_cpu_refs = {}, {}, {}, {}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reference = []
        results, seconds_by_op, errors = run_pass(ops, reference=reference)
        walls.append(time.perf_counter() - t0)
        refs += reference
        attempted += len(ops)
        failed += errors
        for k, (label, (wall, cpu)) in enumerate(seconds_by_op.items()):
            unit = (reference[k] + reference[k + 1]) / 2
            op_walls.setdefault(label, []).append(wall)
            op_cpus.setdefault(label, []).append(cpu)
            op_wall_refs.setdefault(label, []).append(wall / unit)
            op_cpu_refs.setdefault(label, []).append(cpu / unit)
        problems += workload.verify(results, sizes)
        del results
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    rss = peak_rss_mb()
    setup = setup_seconds(workload.setup_code)
    for label, values in op_walls.items():
        print(f"  op {label:40s} median {statistics.median(values):8.4f} s  "
              f"fastest {min(values):8.4f} s  "
              f"median {statistics.median(op_wall_refs[label]):9.2f} ref")
    wall_ref = sum(statistics.median(v) for v in op_wall_refs.values())
    cpu_ref = sum(statistics.median(v) for v in op_cpu_refs.values())
    pass_cpu = sum(statistics.median(v) for v in op_cpus.values())
    print(describe("reference", refs, "s"))
    print(describe("pass wall", walls, "s"))
    print(f"{'pass cpu':14s} {pass_cpu:10.4f} s   (sum of the operations' medians)")
    print(f"{'wall_ref':14s} {wall_ref:10.2f} ref (over {len(walls)} passes)")
    print(f"{'cpu_ref':14s} {cpu_ref:10.2f} ref")
    print(f"{'peak_rss_mb':14s} {rss:10.4f} MB  (process plus largest worker)")
    print(describe("setup_s", setup, "s"))
    metrics = {
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "cpu_ref": {"value": cpu_ref, "unit": "ref"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return metrics, attempted, failed, problems


def kernel_words_per_s(n: int, stat_tuple) -> float:
    """Median throughput of ``stat_tuple`` over all of S_n."""
    rates = []
    words = list(itertools.permutations(range(1, n + 1)))
    for _ in range(KERNEL_SCANS):
        start = time.perf_counter()
        for word in words:
            stat_tuple(word)
        rates.append(len(words) / (time.perf_counter() - start))
    return statistics.median(rates)


def pool_speedup(n: int) -> float:
    """stat_polynomial on S_n at workers=1 over the same call at the default
    worker count (both with the pool threshold at n)."""
    from pqeuler import permstat

    def timed(workers):
        start = time.perf_counter()
        permstat.stat_polynomial("S", n, permstat.QUINTUPLE_WEIGHT,
                                 workers=workers, parallel_threshold=n)
        return time.perf_counter() - start

    return timed(1) / timed(None)


def measure_traced(first, sizes, seconds, seed):
    """Rounds over all three workloads' operations, each operation run
    untraced and then traced, until the next round would end after
    ``seconds``.  Running the two back to back keeps drift in the machine's
    speed out of the tracing overhead."""
    from pqeuler import permstat
    import spans
    from workloads import WORKLOADS

    order = [first] + [name for name in WORKLOADS if name != first]
    plan = [(WORKLOADS[name], WORKLOADS[name].ops(sizes)) for name in order]
    rounds, overheads, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        tracer = spans.Tracer()
        overhead = 0.0
        for workload, ops in plan:
            untraced, traced = {}, {}
            for index, op in enumerate(ops):
                # alternate which run goes first, so that warm-up and drift
                # fall on both sides
                for traced_run in ((False, True) if index % 2 else (True, False)):
                    t0 = time.perf_counter()
                    if traced_run:
                        with spans.instrument(tracer):
                            results, _, errors = run_pass([op], tracer)
                    else:
                        results, _, errors = run_pass([op])
                    elapsed = time.perf_counter() - t0
                    overhead += elapsed if traced_run else -elapsed
                    (traced if traced_run else untraced).update(results)
                    attempted += 1
                    failed += errors
            problems += workload.verify(untraced, sizes)
            problems += workload.verify(traced, sizes)
            del untraced, traced
        overheads.append(overhead)
        rounds.append(spans.layer_metrics(tracer))
        if time.perf_counter() - start + (time.perf_counter() - round_start) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{first}-seed{seed}.json"
    tracer.write(span_file)

    for name in spans.COUNT_METRICS:
        if len({r[name] for r in rounds}) != 1:
            problems.append(f"{name} differs between traced passes: "
                            f"{[r[name] for r in rounds]}")
    metrics = {name: (rounds[0][name] if name in spans.COUNT_METRICS
                      else statistics.median(r[name] for r in rounds))
               for name in rounds[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["kernel.words_per_s"] = kernel_words_per_s(sizes["kernel"],
                                                       permstat.stat_tuple)
    metrics["permstat.pool_speedup"] = pool_speedup(sizes["family"])
    try:
        from pqeuler import _statcore, _statpure
    except ImportError:
        print("kernel: compiled extension not built, no compiled/pure ratio")
    else:
        ratio = (kernel_words_per_s(sizes["kernel"], _statcore.stat_tuple)
                 / kernel_words_per_s(sizes["kernel"], _statpure.stat_tuple))
        print(f"kernel: compiled/pure throughput ratio {ratio:.2f} on S_{sizes['kernel']}")
    print(f"{len(rounds)} traced round(s); spans written to {span_file}")
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    for name, unit, _ in spans.LAYER_METRICS:
        print(f"  {name:40s} {metrics[name]:16.6g} {unit}")
    return ({name: {"value": metrics[name], "unit": units[name]}
             for name, _, _ in spans.LAYER_METRICS},
            attempted, failed, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pqeuler" / "__init__.py").is_file():
        print(f"pqeuler sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pqeuler
    from pqeuler import permstat
    from workloads import SIZES, WORKLOADS

    sizes = SIZES["quick" if args.quick else "full"]
    print(f"workload {args.workload}  seed {args.seed} (no input depends on it)  "
          f"sizes {'quick' if args.quick else 'full'}")
    print(f"python {platform.python_version()}  cpus {os.cpu_count()}  "
          f"backend {pqeuler.BACKEND}  workers {permstat.default_workers()}")
    if args.trace:
        metrics, attempted, failed, problems = measure_traced(
            args.workload, sizes, args.seconds, args.seed)
    else:
        metrics, attempted, failed, problems = measure(
            WORKLOADS[args.workload], sizes, args.seconds)
    for problem in dict.fromkeys(problems):  # once each, in order
        print(f"WRONG: {problem}", file=sys.stderr)
    print(f"attempted {attempted}  failed {failed}  wrong results {len(problems)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""singcat benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  Operations run back to back for S
seconds (at least one, and the last one started is finished).  Every answer
is checked against an order-free reference; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: operation cost in units of
a reference task timed on the same CPU during the operation (see
hostclock.py), set-up seconds and peak memory.  Wall and CPU seconds are
printed on the line above the result.  ``--trace 1`` alternates untraced
and traced operations and reports the per-layer metrics of the traced ones
(see tracer.py), plus the tracing overhead: traced minus untraced median
wall time per operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time import plus input set-up once and exit")
    return p.parse_args(argv)


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples above it.

    Returns (value, percentile, samples beyond).  With fewer than 11
    samples no such percentile exists and the maximum is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def _setup_probe(args, workdir: Path) -> int:
    t0 = time.perf_counter()
    import workloads
    workloads.prepare(args.workload, args.seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _setup_seconds(args) -> float:
    """Median of several fresh-process set-ups: import plus inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class _Run:
    """What the closed loop recorded."""

    def __init__(self):
        self.times: list[tuple[float, float]] = []  # (start, end) per operation
        self.cpus: list[float] = []
        self.traced: list[bool] = []
        self.traced_stats: list[dict] = []
        self.saved_spans: list[list] = []
        self.failures: list[str] = []
        self.digests: set[str] = set()

    @property
    def walls(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.times]


def _loop(state, tracer, seconds: float) -> _Run:
    """Run operations back to back until the deadline has passed.

    With a tracer, odd-numbered operations are traced, and the loop goes on
    until at least one traced operation has finished.
    """
    run = _Run()
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
            tracer.begin(k + 1)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = state.run(), None
        except Exception as e:  # a raising operation counts as failed
            result, error = None, e
        w1, c1 = time.perf_counter(), time.process_time()
        if traced:
            run.traced_stats.append(tracer.stats())
            if len(run.traced_stats) == 1:
                run.saved_spans.append(tracer.spans)
            tracer.uninstall()
            tracer.begin(0)
        if error is None:
            try:
                run.digests.add(_digest(state, result))
            except Exception as e:  # a malformed report is a wrong answer too
                error = e
        if error is not None:
            run.failures.append(f"op {k}: {type(error).__name__}: {error}")
        run.times.append((w0, w1))
        run.cpus.append(c1 - c0)
        run.traced.append(traced)
        k += 1
        if time.perf_counter() >= deadline and (tracer is None
                                                or run.traced_stats):
            return run


def _digest(state, result) -> str:
    answer = state.check(result)
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()
                          ).hexdigest()[:16]


def _bench(args, workdir: Path) -> int:
    import workloads
    import singcat
    if Path(singcat.__file__).resolve().parent != SRC / "singcat":
        print(f"error: singcat imported from {singcat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin(0)
        state = workloads.prepare(args.workload, args.seed, workdir)
        setup_stats = tracer.stats()
        setup_spans = tracer.spans
        tracer.uninstall()
        start = time.perf_counter()
        run = _loop(state, tracer, args.seconds)
        elapsed = time.perf_counter() - start
    else:
        from hostclock import HostClock
        state = workloads.prepare(args.workload, args.seed, workdir)
        setup_s = _setup_seconds(args)
        with HostClock() as clock:
            start = time.perf_counter()
            run = _loop(state, None, args.seconds)
            elapsed = time.perf_counter() - start

    walls = run.walls
    attempted, failed = len(walls), len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}) in {elapsed:.2f} s")
    for msg in run.failures[:5]:
        print(f"  FAILED {msg}")
    if len(run.digests) > 1:
        run.failures.append(
            f"answers differ between operations: {sorted(run.digests)}")
    print("answer digest: " + (", ".join(sorted(run.digests)) or "none"))

    if args.trace:
        traced = [w for w, t in zip(walls, run.traced) if t]
        plain = [w for w, t in zip(walls, run.traced) if not t]
        metrics = _layer_metrics(run.traced_stats, setup_stats, traced, plain)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        _write_spans(spans_path, [setup_spans] + run.saved_spans)
        print(f"traced operations: {len(traced)}, untraced: {len(plain)}; "
              f"spans of set-up and the first traced operation in "
              f"{spans_path.relative_to(ROOT)}")
    else:
        refs = [(t1 - t0) / clock.ref_s(t0, t1) for t0, t1 in run.times]
        wall_tail, pct, beyond = _tail(walls)
        ref_tail = _tail(refs)[0]
        print(f"tails are p{pct:.1f} of {attempted} samples ({beyond} beyond)")
        print(f"wall and CPU time: op_wall_s.p50 {statistics.median(walls):.4f} s"
              f", op_wall_s.tail {wall_tail:.4f} s, op_cpu_s.p50 "
              f"{statistics.median(run.cpus):.4f} s, ops_per_s "
              f"{attempted / elapsed:.4f} 1/s")
        print(f"reference task: median {statistics.median(clock.durations) * 1e6:.1f}"
              f" us over {len(clock.durations)} samples")
        print("op_wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
        metrics = {
            "op_ref.p50": _metric(statistics.median(refs), "ref"),
            "op_ref.tail": _metric(ref_tail, "ref"),
            "ops_per_mref": _metric(1e6 * attempted / sum(refs), "1/Mref"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"correct": not run.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not run.failures else 1


def _layer_metrics(traced_stats, setup_stats, traced_walls, plain_walls):
    """Per-operation means over the traced operations."""
    out = {}
    for name in traced_stats[0]:
        vals = [s[name] for s in traced_stats]
        if len(set(vals)) > 1 and not name.endswith("_s"):
            print(f"note: {name} differs between traced operations: {vals}")
        mean = vals[0] if len(set(vals)) == 1 else sum(vals) / len(vals)
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_frac"):
            unit = "ratio"
        else:
            unit = "count"
            mean = int(mean) if mean == int(mean) else mean
        out[name] = _metric(mean, unit)
    # interval modules are built only while the fixtures are generated
    out["rep.interval_module.self_s"] = _metric(
        setup_stats["rep.interval_module.self_s"], "s")
    out["trace.overhead_s"] = _metric(
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return out


def _write_spans(path: Path, groups: list[list[list]]) -> None:
    """One JSON line per span; parents are line numbers, -1 for none."""
    base = 0
    with path.open("w") as fh:
        for spans in groups:
            for name, start, end, parent, op, _ in spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "op": op,
                    "parent": parent + base if parent >= 0 else -1}) + "\n")
            base += len(spans)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "singcat" / "__init__.py").is_file():
        print(f"error: no singcat package under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.probe_setup:
            return _setup_probe(args, workdir)
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

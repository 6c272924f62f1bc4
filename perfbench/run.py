"""votelab benchmark: seeded closed-loop workloads over the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload search-mix --seed 1 --seconds 10 --trace 0

One caller, one process, one thread, one query in flight.  A query is one
call to a votelab entry point or one in-process ``votelab.cli.main`` call.
Inputs come only from ``--seed``; every answer is checked against a
reference that does not come from the code under test (see WORKLOADS.md).

``--trace 0`` runs whole passes over the seed's queries for at most
``--seconds`` (a pass starts only if one more pass of average length still
fits, and at least one pass runs) and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass and then one traced pass of the same
queries and reports the per-layer metrics; the work is fixed, so its counts
repeat exactly.

End-to-end times are scaled to a fixed host speed.  A shared host runs this
single thread up to 40% faster or slower from one minute to the next, which
no run length averages away.  So the run times a fixed calibration loop of
ordinary interpreter work between set-ups and about every 0.1 s between
queries, and multiplies every end-to-end time by ``CAL_NOMINAL_NS`` over the
loop's mean time in the run: a time reads as it would on a host where the
loop takes 1 ms.  The unscaled wall-clock figures are printed too.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
answer is wrong and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
CAL_STEPS = 250  # about 1 ms on a 2-vCPU Xeon VM under Python 3.11
CAL_NOMINAL_NS = 1_000_000
CAL_EVERY_NS = 100_000_000
CAL_TABLE = tuple((i * 7919) % 1013 for i in range(1024))
CAL_WORDS = tuple(f"w{i}" for i in range(64))
TRACE_DIR = ROOT / ".perfbench"


def _ensure_program() -> None:
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "votelab" / "__init__.py").is_file() or not (tests / "helpers.py").is_file():
        print(f"perfbench: no votelab sources under {ROOT}", file=sys.stderr)
        sys.exit(2)
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _fresh_import():
    """Import votelab (and the test helpers bound to it) from scratch."""
    for name in list(sys.modules):
        if name in ("votelab", "helpers") or name.startswith("votelab."):
            del sys.modules[name]
    votelab = importlib.import_module("votelab")
    importlib.import_module("votelab.cli")
    helpers = importlib.import_module("helpers")
    if Path(votelab.__file__).resolve().parent != (ROOT / "src" / "votelab").resolve():
        raise RuntimeError(f"imported votelab from {votelab.__file__}")
    return votelab, helpers


class _CalItem:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def _cal_step(i: int) -> int:
    """The interpreter work the workloads do: table arithmetic, string
    joining and splitting, a small object and a dict."""
    acc = CAL_TABLE[i & 1023] ^ i
    line = " ".join(CAL_WORDS[(i + k) & 63] for k in range(8))
    item = _CalItem(line.split()[i & 7], {"n": acc, "m": len(line)})
    return item.value["n"] + len(item.key)


def calibrate() -> int:
    """Time the calibration loop once, in ns.

    The loop touches none of the program's data and frees everything it
    makes, and the collector is off while it runs, so the program's state
    does not change its time; only the speed the host gives this thread does.
    """
    gc.disable()
    try:
        acc, started = 0, perf_counter_ns()
        for i in range(CAL_STEPS):
            acc = (acc + _cal_step(i)) & 0xFFFFF
        return perf_counter_ns() - started
    finally:
        gc.enable()


class Calibration:
    """The run's calibration samples, in ns, and when the next one is due."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.due = 0

    def sample(self) -> int:
        """Take one sample; returns the wall time it took, in ns."""
        started = perf_counter_ns()
        self.samples.append(calibrate())
        ended = perf_counter_ns()
        self.due = ended + CAL_EVERY_NS
        return ended - started


def setup(workload: str, seed: int, tiny: bool, calibration: Calibration):
    """Import plus input building, repeated; returns the last build and the median time."""
    build = WORKLOADS[workload][0]
    times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        votelab, helpers = _fresh_import()
        inputs = build(votelab, helpers, random.Random(seed), tiny)
        times.append(perf_counter() - started)
        for _ in range(3):
            calibration.sample()
    return votelab, helpers, inputs, statistics.median(times)


def run_pass(units, order, tracer, latencies, results, calibration=None) -> int:
    """Run every unit once in the given order; returns the wall time in ns.

    With a ``calibration``, a sample is taken before each unit that starts
    ``CAL_EVERY_NS`` or more after the last one; the time spent calibrating
    is left out of the wall time.
    """
    started = perf_counter_ns()
    paused = 0
    for ui in order:
        if calibration is not None and perf_counter_ns() >= calibration.due:
            paused += calibration.sample()
        for index, query in units[ui]:
            if tracer is not None:
                tracer.query = index
            t0 = perf_counter_ns()
            try:
                result, error = query.call(), None
            except Exception as exc:  # every exception is a failed query
                result, error = None, exc
            latencies.append(perf_counter_ns() - t0)
            results.append((index, result, error))
    return perf_counter_ns() - started - paused


def verify(queries, results, corrupt: int | None) -> tuple[int, list[str]]:
    failed = 0
    failing: dict[str, str] = {}
    for index, result, error in results:
        query = queries[index]
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        else:
            ok = query.check(result)
            if index == corrupt:
                ok = not ok
            if ok:
                continue
            reason = f"got {result!r}"[:200]
        failed += 1
        failing.setdefault(query.qid, reason)
    return failed, [f"FAIL {qid}: {reason}" for qid, reason in failing.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the harness smoke test")
    parser.add_argument("--corrupt-check", type=int, default=None, metavar="N",
                        help="invert the expected answer of query N (harness test)")
    args = parser.parse_args(argv)

    _ensure_program()
    calibration = Calibration()
    votelab, helpers, inputs, setup_s = setup(args.workload, args.seed, args.tiny, calibration)
    set_up = len(calibration.samples)
    started = perf_counter()
    units = WORKLOADS[args.workload][1](votelab, helpers, inputs)
    reference_s = perf_counter() - started
    queries = [query for unit in units for query in unit]
    indexed, n = [], 0
    for unit in units:
        indexed.append(tuple((n + k, q) for k, q in enumerate(unit)))
        n += len(unit)
    order = list(range(len(units)))
    random.Random(f"order-{args.seed}").shuffle(order)

    latencies: list[int] = []
    results: list = []
    lines = [f"workload {args.workload} seed {args.seed}: {len(queries)} queries "
             f"in {len(units)} units per pass; reference answers took {reference_s:.3f} s"]
    if args.trace == 0:
        # Whole passes only, so every run measures the seed's exact query mix;
        # stop before a pass would overrun the budget, so runs end on time.
        wall_ns, passes = 0, 0
        calibration.due = 0  # the loop's first sample comes before its first query
        while passes == 0 or wall_ns + wall_ns / passes <= args.seconds * 1e9:
            wall_ns += run_pass(indexed, order, None, latencies, results, calibration)
            passes += 1
        deciles = statistics.quantiles(latencies, n=10)
        qps = len(latencies) / (wall_ns / 1e9)
        p50_ms, p90_ms = statistics.median(latencies) / 1e6, deciles[8] / 1e6
        # Each figure is scaled by the samples taken while it was measured.
        setup_cal = statistics.fmean(calibration.samples[:set_up])
        loop_cal = statistics.fmean(calibration.samples[set_up:])
        speed = loop_cal / CAL_NOMINAL_NS  # > 1 on a slow host
        metrics = {
            "queries_per_s": (qps * speed, "1/s"),
            "query_p50_ms": (p50_ms / speed, "ms"),
            "query_p90_ms": (p90_ms / speed, "ms"),
            "setup_s": (setup_s / (setup_cal / CAL_NOMINAL_NS), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        beyond = sum(1 for x in latencies if x > deciles[8])
        lines.append(f"{passes} passes, {len(latencies)} query samples, "
                     f"{beyond} beyond p90, {wall_ns / 1e9:.3f} s timed")
        lines.append(f"unscaled wall clock: {qps:.6g} queries/s, p50 {p50_ms:.6g} ms, "
                     f"p90 {p90_ms:.6g} ms, setup {setup_s:.6g} s; "
                     f"calibration loop mean {loop_cal / 1e6:.6g} ms over "
                     f"{len(calibration.samples) - set_up} samples in the timed loop, "
                     f"{setup_cal / 1e6:.6g} ms over {set_up} in set-up "
                     f"(times scaled to {CAL_NOMINAL_NS / 1e6:g} ms)")
    else:
        from perfbench.tracing import Tracer

        plain_ns = run_pass(indexed, order, None, latencies, results)
        tracer = Tracer()
        tracer.install(votelab)
        try:
            traced_ns = run_pass(indexed, order, tracer, latencies, results)
        finally:
            tracer.uninstall()
        layers = tracer.summarize(traced_ns)
        layers["bench.trace_overhead"] = traced_ns / plain_ns
        covered = sum(v for k, v in layers.items() if k.endswith("self_ms"))
        covered += layers["bench.other_ms"]
        if abs(covered - traced_ns / 1e6) > 1e-6 * traced_ns / 1e6:
            raise RuntimeError(f"layer self times cover {covered} ms of {traced_ns / 1e6} ms")
        lines.append(f"coverage: layer self times + bench.other_ms = {covered:.3f} ms "
                     f"= traced wall time {traced_ns / 1e6:.3f} ms")
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
        path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        tracer.write(path)
        lines.append(f"{len(tracer.starts)} spans written to {path.relative_to(ROOT)}; "
                     f"untraced pass {plain_ns / 1e9:.3f} s, traced {traced_ns / 1e9:.3f} s")

    failed, failures = verify(queries, results, args.corrupt_check)
    attempted = len(results)
    for line in failures:
        print(line, file=sys.stderr)
    if args.trace == 0:
        metrics["failed_share"] = (failed / attempted, "ratio")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name != "failed_share"  # zero when correct; carried by failed/attempted
        },
    }
    print(json.dumps(report))
    return 0 if failed == 0 else 1


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

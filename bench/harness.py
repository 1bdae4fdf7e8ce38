"""Runs corpus jobs through veracity.cli.main and measures them.

One process, one client, no threads: a closed loop that starts the next
job when the previous one has returned. A job's time runs from the call
of main() to its return, so it covers argument parsing, reading the
script, the work and rendering the report. Reading the report back and
comparing it with the job's answer happen after the clock stops.

Times are reported in reference seconds. On small shared virtual
machines the speed of the interpreter swings by a quarter within seconds
and shifts by more over minutes, which no amount of repetition in a
one-minute run averages out. So a fixed calibration kernel, pure Python that never
touches the package, is timed before and after every job, and the job's
time is rescaled to a machine on which that kernel takes
REFERENCE_CALIBRATION_S. A change to the package cannot move the
kernel, so the rescaling hides machine drift, not program changes.
Raw seconds are printed alongside.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import math
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from corpus import SCALES, Job

# The 90th percentile needs at least ten samples beyond it.
MIN_SAMPLES = 100

# Spans kept in memory and written out by a traced run; later ones are
# only counted.
SPANS_KEPT = 100_000

# The calibration kernel's median time on the machine the baseline in
# NOTES.md was recorded on (two vCPUs, Intel Xeon at 2.1 GHz, Python 3.11.7).
REFERENCE_CALIBRATION_S = 0.0016


@dataclass
class Sample:
    job: Job
    seconds: float  # as measured
    scaled: float  # in reference seconds
    problem: Optional[str]  # None when the verdict and exit code are right


def _tree(depth: int) -> tuple:
    return (depth,) if depth == 0 else (_tree(depth - 1), depth, _tree(depth - 1))


def _size(tree: tuple) -> int:
    return 1 if len(tree) == 1 else _size(tree[0]) + 1 + _size(tree[2])


def calibrate() -> float:
    """Seconds taken by a fixed piece of the kind of work the checker does
    (small frozen values, dict and set traffic, exact fractions, recursion,
    string building) that does not use the package."""
    start = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(300):
        key = ("n", i % 37, i % 11)
        table[key] = frozenset({i % 5, i % 7, key})
        total += Fraction(i % 9 + 1, i % 13 + 2)
    _size(_tree(8))
    "".join(f"{k[1]}:{len(v)}" for k, v in table.items())
    return time.perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """seconds measured between two calibrations, in reference seconds."""
    return seconds * REFERENCE_CALIBRATION_S * 2 / (before + after)


def call(main: Callable, job: Job) -> tuple[float, object, str]:
    """Run one job; returns (seconds, exit code or exception, stdout)."""
    argv = list(job.argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code: object = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
            code = exc
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue()


def problem(job: Job, code: object, stdout: str, parse_structured: Callable) -> Optional[str]:
    """Why the job's output is wrong, or None when it is right."""
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}: {code}"
    try:
        sections = parse_structured(stdout).sections
    except ValueError as err:
        return f"unreadable report: {err}"
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    if len(sections) != len(job.sections):
        return f"{len(sections)} sections, expected {len(job.sections)}"
    for got, (name, fields) in zip(sections, job.sections):
        if got.name != name:
            return f"section [{got.name}], expected [{name}]"
        if [k for k, _ in got.fields] != [k for k, _ in fields]:
            return f"[{name}] has keys {[k for k, _ in got.fields]}"
        for (key, value), (_, want) in zip(got.fields, fields):
            if want is not None and value != want:
                return f"[{name}] {key}={value[:80]!r}, expected {want[:80]!r}"
    return None


def run_passes(
    main: Callable,
    parse_structured: Callable,
    jobs: list[Job],
    seconds: float,
    rng: random.Random,
    on_sample: Callable[[Sample], None] = lambda sample: None,
) -> list[Sample]:
    """Whole passes over the jobs in a seeded order until the time is up
    and there are enough samples for the 90th percentile. Whole passes
    keep the mix of shapes and sizes the same in every run."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
        order = jobs[:]
        rng.shuffle(order)
        gc.collect()
        before = calibrate()
        for job in order:
            elapsed, code, stdout = call(main, job)
            after = calibrate()
            why = problem(job, code, stdout, parse_structured)
            samples.append(Sample(job, elapsed, rescale(elapsed, before, after), why))
            on_sample(samples[-1])
            before = after
    return samples


def cells(jobs: list[Job]) -> list[Job]:
    """The middle-sized job of every (shape, rung) cell."""
    by_cell: dict[tuple[str, int], list[Job]] = defaultdict(list)
    for job in jobs:
        by_cell[(job.shape, job.rung)].append(job)
    return [cell[len(cell) // 2] for cell in by_cell.values()]


def warm_up(main: Callable, jobs: list[Job]) -> None:
    """One untimed pass over one job of every cell, which runs every code
    path the timed passes run."""
    for job in cells(jobs):
        call(main, job)


def peak_alloc_mb(main: Callable, jobs: list[Job]) -> float:
    """Largest tracemalloc peak of one job, over the middle-sized job of
    every shape and rung (peaks follow size more than content). An
    untimed pass of its own, since tracing allocations slows every call."""
    peak = 0
    tracemalloc.start()
    try:
        for job in cells(jobs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call(main, job)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


_SETUP = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from veracity.cli import main; raise SystemExit(main(sys.argv[2:]))"
)


def setup_s(src: Path, command: str, empty_script: Path, runs: int) -> float:
    """Median time for a fresh interpreter to import the package, run the
    subcommand on an empty script and exit."""
    times = []
    argv = [sys.executable, "-I", "-c", _SETUP, str(src), command, str(empty_script), "--format", "structured"]
    before = calibrate()
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=60)
        elapsed = time.perf_counter() - start
        after = calibrate()
        times.append(rescale(elapsed, before, after))
        before = after
    return statistics.median(times)


def ladder(samples: list[Sample], raw: bool = False) -> dict[tuple[str, int], float]:
    """Median seconds of each (shape, rung) cell, in reference seconds or,
    with raw, as measured."""
    cells: dict[tuple[str, int], list[float]] = defaultdict(list)
    for s in samples:
        cells[(s.job.shape, s.job.rung)].append(s.seconds if raw else s.scaled)
    return {cell: statistics.median(times) for cell, times in sorted(cells.items())}


def growth_exp(cells: dict[tuple[str, int], float]) -> float:
    """Least-squares slope of log time against log size over the rungs,
    where a rung's time is the geometric mean of its shapes' medians (so
    the slope is the mean of the shapes' slopes). Shapes present on one
    rung only carry no slope and are left out."""
    rungs: dict[str, set[int]] = defaultdict(set)
    for shape, rung in cells:
        rungs[shape].add(rung)
    by_rung: dict[int, list[float]] = defaultdict(list)
    for (shape, rung), seconds in cells.items():
        if len(rungs[shape]) > 1:
            by_rung[rung].append(math.log(seconds))
    xs = [math.log(SCALES[r]) for r in sorted(by_rung)]
    ys = [statistics.fmean(by_rung[r]) for r in sorted(by_rung)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def timing_metrics(samples: list[Sample], raw: bool = False) -> dict[str, float]:
    """Median, 90th percentile, throughput and growth exponent, in
    reference seconds or, with raw, as measured."""
    times = [s.seconds if raw else s.scaled for s in samples]
    return {
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p90": statistics.quantiles(times, n=10)[8],
        "verdicts_per_s": len(times) / math.fsum(times),
        "growth_exp": growth_exp(ladder(samples, raw)),
    }


# ---------------------------------------------------------------------------
# Tracing


@dataclass
class Tracer:
    """Spans around calls at the package's module boundaries.

    A span records its name, start, end, parent span and the job it
    belongs to. Self time is a span's duration minus its children's.
    The first SPANS_KEPT spans are kept in memory and written out at the end.
    Each job's self and inclusive times are added to the totals, in
    reference seconds, when end_job gives the job's rescaling factor.
    """

    spans: list[tuple] = field(default_factory=list)
    dropped: int = 0
    job: int = -1
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _job_self: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _job_total: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[list] = field(default_factory=list)
    _open: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _next: int = 0

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """fn inside a span; count(args, result) -> {counter: n} runs
        after the span and its time is charged to no layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                start = time.perf_counter()
                for counter, n in count(args, result).items():
                    self.counts[counter] += n
                if self._stack:
                    self._stack[-1][3] += time.perf_counter() - start
            return result

        return traced

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next, name, time.perf_counter(), 0.0, parent])
        self._open[name] += 1
        self._next += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, children, parent = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        self._job_self[name] += duration - children
        if not self._open[name]:  # outermost of a recursive nest
            self._job_total[name] += duration
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < SPANS_KEPT:
            self.spans.append((span_id, parent, name, start, end, self.job))
        else:
            self.dropped += 1


    def end_job(self, factor: float) -> None:
        for mine, totals in ((self._job_self, self.self_s), (self._job_total, self.total_s)):
            for name, seconds in mine.items():
                totals[name] += seconds * factor
            mine.clear()


def proof_nodes(tree) -> int:
    count, todo = 0, [tree]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(node.premises)
    return count


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the functions the CLI calls through, where their callers look
    them up; returns a function that puts the originals back."""
    import veracity.cli as cli
    import veracity.evaluator as evaluator
    import veracity.kernel as kernel
    import veracity.semantics as semantics
    import veracity.trust as trust

    sized = lambda counter: lambda args, result: {counter: len(result)}
    patches = [
        (cli, "parse_script", "parser.parse", None),
        (cli, "parse_term", "parser.parse", None),
        (cli, "render_claim", "parser.render", None),
        (cli, "render_judgement", "parser.render", None),
        (cli, "render_sequent", "parser.render", None),
        (cli, "render_term", "parser.render", None),
        (cli, "check_proof", "kernel.check", lambda args, result: {"kernel.nodes": proof_nodes(args[0])}),
        (semantics, "check_proof", "kernel.check", lambda args, result: {"kernel.nodes": proof_nodes(args[0])}),
        (kernel, "alpha_equal", "core.alpha_equal", None),
        (semantics, "alpha_equal", "core.alpha_equal", None),
        (evaluator, "substitute", "core.substitute", None),
        (evaluator, "substitute_many", "core.substitute", None),
        (semantics, "substitute_many", "core.substitute", None),
        (cli, "trace", "evaluator.trace", lambda args, result: {"evaluator.steps": len(result) - 1}),
        (semantics, "normalize", "evaluator.normalize", None),
        (cli, "model_from_script", "semantics.build_model", None),
        (semantics, "close_under_trust", "semantics.closure", sized("semantics.closure_size")),
        (semantics, "denote", "semantics.denote",
         lambda args, result: {"semantics.denote_calls": 1, "semantics.denote_size": len(result)}),
        (cli, "member", "semantics.member", None),
        (semantics, "member", "semantics.member", None),
        (cli, "soundness_check", "semantics.sound", None),
        (cli, "relation_properties", "trust.properties", None),
        (cli, "compare_relations", "trust.compare", None),
        (trust, "best_trust_path", "trust.best_path", lambda args, result: {"trust.best_path_calls": 1}),
        (cli, "to_structured", "report.to_structured", None),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    for module, attr, name, count in patches:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))

    def restore() -> None:
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    return restore


def layer_metrics(tracer: Tracer, jobs: int, tokens: int) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit): times are self seconds per job, counts are
    per job, rates divide a count by the layer's inclusive time."""
    s, t, c = tracer.self_s, tracer.total_s, tracer.counts

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds else 0.0

    per_job = lambda v: v / jobs
    return {
        "parser.parse_s": (per_job(s["parser.parse"]), "s"),
        "parser.tokens": (per_job(tokens), "count"),
        "parser.tokens_per_s": (rate(tokens, t["parser.parse"]), "1/s"),
        "parser.render_s": (per_job(s["parser.render"]), "s"),
        "kernel.check_s": (per_job(s["kernel.check"]), "s"),
        "kernel.nodes": (per_job(c["kernel.nodes"]), "count"),
        "kernel.nodes_per_s": (rate(c["kernel.nodes"], t["kernel.check"]), "1/s"),
        "core.alpha_equal_s": (per_job(s["core.alpha_equal"]), "s"),
        "core.substitute_s": (per_job(s["core.substitute"]), "s"),
        "evaluator.trace_s": (per_job(s["evaluator.trace"]), "s"),
        "evaluator.steps": (per_job(c["evaluator.steps"]), "count"),
        "evaluator.steps_per_s": (rate(c["evaluator.steps"], t["evaluator.trace"]), "1/s"),
        "evaluator.normalize_s": (per_job(s["evaluator.normalize"]), "s"),
        "semantics.build_model_s": (per_job(s["semantics.build_model"]), "s"),
        "semantics.closure_s": (per_job(s["semantics.closure"]), "s"),
        "semantics.closure_size": (per_job(c["semantics.closure_size"]), "count"),
        "semantics.denote_s": (per_job(s["semantics.denote"]), "s"),
        "semantics.denote_calls": (per_job(c["semantics.denote_calls"]), "count"),
        "semantics.denote_size": (per_job(c["semantics.denote_size"]), "count"),
        "semantics.member_s": (per_job(s["semantics.member"]), "s"),
        "semantics.sound_s": (per_job(s["semantics.sound"]), "s"),
        "trust.properties_s": (per_job(s["trust.properties"]), "s"),
        "trust.compare_s": (per_job(s["trust.compare"]), "s"),
        "trust.best_path_s": (per_job(s["trust.best_path"]), "s"),
        "trust.best_path_calls": (per_job(c["trust.best_path_calls"]), "count"),
        "report.to_structured_s": (per_job(s["report.to_structured"]), "s"),
        "report.parse_structured_s": (per_job(s["report.parse_structured"]), "s"),
        "cli.self_s": (per_job(s["cli"]), "s"),
    }

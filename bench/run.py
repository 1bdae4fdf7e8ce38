"""The veracity benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed, runs every job through
veracity.cli.main in this process and checks each verdict against the
answer the generator knows. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it reports per-layer metrics from a run with
spans around the package's module boundaries, plus the tracing overhead.
The last line of output is one JSON object; the lines before it are the
same figures for people, with the size ladder and any failing jobs.

It imports the package from src/ next to this directory and nowhere
else, and exits 2 without a result when that source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
from pathlib import Path
from typing import Optional

import corpus
import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11


def _args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """veracity.cli.main and parse_structured from this checkout's src/."""
    if not (SRC / "veracity" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'veracity'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import veracity.cli
    import veracity.report

    if Path(veracity.cli.__file__).resolve().parent != SRC / "veracity":
        print(f"bench: imported veracity from {veracity.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return veracity.cli, veracity.report.parse_structured


def _tokens(jobs: list[corpus.Job]) -> dict[str, int]:
    """Tokens each job hands the parser, counted outside any timing."""
    from veracity.parser import tokenize

    return {
        job.name: len(tokenize(job.script if job.script is not None else job.argv[2])) - 1
        for job in jobs
    }


def _result(samples: list[harness.Sample], metrics: dict[str, tuple[float, str]]) -> dict:
    failed = [s for s in samples if s.problem is not None]
    # Wrong verdicts on the listed known-defect jobs are counted as failed
    # but do not make the run incorrect; any other failure does.
    unexpected = [s for s in failed if s.job.name not in corpus.KNOWN_DEFECTS]
    return {
        "correct": not unexpected,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _report(samples: list[harness.Sample], metrics: dict[str, tuple[float, str]], cells) -> None:
    raw = harness.timing_metrics(samples, raw=True)
    print("as measured, before rescaling: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    failed = [s for s in samples if s.problem is not None]
    print(f"jobs attempted {len(samples)}, failed {len(failed)}")
    for name in sorted({s.job.name for s in failed}):
        why = next(s.problem for s in failed if s.job.name == name)
        known = " (known defect)" if name in corpus.KNOWN_DEFECTS else ""
        print(f"  failed {name}{known}: {why}")
    if cells:
        print("size ladder (median reference seconds per job):")
        shapes = sorted({shape for shape, _ in cells})
        for shape in shapes:
            row = "  ".join(f"x{corpus.SCALES[r]}={cells[(shape, r)]:.5f}" for s, r in cells if s == shape)
            print(f"  {shape:14} {row}")
    # failed_share is 0 on most workloads, so the result carries it as
    # failed and attempted rather than as a metric with a bound.
    for name, (value, unit) in [*metrics.items(), ("failed_share", (len(failed) / len(samples), "1"))]:
        print(f"{name:28} {value:.6g} {unit}")


def main(argv: list[str], rungs: int = len(corpus.SCALES), per_rung: Optional[int] = None) -> int:
    """rungs and per_rung shrink the corpus, for the benchmark's own tests."""
    args = _args(argv)
    cli, parse_structured = _import_package()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        jobs = corpus.build(args.workload, args.seed, workdir, rungs, per_rung)
        for job in jobs:
            if job.script is not None:
                Path(job.path).write_text(job.script, encoding="utf-8")
        rng = random.Random(args.seed)
        harness.warm_up(cli.main, jobs)
        if args.trace:
            return _traced(args, jobs, cli, parse_structured, rng)
        empty = workdir / "empty.vlp"
        empty.write_text("", encoding="utf-8")
        setup = harness.setup_s(SRC, jobs[0].argv[0], empty, SETUP_RUNS)
        peak = harness.peak_alloc_mb(cli.main, jobs)
        samples = harness.run_passes(cli.main, parse_structured, jobs, args.seconds, rng)
        timing = harness.timing_metrics(samples)
        metrics = {
            "verdict_s.p50": (timing["verdict_s.p50"], "s"),
            "verdict_s.p90": (timing["verdict_s.p90"], "s"),
            "verdicts_per_s": (timing["verdicts_per_s"], "1/s"),
            "peak_alloc_mb": (peak, "MiB"),
            "setup_s": (setup, "s"),
            "growth_exp": (timing["growth_exp"], "1"),
        }
        _report(samples, metrics, harness.ladder(samples))
        print(json.dumps(_result(samples, metrics)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(args, jobs, cli, parse_structured, rng) -> int:
    """Half the time untraced, half traced: per-layer figures come from
    the traced half, the overhead is the difference of the medians."""
    tokens = _tokens(jobs)
    plain = harness.run_passes(cli.main, parse_structured, jobs, args.seconds / 2, rng)
    tracer = harness.Tracer()
    restore = harness.instrument(tracer)
    traced_cli = tracer.wrap(cli.main, "cli")

    def traced_main(argv):
        tracer.job += 1
        return traced_cli(argv)

    try:
        traced = harness.run_passes(
            traced_main,
            tracer.wrap(parse_structured, "report.parse_structured"),
            jobs,
            args.seconds / 2,
            rng,
            lambda sample: tracer.end_job(sample.scaled / sample.seconds),
        )
    finally:
        restore()
    metrics = harness.layer_metrics(tracer, len(traced), sum(tokens[s.job.name] for s in traced))
    overhead = harness.timing_metrics(traced)["verdict_s.p50"] - harness.timing_metrics(plain)["verdict_s.p50"]
    metrics["tracing.overhead_s"] = (overhead, "s")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{args.workload}-{args.seed}.json"
    spans.write_text(json.dumps({
        "fields": ["id", "parent", "name", "start", "end", "job"],
        "dropped": tracer.dropped,
        "spans": tracer.spans,
    }), encoding="utf-8")
    print(f"spans written to {spans.relative_to(ROOT)} ({len(tracer.spans)} kept, {tracer.dropped} dropped)")
    _report(plain + traced, metrics, None)
    print(json.dumps(_result(plain + traced, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

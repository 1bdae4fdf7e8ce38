"""Single readings to compare with the figures quoted in ROADMAP.md.

    python3 bench/readings.py

Each reading is the median of a few in-process calls timed with
time.perf_counter, on inputs from the benchmark's own generators. These
are spot checks of where the cost curves stand, not benchmark metrics.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import corpus
import run


def _median_seconds(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    # The 1600-binder term nests deeper than the default limit, here and in
    # the package; veracity.cli.main raises the limit the same way.
    sys.setrecursionlimit(10000)
    cli, _ = run._import_package()
    from veracity.core import Atom
    from veracity.evaluator import normalize
    from veracity.parser import parse_claim, parse_term
    from veracity.semantics import WeightedWitness, build_model, denote

    def cli_job(answer: corpus.Answer, workdir: Path):
        if answer.expr is not None:
            argv = [answer.command, "-e", answer.expr, "--format", "structured"]
        else:
            path = workdir / f"job{len(list(workdir.iterdir()))}.vlp"
            path.write_text(answer.script, encoding="utf-8")
            argv = [answer.command, str(path), "--format", "structured"]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        return call

    def import_once():
        subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(run.SRC)!r}); import veracity.cli"],
                       check=True)

    def denote_arrow(m: int):
        model = build_model({
            "A": [WeightedWitness(Atom(f"a{i}"), "P", Fraction(1)) for i in range(m)],
            "B": [WeightedWitness(Atom(f"b{i}"), "P", Fraction(1)) for i in range(m)],
        })
        claim = parse_claim("A -> B")
        return lambda: denote(claim, model)

    def normalize_expr(answer: corpus.Answer):
        term = parse_term(answer.expr)
        return lambda: normalize(term)

    rng = random.Random(0)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        readings = [
            ("fresh interpreter importing veracity.cli", "0.23 s", import_once, 5),
            ("`trust` on a 200-actor chain", "0.41 s (0.28 s)", cli_job(corpus.chain_graph(rng, 8, False, ""), workdir), 3),
            ("`trust` on a 400-actor chain", "2.9 s", cli_job(corpus.chain_graph(rng, 16, False, ""), workdir), 1),
            ("denote(A -> B) with 6 by 6 witnesses", "1.08 s", denote_arrow(6), 3),
            ("`model` arrow query, 5 by 5", "0.29 s", cli_job(corpus.arrow_query(rng, 8, False, ""), workdir), 3),
            ("normalize: one step under 200 binders", "0.014 s", normalize_expr(corpus.deep_binders(rng, 2, False, "")), 5),
            ("normalize: one step under 1600 binders", "0.59 s", normalize_expr(corpus.deep_binders(rng, 16, False, "")), 3),
            ("normalize: 400 independent redexes", "0.135 s", normalize_expr(corpus.independent(rng, 8, False, "")), 3),
            ("`eval -e` on a 48-redex sequential chain", "-", cli_job(corpus.seq_chain(rng, 8, False, ""), workdir), 3),
        ]
        print(f"{'reading':44} {'ROADMAP':>16} {'here':>10}")
        for what, quoted, fn, repeat in readings:
            print(f"{what:44} {quoted:>16} {_median_seconds(fn, repeat):>9.3f}s", flush=True)


if __name__ == "__main__":
    main()

"""CLI tests: exit codes, golden text output, structured round-trips."""

import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import veracity
from veracity.cli import main
from veracity.core import Atom, Lambda, alpha_equal, as_weight, format_weight
from veracity.evaluator import normalize
from veracity.parser import parse_claim, parse_script, parse_term, render_term
from veracity.report import parse_structured, to_structured
from veracity.trust import chain_weight

from test_parser import NESTINGS

FIXTURES = veracity.fixtures_path()
PENELOPE = str(FIXTURES / "penelope.vlp")
CURRIED = str(FIXTURES / "curried.vlp")
TRUST_CHAIN = str(FIXTURES / "trust-chain.vlp")
STAR = str(FIXTURES / "star-vs-chain.vlp")
ATTEMPT = str(FIXTURES / "excluded-middle-attempt.vlp")


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("VERACITY_COLOR", "never")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv):
    """main(argv) in a fresh interpreter, its output decoded as written."""
    src = str(Path(veracity.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from veracity.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src, "VERACITY_COLOR": "never"},
    )
    # Decoded by hand: text mode would read a "\r" the program writes as "\n".
    return subprocess.CompletedProcess(
        done.args, done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")
    )


class TestCheck:
    def test_penelope_golden(self, capsys):
        code, out, err = run(capsys, "check", PENELOPE)
        assert code == 0
        assert err == ""
        assert out == (
            f"check {PENELOPE}\n"
            "  proof Combined: ok\n"
            "    l^P : C1, s^P : C2, c^P : C3 |- ((l,s),c)^P : C1 /\\ C2 /\\ C3\n"
        )

    def test_failing_fixture_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", ATTEMPT)
        assert code == 1
        assert "proof Attempt: failed" in out
        assert "tagMismatch at root" in out
        assert "(line 8, col 3)" in out

    def test_missing_file_exits_two(self, capsys):
        code, out, err = run(capsys, "check", "no-such-file.vlp")
        assert code == 2
        assert out == ""
        assert "no-such-file.vlp" in err

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.vlp"
        bad.write_text("claim A..\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert out == ""
        assert str(bad) in err and ":1:" in err

    def test_no_inputs_exits_two(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2
        assert "no input files" in err

    def test_multiple_files_in_argv_order(self, capsys):
        code, out, _ = run(capsys, "check", PENELOPE, CURRIED)
        assert code == 0
        assert out.index(f"check {PENELOPE}") < out.index(f"check {CURRIED}")

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "check", PENELOPE, TRUST_CHAIN)
        second = run(capsys, "check", PENELOPE, TRUST_CHAIN)
        assert first == second


class TestEval:
    def test_single_step(self, capsys):
        code, out, _ = run(capsys, "eval", "-e", "cases(i(a), x.x, y.y)")
        assert code == 0
        assert out == "a (1 step)\n"

    def test_zero_steps(self, capsys):
        code, out, _ = run(capsys, "eval", "-e", "a")
        assert code == 0
        assert out == "a (0 steps)\n"

    def test_curried_application(self, capsys):
        code, out, _ = run(capsys, "eval", "-e", "(\\z.\\y.\\x.((x,y),z)) c s l")
        assert code == 0
        assert out == "((l,s),c) (3 steps)\n"

    def test_binder_named_like_an_atom_in_its_scope_is_renamed(self, capsys):
        # The normal form is \\y.(atom y): printed as \\y.y it would read
        # back as the identity.
        text = "(\\x.\\y.x) y"
        assert run(capsys, "eval", "-e", text) == (0, "\\y'.y (1 step)\n", "")
        assert run(capsys, "eval", "--format", "structured", "-e", text) == (
            0, f"[eval 1]\ninput={text}\nnormal=\\y'.y\nsteps=1\n", ""
        )
        normal = Lambda("y", Atom("y"))
        assert alpha_equal(parse_term("\\y'.y"), normal)
        assert not alpha_equal(parse_term("\\y.y"), normal)

    def test_budget_exhaustion_exits_one(self, capsys):
        omega = "(\\x.x x) (\\x.x x)"
        code, out, _ = run(capsys, "eval", "--step-budget", "10", "-e", omega)
        assert code == 1
        assert "step budget 10 exhausted" in out

    def test_expression_parse_error_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "-e", "((a)")
        assert code == 2
        assert "-e:" in err

    def test_verbose_prints_the_trace(self, capsys):
        code, out, _ = run(capsys, "eval", "-v", "-e", "cases(i(a), x.x, y.y)")
        assert code == 0
        assert out == "  [0] cases(i(a), x.x, y.y)\n  [1] a\na (1 step)\n"

    @pytest.mark.parametrize("form", ["text", "structured"])
    def test_verbose_traces_only_what_normalizes_within_the_budget(self, capsys, monkeypatch, form):
        """eval -v and report -v build no trace of a term that exhausts the
        budget: it grows at every step, and eval -v printed the same report
        as eval."""
        import veracity.cli as cli

        traced, real = [], cli.trace
        monkeypatch.setattr(cli, "trace", lambda term, budget: traced.append(term) or real(term, budget))
        grows = ["--format", form, "--step-budget", "4000", "-e", "(\\x.x x x) (\\x.x x x)"]
        quiet = run(capsys, "eval", *grows)
        assert quiet[0] == 1 and "budget" in quiet[1]
        assert run(capsys, "eval", "-v", *grows) == quiet
        code, out, _ = run(capsys, "report", TRUST_CHAIN, "-v", *grows)
        assert code == 1 and "4000" in out
        assert traced == []
        for command in (["eval"], ["report", TRUST_CHAIN]):
            code, out, _ = run(capsys, *command, "-v", "--format", form, "-e", "(\\x.(x, x)) a")
            assert code == 0 and "(a,a)" in out
        assert len(traced) == 2

    def test_file_mode_normalizes_conclusions(self, capsys):
        code, out, _ = run(capsys, "eval", TRUST_CHAIN)
        assert code == 0
        assert out == f"eval {TRUST_CHAIN}\n  Chained: a (0 steps)\n"

    def test_requires_some_input(self, capsys):
        code, _, err = run(capsys, "eval")
        assert code == 2
        assert "give -e expressions or input files" in err


def _deep_binders(depth):
    """(\\x.\\y0...\\y{depth-1}.(x,y7)) a: one step under depth binders."""
    ys = [f"y{i}" for i in range(depth)]
    lams = "".join(f"\\{y}." for y in ys)
    return f"(\\x.{lams}(x,y7)) a", f"{lams}(a,y7)", 1


def _independent(count):
    """A balanced pair tree of count redexes (\\x.x) a_k: count steps."""

    def tree(items):
        if len(items) == 1:
            return items[0]
        mid = len(items) // 2
        return f"({tree(items[:mid])},{tree(items[mid:])})"

    atoms = [f"a{k}" for k in range(count)]
    return tree([f"(\\x.x) {a}" for a in atoms]), tree(atoms), count


LARGE_TERMS = {"deep-binders-2000": _deep_binders(2000), "independent-400": _independent(400)}


class TestLargeTerms:
    """Big eval -e inputs normalize to their known answers, with no
    RecursionError, both in process and from a fresh interpreter."""

    @pytest.mark.parametrize("name", sorted(LARGE_TERMS))
    def test_in_process(self, capsys, name):
        text, normal, steps = LARGE_TERMS[name]
        code, out, err = run(capsys, "eval", "-e", text, "--format", "structured")
        assert (code, err) == (0, "")
        fields = dict(parse_structured(out).sections[0].fields)
        assert fields == {"input": text, "normal": normal, "steps": str(steps)}

    @pytest.mark.parametrize("name", sorted(LARGE_TERMS))
    def test_in_a_subprocess(self, name):
        text, normal, steps = LARGE_TERMS[name]
        done = run_subprocess("eval", "-e", text)
        assert "RecursionError" not in done.stderr
        assert (done.returncode, done.stderr) == (0, "")
        noun = "step" if steps == 1 else "steps"
        assert done.stdout == f"{normal} ({steps} {noun})\n"


def _ring_script(n):
    """n actors, each trusting the next round a ring: n declarations and n
    trust edges, every one checked against the names declared before it."""
    actors = [f"a{k:05d}" for k in range(n)]
    edges = "".join(f"  {a} -> {b} @ 0.5.\n" for a, b in zip(actors, actors[1:] + actors[:1]))
    return f"actor {', '.join(actors)}.\n\ntrust T {{\n{edges}}}\n"


class TestLargeScripts:
    """A script's declarations parse in linear time, so 20,000 actors and
    20,000 trust edges check well inside the bound; with a scan per name
    they took close to a minute."""

    def test_in_process(self, capsys, tmp_path):
        script = tmp_path / "ring.vlp"
        script.write_text(_ring_script(20000), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "check", str(script))
        assert time.perf_counter() - start < 10
        assert (code, out, err) == (0, f"check {script}\n", "")

    def test_in_a_subprocess(self, tmp_path):
        script = tmp_path / "ring.vlp"
        script.write_text(_ring_script(20000), encoding="utf-8")
        start = time.perf_counter()
        done = run_subprocess("check", str(script))
        assert time.perf_counter() - start < 10
        assert (done.returncode, done.stdout, done.stderr) == (0, f"check {script}\n", "")


def _sound_script(n):
    """n one-line proofs, each with a sound check against one model."""
    proofs = "".join(f"proof X{k} {{ assume a : A }} sound X{k} in M.\n" for k in range(n))
    return "claim A. actor P.\nmodel M { A = { a. }. }\n" + proofs


class TestManySoundChecks:
    """model finds each sound check's proof by name in one probe, so 20,000
    proofs with a sound check each run well inside the bound; with a scan of
    the proofs per check they took over 12 s."""

    N = 20000
    OUT_TAIL = f"  sound X{N - 1} in M: sound\n"

    def test_in_process(self, capsys, tmp_path):
        script = tmp_path / "sounds.vlp"
        script.write_text(_sound_script(self.N), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "model", str(script))
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        assert out.count("\n") == self.N + 1 and out.endswith(self.OUT_TAIL)

    def test_in_a_subprocess(self, tmp_path):
        script = tmp_path / "sounds.vlp"
        script.write_text(_sound_script(self.N), encoding="utf-8")
        start = time.perf_counter()
        done = run_subprocess("model", str(script))
        assert time.perf_counter() - start < 5
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.count("\n") == self.N + 1 and done.stdout.endswith(self.OUT_TAIL)


def _chain_script(n):
    """n actors in a trust chain, every 50th edge at 0.5 and the rest at 1,
    holding 2n witnesses round the chain, with four queries."""
    actors = [f"a{k}" for k in range(n)]
    edges = "".join(
        f"  {a} -> {b} @ {'0.5' if k % 50 == 49 else '1.0'}.\n"
        for k, (a, b) in enumerate(zip(actors, actors[1:]))
    )
    held = "".join(f"    w{k}^{actors[k % n]}.\n" for k in range(2 * n))
    last = f"w{2 * n - 1}"
    return (
        f"claim A.\nactor {', '.join(actors)}.\ntrust T {{\n{edges}}}\n"
        f"model M uses T {{\n  A = {{\n{held}  }}.\n}}\n"
        f"query {last}^a0@0.0078125 : A in M.\nquery {last}^a0@0.5 : A in M.\n"
        f"query w0^a{n - 1}@0 : A in M.\nquery w{n}^a0 : A in M.\n"
    )


class TestTrustChainModel:
    """model reads each query actor's trust reach instead of closing the
    whole assignment, so a 400-actor chain holding 800 witnesses answers
    well inside the bound; closing every witness took 3.7 s."""

    OUT = (
        "  query w799^a0@0.0078125 : A in M: holds\n"
        "  query w799^a0@0.5 : A in M: does not hold\n"
        "  query w0^a399@0.0 : A in M: does not hold\n"
        "  query w400^a0 : A in M: holds\n"
    )

    def test_in_process(self, capsys, tmp_path):
        script = tmp_path / "chain.vlp"
        script.write_text(_chain_script(400), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "model", str(script))
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (1, f"model {script}\n" + self.OUT, "")

    def test_in_a_subprocess(self, tmp_path):
        script = tmp_path / "chain.vlp"
        script.write_text(_chain_script(400), encoding="utf-8")
        start = time.perf_counter()
        done = run_subprocess("model", str(script))
        assert time.perf_counter() - start < 2
        assert (done.returncode, done.stdout, done.stderr) == (1, f"model {script}\n" + self.OUT, "")


class TestNoCycles:
    """A call leaves no reference cycles behind: the argument parser's are
    freed before the scripts are read, so nothing a call allocated waits
    for the cycle collector to run at some later point."""

    @pytest.mark.parametrize("command", ["check", "model", "trust", "report"])
    def test_a_call_leaves_no_garbage_cycles(self, capsys, command):
        gc.collect()
        code, out, _ = run(capsys, command, TRUST_CHAIN, "--format", "structured")
        assert (code, gc.collect()) == (0, 0)
        assert out

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_is_left_as_found(self, capsys, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            run(capsys, "check", TRUST_CHAIN)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestModel:
    def test_chain_query_and_soundness(self, capsys):
        code, out, _ = run(capsys, "model", TRUST_CHAIN)
        assert code == 0
        assert out == (
            f"model {TRUST_CHAIN}\n"
            "  query a^k@0.2 : A in Chain: holds\n"
            "  sound Chained in Chain: sound\n"
        )

    def test_failed_query_exits_one(self, capsys, tmp_path):
        script = tmp_path / "q.vlp"
        script.write_text(
            "claim A. actor k.\n"
            "model M { A = { a^k@0.5. }. }\n"
            "query a^k@0.9 : A in M.\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "model", str(script))
        assert code == 1
        assert "does not hold" in out

    def test_query_against_falsity_fails(self, capsys, tmp_path):
        script = tmp_path / "bot.vlp"
        script.write_text(
            "claim A. actor k.\n"
            "model M { A = { a^k@1.0. }. }\n"
            "query a^k@0.0 : _|_ in M.\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "model", str(script))
        assert code == 1
        assert "does not hold" in out


APPLIED_ID = (
    "claim A. actor P.\n"
    "proof E { impElim(impIntro(x, assume x : A), assume a : A) }\n"
    "model M { A = { a. }. }\n"
    "sound E in M.\n"
)

# The conclusion \y.\z.\w.\x.x : A -> A -> A -> A -> A nests four arrows.
FOUR_ARROWS = (
    "claim A. actor P.\n"
    "proof D { impIntro(y, impIntro(z, impIntro(w, impIntro(x,\n"
    "  assume x : A under (y : A, z : A, w : A))))) }\n"
    "model M { A = { a. }. }\n"
    "sound D in M.\n"
)


def _arrow_script(m):
    """An m-by-m arrow query no reading of arrow membership admits."""
    domain = " ".join(f"x{i}." for i in range(m))
    codomain = " ".join(f"y{i}." for i in range(m))
    return (
        "claim A, B. actor P.\n"
        f"model M {{ A = {{ {domain} }}. B = {{ {codomain} }}. }}\n"
        "query \\x.nowhere^P : A -> B in M.\n"
    )


class TestModelLimits:
    """Soundness checks that run out of steps or arrow depth report it and
    exit 1, in process and from a fresh interpreter; arrow queries answer
    without listing the arrow's tables."""

    @pytest.mark.parametrize("command", ["model", "report"])
    def test_sound_budget_exhausted(self, capsys, tmp_path, command):
        script = tmp_path / "e.vlp"
        script.write_text(APPLIED_ID, encoding="utf-8")
        code, out, err = run(capsys, command, str(script), "--step-budget", "0")
        assert (code, err) == (1, "")
        assert "  sound E in M: step budget 0 exhausted\n" in out
        code, out, _ = run(capsys, command, str(script), "--step-budget", "0", "--format", "structured")
        assert code == 1
        section = parse_structured(out).sections[-1]
        assert section.name == f"model {script} sound E"
        assert section.fields == (("model", "M"), ("status", "budget-exhausted"), ("budget", "0"))

    def test_sound_budget_exhausted_in_a_subprocess(self, tmp_path):
        script = tmp_path / "e.vlp"
        script.write_text(APPLIED_ID, encoding="utf-8")
        done = run_subprocess("model", str(script), "--step-budget", "0")
        assert (done.returncode, done.stderr) == (1, "")
        assert done.stdout == f"model {script}\n  sound E in M: step budget 0 exhausted\n"
        done = run_subprocess("model", str(script), "--step-budget", "1")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("  sound E in M: sound\n")

    def test_sound_depth_exceeded(self, capsys, tmp_path):
        script = tmp_path / "d.vlp"
        script.write_text(FOUR_ARROWS, encoding="utf-8")
        code, out, err = run(capsys, "model", str(script))
        assert (code, err) == (1, "")
        assert out == f"model {script}\n  sound D in M: arrow nesting exceeds the depth bound of 3\n"
        code, out, _ = run(capsys, "model", str(script), "--format", "structured")
        assert code == 1
        fields = parse_structured(out).sections[0].fields
        assert fields == (("model", "M"), ("status", "depth-exceeded"))

    def test_query_depth_exceeded_names_the_bound(self, capsys, tmp_path):
        script = tmp_path / "q.vlp"
        script.write_text(
            "claim A. actor P.\n"
            "model M { A = { a. }. }\n"
            "query \\x.x^P : A -> A -> A -> A -> A in M.\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "model", str(script))
        assert code == 1
        assert out.endswith(": arrow nesting exceeds the depth bound of 3\n")

    def test_eight_by_eight_arrow_query(self, capsys, tmp_path):
        script = tmp_path / "arrow.vlp"
        script.write_text(_arrow_script(8), encoding="utf-8")
        start = time.perf_counter()
        code, out, _ = run(capsys, "model", str(script))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out.endswith("  query \\x.nowhere^P : A -> B in M: does not hold\n")

    def test_eight_by_eight_arrow_query_in_a_subprocess(self, tmp_path):
        script = tmp_path / "arrow.vlp"
        script.write_text(_arrow_script(8), encoding="utf-8")
        start = time.perf_counter()
        done = run_subprocess("model", str(script))
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stderr) == (1, "")
        assert done.stdout.endswith("  query \\x.nowhere^P : A -> B in M: does not hold\n")


# One proof per outcome: a bare hypothesis, a proof that does not check, a
# claimhood proof with no witness, and a witness with one redex; N lacks h.
OUTCOMES = (
    "claim A, B. actor P, Q. trust T { P -> Q @ 0.5. }\n"
    "proof Hyp { assume h^P : A }\n"
    "proof Bad { andIntro(assume x^P : A, assume y^Q : B) }\n"
    "proof Cl { claim(assume x^P : A) }\n"
    "proof Red { impElim(impIntro(x, assume x^P : A), assume y^P : A) }\n"
    "model N { A = { a^P. }. }\n"
    "query z^P : A in N.\n"
    "sound Hyp in N.\n"
    "sound Bad in N.\n"
)

BAD_DETAIL = "actorMismatch at root: premises name different actors: P, Q"


class TestOutcomes:
    """The exact text line and structured fields of each outcome that the
    golden fixtures do not reach."""

    @pytest.fixture
    def script(self, tmp_path):
        path = tmp_path / "o.vlp"
        path.write_text(OUTCOMES, encoding="utf-8")
        return str(path)

    def sections(self, capsys, *argv):
        code, out, err = run(capsys, *argv, "--format", "structured")
        assert err == ""
        return code, {s.name: s.fields for s in parse_structured(out).sections}

    def test_model_soundness_failures(self, capsys, script):
        code, out, err = run(capsys, "model", script)
        assert (code, err) == (1, "")
        assert out == (
            f"model {script}\n"
            "  query z^P : A in N: does not hold\n"
            "  sound Hyp in N: precondition failed: "
            "hypothesis h : A does not hold in the model\n"
            f"  sound Bad in N: proof does not check: {BAD_DETAIL}\n"
        )
        code, sections = self.sections(capsys, "model", script)
        assert code == 1
        assert sections == {
            f"model {script} query 1": (
                ("judgement", "z^P : A"),
                ("model", "N"),
                ("holds", "false"),
            ),
            f"model {script} sound Hyp": (
                ("model", "N"),
                ("status", "precondition-failed"),
                ("detail", "hypothesis h : A does not hold in the model"),
            ),
            f"model {script} sound Bad": (("model", "N"), ("status", "not-checked")),
        }

    def test_eval_script_outcomes(self, capsys, script):
        code, out, err = run(capsys, "eval", script)
        assert (code, err) == (1, "")
        assert out == (
            f"eval {script}\n"
            "  Hyp: h (0 steps)\n"
            f"  Bad: not checked ({BAD_DETAIL})\n"
            "  Cl: no witness to evaluate\n"
            "  Red: y (1 step)\n"
        )
        code, sections = self.sections(capsys, "eval", script)
        assert code == 1
        assert sections == {
            f"eval {script} Hyp": (("witness", "h"), ("normal", "h"), ("steps", "0")),
            f"eval {script} Bad": (("status", "not-checked"),),
            f"eval {script} Cl": (("status", "no-witness"),),
            f"eval {script} Red": (("witness", "(\\x.x) y"), ("normal", "y"), ("steps", "1")),
        }

    def test_eval_script_witness_over_budget(self, capsys, script):
        code, out, _ = run(capsys, "eval", "--step-budget", "0", script)
        assert code == 1
        assert out.endswith("  Cl: no witness to evaluate\n  Red: step budget 0 exhausted\n")
        code, sections = self.sections(capsys, "eval", "--step-budget", "0", script)
        assert code == 1
        assert sections[f"eval {script} Red"] == (("status", "budget-exhausted"), ("budget", "0"))
        assert sections[f"eval {script} Hyp"] == (("witness", "h"), ("normal", "h"), ("steps", "0"))

    def test_check_verbose_prints_the_stated_sequent(self, capsys):
        code, out, _ = run(capsys, "check", "-v", PENELOPE)
        assert code == 0
        sequent = "l^P : C1, s^P : C2, c^P : C3 |- ((l,s),c)^P : C1 /\\ C2 /\\ C3"
        assert out == (
            f"check {PENELOPE}\n"
            "  proof Combined: ok\n"
            f"    {sequent}\n"
            f"    stated: {sequent}\n"
        )
        _, sections = self.sections(capsys, "check", PENELOPE)
        assert sections == {f"check {PENELOPE} Combined": (("status", "ok"), ("sequent", sequent))}

    def test_trust_section_fields(self, capsys, script):
        code, sections = self.sections(capsys, "trust", script)
        assert code == 0
        assert sections == {
            f"trust {script} relation T": (
                ("edges", "1"),
                ("reflexive-complete", "true"),
                ("symmetric-pairs", ""),
                ("decay-path", "P -> Q"),
                ("decay-weight", "0.5"),
            )
        }

    def test_always_paints_failures_red(self, capsys, monkeypatch, script, tmp_path):
        monkeypatch.setenv("VERACITY_COLOR", "always")
        red = "\x1b[31m{}\x1b[0m".format
        code, out, _ = run(capsys, "report", script)
        assert code == 1
        assert f"  proof Bad: {red('failed')}\n" in out
        assert f"  proof Hyp: \x1b[32mok\x1b[0m\n" in out
        assert f"  query z^P : A in N: {red('does not hold')}\n" in out
        assert (
            f"  sound Hyp in N: {red('precondition failed')}: "
            "hypothesis h : A does not hold in the model\n"
        ) in out
        assert f"  sound Bad in N: {red('proof does not check')}: {BAD_DETAIL}\n" in out
        applied = tmp_path / "e.vlp"
        applied.write_text(APPLIED_ID, encoding="utf-8")
        _, out, _ = run(capsys, "model", "--step-budget", "0", str(applied))
        assert out.endswith(f"  sound E in M: {red('step budget 0 exhausted')}\n")
        _, out, _ = run(capsys, "model", str(applied))
        assert out.endswith("  sound E in M: \x1b[32msound\x1b[0m\n")
        deep = tmp_path / "d.vlp"
        deep.write_text(FOUR_ARROWS, encoding="utf-8")
        _, out, _ = run(capsys, "model", str(deep))
        assert out.endswith(f"  sound D in M: {red('arrow nesting exceeds the depth bound of 3')}\n")


class TestTrust:
    def test_star_vs_chain_golden(self, capsys):
        code, out, _ = run(capsys, "trust", STAR)
        assert code == 0
        assert out == (
            f"trust {STAR}\n"
            "  relation S: 4 edges\n"
            "    reflexive: complete (implicit self-trust)\n"
            "    symmetric pairs: none\n"
            "    decay: p -> q -> r -> s -> t @ 0.4096\n"
            "  relation R: 5 edges\n"
            "    reflexive: complete (implicit self-trust)\n"
            "    symmetric pairs: none\n"
            "    decay: l -> t @ 0.5\n"
            "  relation R2: 5 edges\n"
            "    reflexive: complete (implicit self-trust)\n"
            "    symmetric pairs: none\n"
            "    decay: l -> t @ 0.4\n"
            "  compare chain S star R from p to t:\n"
            "    chain = 0.4096\n"
            "    star = 0.5\n"
            "    verdict: star at least chain\n"
            "  compare chain S star R2 from p to t:\n"
            "    chain = 0.4096\n"
            "    star = 0.4\n"
            "    verdict: chain beats star\n"
        )

    def test_single_edge_best_trust_is_the_edge_weight(self, capsys, tmp_path):
        script = tmp_path / "one.vlp"
        script.write_text(
            "actor a, b.\n"
            "trust T { a -> b @ 0.7. }\n"
            "compare chain T star T from a to b.\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "trust", str(script))
        assert code == 0
        assert "chain = 0.7" in out
        assert "star = 0.7" in out

    def test_unicode_digit_weight_renders_in_ascii(self, capsys, tmp_path):
        # "٠.٥" is Arabic-Indic digits for 0.5: a number like any other.
        script = tmp_path / "digits.vlp"
        script.write_text("actor a, b.\ntrust T { a -> b @ ٠.٥. }\n", encoding="utf-8")
        code, out, _ = run(capsys, "trust", str(script))
        assert code == 0
        assert "    decay: a -> b @ 0.5\n" in out

    def test_unreachable_comparison(self, capsys, tmp_path):
        script = tmp_path / "un.vlp"
        script.write_text(
            "actor a, b, c.\n"
            "trust T { a -> b @ 0.7. }\n"
            "compare chain T star T from a to c.\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "trust", str(script))
        assert code == 0
        assert "verdict: unreachable" in out


class TestStructured:
    def structured(self, capsys, command, *paths):
        """The structured report of one run, checked to read back as written."""
        _, out, _ = run(capsys, command, "--format", "structured", *paths)
        report = parse_structured(out)
        assert to_structured(report) == out
        return report

    def test_check_report_round_trips(self, capsys):
        self.structured(capsys, "check", PENELOPE, ATTEMPT)

    def test_model_report_round_trips(self, capsys):
        self.structured(capsys, "model", TRUST_CHAIN)

    def test_trust_report_round_trips(self, capsys):
        self.structured(capsys, "trust", STAR)

    def test_structured_stdout_parses(self, capsys):
        code, out, _ = run(capsys, "report", "--format", "structured", TRUST_CHAIN)
        assert code == 0
        report = parse_structured(out)
        names = [section.name for section in report.sections]
        assert names == [
            f"check {TRUST_CHAIN} Chained",
            f"model {TRUST_CHAIN} query 1",
            f"model {TRUST_CHAIN} sound Chained",
            f"trust {TRUST_CHAIN} relation T",
        ]

    def test_failed_check_section_carries_the_error(self, capsys):
        (section,) = self.structured(capsys, "check", ATTEMPT).sections
        fields = dict(section.fields)
        assert fields["status"] == "failed"
        assert fields["error-kind"] == "tagMismatch"
        assert fields["error-path"] == "root"


class TestUnusableInput:
    """Input the CLI cannot use exits 2 with one line on stderr, never a
    traceback: structured output that would hold a line break, and a
    script that is not UTF-8."""

    def both(self, capsys, *argv):
        """(exit code, stdout, stderr) in process, after checking that a
        fresh interpreter gives the same."""
        in_process = run(capsys, *argv)
        done = run_subprocess(*argv)
        assert (done.returncode, done.stdout, done.stderr) == in_process
        return in_process

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    def test_expression_with_a_line_break(self, capsys, brk):
        text = f"a{brk}b"
        assert self.both(capsys, "eval", "-e", text, "--format", "structured") == (
            2,
            "",
            f"veracity eval: field value must not contain line breaks: {text!r}\n",
        )
        assert self.both(capsys, "eval", "-e", text) == (0, "a b (0 steps)\n", "")

    def test_path_with_a_line_break(self, capsys, tmp_path):
        script = tmp_path / "pene\nlope.vlp"
        script.write_text(Path(PENELOPE).read_text(encoding="utf-8"), encoding="utf-8")
        section = f"check {script} Combined"
        assert self.both(capsys, "check", str(script), "--format", "structured") == (
            2,
            "",
            f"veracity check: section name must not contain line breaks: {section!r}\n",
        )
        code, out, err = self.both(capsys, "check", str(script))
        assert (code, out.splitlines()[:2], err) == (0, [f"check {tmp_path}/pene", "lope.vlp"], "")

    def test_provenance_with_a_unicode_line_separator_reads_back(self, capsys, tmp_path):
        script = tmp_path / "ls.vlp"
        script.write_text(
            'claim A. actor P.\nmodel M { A = { a{who="x\u2028y"}. }. }\n'
            'query a{who="x\u2028y"} : A in M.\n',
            encoding="utf-8",
        )
        code, out, err = self.both(capsys, "model", str(script), "--format", "structured")
        assert (code, err) == (0, "")
        (section,) = parse_structured(out).sections
        assert dict(section.fields)["judgement"] == 'a{who="x\u2028y"}^P : A'

    @pytest.mark.parametrize("command", ["check", "eval", "model", "trust", "report"])
    def test_script_that_is_not_utf8(self, capsys, tmp_path, command):
        script = tmp_path / "latin.vlp"
        script.write_bytes(b"claim A\xff.\n")
        assert self.both(capsys, command, str(script)) == (
            2,
            "",
            f"{script}: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n",
        )


class TestLineEndings:
    """Scripts are read as written: only "\\n" ends a line, so the CLI
    parses a file as parse_script parses its text, and a CRLF script gives
    the same output as its LF twin."""

    def both(self, capsys, *argv):
        in_process = run(capsys, *argv)
        done = run_subprocess(*argv)
        assert (done.returncode, done.stdout, done.stderr) == in_process
        return in_process

    def test_a_lone_carriage_return_is_a_blank(self, capsys, tmp_path):
        script = tmp_path / "cr.vlp"
        script.write_bytes(
            b'claim A. actor P.\nmodel M { A = { a{who="x\ry"}. }. }\nquery a{who="x\ry"} : A in M.\n'
        )
        with open(script, encoding="utf-8", newline="") as file:
            assert len(parse_script(file.read()).queries) == 1
        assert self.both(capsys, "model", str(script)) == (
            0,
            f'model {script}\n  query a{{who="x\ry"}}^P : A in M: holds\n',
            "",
        )

    @pytest.mark.parametrize("fixture", sorted(path.name for path in FIXTURES.glob("*.vlp")))
    def test_crlf_scripts_give_the_lf_output(self, capsys, monkeypatch, tmp_path, fixture):
        text = (FIXTURES / fixture).read_text(encoding="utf-8")
        for folder, ending in (("lf", "\n"), ("crlf", "\r\n")):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / fixture).write_bytes(text.replace("\n", ending).encode("utf-8"))
        for command in ("check", "eval", "model", "trust", "report"):
            for form in ("text", "structured"):
                outputs = []
                for folder in ("lf", "crlf"):
                    monkeypatch.chdir(tmp_path / folder)
                    outputs.append(run(capsys, command, fixture, "--format", form))
                assert outputs[0] == outputs[1]
        self.both(capsys, "report", str(tmp_path / "crlf" / fixture))


class TestRecursionLimit:
    """main raises the recursion limit while it runs and gives the caller
    its own limit back, however it ends."""

    @pytest.mark.parametrize(
        "argv, code",
        [(["check", PENELOPE], 0), (["check", ATTEMPT], 1), (["check", "no-such.vlp"], 2)],
    )
    def test_limit_is_restored(self, capsys, argv, code):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1234)
        try:
            assert main(argv) == code
            assert sys.getrecursionlimit() == 1234
        finally:
            sys.setrecursionlimit(saved)

    def test_limit_is_restored_after_a_usage_error(self, capsys):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1234)
        try:
            with pytest.raises(SystemExit):
                main(["frobnicate"])
            assert sys.getrecursionlimit() == 1234
        finally:
            sys.setrecursionlimit(saved)

    def test_a_higher_caller_limit_is_kept(self, capsys):
        # 6,000 nested tags parse at limit 30,000 but not at 10,000, so the
        # CLI must not lower the caller's limit while it runs.
        text = "i(" * 6000 + "a" + ")" * 6000
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(30000)
        try:
            normal = normalize(parse_term(text))
            code, out, err = run(capsys, "eval", "-e", text)
            assert (code, out, err) == (0, f"{render_term(normal)} (0 steps)\n", "")
            assert sys.getrecursionlimit() == 30000
        finally:
            sys.setrecursionlimit(saved)


# Run in a fresh interpreter by TestDeepInput: main(argv) for each argv
# read from stdin, printing per run one JSON line of its exit code and its
# stderr, or of None and the traceback of an exception main let through.
_DEEP_DRIVER = """
import contextlib, io, json, sys, traceback
from veracity.cli import main
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    print(json.dumps([code, err.getvalue(), out.getvalue()]))
"""


def _drive(runs, timeout=600):
    """main(argv) for each argv of runs, in one fresh interpreter: a list
    of [exit code, stderr, stdout]."""
    src = str(Path(veracity.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_DRIVER],
        input=json.dumps(runs), capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src, "VERACITY_COLOR": "never"},
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(results) == len(runs)
    return results


def _claim_script(claim):
    """A claim assumed, stated, queried and checked for soundness."""
    stated = f"x^P : {claim} |- x^P : {claim}"
    return (
        f"claim A. actor P.\nproof D {{ assume x : {claim} stating ({stated}) }}\n"
        f"model M {{ A = {{ a. }}. }}\nquery a : {claim} in M.\nsound D in M.\n"
    ), []


def _term_script(term):
    """A term as a stated witness, a model entry, a query witness and an
    -e expression."""
    return (
        f"claim A. actor P.\nproof D {{ assume x : A stating (x^P : A |- {term} : A) }}\n"
        f"model M {{ A = {{ {term}. }}. }}\nquery {term} : A in M.\n"
    ), [term]


class TestDeepInput:
    """Every nesting construct of the parser tests, at depths around where
    the parser and the stages after it run out of stack at the limit the
    CLI sets, through check, model, report and eval in a fresh interpreter:
    each run exits 0, 1 or 2, and none prints a traceback."""

    DEPTHS = (1990, 2000, 3320, 3330, 4900, 5000, 9980, 10000, 20000)

    @pytest.mark.parametrize("name", sorted(NESTINGS))
    def test_every_subcommand(self, tmp_path, name):
        parse, build = NESTINGS[name]
        embed = {parse_claim: _claim_script, parse_term: _term_script}.get(parse, lambda s: (s, []))
        runs = []
        for depth in self.DEPTHS:
            text, exprs = embed(build(depth))
            script = tmp_path / f"{depth}.vlp"
            script.write_text(text, encoding="utf-8")
            for command in ("check", "model", "report", "eval"):
                argv = [command, str(script)]
                if command in ("report", "eval"):
                    argv += [arg for expr in exprs for arg in ("-e", expr)]
                runs.append(argv)
        for argv, (code, err, _) in zip(runs, _drive(runs)):
            where = (argv[0], Path(argv[1]).stem)
            assert code in (0, 1, 2), (where, err[-2000:])
            assert "Traceback" not in err, (where, err[-2000:])
            if code == 2:
                assert err.endswith("nesting too deep\n"), (where, err)


class TestDeepProof:
    """A 5,000-step trust chain with a model and a sound declaration, in a
    fresh interpreter: replay keeps its own stack, so check and model both
    succeed instead of stopping at "nesting too deep"."""

    def test_check_and_model(self, tmp_path):
        n = 5000
        proof = "trust(T, P -> P, " * n + "assume x^P : A" + ")" * n
        script = tmp_path / "deep-trust.vlp"
        script.write_text(
            f"claim A. actor P.\ntrust T {{ P -> P. }}\nproof D {{ {proof} }}\n"
            "model M uses T { A = { x^P. }. }\nsound D in M.\n",
            encoding="utf-8",
        )
        checked, modelled = _drive([["check", str(script)], ["model", str(script)]], timeout=120)
        assert checked == [0, "", f"check {script}\n  proof D: ok\n    x^P : A |- x^P : A\n"]
        assert modelled == [0, "", f"model {script}\n  sound D in M: sound\n"]


class TestLongWeights:
    """Weights of more digits than the interpreter turns into text at once
    (4,300 by default) render in full and read back, in a fresh
    interpreter whose limit nothing has changed."""

    def test_a_long_trust_proof_checks(self, tmp_path):
        n = 5000
        proof = "trust(T, P -> P, " * n + "assume x^P : A" + ")" * n
        script = tmp_path / "long-check.vlp"
        script.write_text(
            f"claim A. actor P.\ntrust T {{ P -> P @ 0.9. }}\nproof D {{ {proof} }}\n",
            encoding="utf-8",
        )
        done = run_subprocess("check", str(script))
        assert (done.returncode, done.stderr) == (0, "")
        head, judged = done.stdout.splitlines()[1:]
        assert head == "  proof D: ok"
        prefix = "    x^P : A |- x^P@"
        assert judged.startswith(prefix) and judged.endswith(" : A")
        assert as_weight(judged[len(prefix):-len(" : A")]) == Fraction(9, 10) ** n

    def test_a_long_chain_decays(self, tmp_path):
        n = 12000
        actors = [f"a{i}" for i in range(n + 1)]
        weights = [Fraction(i % 5 + 5, 10) for i in range(n)]
        edges = "".join(
            f"  {a} -> {b} @ {format_weight(w)}.\n" for a, b, w in zip(actors, actors[1:], weights)
        )
        script = tmp_path / "long-trust.vlp"
        script.write_text(f"actor {', '.join(actors)}.\ntrust T {{\n{edges}}}\n", encoding="utf-8")
        done = run_subprocess("trust", "--format", "structured", str(script))
        assert (done.returncode, done.stderr) == (0, "")
        fields = dict(
            line.split("=", 1) for line in done.stdout.splitlines() if line.startswith("decay-")
        )
        assert fields["decay-path"] == " -> ".join(actors)
        assert as_weight(fields["decay-weight"]) == chain_weight(weights)


    def test_a_long_zero_denominator_is_named(self, tmp_path):
        # As "1/0" is: the message names the zero denominator, not the
        # interpreter's limit on int/str conversions.
        script = tmp_path / "long-zero.vlp"
        script.write_text(f"actor P, Q.\ntrust T {{ P -> Q @ {'1' * 5000}/0. }}\n", encoding="utf-8")
        done = run_subprocess("trust", str(script))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"{script}:2:20: bad weight '{'1' * 5000}/0': Fraction({'1' * 5000}, 0)\n"


class TestDeepEval:
    """eval -e on binders, pairs and tags nested up to the depth the parser
    reaches at the CLI's recursion limit of 10,000 (4,993, 4,995 and 4,993
    levels on CPython 3.11): normalizing and rendering such a term must not
    run out of stack before the parser does."""

    PARSER_DEPTHS = {"term-lambdas": 4993, "term-pairs": 4995, "term-tags": 4993}
    # What main spends on its own frames before it starts parsing.
    MAIN_FRAMES = 8

    def test_eval_trips_no_sooner_than_the_parser(self):
        runs = []
        for name, depth in sorted(self.PARSER_DEPTHS.items()):
            build = NESTINGS[name][1]
            for d in (depth - self.MAIN_FRAMES, depth - 4, depth, depth + 4, 2 * depth):
                runs.append((name, d, build(d)))
        results = _drive([["eval", "-e", text] for _, _, text in runs])
        for (name, depth, text), (code, err, _) in zip(runs, results):
            if depth <= self.PARSER_DEPTHS[name] - self.MAIN_FRAMES:
                assert (code, err) == (0, ""), (name, depth, err[-2000:])
            else:
                # Either it normalizes, or the parser stops it at a located
                # position; an unlocated "-e: nesting too deep" would mean
                # a later stage ran out first.
                assert code in (0, 2), (name, depth, err[-2000:])
                if code == 2:
                    assert err.startswith("-e:1:"), (name, depth, err)
                    assert err.endswith(": nesting too deep\n"), (name, depth, err)

    def test_redexes_in_and_under_deep_nests(self):
        """One step whose substitution passes a 4,900-deep nest of pairs or
        of tags, and one under 4,900 binders."""
        d = 4900
        pairs, tags = "(" * d + "x" + ",a)" * d, "i(" * d + "x" + ")" * d
        binders = "".join(f"\\y{k}." for k in range(d))
        cases = [
            (f"(\\x.{pairs}) b", pairs.replace("x", "b")),
            (f"(\\x.{tags}) b", tags.replace("x", "b")),
            (f"{binders}(\\x.(x,y0)) y{d - 1}", f"{binders}(y{d - 1},y0)"),
        ]
        results = _drive([["eval", "-e", text] for text, _ in cases])
        for (text, normal), result in zip(cases, results):
            assert result == [0, "", f"{normal} (1 step)\n"], text[:40]

    def test_the_longest_seq_chain(self):
        """(\\x0...\\x{n-1}.(x0,(x1,...))) a0 ... a{n-1} near the longest the
        parser takes at the CLI's limit (2,495 binders on CPython 3.11):
        n steps, each with every binder after it still unfired, in its own
        interpreter within 60 s."""
        runs, normals = [], {}
        for n in (2480, 2495, 2500):
            params, atoms = [f"x{k}" for k in range(n)], [f"a{k}" for k in range(n)]
            body, normal = params[-1], atoms[-1]
            for p, a in zip(reversed(params[:-1]), reversed(atoms[:-1])):
                body, normal = f"({p},{body})", f"({a},{normal})"
            lambdas = "".join(f"\\{p}." for p in params)
            runs.append(["eval", "-e", f"({lambdas}{body}) {' '.join(atoms)}"])
            normals[n] = f"{normal} ({n} steps)\n"
        for (n, normal), (code, err, out) in zip(normals.items(), _drive(runs, timeout=60)):
            if n == 2480 or code != 2:
                assert (code, err, out) == (0, "", normal), (n, err[-2000:])
            else:
                assert err.startswith("-e:1:") and err.endswith(": nesting too deep\n"), (n, err)

    def test_deep_normal_forms_render_in_full(self, capsys):
        for name in sorted(self.PARSER_DEPTHS):
            text = NESTINGS[name][1](1000)
            code, out, err = run(capsys, "eval", "-e", text)
            assert (code, out, err) == (0, f"{text.replace(', ', ',')} (0 steps)\n", ""), name


class TestColor:
    def test_always_paints_status_words(self, capsys, monkeypatch):
        monkeypatch.setenv("VERACITY_COLOR", "always")
        _, out, _ = run(capsys, "check", PENELOPE)
        assert "\x1b[32mok\x1b[0m" in out

    def test_never_stays_plain(self, capsys):
        _, out, _ = run(capsys, "check", PENELOPE)
        assert "\x1b[" not in out

    @pytest.mark.parametrize("value", ["auto", "sepia"])
    @pytest.mark.parametrize("tty", [True, False])
    def test_auto_paints_a_terminal_only(self, capsys, monkeypatch, value, tty):
        """auto paints when stdout is a terminal; a value that is none of
        auto, always and never counts as auto."""
        monkeypatch.setenv("VERACITY_COLOR", value)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: tty)
        _, out, _ = run(capsys, "check", PENELOPE)
        assert ("\x1b[32mok\x1b[0m" in out) is tty

    def test_structured_mode_never_paints(self, capsys, monkeypatch):
        monkeypatch.setenv("VERACITY_COLOR", "always")
        _, out, _ = run(capsys, "check", "--format", "structured", PENELOPE)
        assert "\x1b[" not in out


class TestArgs:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "-e", "a"],
            ["check", "--step-budget", "10"],
            ["model", "-e", "a"],
            ["model", "-v"],
            ["trust", "-e", "a"],
            ["trust", "--step-budget", "10"],
            ["trust", "-v"],
        ],
    )
    def test_subcommands_reject_options_they_do_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + [PENELOPE])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "-v"],
            ["model", "--step-budget", "10"],
            ["report", "-v", "--step-budget", "10", "-e", "a"],
        ],
    )
    def test_subcommands_accept_options_they_read(self, capsys, argv):
        assert main(argv + [PENELOPE]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--step-budget", "-1", "-e", "(\\x.x) a"],
            ["model", "--step-budget", "-5", TRUST_CHAIN],
            ["report", "--step-budget=-1", TRUST_CHAIN],
        ],
    )
    def test_negative_step_budget_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --step-budget: must be at least 0, not -" in err

    def test_non_integer_step_budget_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--step-budget", "x", "-e", "a"])
        assert exc.value.code == 2
        assert "argument --step-budget: invalid int value: 'x'" in capsys.readouterr().err

    def test_zero_step_budget_is_accepted(self, capsys):
        assert run(capsys, "eval", "--step-budget", "0", "-e", "a") == (0, "a (0 steps)\n", "")

    def test_fixtures_ship_with_the_package(self):
        assert (FIXTURES / "penelope.vlp").is_file()
        assert sorted(p.name for p in FIXTURES.glob("*.vlp")) == [
            "curried.vlp",
            "excluded-middle-attempt.vlp",
            "negation.vlp",
            "penelope.vlp",
            "process.vlp",
            "star-vs-chain.vlp",
            "trust-chain.vlp",
        ]

"""Command-line front door.

Subcommands:

    check   replay every proof in the given scripts through the kernel
    eval    normalize witness terms (-e expressions or proof conclusions)
    model   answer membership queries and run soundness checks
    trust   analyze trust relations and chain-versus-star comparisons
    report  everything above for the given scripts, in one document

Exit status: 0 when everything succeeds; 1 when a proof fails to check,
a query does not hold, a soundness check finds the proof unsound or cannot
run (the proof does not check or a hypothesis fails in the model), a step
budget runs out, a claim nests arrows past the depth bound, or a trust
relation's decay search runs past its work budget; and 2 on
unusable input: a parse or IO failure, a script that is not valid UTF-8,
input that parses but nests too deep to check, evaluate, model or render
("FILE: nesting too deep", or "-e: nesting too deep" for an -e term), a
structured report that would hold a line break ("\n" or "\r"), or a bad
option such as a negative --step-budget. Output is deterministic:
identical inputs produce byte-identical reports. The --format flag selects
human text or the structured key=value form;
VERACITY_COLOR={auto,always,never} controls ANSI color in text mode.

Each outcome (a checked proof, a normal form, a query or soundness answer,
a trust summary) is recorded by one _Output.add call, which writes its text
lines and its structured section together and sets exit status 1 when the
outcome failed.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import Claimhood, ProofTree, Term, format_weight
from .evaluator import DEFAULT_BUDGET, BudgetExceeded, normalize_counted, trace
from .kernel import CheckError, env_from_script, check_proof
from .parser import (
    ParseError,
    Script,
    parse_script,
    parse_term,
    render_claim,  # noqa: F401  bench/harness.py wraps cli.render_claim by name
    render_claimhood,
    render_judgement,
    render_sequent,
    render_term,
)
from .report import Report, Section, to_structured
from .semantics import (
    DepthExceeded,
    PreconditionError,
    member,
    model_from_script,
    soundness_check,
)
from .trust import (
    DecayBudgetExceeded,
    TrustGraph,
    compare_relations,
    relation_properties,
    symmetric_pairs,
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_paths: tuple[str, ...] = ()
    output_format: str = "text"
    step_budget: int = DEFAULT_BUDGET
    exprs: tuple[str, ...] = ()
    verbosity: int = 0
    color: str = "auto"


Fields = list[tuple[str, str]]


@dataclass
class _Output:
    cfg: RunConfig
    code: int = 0
    lines: list[str] = field(default_factory=list)
    sections: list[Section] = field(default_factory=list)

    def add(self, section_name: str, fields: Fields, *text_lines: str, failed=False) -> None:
        """Record one outcome as its text lines and its structured section;
        a failed outcome makes the exit status 1."""
        self.lines.extend(text_lines)
        self.sections.append(Section(section_name, tuple(fields)))
        if failed:
            self.code = 1

    def paint(self, text: str, good: bool) -> str:
        """A status word, green when good and red otherwise, if color is on."""
        cfg = self.cfg
        if cfg.output_format == "text" and (
            cfg.color == "always" or (cfg.color != "never" and sys.stdout.isatty())
        ):
            return f"\x1b[{32 if good else 31}m{text}\x1b[0m"
        return text


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _load_scripts(cfg: RunConfig) -> list[tuple[str, Script]]:
    if not cfg.input_paths:
        raise _CliError(2, f"veracity {cfg.command}: no input files")
    loaded = []
    for path in cfg.input_paths:
        try:
            # newline="" hands the parser the text as written: only "\n"
            # ends a line, and a lone "\r" stays the blank it parses as.
            with open(path, encoding="utf-8", newline="") as file:
                text = file.read()
        except OSError as err:
            raise _CliError(2, f"{path}: {err.strerror or err}") from err
        except UnicodeDecodeError as err:
            raise _CliError(2, f"{path}: {err}") from err
        try:
            loaded.append((path, parse_script(text)))
        except ParseError as err:
            raise _CliError(2, f"{path}:{err.line}:{err.col}: {err.message}") from err
    return loaded


def _node_at(tree: ProofTree, path: tuple[int, ...]) -> ProofTree:
    node = tree
    for index in path:
        node = node.premises[index]
    return node


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _check_into(out: _Output, path: str, script: Script) -> None:
    out.lines.append(f"check {path}")
    env = env_from_script(script)
    for decl in script.proofs:
        name, head = f"check {path} {decl.name}", f"  proof {decl.name}: "
        try:
            result = check_proof(decl.tree, env)
        except CheckError as err:
            loc = _node_at(decl.tree, err.path).loc
            fields = [
                ("status", "failed"),
                ("error-kind", err.kind.value),
                ("error-path", ".".join(str(i) for i in err.path) or "root"),
                ("error-detail", err.detail),
            ]
            where = ""
            if loc:
                fields += [("line", str(loc[0])), ("col", str(loc[1]))]
                where = f" (line {loc[0]}, col {loc[1]})"
            out.add(
                name, fields, head + out.paint("failed", False), f"    {err}{where}", failed=True
            )
            continue
        stated = []
        if isinstance(result, Claimhood):
            kind, text = "claimhood", render_claimhood(result)
        else:
            kind, text = "sequent", render_sequent(result)
            if out.cfg.verbosity and decl.tree.stated is not None:
                stated.append(f"    stated: {render_sequent(decl.tree.stated)}")
        ok = head + out.paint("ok", True)
        out.add(name, [("status", "ok"), (kind, text)], ok, f"    {text}", *stated)


def _normalized(
    out: _Output, name: str, term: Term, lead: Fields, exhausted: Callable[[int], str], traced=False
) -> Optional[tuple[Term, int, list[Term]]]:
    """term's normal form, its step count and, when traced, its reduction
    sequence.  When the step budget runs out, adds that outcome instead
    (the lead fields, then the budget; the text line exhausted(budget))
    and returns None.  The sequence is built only once the normal form is
    known to be within the budget: a term that exhausts it may grow at
    every step, and keeping each stage could take far more time and
    memory than the steps."""
    budget = out.cfg.step_budget
    try:
        normal, steps = normalize_counted(term, budget)
    except BudgetExceeded:
        fields = lead + [("status", "budget-exhausted"), ("budget", str(budget))]
        out.add(name, fields, exhausted(budget), failed=True)
        return None
    return normal, steps, trace(term, budget) if traced else []


def _eval_exprs_into(out: _Output) -> None:
    for index, text in enumerate(out.cfg.exprs, 1):
        try:
            term = parse_term(text)
        except ParseError as err:
            raise _CliError(2, f"-e:{err.line}:{err.col}: {err.message}") from err
        name, lead = f"eval {index}", [("input", text)]

        def exhausted(budget: int) -> str:
            return f"step budget {budget} exhausted: {render_term(term)}"

        reduced = _normalized(out, name, term, lead, exhausted, traced=out.cfg.verbosity > 0)
        if reduced:
            normal, count, stages = reduced
            shown = render_term(normal)
            out.add(
                name,
                lead + [("normal", shown), ("steps", str(count))],
                *(f"  [{n}] {render_term(stage)}" for n, stage in enumerate(stages)),
                f"{shown} ({_plural(count, 'step')})",
            )


def _eval_scripts_into(out: _Output, path: str, script: Script) -> None:
    out.lines.append(f"eval {path}")
    env = env_from_script(script)
    for decl in script.proofs:
        name, head = f"eval {path} {decl.name}", f"  {decl.name}: "
        try:
            result = check_proof(decl.tree, env)
        except CheckError as err:
            out.add(name, [("status", "not-checked")], f"{head}not checked ({err})", failed=True)
            continue
        if isinstance(result, Claimhood):
            out.add(name, [("status", "no-witness")], f"{head}no witness to evaluate")
            continue
        witness = result.conclusion.witness
        reduced = _normalized(
            out, name, witness, [], lambda budget: f"{head}step budget {budget} exhausted"
        )
        if reduced:
            normal, count, _ = reduced
            shown = render_term(normal)
            out.add(
                name,
                [("witness", render_term(witness)), ("normal", shown), ("steps", str(count))],
                f"{head}{shown} ({_plural(count, 'step')})",
            )


def _sound_failure(err: Exception, budget: int) -> tuple[str, str, Fields]:
    """A soundness check that could not run to a verdict: its status word,
    the text after the word, and its status fields."""
    if isinstance(err, PreconditionError):
        fields = [("status", "precondition-failed"), ("detail", str(err))]
        return "precondition failed", f": {err}", fields
    if isinstance(err, CheckError):
        return "proof does not check", f": {err}", [("status", "not-checked")]
    if isinstance(err, BudgetExceeded):
        fields = [("status", "budget-exhausted"), ("budget", str(budget))]
        return f"step budget {budget} exhausted", "", fields
    return str(err), "", [("status", "depth-exceeded")]


def _model_into(out: _Output, path: str, script: Script) -> None:
    out.lines.append(f"model {path}")
    env = env_from_script(script)
    models = {decl.name: model_from_script(script, decl.name) for decl in script.models}
    for index, query in enumerate(script.queries, 1):
        shown = render_judgement(query.judgement)
        try:
            holds = member(query.judgement, models[query.model])
            word = "holds" if holds else "does not hold"
            status_field = ("holds", "true" if holds else "false")
        except DepthExceeded as err:
            holds, word, status_field = False, str(err), ("status", "depth-exceeded")
        out.add(
            f"model {path} query {index}",
            [("judgement", shown), ("model", query.model), status_field],
            f"  query {shown} in {query.model}: {out.paint(word, holds)}",
            failed=not holds,
        )
    budget = out.cfg.step_budget
    for sound in script.sounds:
        tree = script.proof(sound.proof).tree
        try:
            is_sound = soundness_check(tree, models[sound.model], env, budget=budget)
            word = "sound" if is_sound else "unsound"
            rest, status = "", [("status", word)]
        except (PreconditionError, CheckError, BudgetExceeded, DepthExceeded) as err:
            is_sound = False
            word, rest, status = _sound_failure(err, budget)
        out.add(
            f"model {path} sound {sound.proof}",
            [("model", sound.model)] + status,
            f"  sound {sound.proof} in {sound.model}: {out.paint(word, is_sound)}{rest}",
            failed=not is_sound,
        )


def _trust_into(out: _Output, path: str, script: Script) -> None:
    out.lines.append(f"trust {path}")
    for relation in script.relations:
        try:
            props = relation_properties(TrustGraph.from_relation(relation))
        except DecayBudgetExceeded as err:
            pairs, failed = symmetric_pairs(relation), True
            decay_fields = [("status", "budget-exceeded"), ("budget", str(err.budget))]
            decay_text = f"not computed within budget {err.budget}"
        else:
            pairs, failed = props.symmetric_pairs, False
            decay_path = decay_weight = ""
            if props.longest_chain_decay is not None:
                actors, weight = props.longest_chain_decay
                decay_path, decay_weight = " -> ".join(actors), format_weight(weight)
            decay_fields = [("decay-path", decay_path), ("decay-weight", decay_weight)]
            decay_text = f"{decay_path} @ {decay_weight}" if decay_path else "none"
        edges = len(relation.edge_weights())
        # Self-trust is implicit, so every relation is reflexive-complete.
        out.add(
            f"trust {path} relation {relation.name}",
            [
                ("edges", str(edges)),
                ("reflexive-complete", "true"),
                ("symmetric-pairs", " ".join(f"{a}<->{b}" for a, b in pairs)),
                *decay_fields,
            ],
            f"  relation {relation.name}: {_plural(edges, 'edge')}",
            "    reflexive: complete (implicit self-trust)",
            f"    symmetric pairs: {', '.join(f'{a} <-> {b}' for a, b in pairs) or 'none'}",
            f"    decay: {decay_text}",
            failed=failed,
        )
    for index, compare in enumerate(script.compares, 1):
        relations = script.relation(compare.chain), script.relation(compare.star)
        outcome = compare_relations(*relations, compare.source, compare.target)
        name = f"trust {path} compare {index}"
        head = (
            f"  compare chain {compare.chain} star {compare.star} "
            f"from {compare.source} to {compare.target}:"
        )
        fields = [
            ("chain-relation", compare.chain),
            ("star-relation", compare.star),
            ("from", compare.source),
            ("to", compare.target),
        ]
        if outcome is None:
            out.add(name, fields + [("status", "unreachable")], head, "    verdict: unreachable")
            continue
        chain, star = format_weight(outcome.chain), format_weight(outcome.star)
        at_least = outcome.star_at_least_chain
        fields += [("chain", chain), ("star", star)]
        out.add(
            name,
            fields + [("star-at-least-chain", "true" if at_least else "false")],
            head,
            f"    chain = {chain}",
            f"    star = {star}",
            f"    verdict: {'star at least chain' if at_least else 'chain beats star'}",
        )


_Part = Callable[[_Output, str, Script], None]


def _run(cfg: RunConfig) -> tuple[int, list[str], Report]:
    """Evaluate the -e expressions when the command reads -e, then run the
    command's parts on every input script in turn.  Only eval may run on
    -e expressions alone."""
    _, parts, options = _COMMANDS[cfg.command]
    files_optional = cfg.command == "eval"
    if files_optional and not cfg.exprs and not cfg.input_paths:
        raise _CliError(2, "veracity eval: give -e expressions or input files")
    out = _Output(cfg)
    if "-e" in options:
        _within_stack("-e", _eval_exprs_into, out)
    if cfg.input_paths or not files_optional:
        for path, script in _load_scripts(cfg):
            for part in parts:
                _within_stack(path, part, out, path, script)
    return out.code, out.lines, Report(tuple(out.sections))


def _within_stack(where: str, part: Callable[..., None], *args) -> None:
    """part(*args), where input that parsed but nests too deep for the
    interpreter's stack to check, evaluate, model or render is unusable
    input, reported at where."""
    try:
        part(*args)
    except RecursionError:
        raise _CliError(2, f"{where}: nesting too deep") from None


def _step_budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {budget}")
    return budget


# Each subcommand: its help text, the parts it runs on each input script,
# and the options it reads.
_COMMANDS: dict[str, tuple[str, tuple[_Part, ...], frozenset[str]]] = {
    "check": ("replay proofs through the kernel", (_check_into,), frozenset({"-v"})),
    "eval": (
        "normalize witness terms",
        (_eval_scripts_into,),
        frozenset({"--step-budget", "-e", "-v"}),
    ),
    "model": (
        "answer membership queries and soundness checks",
        (_model_into,),
        frozenset({"--step-budget"}),
    ),
    "trust": ("analyze trust relations", (_trust_into,), frozenset()),
    "report": (
        "full report: check, model, and trust",
        (_check_into, _model_into, _trust_into),
        frozenset({"--step-budget", "-e", "-v"}),
    ),
}

# The options only some subcommands read, named by their first flag in
# _COMMANDS, in --help order.
_OPTIONS: dict[tuple[str, ...], dict] = {
    ("--step-budget",): dict(
        type=_step_budget,
        default=DEFAULT_BUDGET,
        metavar="N",
        help="maximum reduction steps per term (0 or more)",
    ),
    ("-e", "--expr"): dict(
        action="append", default=[], metavar="EXPR", help="witness term to evaluate (repeatable)"
    ),
    ("-v", "--verbose"): dict(
        action="count", default=0, help="more detail (eval traces, stated sequents)"
    ),
}


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="veracity",
        description="Check, evaluate, and analyze veracity-logic scripts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("paths", nargs="*", metavar="FILE", help="input .vlp scripts")
        sub.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            dest="output_format",
            help="output format (default: text)",
        )
        for flags, settings in _OPTIONS.items():
            if flags[0] in options:
                sub.add_argument(*flags, **settings)
    return parser.parse_args(argv)


def _parse_args(argv: Optional[list[str]] = None) -> RunConfig:
    # An ArgumentParser is a web of reference cycles.  Built and used with
    # the cycle collector paused, all of it stays in the youngest
    # generation, and collecting that one generation frees it here rather
    # than at whatever later point of the run the collector reaches it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parse(argv)
    finally:
        if collecting:
            gc.enable()
    gc.collect(0)
    color = os.environ.get("VERACITY_COLOR", "auto")
    if color not in ("auto", "always", "never"):
        color = "auto"
    return RunConfig(
        command=args.command,
        input_paths=tuple(args.paths),
        output_format=args.output_format,
        step_budget=getattr(args, "step_budget", DEFAULT_BUDGET),
        exprs=tuple(getattr(args, "expr", ())),
        verbosity=getattr(args, "verbose", 0),
        color=color,
    )


def main(argv: Optional[list[str]] = None) -> int:
    # Deep proof trees and terms recurse; the default limit is too tight
    # for adversarial but legitimate inputs.  A higher caller limit stays,
    # as the library works under it, and the caller gets it back.
    caller_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(caller_limit, 10000))
    try:
        return _main(argv)
    finally:
        sys.setrecursionlimit(caller_limit)


def _main(argv: Optional[list[str]]) -> int:
    cfg = _parse_args(argv)
    try:
        code, lines, report = _run(cfg)
        if cfg.output_format == "structured":
            try:
                text = to_structured(report)
            except ValueError as err:
                raise _CliError(2, f"veracity {cfg.command}: {err}") from err
        else:
            text = "\n".join(lines) + "\n" if lines else ""
    except _CliError as err:
        print(err.message, file=sys.stderr)
        return err.code
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

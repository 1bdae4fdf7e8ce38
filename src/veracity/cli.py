"""Command-line front door.

Subcommands:

    check   replay every proof in the given scripts through the kernel
    eval    normalize witness terms (-e expressions or proof conclusions)
    model   answer membership queries and run soundness checks
    trust   analyze trust relations and chain-versus-star comparisons
    report  everything above for the given scripts, in one document

Exit status: 0 when everything succeeds, 1 when a proof fails, a query
does not hold, a soundness check fails, or a step budget runs out, and 2
on parse or IO failure. Output is deterministic: identical inputs produce
byte-identical reports. The --format flag selects human text or the
structured key=value form; VERACITY_COLOR={auto,always,never} controls
ANSI color in text mode.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .core import Claimhood, ProofTree, format_weight
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
from .trust import TrustGraph, compare_relations, relation_properties


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_paths: tuple[str, ...] = ()
    output_format: str = "text"
    step_budget: int = DEFAULT_BUDGET
    exprs: tuple[str, ...] = ()
    verbosity: int = 0
    color: str = "auto"


@dataclass
class _Output:
    code: int = 0
    lines: list[str] = field(default_factory=list)
    sections: list[Section] = field(default_factory=list)

    def fail(self, code: int = 1) -> None:
        self.code = max(self.code, code)

    def report(self) -> Report:
        return Report(tuple(self.sections))


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _color_enabled(cfg: RunConfig) -> bool:
    if cfg.output_format != "text":
        return False
    if cfg.color == "always":
        return True
    if cfg.color == "never":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str, cfg: RunConfig) -> str:
    if _color_enabled(cfg):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _good(text: str, cfg: RunConfig) -> str:
    return _paint(text, "32", cfg)


def _bad(text: str, cfg: RunConfig) -> str:
    return _paint(text, "31", cfg)


def _load_scripts(cfg: RunConfig) -> list[tuple[str, Script]]:
    if not cfg.input_paths:
        raise _CliError(2, f"veracity {cfg.command}: no input files")
    loaded = []
    for path in cfg.input_paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as err:
            raise _CliError(2, f"{path}: {err.strerror or err}") from err
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


def _check_into(out: _Output, cfg: RunConfig, path: str, script: Script) -> None:
    out.lines.append(f"check {path}")
    env = env_from_script(script)
    for decl in script.proofs:
        section_name = f"check {path} {decl.name}"
        try:
            result = check_proof(decl.tree, env)
        except CheckError as err:
            out.fail()
            loc = _node_at(decl.tree, err.path).loc
            where = f" (line {loc[0]}, col {loc[1]})" if loc else ""
            out.lines.append(f"  proof {decl.name}: {_bad('failed', cfg)}")
            out.lines.append(f"    {err}{where}")
            fields = [
                ("status", "failed"),
                ("error-kind", err.kind.value),
                ("error-path", ".".join(str(i) for i in err.path) or "root"),
                ("error-detail", err.detail),
            ]
            if loc:
                fields += [("line", str(loc[0])), ("col", str(loc[1]))]
            out.sections.append(Section(section_name, tuple(fields)))
            continue
        out.lines.append(f"  proof {decl.name}: {_good('ok', cfg)}")
        if isinstance(result, Claimhood):
            text = render_claimhood(result)
            out.lines.append(f"    {text}")
            out.sections.append(
                Section(section_name, (("status", "ok"), ("claimhood", text)))
            )
        else:
            text = render_sequent(result)
            out.lines.append(f"    {text}")
            if cfg.verbosity and decl.tree.stated is not None:
                out.lines.append(f"    stated: {render_sequent(decl.tree.stated)}")
            out.sections.append(
                Section(section_name, (("status", "ok"), ("sequent", text)))
            )


def run_check(cfg: RunConfig) -> tuple[int, list[str], Report]:
    out = _Output()
    for path, script in _load_scripts(cfg):
        _check_into(out, cfg, path, script)
    return out.code, out.lines, out.report()


def _eval_exprs_into(out: _Output, cfg: RunConfig) -> None:
    for index, text in enumerate(cfg.exprs, 1):
        try:
            term = parse_term(text)
        except ParseError as err:
            raise _CliError(2, f"-e:{err.line}:{err.col}: {err.message}") from err
        section_name = f"eval {index}"
        try:
            if cfg.verbosity:
                stages = trace(term, cfg.step_budget)
                normal, count = stages[-1], len(stages) - 1
            else:
                normal, count = normalize_counted(term, cfg.step_budget)
        except BudgetExceeded:
            out.fail()
            out.lines.append(
                f"step budget {cfg.step_budget} exhausted: {render_term(term)}"
            )
            out.sections.append(
                Section(
                    section_name,
                    (
                        ("input", text),
                        ("status", "budget-exhausted"),
                        ("budget", str(cfg.step_budget)),
                    ),
                )
            )
            continue
        if cfg.verbosity:
            for n, stage in enumerate(stages):
                out.lines.append(f"  [{n}] {render_term(stage)}")
        out.lines.append(f"{render_term(normal)} ({_plural(count, 'step')})")
        out.sections.append(
            Section(
                section_name,
                (
                    ("input", text),
                    ("normal", render_term(normal)),
                    ("steps", str(count)),
                ),
            )
        )


def _eval_scripts_into(out: _Output, cfg: RunConfig, path: str, script: Script) -> None:
    out.lines.append(f"eval {path}")
    env = env_from_script(script)
    for decl in script.proofs:
        section_name = f"eval {path} {decl.name}"
        try:
            result = check_proof(decl.tree, env)
        except CheckError as err:
            out.fail()
            out.lines.append(f"  {decl.name}: not checked ({err})")
            out.sections.append(
                Section(section_name, (("status", "not-checked"),))
            )
            continue
        if isinstance(result, Claimhood):
            out.lines.append(f"  {decl.name}: no witness to evaluate")
            out.sections.append(Section(section_name, (("status", "no-witness"),)))
            continue
        witness = result.conclusion.witness
        try:
            normal, count = normalize_counted(witness, cfg.step_budget)
        except BudgetExceeded:
            out.fail()
            out.lines.append(
                f"  {decl.name}: step budget {cfg.step_budget} exhausted"
            )
            out.sections.append(
                Section(
                    section_name,
                    (("status", "budget-exhausted"), ("budget", str(cfg.step_budget))),
                )
            )
            continue
        out.lines.append(
            f"  {decl.name}: {render_term(normal)} ({_plural(count, 'step')})"
        )
        out.sections.append(
            Section(
                section_name,
                (
                    ("witness", render_term(witness)),
                    ("normal", render_term(normal)),
                    ("steps", str(count)),
                ),
            )
        )


def run_eval(cfg: RunConfig) -> tuple[int, list[str], Report]:
    if not cfg.exprs and not cfg.input_paths:
        raise _CliError(2, "veracity eval: give -e expressions or input files")
    out = _Output()
    _eval_exprs_into(out, cfg)
    if cfg.input_paths:
        for path, script in _load_scripts(cfg):
            _eval_scripts_into(out, cfg, path, script)
    return out.code, out.lines, out.report()


def _model_into(out: _Output, cfg: RunConfig, path: str, script: Script) -> None:
    out.lines.append(f"model {path}")
    env = env_from_script(script)
    models = {decl.name: model_from_script(script, decl.name) for decl in script.models}
    for index, query in enumerate(script.queries, 1):
        section_name = f"model {path} query {index}"
        shown = render_judgement(query.judgement)
        try:
            holds = member(query.judgement, models[query.model])
        except DepthExceeded as err:
            out.fail()
            out.lines.append(f"  query {shown} in {query.model}: {_bad(str(err), cfg)}")
            out.sections.append(
                Section(
                    section_name,
                    (
                        ("judgement", shown),
                        ("model", query.model),
                        ("status", "depth-exceeded"),
                    ),
                )
            )
            continue
        verdict = _good("holds", cfg) if holds else _bad("does not hold", cfg)
        if not holds:
            out.fail()
        out.lines.append(f"  query {shown} in {query.model}: {verdict}")
        out.sections.append(
            Section(
                section_name,
                (
                    ("judgement", shown),
                    ("model", query.model),
                    ("holds", "true" if holds else "false"),
                ),
            )
        )
    for sound in script.sounds:
        section_name = f"model {path} sound {sound.proof}"
        tree = script.proof(sound.proof).tree
        try:
            is_sound = soundness_check(
                tree, models[sound.model], env, budget=cfg.step_budget
            )
        except PreconditionError as err:
            out.fail()
            out.lines.append(
                f"  sound {sound.proof} in {sound.model}: "
                f"{_bad('precondition failed', cfg)}: {err}"
            )
            out.sections.append(
                Section(
                    section_name,
                    (
                        ("model", sound.model),
                        ("status", "precondition-failed"),
                        ("detail", str(err)),
                    ),
                )
            )
            continue
        except CheckError as err:
            out.fail()
            out.lines.append(
                f"  sound {sound.proof} in {sound.model}: "
                f"{_bad('proof does not check', cfg)}: {err}"
            )
            out.sections.append(
                Section(
                    section_name,
                    (("model", sound.model), ("status", "not-checked")),
                )
            )
            continue
        except BudgetExceeded:
            out.fail()
            out.lines.append(
                f"  sound {sound.proof} in {sound.model}: "
                f"{_bad(f'step budget {cfg.step_budget} exhausted', cfg)}"
            )
            out.sections.append(
                Section(
                    section_name,
                    (
                        ("model", sound.model),
                        ("status", "budget-exhausted"),
                        ("budget", str(cfg.step_budget)),
                    ),
                )
            )
            continue
        except DepthExceeded as err:
            out.fail()
            out.lines.append(f"  sound {sound.proof} in {sound.model}: {_bad(str(err), cfg)}")
            out.sections.append(
                Section(
                    section_name,
                    (("model", sound.model), ("status", "depth-exceeded")),
                )
            )
            continue
        verdict = _good("sound", cfg) if is_sound else _bad("unsound", cfg)
        if not is_sound:
            out.fail()
        out.lines.append(f"  sound {sound.proof} in {sound.model}: {verdict}")
        out.sections.append(
            Section(
                section_name,
                (
                    ("model", sound.model),
                    ("status", "sound" if is_sound else "unsound"),
                ),
            )
        )


def run_model(cfg: RunConfig) -> tuple[int, list[str], Report]:
    out = _Output()
    for path, script in _load_scripts(cfg):
        _model_into(out, cfg, path, script)
    return out.code, out.lines, out.report()


def _trust_into(out: _Output, cfg: RunConfig, path: str, script: Script) -> None:
    out.lines.append(f"trust {path}")
    for relation in script.relations:
        graph = TrustGraph.from_relation(relation)
        props = relation_properties(graph)
        out.lines.append(
            f"  relation {relation.name}: {_plural(len(relation.edges), 'edge')}"
        )
        reflexive = "complete (implicit self-trust)" if props.reflexive_complete else "incomplete"
        out.lines.append(f"    reflexive: {reflexive}")
        if props.symmetric_pairs:
            pairs = ", ".join(f"{a} <-> {b}" for a, b in props.symmetric_pairs)
        else:
            pairs = "none"
        out.lines.append(f"    symmetric pairs: {pairs}")
        if props.longest_chain_decay is None:
            out.lines.append("    decay: none")
            decay_fields = [("decay-path", ""), ("decay-weight", "")]
        else:
            decay_path, decay_weight = props.longest_chain_decay
            shown = " -> ".join(decay_path)
            out.lines.append(f"    decay: {shown} @ {format_weight(decay_weight)}")
            decay_fields = [
                ("decay-path", shown),
                ("decay-weight", format_weight(decay_weight)),
            ]
        out.sections.append(
            Section(
                f"trust {path} relation {relation.name}",
                tuple(
                    [
                        ("edges", str(len(relation.edges))),
                        (
                            "reflexive-complete",
                            "true" if props.reflexive_complete else "false",
                        ),
                        (
                            "symmetric-pairs",
                            " ".join(f"{a}<->{b}" for a, b in props.symmetric_pairs),
                        ),
                    ]
                    + decay_fields
                ),
            )
        )
    for index, compare in enumerate(script.compares, 1):
        section_name = f"trust {path} compare {index}"
        out.lines.append(
            f"  compare chain {compare.chain} star {compare.star} "
            f"from {compare.source} to {compare.target}:"
        )
        outcome = compare_relations(
            script.relation(compare.chain),
            script.relation(compare.star),
            compare.source,
            compare.target,
        )
        base = [
            ("chain-relation", compare.chain),
            ("star-relation", compare.star),
            ("from", compare.source),
            ("to", compare.target),
        ]
        if outcome is None:
            out.lines.append("    verdict: unreachable")
            out.sections.append(
                Section(section_name, tuple(base + [("status", "unreachable")]))
            )
            continue
        out.lines.append(f"    chain = {format_weight(outcome.chain)}")
        out.lines.append(f"    star = {format_weight(outcome.star)}")
        verdict = (
            "star at least chain" if outcome.star_at_least_chain else "chain beats star"
        )
        out.lines.append(f"    verdict: {verdict}")
        out.sections.append(
            Section(
                section_name,
                tuple(
                    base
                    + [
                        ("chain", format_weight(outcome.chain)),
                        ("star", format_weight(outcome.star)),
                        (
                            "star-at-least-chain",
                            "true" if outcome.star_at_least_chain else "false",
                        ),
                    ]
                ),
            )
        )


def run_trust(cfg: RunConfig) -> tuple[int, list[str], Report]:
    out = _Output()
    for path, script in _load_scripts(cfg):
        _trust_into(out, cfg, path, script)
    return out.code, out.lines, out.report()


def run_report(cfg: RunConfig) -> tuple[int, list[str], Report]:
    out = _Output()
    _eval_exprs_into(out, cfg)
    for path, script in _load_scripts(cfg):
        _check_into(out, cfg, path, script)
        _model_into(out, cfg, path, script)
        _trust_into(out, cfg, path, script)
    return out.code, out.lines, out.report()


_Runner = Callable[[RunConfig], tuple[int, list[str], Report]]

# Each subcommand: its help text, its runner, and the options it reads.
_COMMANDS: dict[str, tuple[str, _Runner, frozenset[str]]] = {
    "check": ("replay proofs through the kernel", run_check, frozenset({"-v"})),
    "eval": ("normalize witness terms", run_eval, frozenset({"--step-budget", "-e", "-v"})),
    "model": (
        "answer membership queries and soundness checks",
        run_model,
        frozenset({"--step-budget"}),
    ),
    "trust": ("analyze trust relations", run_trust, frozenset()),
    "report": (
        "full report: check, model, and trust",
        run_report,
        frozenset({"--step-budget", "-e", "-v"}),
    ),
}

# The options only some subcommands read, named by their first flag in
# _COMMANDS, in --help order.
_OPTIONS: dict[tuple[str, ...], dict] = {
    ("--step-budget",): dict(
        type=int, default=DEFAULT_BUDGET, metavar="N", help="maximum reduction steps per term"
    ),
    ("-e", "--expr"): dict(
        action="append", default=[], metavar="EXPR", help="witness term to evaluate (repeatable)"
    ),
    ("-v", "--verbose"): dict(
        action="count", default=0, help="more detail (eval traces, stated sequents)"
    ),
}


def _parse_args(argv: Optional[list[str]] = None) -> RunConfig:
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
    args = parser.parse_args(argv)
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
    # for adversarial but legitimate inputs.
    sys.setrecursionlimit(10000)
    cfg = _parse_args(argv)
    try:
        code, lines, report = _COMMANDS[cfg.command][1](cfg)
    except _CliError as err:
        print(err.message, file=sys.stderr)
        return err.code
    if cfg.output_format == "structured":
        text = to_structured(report)
    else:
        text = "\n".join(lines) + "\n" if lines else ""
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

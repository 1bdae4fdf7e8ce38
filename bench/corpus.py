"""Seeded corpora for the four benchmark workloads, each job with its answer.

A job is one `veracity` invocation: a subcommand on one generated script
file, or `eval` on one `-e` expression, always with `--format
structured`. Every job carries the exit code and the report it must
produce. Answers come from the construction itself (step counts, normal
forms, exact weight products, the node a fault was planted at) or from
the independent code in oracle.py, never from the package under test.

The same (workload, seed) gives the same jobs. The seed varies names,
claims, weights, fault positions and graph wiring; the shapes and sizes
come from COMPOSITION, so the cost of a pass barely moves with the seed.
Why each workload and ladder was chosen is in NOTES.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle
from oracle import BOTTOM, claim_text, judgement_text, line_col, sequent_text, term_text, weight_text

# Each rung doubles every shape's size parameter. Within a rung the jobs'
# sizes spread geometrically over a factor of two around the rung's scale,
# so sizes and times run on between rungs instead of forming clusters with
# gaps, which would leave the median and 90th percentile of a pass
# balanced on the edge of a gap.
SCALES = (1, 2, 4, 8)

# The correct verdicts of these jobs are known and the program gets them
# wrong today (arrow claims denote as tables that never equal a lambda
# witness). They stay in the corpus with the right answer, so they count
# as failed until the semantics is fixed.
KNOWN_DEFECTS = {
    "arrow-sound-Id": "sound Id in M prints unsound; \\x.x is a sound A -> A witness",
    "arrow-sound-K": "sound K in M prints unsound; \\x.\\y.x is a sound A -> B -> A witness",
}

CLAIMS = ("A", "B", "C", "D")
EDGE_WEIGHTS = tuple(Fraction(w) for w in ("0.5", "0.6", "0.7", "0.75", "0.8", "0.9", "0.95"))
ANY_WEIGHTS = EDGE_WEIGHTS + (Fraction(1),)

Fields = tuple[tuple[str, Optional[str]], ...]  # None: value not checked
Section = tuple[str, Fields]


@dataclass(frozen=True)
class Job:
    name: str
    shape: str
    rung: int
    argv: tuple[str, ...]
    path: Optional[str]  # the script file the job reads, if any
    script: Optional[str]
    code: int  # expected exit code
    sections: tuple[Section, ...]  # expected structured report


@dataclass(frozen=True)
class Answer:
    command: str
    code: int
    sections: tuple[Section, ...]
    script: Optional[str] = None
    expr: Optional[str] = None


# ---------------------------------------------------------------------------
# Proof text with node locations


@dataclass(frozen=True)
class Node:
    rule: str
    args: tuple[str, ...] = ()
    premises: tuple["Node", ...] = ()
    stated: Optional[str] = None


class _Text:
    def __init__(self) -> None:
        self.parts: list[str] = []
        self.size = 0

    def add(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)

    def value(self) -> str:
        return "".join(self.parts)


def _emit(node: Node, out: _Text, where: dict, path: tuple[int, ...]) -> None:
    where[path] = out.size
    a = node.args
    if node.rule == "assume":
        var, actor, claim = a
        out.add(f"assume {var}{'^' + actor if actor else ''} : {claim}")
    else:
        if node.rule == "impIntro":
            out.add(f"impIntro({a[0]},")
        elif node.rule == "trust":
            out.add(f"trust({a[0]}, {a[1]} -> {a[2]},")
        else:
            out.add(f"{node.rule}(")
        for i, premise in enumerate(node.premises):
            out.add("\n" if i == 0 else ",\n")
            if node.rule == "andElim" and i == 1:
                out.add(f"{a[0]}.{a[1]}.")
            elif node.rule == "orElim" and i > 0:
                out.add(f"{a[i - 1]}.")
            _emit(premise, out, where, path + (i,))
        trailing = {"andElim": 2, "orElim": 2, "orIntroL": 0, "orIntroR": 0}.get(node.rule)
        out.add((f", {a[trailing]}" if trailing is not None else "") + ")")
    if node.stated is not None:
        out.add(f" stating ({node.stated})")


class Script:
    """Builds a .vlp script and remembers where each proof node starts."""

    def __init__(self, header: str) -> None:
        self.text = _Text()
        self.text.add(header)
        self.where: dict[tuple[str, tuple[int, ...]], int] = {}

    def proof(self, name: str, tree: Node) -> None:
        self.text.add(f"proof {name} {{\n")
        where: dict = {}
        _emit(tree, self.text, where, ())
        self.where.update({(name, p): off for p, off in where.items()})
        self.text.add("\n}\n")

    def done(self) -> str:
        return self.text.value()

    def failed(self, proof: str, kind: str, path: tuple[int, ...]) -> Fields:
        line, col = line_col(self.done(), self.where[(proof, path)])
        return (
            ("status", "failed"),
            ("error-kind", kind),
            ("error-path", ".".join(map(str, path)) or "root"),
            ("error-detail", None),
            ("line", str(line)),
            ("col", str(col)),
        )


def _n(base: int, size: float) -> int:
    return max(2, round(base * size))


def _ok(sequent: str) -> Fields:
    return (("status", "ok"), ("sequent", sequent))


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct names of seeded lengths in a seeded order, so that sorted
    order is not build order."""
    names = [f"{prefix}{rng.choice(('', 'v', 'kw'))}{i}" for i in range(n)]
    rng.shuffle(names)
    return names


# ---------------------------------------------------------------------------
# proof-replay: `check` on generated proofs, a fifth of them rejected


def trust_chain(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """A trust(...) chain of 25*size steps over a relation with 11 edges
    per step, stated at the root and every 16th step."""
    depth = _n(25, size)
    actors = _names(rng, "a", depth + 1)
    claim = rng.choice(CLAIMS)
    weights = [rng.choice(EDGE_WEIGHTS) for _ in range(depth)]
    edges = {(actors[i], actors[i + 1]): weights[i] for i in range(depth)}
    while len(edges) < 11 * depth:
        s, t = rng.sample(actors, 2)
        edges.setdefault((s, t), rng.choice(ANY_WEIGHTS))
    fault = rng.choice(("missing-edge", "wrong-weight")) if reject else None
    cut = rng.randint(depth // 3, 2 * depth // 3)
    if fault == "missing-edge":
        del edges[(actors[cut], actors[cut + 1])]
    listed = list(edges.items())
    rng.shuffle(listed)
    hyp = [("x", actors[depth], Fraction(1), claim)]

    node = Node("assume", ("x", actors[depth], claim))
    for k in range(depth - 1, -1, -1):
        stated = None
        if k % 16 == 0:
            weight = oracle.product(weights[k:])
            if k == 0 and fault == "wrong-weight":
                weight /= 2
            stated = sequent_text(hyp, ("x", actors[k], weight, claim))
        node = Node("trust", ("T", actors[k], actors[k + 1]), (node,), stated)

    script = Script(
        f"claim {', '.join(CLAIMS)}.\nactor {', '.join(sorted(actors))}.\ntrust T {{\n"
        + "".join(f"  {s} -> {t} @ {weight_text(w)}.\n" for (s, t), w in listed)
        + "}\n"
    )
    script.proof("Chain", node)
    if fault == "missing-edge":
        fields = script.failed("Chain", "unknownTrustEdge", (0,) * cut)
    elif fault == "wrong-weight":
        fields = script.failed("Chain", "sequentMismatch", ())
    else:
        fields = _ok(sequent_text(hyp, ("x", actors[0], oracle.product(weights), claim)))
    return Answer("check", 1 if fault else 0, ((f"check {path} Chain", fields),), script=script.done())


def and_tree(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """A balanced andIntro tree with 16*size leaves, stated at the root."""
    leaves = _n(16, size)
    claims = [rng.choice(CLAIMS) for _ in range(leaves)]
    names = _names(rng, "h", leaves)
    odd = rng.randint(leaves // 3, 2 * leaves // 3) if reject else None
    where: list[tuple[int, ...]] = []

    def build(lo: int, hi: int, at: tuple[int, ...]):
        if hi - lo == 1:
            if lo == odd:
                where.append(at)
            actor = "Q" if lo == odd else "P"
            return Node("assume", (names[lo], actor, claims[lo])), names[lo], claims[lo]
        mid = (lo + hi) // 2
        left, lw, lc = build(lo, mid, at + (0,))
        right, rw, rc = build(mid, hi, at + (1,))
        return Node("andIntro", (), (left, right)), ("pair", lw, rw), ("and", lc, rc)

    tree, witness, claim = build(0, leaves, ())
    hyps = [(names[i], "P", Fraction(1), claims[i]) for i in range(leaves)]
    tree = Node(tree.rule, tree.args, tree.premises, sequent_text(hyps, (witness, "P", Fraction(1), claim)))
    script = Script(f"claim {', '.join(CLAIMS)}.\nactor P, Q.\n")
    script.proof("Tree", tree)
    if odd is None:
        fields = _ok(sequent_text(hyps, (witness, "P", Fraction(1), claim)))
    else:
        fields = script.failed("Tree", "actorMismatch", where[0][:-1])
    return Answer("check", 1 if reject else 0, ((f"check {path} Tree", fields),), script=script.done())


def imp_tower(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """6*size levels of impElim(impIntro(h, andIntro(below, assume h)),
    assume y), each level stating its sequent."""
    height = _n(6, size)
    fault = rng.choice(("wrong-claim", "missing-hypothesis")) if reject else None
    bad = rng.randint(max(1, height // 3), max(1, 2 * height // 3))
    claim = rng.choice(CLAIMS)
    node = Node("assume", ("x0", None, claim))
    witness = "x0"
    hyps = [("x0", "P", Fraction(1), claim)]
    for i in range(1, height + 1):
        extra = rng.choice(CLAIMS)
        h, y = f"h{i}", f"y{i}"
        witness = ("app", ("lam", h, ("pair", witness, h)), y)
        claim = ("and", claim, extra)
        hyps = hyps + [(y, "P", Fraction(1), extra)]
        shown = claim
        if fault == "wrong-claim" and i == bad:
            shown = ("and", claim[1], next(c for c in CLAIMS if c != extra))
        body = Node("andIntro", (), (node, Node("assume", (h, None, extra))))
        intro = Node("impIntro", ("zz" if fault == "missing-hypothesis" and i == bad else h,), (body,))
        stated = sequent_text(hyps, (witness, "P", Fraction(1), shown))
        node = Node("impElim", (), (intro, Node("assume", (y, None, extra))), stated)
    script = Script(f"claim {', '.join(CLAIMS)}.\nactor P.\n")
    script.proof("Tower", node)
    at = (0, 0, 0) * (height - bad)
    if fault == "wrong-claim":
        fields = script.failed("Tower", "sequentMismatch", at)
    elif fault == "missing-hypothesis":
        fields = script.failed("Tower", "hypothesisMissing", at + (0,))
    else:
        fields = _ok(sequent_text(hyps, (witness, "P", Fraction(1), claim)))
    return Answer("check", 1 if fault else 0, ((f"check {path} Tower", fields),), script=script.done())


def elim_chain(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """Two proofs of 8*size eliminations each: andElim steps that swap a
    conjunction, and orElim steps that swap a disjunction, the first of
    them through a two-tag family."""
    length = _n(8, size)
    fault = rng.choice(("and", "or")) if reject else None
    bad = rng.randint(max(2, length // 3), max(2, 2 * length // 3))
    x, y = rng.sample(CLAIMS, 2)

    claim = ("and", x, y)
    node = Node("assume", ("p", None, claim_text(claim)))
    witness = "p"
    for i in range(1, length + 1):
        left, right = claim[1], claim[2]
        u, v = f"u{i}", f"v{i}"
        branch = Node("andIntro", (), (Node("assume", (v, None, right)), Node("assume", (u, None, left))))
        family = ("and", left, right) if fault == "and" and i == bad else ("and", right, left)
        node = Node("andElim", (u, v, claim_text(family)), (node, branch))
        witness = ("split", witness, u, v, ("pair", v, u))
        claim = ("and", right, left)
    hyps = [("p", "P", Fraction(1), ("and", x, y))]
    and_seq = sequent_text(hyps, (witness, "P", Fraction(1), claim))
    and_tree = Node(node.rule, node.args, node.premises, and_seq)

    claim = ("or", x, y)
    node = Node("orIntroL", (y,), (Node("assume", ("q", None, x)),))
    witness = ("i", "q")
    for i in range(1, length + 1):
        left, right = claim[1], claim[2]
        lv, rv = f"l{i}", f"r{i}"
        swapped = claim_text(("or", right, left))
        tagged = i == 1 or (fault == "or" and i == bad)
        family = f"i => {swapped} | j => {swapped}" if tagged else swapped
        node = Node(
            "orElim",
            (lv, rv, family),
            (
                node,
                Node("orIntroR", (right,), (Node("assume", (lv, None, left)),)),
                Node("orIntroL", (left,), (Node("assume", (rv, None, right)),)),
            ),
        )
        witness = ("cases", witness, lv, ("j", lv), rv, ("i", rv))
        claim = ("or", right, left)
    or_seq = sequent_text([("q", "P", Fraction(1), x)], (witness, "P", Fraction(1), claim))
    or_tree = Node(node.rule, node.args, node.premises, or_seq)

    script = Script(f"claim {', '.join(CLAIMS)}.\nactor P.\n")
    script.proof("Swaps", and_tree)
    script.proof("Cases", or_tree)
    at = (0,) * (length - bad)
    swaps = script.failed("Swaps", "sequentMismatch", at) if fault == "and" else _ok(and_seq)
    cases = script.failed("Cases", "familyNotTotal", at) if fault == "or" else _ok(or_seq)
    return Answer(
        "check",
        1 if fault else 0,
        ((f"check {path} Swaps", swaps), (f"check {path} Cases", cases)),
        script=script.done(),
    )


# ---------------------------------------------------------------------------
# long-reduce: `eval -e` on terms with a known normal form and step count


def _atoms(rng: random.Random, n: int) -> list[str]:
    return [f"{rng.choice(('a', 'b', 'cd', 'efg'))}{i}" for i in range(n)]


def _reduce_answer(expr, normal, steps: int) -> Answer:
    text = term_text(expr)
    fields = (("input", text), ("normal", term_text(normal)), ("steps", str(steps)))
    return Answer("eval", 0, (("eval 1", fields),), expr=text)


def _right_pairs(items: list):
    out = items[-1]
    for item in reversed(items[:-1]):
        out = ("pair", item, out)
    return out


def _balanced_pairs(items: list):
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return ("pair", _balanced_pairs(items[:mid]), _balanced_pairs(items[mid:]))


def seq_chain(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """(\\x1...\\xn.B) a1 ... an with n = 6*size: n steps, each
    substituting into a body under all remaining binders."""
    n = _n(6, size)
    params = [f"x{i}" for i in range(n)]
    args = _atoms(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    term = _right_pairs([params[i] for i in order])
    for p in reversed(params):
        term = ("lam", p, term)
    for a in args:
        term = ("app", term, a)
    return _reduce_answer(term, _right_pairs([args[i] for i in order]), n)


def deep_binders(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """(\\x.\\y1...\\yd.(x, yk)) a with d = 100*size: one step whose
    substitution passes d binders."""
    d = _n(100, size)
    ys = [f"y{i}" for i in range(d)]
    pick = rng.choice(ys)
    atom = _atoms(rng, 1)[0]
    body, normal = ("pair", "x", pick), ("pair", atom, pick)
    for y in reversed(ys):
        body, normal = ("lam", y, body), ("lam", y, normal)
    return _reduce_answer(("app", ("lam", "x", body), atom), normal, 1)


def independent(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """50*size redexes at the leaves of a balanced pair tree: each step
    fires one, after walking past the ones already reduced."""
    n = _n(50, size)
    args = _atoms(rng, n)
    other = _atoms(rng, 1)[0]
    shapes = (
        lambda v: v,
        lambda v: ("pair", v, other),
        lambda v: ("i", v),
        lambda v: ("j", ("pair", other, v)),
    )
    picked = [rng.choice(shapes) for _ in range(n)]
    redexes = [("app", ("lam", "x", f("x")), a) for f, a in zip(picked, args)]
    normals = [f(a) for f, a in zip(picked, args)]
    return _reduce_answer(_balanced_pairs(redexes), _balanced_pairs(normals), n)


def cases_split(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """25*size nested cases/split contractions; each leaves the next one
    inside a pair, one level further from the root."""
    k = _n(25, size)
    consts = _atoms(rng, k + 1)
    term = normal = consts[k]
    for c in consts[:k]:
        kind = rng.randrange(3)
        if kind == 0:
            term = ("cases", ("i", term), "u", ("pair", "u", c), "v", "v")
            normal = ("pair", normal, c)
        elif kind == 1:
            term = ("cases", ("j", term), "u", "u", "v", ("pair", c, "v"))
            normal = ("pair", c, normal)
        else:
            term = ("split", ("pair", term, c), "x", "y", ("pair", "y", "x"))
            normal = ("pair", c, normal)
    return _reduce_answer(term, normal, k)


# ---------------------------------------------------------------------------
# trust-graphs: `trust` on relations with a known decay path and verdicts


def _relation_text(name: str, edges: oracle.Edges, rng: random.Random) -> str:
    listed = list(edges.items())
    rng.shuffle(listed)
    return f"trust {name} {{\n" + "".join(
        f"  {s} -> {t} @ {weight_text(w)}.\n" for (s, t), w in listed
    ) + "}\n"


def _relation_section(path: str, name: str, edges: oracle.Edges) -> Section:
    found = oracle.decay(edges)
    decay_path, decay_weight = ("", "") if found is None else (" -> ".join(found[0]), weight_text(found[1]))
    return (
        f"trust {path} relation {name}",
        (
            ("edges", str(len(edges))),
            ("reflexive-complete", "true"),
            ("symmetric-pairs", " ".join(f"{a}<->{b}" for a, b in oracle.symmetric_pairs(edges))),
            ("decay-path", decay_path),
            ("decay-weight", decay_weight),
        ),
    )


def _graph_answer(rng: random.Random, path: str, actors: list[str], relations: dict) -> Answer:
    text = f"actor {', '.join(sorted(actors))}.\n" + "".join(
        _relation_text(name, edges, rng) for name, edges in relations.items()
    )
    sections = tuple(_relation_section(path, name, edges) for name, edges in relations.items())
    return Answer("trust", 0, sections, script=text)


def chain_graph(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """A plain chain of 25*size actors, every weight below 1."""
    actors = _names(rng, "n", _n(25, size))
    edges = {(s, t): rng.choice(EDGE_WEIGHTS) for s, t in zip(actors, actors[1:])}
    return _graph_answer(rng, path, actors, {"S": edges})


def complete_graph(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """A complete digraph on 3 + log2(size) actors, rounded (3 to 6)."""
    actors = _names(rng, "k", 3 + round(math.log2(size)))
    edges = {(s, t): rng.choice(ANY_WEIGHTS) for s in actors for t in actors if s != t}
    return _graph_answer(rng, path, actors, {"K": edges})


def ring_graph(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """A directed ring of 6*size actors with two reversed edges and two
    chords at fixed places, so it is cyclic, sparse and has symmetric
    pairs, and its number of simple paths depends on its size alone."""
    actors = _names(rng, "r", _n(6, size))
    n = len(actors)
    at = lambda i: actors[i % n]
    wiring = [(at(i), at(i + 1)) for i in range(n)] + [
        (at(1), at(0)),
        (at(n // 2 + 1), at(n // 2)),
        (at(n // 4), at(3 * n // 4)),
        (at(3 * n // 4 + 1), at(n // 4 + 1)),
    ]
    edges: oracle.Edges = {}
    for edge in wiring:
        edges.setdefault(edge, rng.choice(ANY_WEIGHTS))
    return _graph_answer(rng, path, actors, {"G": edges})


def star_compare(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """A chain of 10*size spokes against two stars through one ledger,
    with four compare declarations, one of them unreachable."""
    spokes = _names(rng, "p", _n(10, size))
    ledger, target = "ledger", "target"
    chain_edges = {
        (s, t): rng.choice(ANY_WEIGHTS) for s, t in zip(spokes, spokes[1:] + [target])
    }
    stars = {}
    for name in ("R", "R2"):
        edges = {(s, ledger): rng.choice(ANY_WEIGHTS) for s in spokes}
        edges[(ledger, target)] = rng.choice(EDGE_WEIGHTS)
        stars[name] = edges
    answer = _graph_answer(rng, path, spokes + [ledger, target], {"S": chain_edges, **stars})
    compares = [("R", spokes[0], target), ("R2", spokes[0], target),
                ("R", rng.choice(spokes[1:]), target), ("R2", target, spokes[0])]
    lines, sections = [], []
    for index, (star, src, dst) in enumerate(compares, 1):
        lines.append(f"compare chain S star {star} from {src} to {dst}.\n")
        base = (("chain-relation", "S"), ("star-relation", star), ("from", src), ("to", dst))
        chain = oracle.best_trust(chain_edges, src, dst)
        star_value = oracle.best_trust(stars[star], src, dst)
        if chain is None or star_value is None:
            fields = base + (("status", "unreachable"),)
        else:
            fields = base + (
                ("chain", weight_text(chain)),
                ("star", weight_text(star_value)),
                ("star-at-least-chain", "true" if star_value >= chain else "false"),
            )
        sections.append((f"trust {path} compare {index}", fields))
    return Answer("trust", 0, answer.sections + tuple(sections), script=answer.script + "".join(lines))


# ---------------------------------------------------------------------------
# model-queries: `model` on finite models with known query and soundness answers


def _model_text(name: str, uses: str, holdings: dict[str, list[tuple[str, str, Fraction]]]) -> str:
    body = "".join(
        f"  {claim} = {{\n"
        + "".join(f"    {term_text(w)}^{a}@{weight_text(x)}.\n" for w, a, x in entries)
        + "  }.\n"
        for claim, entries in holdings.items()
    )
    return f"model {name}{' uses ' + uses if uses else ''} {{\n{body}}}\n"


def _query_answer(path: str, header: str, model: str, queries: list) -> Answer:
    """queries: (witness, actor, weight, claim, holds) tuples."""
    lines, sections = [], []
    for index, (witness, actor, weight, claim, holds) in enumerate(queries, 1):
        shown = judgement_text(witness, actor, weight, claim)
        lines.append(f"query {shown} in {model}.\n")
        sections.append((
            f"model {path} query {index}",
            (("judgement", shown), ("model", model), ("holds", "true" if holds else "false")),
        ))
    code = 0 if all(q[-1] for q in queries) else 1
    return Answer("model", code, tuple(sections), script=header + "".join(lines))


def _pick_queries(rng: random.Random, closed: dict, claim, actors: list[str], n: int) -> list:
    """n queries against a closed denotation (witness, actor) -> weight:
    most at or under the held weight, some above it or not held at all."""
    held = sorted(closed.items(), key=repr)
    out = []
    for _ in range(n):
        (witness, actor), weight = rng.choice(held)
        roll = rng.random()
        if roll < 0.6:
            out.append((witness, actor, weight, claim, True))
        elif roll < 0.8 and weight < 1:
            out.append((witness, actor, Fraction(1), claim, False))
        else:
            other = rng.choice(actors)
            out.append((witness, other, Fraction(1, 2), claim, closed.get((witness, other), 0) >= Fraction(1, 2)))
    return out


def closure_chain(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """8*size witnesses spread over a trust chain of 4*size actors,
    queried at their exact closed weights and above them."""
    actors = _names(rng, "a", _n(4, size))
    edges = {(s, t): rng.choice(EDGE_WEIGHTS) for s, t in zip(actors, actors[1:])}
    # Holders go round the chain, so the closure's size depends on size alone.
    entries = [(f"w{i}", actors[i % len(actors)], rng.choice(ANY_WEIGHTS)) for i in range(_n(8, size))]
    closed = oracle.close({(w, a): x for w, a, x in entries}, edges)
    header = (
        f"claim A.\nactor {', '.join(sorted(actors))}.\n"
        + _relation_text("T", edges, rng)
        + _model_text("M", "T", {"A": entries})
    )
    return _query_answer(path, header, "M", _pick_queries(rng, closed, "A", actors, 6))


def conj_disj(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """Conjunction and disjunction queries over 3*size witnesses per claim
    held by three actors in a trust chain."""
    actors = ["P", "Q", "R"]
    edges = {("P", "Q"): rng.choice(EDGE_WEIGHTS), ("Q", "R"): rng.choice(EDGE_WEIGHTS)}
    holdings = {
        c: [(f"{c.lower()}{i}", actors[i % 3], rng.choice(ANY_WEIGHTS)) for i in range(_n(3, size))]
        for c in ("A", "B")
    }
    closed = {c: oracle.close({(w, a): x for w, a, x in es}, edges) for c, es in holdings.items()}
    pairs = {
        (("pair", p, q), a): min(x, y)
        for (p, a), x in closed["A"].items()
        for (q, b), y in closed["B"].items()
        if a == b
    }
    tags = {(("i", p), a): x for (p, a), x in closed["A"].items()}
    tags.update({(("j", q), a): x for (q, a), x in closed["B"].items()})
    conj, disj = oracle.close(pairs, edges), oracle.close(tags, edges)
    queries = _pick_queries(rng, conj, ("and", "A", "B"), actors, 3)
    queries += _pick_queries(rng, disj, ("or", "A", "B"), actors, 3)
    header = (
        "claim A, B.\nactor P, Q, R.\n"
        + _relation_text("T", edges, rng)
        + _model_text("M", "T", holdings)
    )
    return _query_answer(path, header, "M", queries)


def arrow_query(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """An arrow query whose lambda maps into a witness outside the
    codomain, over m-by-m witnesses (m = 2 + log2(size), rounded, so 2
    to 5): no reading of arrow membership admits it, and today's table
    enumeration costs m**m."""
    m = 2 + round(math.log2(size))
    domain, codomain = _atoms(rng, m), [f"y{i}" for i in range(m)]
    holdings = {
        "A": [(w, "P", Fraction(1)) for w in domain],
        "B": [(w, "P", Fraction(1)) for w in codomain],
    }
    one = Fraction(1)
    queries = [
        (domain[0], "P", one, "A", True),
        (("lam", "x", "nowhere"), "P", one, ("imp", "A", "B"), False),
        (("lam", "x", "x"), "P", one, ("imp", "A", BOTTOM), False),
    ]
    rng.shuffle(queries)
    return _query_answer(path, "claim A, B.\nactor P.\n" + _model_text("M", "", holdings), "M", queries)


def sound_batch(rng: random.Random, size: float, reject: bool, path: str) -> Answer:
    """size proofs, rounded, over assume, andIntro, orIntro and trust, each checked
    for soundness in its own model. Their answer is sound by the logic's
    soundness for these rules."""
    actors = ["P", "Q", "R"]
    edges = {("P", "Q"): rng.choice(EDGE_WEIGHTS), ("Q", "R"): rng.choice(EDGE_WEIGHTS),
             ("P", "R"): rng.choice(EDGE_WEIGHTS)}
    text = f"claim {', '.join(CLAIMS)}.\nactor P, Q, R.\n" + _relation_text("T", edges, rng)
    sections = []
    for k in range(max(1, round(size))):
        holdings: dict[str, list] = {}

        def leaf(i: int) -> tuple[Node, str]:
            var, claim = f"v{k}_{i}", rng.choice(CLAIMS)
            route = (["P"], ["P", "Q"], ["P", "R"], ["P", "Q", "R"])[(i + k) % 4]
            holdings.setdefault(claim, []).append((var, route[-1], Fraction(1)))
            node = Node("assume", (var, route[-1], claim))
            for s, t in reversed(list(zip(route, route[1:]))):
                node = Node("trust", ("T", s, t), (node,))
            return node, claim

        (l1, c1), (l2, c2), (l3, c3) = leaf(0), leaf(1), leaf(2)
        rule = rng.choice(("orIntroL", "orIntroR"))
        tree = Node("andIntro", (), (Node("andIntro", (), (l1, l2)), Node(rule, (rng.choice(CLAIMS),), (l3,))))
        script = Script("")
        script.proof(f"S{k}", tree)
        text += script.done() + _model_text(f"M{k}", "T", holdings) + f"sound S{k} in M{k}.\n"
        sections.append((f"model {path} sound S{k}", (("model", f"M{k}"), ("status", "sound"))))
    return Answer("model", 0, tuple(sections), script=text)


_ARROW_SOUND = {
    "Id": "impIntro(x, assume x : A)",
    "K": "impIntro(x, impIntro(y, assume x : A under (y : B)))",
}


def arrow_sound(name: str, path: str) -> Answer:
    text = (
        "claim A, B.\nactor P.\n"
        f"proof {name} {{ {_ARROW_SOUND[name]} }}\n"
        "model M { A = { a. }. B = { b. }. }\n"
        f"sound {name} in M.\n"
    )
    return Answer("model", 0, ((f"model {path} sound {name}", (("model", "M"), ("status", "sound"))),), script=text)


# ---------------------------------------------------------------------------
# Workloads

Shape = Callable[[random.Random, int, bool, str], Answer]

# Jobs per rung (scale 1, 2, 4, 8) for each shape: many small jobs give
# the median many samples in a run, and few large ones keep a pass short.
COMPOSITION: dict[str, dict[str, tuple[Shape, tuple[int, ...]]]] = {
    "proof-replay": {
        "trust-chain": (trust_chain, (8, 6, 4, 2)),
        "and-tree": (and_tree, (8, 6, 4, 2)),
        "imp-tower": (imp_tower, (8, 6, 4, 2)),
        "elim-chain": (elim_chain, (8, 6, 4, 2)),
    },
    "long-reduce": {
        "seq-chain": (seq_chain, (8, 6, 4, 2)),
        "deep-binders": (deep_binders, (8, 6, 4, 2)),
        "independent": (independent, (8, 6, 4, 2)),
        "cases-split": (cases_split, (8, 6, 4, 2)),
    },
    "trust-graphs": {
        "chain": (chain_graph, (8, 6, 4, 2)),
        "complete": (complete_graph, (8, 6, 4, 2)),
        "ring": (ring_graph, (8, 6, 4, 2)),
        "star-compare": (star_compare, (8, 6, 4, 2)),
    },
    "model-queries": {
        "closure-chain": (closure_chain, (8, 6, 4, 2)),
        "conj-disj": (conj_disj, (8, 6, 4, 2)),
        "arrow-query": (arrow_query, (8, 6, 4, 2)),
        "sound-batch": (sound_batch, (8, 6, 4, 2)),
    },
}

WORKLOADS = tuple(COMPOSITION)


def _job(name: str, shape: str, rung: int, path: Path, answer: Answer) -> Job:
    if answer.expr is not None:
        argv = (answer.command, "-e", answer.expr, "--format", "structured")
        return Job(name, shape, rung, argv, None, None, answer.code, answer.sections)
    argv = (answer.command, str(path), "--format", "structured")
    return Job(name, shape, rung, argv, str(path), answer.script, answer.code, answer.sections)


def build(workload: str, seed: int, workdir: Path, rungs: int = len(SCALES), per_rung: Optional[int] = None) -> list[Job]:
    """The workload's jobs for one seed. Script jobs read files under
    workdir, which the caller writes from Job.script. rungs and per_rung
    shrink the corpus for quick checks."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for shape, (make, counts) in COMPOSITION[workload].items():
        for rung, scale in enumerate(SCALES[:rungs]):
            n = per_rung or counts[rung]
            for i in range(n):
                name = f"{shape}-r{rung}-{i}"
                path = workdir / f"{name}.vlp"
                size = scale * 2 ** ((i - (n - 1) / 2) / n)
                # Shapes that reject plant a fault in one job of each cell.
                jobs.append(_job(name, shape, rung, path, make(rng, size, i == rung % n, str(path))))
    if workload == "model-queries":
        for name in ("Id", "K"):
            path = workdir / f"arrow-sound-{name}.vlp"
            jobs.append(_job(f"arrow-sound-{name}", "arrow-sound", 0, path, arrow_sound(name, str(path))))
    return jobs

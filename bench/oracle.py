"""Independent answers for the benchmark corpora.

Nothing here imports veracity. These functions restate, from the README
and docs/grammar.ebnf, what the program is documented to print and
decide: the surface syntax with minimal parentheses, the exact weight
format, trust-path products, decay witnesses and trust closure. The
benchmark checks every verdict against them, so an answer is never taken
from the code under test.

Terms are names (str) or tuples:
    ("pair", a, b)  ("i", a)  ("j", a)  ("lam", x, body)  ("app", f, a)
    ("cases", s, x, left, y, right)  ("split", s, x, y, body)
Claims are names, BOTTOM, or ("and", l, r), ("or", l, r), ("imp", a, c).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

DEFAULT_ACTOR = "default"
BOTTOM = "_|_"

Edges = dict[tuple[str, str], Fraction]


# ---------------------------------------------------------------------------
# Surface text


def term_text(t, prec: int = 0) -> str:
    if isinstance(t, str):
        return t
    tag = t[0]
    if tag == "pair":
        return f"({term_text(t[1])},{term_text(t[2])})"
    if tag in ("i", "j"):
        return f"{tag}({term_text(t[1])})"
    if tag == "cases":
        _, s, x, left, y, right = t
        return f"cases({term_text(s)}, {x}.{term_text(left)}, {y}.{term_text(right)})"
    if tag == "split":
        _, s, x, y, body = t
        return f"split({term_text(s)}, {x}.{y}.{term_text(body)})"
    if tag == "app":
        text = f"{term_text(t[1], 1)} {term_text(t[2], 2)}"
        return f"({text})" if prec > 1 else text
    if tag == "lam":
        text = f"\\{t[1]}.{term_text(t[2])}"
        return f"({text})" if prec > 0 else text
    raise ValueError(f"not a term: {t!r}")


def claim_text(c, prec: int = 0) -> str:
    if isinstance(c, str):
        return c
    tag, left, right = c
    if tag == "imp" and right == BOTTOM:
        text = "~" + claim_text(left, 4)
        return f"({text})" if prec > 4 else text
    if tag == "imp":
        text = f"{claim_text(left, 2)} -> {claim_text(right, 1)}"
        return f"({text})" if prec > 1 else text
    if tag == "or":
        text = f"{claim_text(left, 2)} \\/ {claim_text(right, 3)}"
        return f"({text})" if prec > 2 else text
    if tag == "and":
        text = f"{claim_text(left, 3)} /\\ {claim_text(right, 4)}"
        return f"({text})" if prec > 3 else text
    raise ValueError(f"not a claim: {c!r}")


def weight_text(w: Fraction) -> str:
    """A weight exactly: a terminating decimal when one exists, else p/q."""
    if w.denominator == 1:
        return f"{w.numerator}.0"
    den = w.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    if den != 1:
        return f"{w.numerator}/{w.denominator}"
    digits = 0
    while (w * 10**digits).denominator != 1:
        digits += 1
    scaled = str((w * 10**digits).numerator).rjust(digits + 1, "0")
    return f"{scaled[:-digits]}.{scaled[-digits:]}"


def _tagged(text: str, actor: str, weight: Fraction) -> str:
    if actor != DEFAULT_ACTOR:
        text += f"^{actor}"
    if weight != 1:
        text += f"@{weight_text(weight)}"
    return text


def judgement_text(witness, actor: str, weight: Fraction, claim) -> str:
    text = term_text(witness)
    # A bare lambda would swallow a following @weight as its annotation.
    if not isinstance(witness, str) and witness[0] == "lam" and actor == DEFAULT_ACTOR and weight != 1:
        text = f"({text})"
    return f"{_tagged(text, actor, weight)} : {claim_text(claim)}"


def sequent_text(hypotheses, conclusion) -> str:
    """hypotheses: (var, actor, weight, claim) tuples; conclusion likewise
    with a witness term in place of the variable."""
    hyps = ", ".join(f"{_tagged(v, a, w)} : {claim_text(c)}" for v, a, w, c in hypotheses)
    concl = judgement_text(*conclusion)
    return f"{hyps} |- {concl}" if hyps else f"|- {concl}"


def line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


# ---------------------------------------------------------------------------
# Trust graphs


def product(weights) -> Fraction:
    out = Fraction(1)
    for w in weights:
        out *= w
    return out


def symmetric_pairs(edges: Edges) -> list[tuple[str, str]]:
    return sorted((s, t) for s, t in edges if s < t and (t, s) in edges)


def decay(edges: Edges) -> Optional[tuple[tuple[str, ...], Fraction]]:
    """The maximal simple path with the smallest product, ties to the
    smaller path; a path is maximal when no edge leads to an unvisited
    actor. Exhaustive, so only for small or acyclic relations."""
    out: dict[str, list[tuple[str, Fraction]]] = {}
    actors: set[str] = set()
    for (s, t), w in edges.items():
        out.setdefault(s, []).append((t, w))
        actors |= {s, t}
    best: list = []

    def walk(path: list[str], seen: set[str], weight: Fraction) -> None:
        steps = [(t, w) for t, w in out.get(path[-1], ()) if t not in seen]
        if not steps:
            key = (weight, tuple(path))
            if not best or key < best[0]:
                best[:] = [key]
            return
        for t, w in steps:
            path.append(t)
            seen.add(t)
            walk(path, seen, weight * w)
            seen.discard(t)
            path.pop()

    for start in sorted(actors):
        walk([start], {start}, Fraction(1))
    if not best:
        return None
    weight, path = best[0]
    return path, weight


def best_trust(edges: Edges, source: str, target: str) -> Optional[Fraction]:
    """Largest path product from source to target (1 from an actor to itself),
    by relaxing every edge until nothing improves."""
    best = {source: Fraction(1)}
    changed = True
    while changed:
        changed = False
        for (s, t), w in edges.items():
            if s in best and (t not in best or best[s] * w > best[t]):
                best[t] = best[s] * w
                changed = True
    return best.get(target)


def close(holdings: dict[tuple, Fraction], edges: Edges) -> dict[tuple, Fraction]:
    """Trust closure of (witness, actor) -> weight: what the target of an
    edge holds, the source holds at the edge weight times as much; keep
    the largest weight per (witness, actor)."""
    by_target: dict[str, list[tuple[str, Fraction]]] = {}
    for (s, t), w in edges.items():
        by_target.setdefault(t, []).append((s, w))
    best = dict(holdings)
    todo = list(best)
    while todo:
        witness, actor = todo.pop()
        weight = best[(witness, actor)]
        for s, w in by_target.get(actor, ()):
            if best.get((witness, s), -1) < weight * w:
                best[(witness, s)] = weight * w
                todo.append((witness, s))
    return best

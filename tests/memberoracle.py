"""Reference membership for differential semantics tests.

The membership query semantics answered before its witness-steered walk,
frozen with the denotation and the trust closure it relied on: build the
claim's whole denotation (every table of every arrow), close it under the
trust family, then scan it for the witness.  Atomic sets are the model's
assignment as given, closed here by oracle_close, never by the package.  It is slow on purpose, and
exponential in the arrows' domains, and must stay simple;
veracity.semantics.member is checked against it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction
from itertools import product

from veracity.core import (
    And,
    Apply,
    Atomic,
    Bottom,
    CasesOf,
    Implies,
    Judgement,
    Lambda,
    Or,
    Pair,
    SplitOf,
    TagL,
    TagR,
    alpha_equal,
)
from veracity.semantics import DepthExceeded, MapTable, Model, WeightedWitness


def oracle_close(witnesses, family):
    """Least superset closed under weighted trust transfer, one weight per
    (term, actor): the largest."""
    best = {}
    queue = deque()

    def offer(term, actor, weight):
        key = (term, actor)
        if key not in best or weight > best[key]:
            best[key] = weight
            queue.append(key)

    for w in witnesses:
        offer(w.term, w.actor, w.weight)
    by_target = defaultdict(list)
    for relation in family:
        for edge in relation.edges:
            by_target[edge.target].append(edge)
    while queue:
        term, actor = queue.popleft()
        weight = best[(term, actor)]
        for edge in by_target.get(actor, ()):
            offer(term, edge.source, edge.weight * weight)
    return frozenset(WeightedWitness(t, a, w) for (t, a), w in best.items())


def oracle_denote(claim, model: Model, depth_bound: int) -> frozenset:
    """The whole witness set of a claim; DepthExceeded when an arrow sits
    depth_bound or more arrows deep."""
    if isinstance(claim, Bottom):
        return frozenset()
    if isinstance(claim, Atomic):
        return oracle_close(model.assignment.get(claim.name, ()), model.trust_family)
    if isinstance(claim, And):
        lefts = oracle_denote(claim.left, model, depth_bound)
        rights = oracle_denote(claim.right, model, depth_bound)
        return frozenset(
            WeightedWitness(Pair(a.term, b.term), a.actor, min(a.weight, b.weight))
            for a in lefts
            for b in rights
            if a.actor == b.actor
        )
    if isinstance(claim, Or):
        lefts = oracle_denote(claim.left, model, depth_bound)
        rights = oracle_denote(claim.right, model, depth_bound)
        return frozenset(
            [WeightedWitness(TagL(a.term), a.actor, a.weight) for a in lefts]
            + [WeightedWitness(TagR(b.term), b.actor, b.weight) for b in rights]
        )
    if isinstance(claim, Implies):
        if depth_bound <= 0:
            raise DepthExceeded(depth_bound)
        domain_set = oracle_denote(claim.antecedent, model, depth_bound - 1)
        codomain_set = oracle_denote(claim.consequent, model, depth_bound - 1)
        tables = []
        for actor in sorted(model.actors):
            domain = sorted((w for w in domain_set if w.actor == actor), key=repr)
            codomain = sorted((w for w in codomain_set if w.actor == actor), key=repr)
            if not domain:
                tables.append(WeightedWitness(MapTable(()), actor, Fraction(1)))
                continue
            for images in product(codomain, repeat=len(domain)):
                tables.append(WeightedWitness(MapTable(tuple(zip(domain, images))), actor, Fraction(1)))
        return frozenset(tables)
    raise TypeError(f"not a claim: {claim!r}")


def oracle_contains_table(term) -> bool:
    if isinstance(term, MapTable):
        return True
    if isinstance(term, Pair):
        return oracle_contains_table(term.fst) or oracle_contains_table(term.snd)
    if isinstance(term, (TagL, TagR)):
        return oracle_contains_table(term.value)
    if isinstance(term, Apply):
        return oracle_contains_table(term.fn) or oracle_contains_table(term.arg)
    if isinstance(term, Lambda):
        return oracle_contains_table(term.body)
    if isinstance(term, CasesOf):
        return any(map(oracle_contains_table, (term.scrutinee, term.left_body, term.right_body)))
    if isinstance(term, SplitOf):
        return oracle_contains_table(term.scrutinee) or oracle_contains_table(term.body)
    return False


def oracle_terms_match(query, candidate) -> bool:
    if oracle_contains_table(query) or oracle_contains_table(candidate):
        return query == candidate
    return alpha_equal(query, candidate)


def oracle_member(judgement: Judgement, model: Model, depth_bound: int = 3) -> bool:
    """Whether the closed denotation holds the witness at the judgement's
    actor with at least its weight."""
    candidates = oracle_close(oracle_denote(judgement.claim, model, depth_bound), model.trust_family)
    return any(
        c.actor == judgement.actor
        and c.weight >= judgement.weight
        and oracle_terms_match(judgement.witness, c.term)
        for c in candidates
    )

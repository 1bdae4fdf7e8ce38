"""Reference trust layer for differential trust tests.

veracity.trust as it stood when every reader built the relation's
TrustEdge objects, frozen: the best-trust search steps along edges grouped
by outgoing_edges, symmetric_pairs and the decay search walk
relation.edges, and the search runs _least_path for every actor, a
one-actor component included, then compares every actor's completion.
reach is a semantics Model's reach over the same edges.  It must not
change: veracity.trust and Model.reach are checked against it, path for
path and on which relations the decay budget runs out.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from typing import Iterable, Mapping, Optional

from veracity.core import TrustEdge, TrustRelation, Weight


@dataclass(frozen=True)
class TrustGraph:
    """A trust relation together with its node set."""

    relation: TrustRelation
    actors: frozenset[str]

    @classmethod
    def from_relation(
        cls, relation: TrustRelation, extra_actors: Iterable[str] = ()
    ) -> "TrustGraph":
        return cls(relation, relation.actors() | frozenset(extra_actors))


def outgoing_edges(edges: Iterable[TrustEdge]) -> dict[str, list[TrustEdge]]:
    """The edges grouped by source actor, as best_trust_from reads them."""
    outgoing: dict[str, list[TrustEdge]] = {}
    for edge in edges:
        outgoing.setdefault(edge.source, []).append(edge)
    return outgoing


def best_trust_from(
    outgoing: Mapping[str, Iterable[TrustEdge]], source: str
) -> tuple[dict[str, Weight], dict[str, str]]:
    """The maximum path product from source to every actor it reaches,
    source itself at 1, and the actor before each other one on a best path.

    outgoing maps each actor to its edges, as outgoing_edges builds it.
    """
    best: dict[str, Weight] = {source: Fraction(1)}
    parent: dict[str, str] = {}
    tiebreak = count()
    # Priorities approximate -log(product); stale entries are skipped and
    # improvements re-queued, so float rounding cannot affect the result.
    # The log is taken of numerator and denominator apart: a product below
    # the smallest float would round to 0.0, which has no log.
    heap = [(0.0, next(tiebreak), source)]
    while heap:
        _, _, node = heapq.heappop(heap)
        weight = best[node]
        for edge in outgoing.get(node, ()):
            candidate = weight * edge.weight
            known = best.get(edge.target)
            if known is not None and candidate <= known:
                continue
            best[edge.target] = candidate
            parent[edge.target] = node
            priority = (
                math.inf if candidate == 0
                else math.log(candidate.denominator) - math.log(candidate.numerator)
            )
            heapq.heappush(heap, (priority, next(tiebreak), edge.target))
    return best, parent


def best_trust_path(
    graph: TrustGraph, source: str, target: str
) -> Optional[tuple[tuple[str, ...], Weight]]:
    """The maximum-product trust path from source to target, with its weight.

    Returns None when the target is unreachable. An actor reaches itself
    at weight 1 along the empty path.
    """
    if source == target:
        return (source,), Fraction(1)
    best, parent = best_trust_from(outgoing_edges(graph.relation.edges), source)
    if target not in best:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return tuple(reversed(path)), best[target]


def reach(family: Iterable[TrustRelation], actor: str) -> dict[str, Weight]:
    """The best trust product from actor to every actor it reaches over a
    family of relations, itself at 1, as a semantics Model reads it."""
    edges = (edge for relation in family for edge in relation.edges)
    return best_trust_from(outgoing_edges(edges), actor)[0]


def best_trust(graph: TrustGraph, source: str, target: str) -> Optional[Weight]:
    """The maximum path product from source to target, if any path exists."""
    return best_trust_from(outgoing_edges(graph.relation.edges), source)[0].get(target)


def chain_weight(weights: Iterable[Weight]) -> Weight:
    """The product of a chain of trust weights; an empty chain is full trust."""
    return reduce(lambda acc, w: acc * w, weights, Fraction(1))


@dataclass(frozen=True)
class ChainStarComparison:
    """Chained trust versus routing everything through a shared ledger."""

    star_at_least_chain: bool
    chain: Weight
    star: Weight


def compare_chain_star(
    chain_weights: Iterable[Weight], star_ledger_trust: Weight
) -> ChainStarComparison:
    """Compare a trust chain against a star whose spokes carry full trust.

    The star's value is the full spoke trust (1) times the trust placed in
    the ledger, so the star wins exactly when the ledger trust is at least
    the chain product.
    """
    chain = chain_weight(chain_weights)
    return ChainStarComparison(star_ledger_trust >= chain, chain, star_ledger_trust)


def compare_relations(
    chain: TrustRelation, star: TrustRelation, source: str, target: str
) -> Optional[ChainStarComparison]:
    """Compare two relations end to end: the best chain path in one against
    the best star value in the other. None when either side is unreachable."""
    found = best_trust_path(TrustGraph.from_relation(chain), source, target)
    star_value = best_trust(TrustGraph.from_relation(star), source, target)
    if found is None or star_value is None:
        return None
    return compare_chain_star((found[1],), star_value)


@dataclass(frozen=True)
class RelationProperties:
    """Structural facts about a trust relation worth surfacing in reports."""

    symmetric_pairs: tuple[tuple[str, str], ...]
    longest_chain_decay: Optional[tuple[tuple[str, ...], Weight]]


# A cyclic component of at most MEMO_CAP actors is searched with a memo of
# at most MEMO_CAP * 2**(MEMO_CAP - 1) = 24,576 states; a complete relation
# of that size takes about 0.2 s and 7 MiB. Beyond it the memo grows too
# large to be worth holding, and larger components are backtracked.
MEMO_CAP = 12
# Frames the decay search may push in one relation, each walking at most
# its actor's edges inside the component: room for four full memos of
# MEMO_CAP actors and for every relation of the trust-graphs benchmark
# (the largest takes about 6,300), while a 60-actor complete relation
# reaches it in about half a second.
DECAY_BUDGET = 100_000


class DecayBudgetExceeded(RuntimeError):
    """The decay search would push more than budget frames."""

    def __init__(self, budget: int) -> None:
        super().__init__(f"decay not computed within budget {budget}")
        self.budget = budget


def symmetric_pairs(relation: TrustRelation) -> tuple[tuple[str, str], ...]:
    """The actor pairs with an edge each way, each pair in name order."""
    return tuple(sorted(
        (e.source, e.target)
        for e in relation.edges
        if e.source < e.target and relation.weight_between(e.target, e.source) is not None
    ))


def relation_properties(graph: TrustGraph) -> RelationProperties:
    """Report symmetric edges and chain decay.

    Self-trust is implicit, so every relation is reflexive-complete.
    Symmetric edge pairs are legal and merely informational. The decay
    witness is the maximal simple path with the smallest weight product:
    the strongest evidence that longer chains erode trust. A path is
    maximal when its last actor has no edge to an actor off the path, and
    an actor with no such edge at all is a one-actor path of weight 1.
    Equal products go to the path that is smaller as a tuple of actor
    names, so the witness is unique. It is found by the search described
    in veracity.trust's module docstring: linear in the edges on an acyclic relation;
    in a cyclic strongly connected component of at most MEMO_CAP actors
    one memo over (on-path actors, actor) states shared by all its entry
    actors; in a larger one a backtracking search. Products are exact
    (numerator, denominator) int pairs until the witness becomes a
    Fraction. Raises DecayBudgetExceeded, carrying .budget, when the memo
    states and backtracking frames together would pass DECAY_BUDGET.
    """
    decay: Optional[tuple[tuple[str, ...], Weight]] = None
    if graph.actors:
        least = None
        for found in _least_decays(graph).values():
            if least is None or _below(found, least):
                least = found
        numerator, denominator, suffix = least
        decay = (_flatten(suffix), Fraction(numerator, denominator))
    return RelationProperties(symmetric_pairs(graph.relation), decay)


# A path suffix is a cons list (actor, rest) ending in (). Cons lists compare
# exactly like the flat tuples they spell, and a suffix found once is shared
# by every longer path that ends with it. A completion is (numerator,
# denominator, suffix): a path's weight as an unreduced int pair with a
# positive denominator, and the path.
Suffix = tuple
Completion = tuple[int, int, Suffix]
Successors = dict[str, list[tuple[str, int, int]]]


def _below(a: Completion, b: Completion) -> bool:
    """Whether completion a comes before b: the smaller weight, compared by
    cross-multiplying, then the smaller path."""
    left, right = a[0] * b[1], b[0] * a[1]
    return left < right or (left == right and a[2] < b[2])


def _flatten(suffix: Suffix) -> tuple[str, ...]:
    path = []
    while suffix:
        actor, suffix = suffix
        path.append(actor)
    return tuple(path)


def _least_decays(graph: TrustGraph) -> dict[str, Completion]:
    """The least completion, a maximal simple path, from every actor."""
    successors: Successors = {actor: [] for actor in graph.actors}
    for edge in graph.relation.edges:
        if edge.source != edge.target:
            weight = edge.weight
            successors[edge.source].append((edge.target, weight.numerator, weight.denominator))
    for steps in successors.values():
        steps.sort()

    # First paths are only ever taken behind a zero-weight edge.
    zero = any(edge.weight == 0 for edge in graph.relation.edges)
    least: dict[str, Completion] = {}
    first: dict[str, Suffix] = {}
    work = [DECAY_BUDGET]
    for members in _strong_components(successors):
        inside = frozenset(members)
        if zero:
            for actor in members:
                first[actor] = _first_path(actor, set(), inside, successors, first)
        inner = {actor: [s for s in successors[actor] if s[0] in inside] for actor in members}
        exits = {actor: _least_exit(actor, successors[actor], inside, least, first) for actor in members}
        bits = None
        if 1 < len(members) <= MEMO_CAP:
            bits = {actor: 1 << i for i, actor in enumerate(members)}
        memo: dict[tuple[int, str], Completion] = {}
        for actor in members:
            least[actor] = _least_path(
                actor, inside, inner, exits, successors, first, bits, memo, work
            )
    return least


def _least_exit(
    actor: str,
    steps: list[tuple[str, int, int]],
    inside: frozenset[str],
    least: dict[str, Completion],
    first: dict[str, Suffix],
) -> Optional[Completion]:
    """The least completion from actor that leaves its component at once,
    None when it has no exit. Exits lead into components already searched,
    so it is the same whatever else is on the path."""
    best = None
    for target, numerator, denominator in steps:
        if target in inside:
            continue
        if numerator:
            product, under, suffix = least[target]
            found = (numerator * product, denominator * under, (actor, suffix))
        else:
            found = (0, 1, (actor, first[target]))
        if best is None or _below(found, best):
            best = found
    return best


def _strong_components(successors: Successors) -> list[list[str]]:
    """Tarjan's strongly connected components, each listed after every
    component it reaches."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    out: list[list[str]] = []
    for root in sorted(successors):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            actor, steps = work[-1]
            for target, _, _ in steps:
                if target not in index:
                    index[target] = low[target] = len(index)
                    stack.append(target)
                    on_stack.add(target)
                    work.append((target, iter(successors[target])))
                    break
                if target in on_stack:
                    low[actor] = min(low[actor], index[target])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[actor])
                if low[actor] == index[actor]:
                    members = []
                    while not members or members[-1] != actor:
                        members.append(stack.pop())
                        on_stack.discard(members[-1])
                    out.append(members)
    return out


def _first_path(
    start: str,
    on_path: set[str],
    inside: frozenset[str],
    successors: Successors,
    first: dict[str, Suffix],
) -> Suffix:
    """The lexicographically first maximal simple path from start avoiding
    on_path, the actors of start's component already on the path: take the
    smallest free successor at every step. Leaves on_path as it found it."""
    walk: list[str] = []
    tail: Suffix = ()
    step: Optional[str] = start
    while step is not None:
        if step not in inside:
            tail = first[step]
            break
        walk.append(step)
        on_path.add(step)
        step = next((t for t, _, _ in successors[step] if t not in on_path), None)
    on_path.difference_update(walk)
    for actor in reversed(walk):
        tail = (actor, tail)
    return tail


def _least_path(
    entry: str,
    inside: frozenset[str],
    inner: Successors,
    exits: dict[str, Optional[Completion]],
    successors: Successors,
    first: dict[str, Suffix],
    bits: Optional[dict[str, int]],
    memo: dict[tuple[int, str], Completion],
    work: list[int],
) -> Completion:
    """The least completion from entry through entry's component, whose
    actors' successors inside it are inner and whose least exits are exits.
    When bits numbers the component's actors, memo holds the least
    completion of every (bitmask of on-path actors, actor) state already
    searched, and the search reads and fills it; otherwise it backtracks.
    work holds what is left of the budget: each frame pushed below entry
    costs one, and walks only the edges inside the component."""
    on_path = {entry}
    left = work[0]
    # A frame is [actor, the edge into it as numerator and denominator, the
    # bitmask of on-path actors (None without bits), its iterator over
    # inner, least completion found so far].
    stack: list[list] = [[entry, 1, 1, bits and bits[entry], iter(inner[entry]), exits[entry]]]
    while True:
        frame = stack[-1]
        actor, into, over, mask, steps, best = frame
        for target, numerator, denominator in steps:
            if target in on_path:
                continue
            if not numerator:
                found = (0, 1, (actor, _first_path(target, on_path, inside, successors, first)))
            else:
                known = bits and memo.get((mask | bits[target], target))
                if not known:
                    left -= 1
                    if left < 0:
                        raise DecayBudgetExceeded(DECAY_BUDGET)
                    frame[5] = best
                    on_path.add(target)
                    stack.append([
                        target, numerator, denominator, bits and mask | bits[target],
                        iter(inner[target]), exits[target],
                    ])
                    break
                found = (numerator * known[0], denominator * known[1], (actor, known[2]))
            if best is None or _below(found, best):
                best = found
        else:
            stack.pop()
            on_path.discard(actor)
            if best is None:
                best = (1, 1, (actor, ()))
            if bits is not None:
                memo[mask, actor] = best
            if not stack:
                work[0] = left
                return best
            parent = stack[-1]
            found = (into * best[0], over * best[1], (parent[0], best[2]))
            if parent[5] is None or _below(found, parent[5]):
                parent[5] = found

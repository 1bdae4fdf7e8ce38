"""Reference decay search for differential trust tests.

The decay witness of veracity.trust.relation_properties as it was found
before the exact integer-pair search and its per-component memo: the same
strongly connected components in reverse topological order and the same
zero-weight "first path" rule, but a backtracking search over the simple
paths of each component from every entry actor, with a Fraction product
and compare at every frame. It has no work budget and takes time
exponential in a component's size, so keep its inputs small; it must stay
as it is, and the package's search is checked against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from veracity.trust import TrustGraph

Suffix = tuple
Successors = dict[str, list[tuple[str, Fraction]]]


def decay(graph: TrustGraph) -> Optional[tuple[tuple[str, ...], Fraction]]:
    """The least (weight, path) maximal simple path, as (path, weight);
    None for a graph without actors."""
    if not graph.actors:
        return None
    weight, suffix = min(_least_decays(graph).values())
    return _flatten(suffix), weight


def _flatten(suffix: Suffix) -> tuple[str, ...]:
    path = []
    while suffix:
        actor, suffix = suffix
        path.append(actor)
    return tuple(path)


def _least_decays(graph: TrustGraph) -> dict[str, tuple[Fraction, Suffix]]:
    successors: Successors = {actor: [] for actor in graph.actors}
    for edge in graph.relation.edges:
        if edge.source != edge.target:
            successors[edge.source].append((edge.target, edge.weight))
    for steps in successors.values():
        steps.sort()

    zero = any(edge.weight == 0 for edge in graph.relation.edges)
    least: dict[str, tuple[Fraction, Suffix]] = {}
    first: dict[str, Suffix] = {}
    for members in _strong_components(successors):
        inside = frozenset(members)
        if zero:
            for actor in members:
                first[actor] = _first_path(actor, set(), inside, successors, first)
        for actor in members:
            least[actor] = _least_path(actor, inside, successors, least, first)
    return least


def _strong_components(successors: Successors) -> list[list[str]]:
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
            for target, _ in steps:
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


def _first_path(start, on_path, inside, successors, first) -> Suffix:
    walk: list[str] = []
    tail: Suffix = ()
    step: Optional[str] = start
    while step is not None:
        if step not in inside:
            tail = first[step]
            break
        walk.append(step)
        on_path.add(step)
        step = next((t for t, _ in successors[step] if t not in on_path), None)
    on_path.difference_update(walk)
    for actor in reversed(walk):
        tail = (actor, tail)
    return tail


def _least_path(entry, inside, successors, least, first) -> tuple[Fraction, Suffix]:
    on_path = {entry}
    stack: list[list] = [[entry, Fraction(1), iter(successors[entry]), None]]
    while True:
        frame = stack[-1]
        actor, into, steps, best = frame
        for target, weight in steps:
            if target in on_path:
                continue
            if weight and target in inside:
                frame[3] = best
                on_path.add(target)
                stack.append([target, weight, iter(successors[target]), None])
                break
            if weight:
                product, suffix = least[target]
                found = (weight * product, (actor, suffix))
            else:
                found = (weight, (actor, _first_path(target, on_path, inside, successors, first)))
            if best is None or found < best:
                best = found
        else:
            stack.pop()
            on_path.discard(actor)
            if best is None:
                best = (Fraction(1), (actor, ()))
            if not stack:
                return best
            parent = stack[-1]
            found = (into * best[0], (parent[0], best[1]))
            if parent[3] is None or found < parent[3]:
                parent[3] = found

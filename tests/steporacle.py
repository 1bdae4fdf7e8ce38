"""Reference reducer for differential evaluator tests.

The recursive leftmost-outermost step the evaluator used before its
zipper walk, frozen with the substitution it relied on: free variables
recomputed on every call, a search from the root on every step, and the
whole mapping carried under binders.  It is slow on purpose and must stay
simple; veracity.evaluator is checked against it step for step.
"""

from __future__ import annotations

from typing import Mapping, Optional

from veracity.core import (
    Apply,
    Atom,
    CasesOf,
    Lambda,
    Pair,
    SplitOf,
    TagL,
    TagR,
    Term,
    Var,
    fresh_name,
)


def oracle_free_vars(term: Term) -> frozenset[str]:
    if isinstance(term, Atom):
        return frozenset()
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Pair):
        return oracle_free_vars(term.fst) | oracle_free_vars(term.snd)
    if isinstance(term, (TagL, TagR)):
        return oracle_free_vars(term.value)
    if isinstance(term, Lambda):
        return oracle_free_vars(term.body) - {term.param}
    if isinstance(term, Apply):
        return oracle_free_vars(term.fn) | oracle_free_vars(term.arg)
    if isinstance(term, CasesOf):
        return (
            oracle_free_vars(term.scrutinee)
            | (oracle_free_vars(term.left_body) - {term.left_var})
            | (oracle_free_vars(term.right_body) - {term.right_var})
        )
    if isinstance(term, SplitOf):
        return oracle_free_vars(term.scrutinee) | (
            oracle_free_vars(term.body) - {term.fst_var, term.snd_var}
        )
    raise TypeError(f"not a term: {term!r}")


def oracle_substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    if not mapping:
        return term
    if isinstance(term, Atom):
        return term
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, Pair):
        return Pair(oracle_substitute(term.fst, mapping), oracle_substitute(term.snd, mapping))
    if isinstance(term, TagL):
        return TagL(oracle_substitute(term.value, mapping))
    if isinstance(term, TagR):
        return TagR(oracle_substitute(term.value, mapping))
    if isinstance(term, Apply):
        return Apply(oracle_substitute(term.fn, mapping), oracle_substitute(term.arg, mapping))
    if isinstance(term, Lambda):
        (param,), body = _freshen((term.param,), term.body, mapping)
        narrowed = _narrow(mapping, (term.param,), (param,))
        return Lambda(param, oracle_substitute(body, narrowed), term.weight_fn)
    if isinstance(term, CasesOf):
        scrutinee = oracle_substitute(term.scrutinee, mapping)
        (lv,), lbody = _freshen((term.left_var,), term.left_body, mapping)
        (rv,), rbody = _freshen((term.right_var,), term.right_body, mapping)
        return CasesOf(
            scrutinee,
            lv,
            oracle_substitute(lbody, _narrow(mapping, (term.left_var,), (lv,))),
            rv,
            oracle_substitute(rbody, _narrow(mapping, (term.right_var,), (rv,))),
        )
    if isinstance(term, SplitOf):
        scrutinee = oracle_substitute(term.scrutinee, mapping)
        binders = (term.fst_var, term.snd_var)
        (fv, sv), body = _freshen(binders, term.body, mapping)
        narrowed = _narrow(mapping, binders, (fv, sv))
        return SplitOf(scrutinee, fv, sv, oracle_substitute(body, narrowed))
    raise TypeError(f"not a term: {term!r}")


def _freshen(binders, body, mapping):
    live = {n: t for n, t in mapping.items() if n not in binders and n in oracle_free_vars(body)}
    danger = set()
    for t in live.values():
        danger |= oracle_free_vars(t)
    renamed = list(binders)
    current = body
    for i, b in enumerate(binders):
        if b in danger:
            avoid = danger | oracle_free_vars(current) | set(live) | set(renamed)
            nb = fresh_name(b, avoid)
            current = oracle_substitute(current, {b: Var(nb)})
            renamed[i] = nb
    return tuple(renamed), current


def _narrow(mapping, old, new):
    out = {n: t for n, t in mapping.items() if n not in old}
    for n in new:
        out.pop(n, None)
    return out


def oracle_contract(term: Term) -> Optional[Term]:
    if isinstance(term, Apply) and isinstance(term.fn, Lambda):
        return oracle_substitute(term.fn.body, {term.fn.param: term.arg})
    if isinstance(term, CasesOf):
        scrutinee = term.scrutinee
        if isinstance(scrutinee, TagL):
            return oracle_substitute(term.left_body, {term.left_var: scrutinee.value})
        if isinstance(scrutinee, TagR):
            return oracle_substitute(term.right_body, {term.right_var: scrutinee.value})
    if isinstance(term, SplitOf) and isinstance(term.scrutinee, Pair):
        return oracle_substitute(
            term.body,
            {term.fst_var: term.scrutinee.fst, term.snd_var: term.scrutinee.snd},
        )
    return None


def oracle_step(term: Term) -> Optional[Term]:
    """One leftmost-outermost step, searched for from the root."""
    reduced = oracle_contract(term)
    if reduced is not None:
        return reduced
    if isinstance(term, Pair):
        fst = oracle_step(term.fst)
        if fst is not None:
            return Pair(fst, term.snd)
        snd = oracle_step(term.snd)
        return None if snd is None else Pair(term.fst, snd)
    if isinstance(term, (TagL, TagR)):
        value = oracle_step(term.value)
        return None if value is None else type(term)(value)
    if isinstance(term, Lambda):
        body = oracle_step(term.body)
        return None if body is None else Lambda(term.param, body, term.weight_fn)
    if isinstance(term, Apply):
        fn = oracle_step(term.fn)
        if fn is not None:
            return Apply(fn, term.arg)
        arg = oracle_step(term.arg)
        return None if arg is None else Apply(term.fn, arg)
    if isinstance(term, CasesOf):
        scrutinee = oracle_step(term.scrutinee)
        if scrutinee is not None:
            return CasesOf(scrutinee, term.left_var, term.left_body, term.right_var, term.right_body)
        left = oracle_step(term.left_body)
        if left is not None:
            return CasesOf(term.scrutinee, term.left_var, left, term.right_var, term.right_body)
        right = oracle_step(term.right_body)
        if right is None:
            return None
        return CasesOf(term.scrutinee, term.left_var, term.left_body, term.right_var, right)
    if isinstance(term, SplitOf):
        scrutinee = oracle_step(term.scrutinee)
        if scrutinee is not None:
            return SplitOf(scrutinee, term.fst_var, term.snd_var, term.body)
        body = oracle_step(term.body)
        return None if body is None else SplitOf(term.scrutinee, term.fst_var, term.snd_var, body)
    return None


def oracle_trace(term: Term, limit: int) -> tuple[list[Term], bool]:
    """Up to limit steps from term: (the terms, whether the last is normal)."""
    sequence = [term]
    while len(sequence) <= limit:
        nxt = oracle_step(sequence[-1])
        if nxt is None:
            return sequence, True
        sequence.append(nxt)
    return sequence, oracle_step(sequence[-1]) is None

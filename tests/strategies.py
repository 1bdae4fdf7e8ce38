"""Shared hypothesis strategies for veracity types."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from veracity.core import (
    ARG,
    And,
    Apply,
    Atom,
    Atomic,
    Bottom,
    CasesOf,
    Const,
    Implies,
    Lambda,
    Min,
    Mul,
    Or,
    Pair,
    Provenance,
    SplitOf,
    TagL,
    TagR,
    Var,
)

VAR_NAMES = ["x", "y", "z", "u", "v", "w", "f", "g"]
# i and j stress the surface syntax, where they double as tag constructors.
ATOM_NAMES = ["a", "b", "c", "l", "s", "m", "i", "j"]
CLAIM_NAMES = ["A", "B", "C", "D"]

var_names = st.sampled_from(VAR_NAMES)
atom_names = st.sampled_from(ATOM_NAMES)

weights = st.fractions(min_value=0, max_value=1, max_denominator=64)

nonzero_weights = st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64)


def weight_exprs(max_depth: int = 3):
    base = st.one_of(st.just(ARG), weights.map(Const))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Mul(*p)),
            st.tuples(inner, inner).map(lambda p: Min(*p)),
        ),
        max_leaves=2**max_depth,
    )


def decreasing_weight_exprs(max_depth: int = 3):
    """Transformers that never exceed their argument.

    Every expression here is anchored on Arg through Mul or Min, so
    eval(f, z) <= z holds for all z in [0, 1].
    """
    anchored = st.deferred(
        lambda: st.one_of(
            st.just(ARG),
            st.tuples(anchored, weight_exprs(1)).map(lambda p: Mul(*p)),
            st.tuples(weight_exprs(1), anchored).map(lambda p: Min(*p)),
            st.tuples(anchored, anchored).map(lambda p: Mul(*p)),
        )
    )
    return anchored


provenances = st.builds(
    Provenance,
    who=st.one_of(st.none(), st.sampled_from(["p", "q"])),
    where=st.one_of(st.none(), st.sampled_from(["here", "there"])),
    when=st.one_of(st.none(), st.just("2024")),
    how=st.one_of(st.none(), st.just("survey")),
)

def atoms_named(names):
    return st.one_of(
        names.map(Atom),
        st.tuples(names, provenances).map(lambda p: Atom(p[0], p[1])),
    )


atoms = atoms_named(atom_names)


def claims(max_leaves: int = 8):
    base = st.one_of(st.just(Bottom()), st.sampled_from(CLAIM_NAMES).map(Atomic))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
        ),
        max_leaves=max_leaves,
    )


def _split_of(args):
    scrutinee, fst, snd, body = args
    if fst == snd:
        snd = snd + "'"
    return SplitOf(scrutinee, fst, snd, body)


def terms(max_leaves: int = 10, atom_names=atom_names):
    """Random terms; atom_names draws the atoms' names."""
    base = st.one_of(atoms_named(atom_names), var_names.map(Var))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Pair(*p)),
            inner.map(TagL),
            inner.map(TagR),
            st.tuples(var_names, inner, weight_exprs(2)).map(
                lambda p: Lambda(p[0], p[1], p[2])
            ),
            st.tuples(var_names, inner).map(lambda p: Lambda(p[0], p[1])),
            st.tuples(inner, inner).map(lambda p: Apply(*p)),
            st.tuples(inner, var_names, inner, var_names, inner).map(
                lambda p: CasesOf(p[0], p[1], p[2], p[3], p[4])
            ),
            st.tuples(inner, var_names, var_names, inner).map(_split_of),
        ),
        max_leaves=max_leaves,
    )


def _beta(args):
    param, body, arg = args
    return Apply(Lambda(param, body), arg)


def _cases(args):
    value, left, lv, lbody, rv, rbody = args
    return CasesOf(TagL(value) if left else TagR(value), lv, lbody, rv, rbody)


def _split(args):
    fst, snd, fv, sv, body = args
    return _split_of((Pair(fst, snd), fv, sv, body))


def redex_terms(max_leaves: int = 16, atom_names=atom_names):
    """Terms dense in redexes of all four kinds, nested in each other's
    functions, scrutinees, arguments and bodies, so that reducing one
    exposes the next (terms() rarely yields a redex at all)."""
    leaf = st.one_of(atoms_named(atom_names), var_names.map(Var))
    base = st.one_of(
        leaf,
        st.tuples(var_names, leaf).map(lambda p: Apply(Lambda(p[0], Var(p[0])), p[1])),
        st.tuples(var_names, var_names, leaf).map(lambda p: Apply(Lambda(p[0], Var(p[1])), p[2])),
        st.tuples(var_names, var_names, leaf).map(
            lambda p: Lambda(p[0], Apply(Lambda(p[1], Pair(Var(p[1]), Var(p[0]))), p[2]))
        ),
    )
    single = st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(var_names, inner, inner).map(_beta),
            st.tuples(inner, st.booleans(), var_names, inner, var_names, inner).map(_cases),
            st.tuples(inner, inner, var_names, var_names, inner).map(_split),
            st.tuples(var_names, inner).map(lambda p: Lambda(p[0], p[1])),
            st.tuples(var_names, inner, weight_exprs(1)).map(lambda p: Lambda(*p)),
            st.tuples(inner, inner).map(lambda p: Apply(*p)),
            st.tuples(inner, inner).map(lambda p: Pair(*p)),
            inner.map(TagL),
        ),
        max_leaves=max_leaves,
    )
    # Several of them side by side, so that one term takes many steps.
    return st.lists(single, min_size=1, max_size=4).map(_nest_pairs)


def _nest_pairs(items):
    out = items[-1]
    for item in reversed(items[:-1]):
        out = Pair(item, out)
    return out

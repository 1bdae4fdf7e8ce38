"""Tests for the core term and weight operations.

Alpha-equivalence is checked against the independent nameless-form oracle in
dbterms.py; substitution behaviour is pinned by hand-computed cases first and
laws second.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import random
import re
import sys
import tracemalloc
import typing
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numberoracle
from dbterms import to_db
from steporacle import oracle_free_vars, oracle_substitute
from strategies import (
    _nest_pairs,
    decreasing_weight_exprs,
    redex_terms,
    terms,
    var_names,
    weight_exprs,
    weights,
)
from veracity import cli, core
from veracity.core import (
    ARG,
    Apply,
    Atom,
    Atomic,
    CasesOf,
    Const,
    Judgement,
    Lambda,
    Min,
    Mul,
    Pair,
    Provenance,
    SplitOf,
    TagL,
    TagR,
    TrustEdge,
    TrustRelation,
    Var,
    alpha_equal,
    as_weight,
    atoms_of_claim,
    eval_weight_expr,
    format_weight,
    ratio_text,
    free_vars,
    fresh_name,
    neg,
    scopes,
    substitute,
    substitute_many,
    subterms,
    with_subterms,
)
from veracity.evaluator import BudgetExceeded, normalize_counted
from veracity.kernel import check_proof, env_from_script
from veracity.parser import parse_script


class TestWeights:
    def test_exact_decimal_rendering(self) -> None:
        assert format_weight(Fraction(1)) == "1.0"
        assert format_weight(Fraction(0)) == "0.0"
        assert format_weight(Fraction(1, 2)) == "0.5"
        assert format_weight(Fraction(1, 5)) == "0.2"
        assert format_weight(Fraction(256, 625)) == "0.4096"

    def test_non_terminating_decimals_fall_back_to_fractions(self) -> None:
        assert format_weight(Fraction(1, 3)) == "1/3"
        assert format_weight(Fraction(5, 6)) == "5/6"

    def test_floats_are_rejected(self) -> None:
        with pytest.raises(TypeError):
            as_weight(0.5)

    def test_range_is_enforced(self) -> None:
        with pytest.raises(ValueError):
            as_weight(Fraction(3, 2))
        with pytest.raises(ValueError):
            as_weight(-1)
        with pytest.raises(ValueError):
            Judgement(Atom("a"), "P", Fraction(2), Atomic("A"))
        with pytest.raises(ValueError):
            TrustEdge("k", "l", Fraction(-1, 2))

    def test_string_decimals_convert_exactly(self) -> None:
        assert as_weight("0.4096") == Fraction(256, 625)
        assert as_weight("1/3") == Fraction(1, 3)

    def test_a_fraction_in_range_is_kept_as_it_is(self) -> None:
        for w in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert as_weight(w) is w

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (0.5, TypeError, "weights must be exact: pass a Fraction or a string, not a float"),
            (Fraction(3, 2), ValueError, "weight 3/2 outside [0, 1]"),
            (Fraction(-1, 2), ValueError, "weight -1/2 outside [0, 1]"),
            (-1, ValueError, "weight -1 outside [0, 1]"),
            (2, ValueError, "weight 2 outside [0, 1]"),
            ("1.5", ValueError, "weight 3/2 outside [0, 1]"),
            ("0.5.1", ValueError, "Invalid literal for Fraction: '0.5.1'"),
            ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
        ],
    )
    def test_errors_name_the_value(self, value, error, message) -> None:
        with pytest.raises(error) as exc:
            as_weight(value)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "numerator, shown", [("٠٠٧", "7"), ("1" * 5000, "1" * 5000)], ids=["arabic-indic", "5000-digits"]
    )
    def test_a_zero_denominator_is_named_at_any_length(self, numerator, shown) -> None:
        with pytest.raises(ZeroDivisionError) as exc:
            as_weight(f"{numerator}/00")
        assert str(exc.value) == f"Fraction({shown}, 0)"

    @given(st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=50)))
    def test_agrees_with_converting_first(self, value) -> None:
        """The exact-Fraction fast path returns what converting the value
        and comparing it with 0 and 1 does."""
        w = Fraction(value)
        if 0 <= w <= 1:
            assert as_weight(value) == w and type(as_weight(value)) is Fraction
        else:
            with pytest.raises(ValueError):
                as_weight(value)


def _str_format_weight(w: Fraction) -> str:
    """format_weight as it was written with str(), which is right wherever
    str() converts at all."""
    if w.denominator == 1:
        return f"{w.numerator}.0"
    den, twos, fives = w.denominator, 0, 0
    while den % 2 == 0:
        den, twos = den // 2, twos + 1
    while den % 5 == 0:
        den, fives = den // 5, fives + 1
    if den != 1:
        return f"{w.numerator}/{w.denominator}"
    digits = max(twos, fives)
    text = str(w.numerator * 10**digits // w.denominator).rjust(digits, "0")
    return f"{text[:-digits] or '0'}.{text[-digits:]}"


def _forbidden(*args):
    raise AssertionError("the int/str conversion limit is process-wide; leave it as it is")


class TestLongWeights:
    """A weight of any number of digits renders and reads back, under the
    interpreter's own limit on int/str conversions, which stays untouched."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 20_000),
        st.sampled_from(["decimal", "ratio", "whole"]),
        st.randoms(use_true_random=False),
    )
    def test_format_and_read_back(self, digits, form, rng) -> None:
        numerator = rng.randrange(10**digits)
        w = {
            "decimal": Fraction(numerator, 10**digits),
            "ratio": Fraction(numerator, 3 * numerator + 1),
            "whole": Fraction(numerator, numerator or 1),
        }[form]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", _forbidden, raising=False)
            text = format_weight(w)
            assert as_weight(text) == w
            assert as_weight(ratio_text(w)) == w
        if digits < 4000:
            assert text == _str_format_weight(w)
            assert ratio_text(w) == str(w)

    def test_a_long_decimal_parses(self) -> None:
        digits = "0" + "123456789" * 1000
        (relation,) = parse_script(f"actor P, Q. trust T {{ P -> Q @ 0.{digits}. }}").relations
        want = Fraction(123456789 * (10**9000 - 1) // (10**9 - 1), 10**9001)
        assert relation.weight_between("P", "Q") == want
        assert format_weight(want) == f"0.{digits}"

    def test_a_long_weight_outside_the_range_is_named(self) -> None:
        with pytest.raises(ValueError) as exc:
            as_weight("1" * 5000 + "/3")
        assert str(exc.value) == f"weight {'1' * 5000}/3 outside [0, 1]"


# Short numbers, numbers about the old codec's 600-digit pieces, and
# numbers past the interpreter's 4,300-digit limit.
_DIGITS = st.one_of(st.integers(1, 40), st.integers(560, 700), st.integers(4_000, 20_000))
_SEEDS = st.integers(0, 2**32)


def _long_weight(digits: int, kind: str, seed: int) -> Fraction:
    """A weight of about digits digits: over a power of ten, of 2, of 5, a
    mix of the two, a non-terminating denominator, or below 10**-6."""
    rng = random.Random(seed)
    # 2**a has about 0.301 a digits and 5**b about 0.699 b.
    den = {
        "ten": lambda: 10**digits,
        "two": lambda: 2 ** rng.randint(1, digits * 10 // 3),
        "five": lambda: 5 ** rng.randint(1, digits * 10 // 7),
        "mix": lambda: 2 ** rng.randint(0, digits * 5 // 3) * 5 ** rng.randint(0, digits * 5 // 7),
        "other": lambda: rng.choice((3, 7, 12, 15)) * rng.randint(1, 10**digits),
        "tiny": lambda: 10 ** (6 + digits),
    }[kind]()
    return Fraction(rng.randint(1, 9) if kind == "tiny" else rng.randint(0, den), den)


def _weight_text(digits: int, alphabet: str, form: int, flaw: int, seed: int) -> str:
    """A string of digits digits in one of the grammar's forms, d, d.d, d/d
    or d/0, with flaw 0 as it is and any other flaw malformed."""
    rng = random.Random(seed)
    run = "".join(rng.choices(alphabet, k=digits))
    cut = rng.randint(1, digits)
    text = [run, f"{run[:cut]}.{run[cut:] or '0'}", f"{run[:cut]}/{run[cut:] or '1'}", f"{run}/0"][form]
    return [
        text, f" {text}", f"{text}x", f"{text}/7", f".{text}", f"{text}.",
        f"-{text}", f"{text}e-3", f"{text[:1]}_{text[1:]}", f"{text}.5/3",
    ][flaw]


def _outcome(convert, value):
    """What convert gives for value: ("value", result), or the exception's
    type and message."""
    try:
        return "value", convert(value)
    except Exception as exc:
        return type(exc), str(exc)


def _frozen_outcome(text: str):
    """What numberoracle's as_weight gives for text, but for the one place
    the package differs from it on purpose.  A zero denominator under a
    numerator too long for str() makes the oracle raise the interpreter's
    "Exceeds the limit" ValueError; the package names the zero denominator,
    as it does under a short numerator."""
    outcome = _outcome(numberoracle.as_weight, text)
    found = re.fullmatch(r"(\d+)/(\d+)", text)
    if found and not numberoracle._int_of(found[2]) and outcome[0] is ValueError:
        assert outcome[1].startswith("Exceeds the limit"), outcome
        return ZeroDivisionError, f"Fraction({numberoracle._int_text(numberoracle._int_of(found[1]))}, 0)"
    return outcome


class TestFrozenCodec:
    """format_weight, ratio_text and as_weight give the same text, value or
    exception type and message as numberoracle's codec, which converted
    long numbers in pieces, at any length, but for the zero denominator
    _frozen_outcome names.  The interpreter's limit on int/str conversions
    stays untouched."""

    def assert_alike(self, w: Fraction) -> None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", _forbidden, raising=False)
            text = format_weight(w)
            assert text == numberoracle.format_weight(w)
            assert ratio_text(w) == numberoracle.ratio_text(w)
            for written in (text, ratio_text(w)):
                assert _outcome(as_weight, written) == _outcome(numberoracle.as_weight, written)
                assert as_weight(written) == w

    @pytest.mark.parametrize(
        "w",
        [Fraction(0), Fraction(1), Fraction(1, 10**7), Fraction(3, 2**20_000), Fraction(1, 5**20_000)],
        ids=["zero", "one", "ten-to-minus-7", "over-2**20000", "over-5**20000"],
    )
    def test_edge_weights_render_and_read_back_alike(self, w) -> None:
        self.assert_alike(w)

    @settings(max_examples=60, deadline=None)
    @given(_DIGITS, st.sampled_from(["ten", "two", "five", "mix", "other", "tiny"]), _SEEDS)
    def test_weights_render_and_read_back_alike(self, digits, kind, seed) -> None:
        self.assert_alike(_long_weight(digits, kind, seed))

    @settings(max_examples=80, deadline=None)
    @given(
        _DIGITS,
        st.sampled_from(["0123456789", "٠١٢٣٤٥٦٧٨٩", "0123456789٣７"]),
        st.integers(0, 3),
        st.one_of(st.just(0), st.integers(0, 9)),
        _SEEDS,
    )
    @example(5000, "1", 3, 0, 0)
    def test_strings_read_alike(self, digits, alphabet, form, flaw, seed) -> None:
        text = _weight_text(digits, alphabet, form, flaw, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", _forbidden, raising=False)
            assert _outcome(as_weight, text) == _frozen_outcome(text)


class TestWeightExprs:
    def test_half_times_argument(self) -> None:
        half_z = Mul(Const(Fraction(1, 2)), ARG)
        assert eval_weight_expr(half_z, Fraction(2, 5)) == Fraction(1, 5)

    def test_min_with_one_is_identity(self) -> None:
        expr = Min(Const(Fraction(1)), ARG)
        assert eval_weight_expr(expr, Fraction(7, 10)) == Fraction(7, 10)

    @given(weight_exprs(), weights)
    def test_evaluation_stays_in_unit_interval(self, expr, z) -> None:
        out = eval_weight_expr(expr, z)
        assert 0 <= out <= 1

    @given(weight_exprs(), weights, weights)
    def test_evaluation_is_monotone(self, expr, z1, z2) -> None:
        lo, hi = min(z1, z2), max(z1, z2)
        assert eval_weight_expr(expr, lo) <= eval_weight_expr(expr, hi)

    @given(decreasing_weight_exprs(), weights)
    def test_arg_anchored_exprs_never_exceed_argument(self, expr, z) -> None:
        assert eval_weight_expr(expr, z) <= z

    def test_const_range_is_enforced(self) -> None:
        with pytest.raises(ValueError):
            Const(Fraction(7, 5))


class TestFreeVars:
    def test_case_analysis_tracks_binders_per_branch(self) -> None:
        term = CasesOf(Var("c"), "x", Var("x"), "y", Var("z"))
        assert free_vars(term) == {"c", "z"}

    def test_lambda_binds_its_parameter(self) -> None:
        assert free_vars(Lambda("x", Pair(Var("x"), Var("y")))) == {"y"}

    def test_split_binds_both_variables(self) -> None:
        term = SplitOf(Var("p"), "x", "y", Pair(Var("x"), Var("y")))
        assert free_vars(term) == {"p"}


def _all_nodes(term):
    todo = [term]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(subterms(node))


def _copy(term):
    """A structurally equal term sharing no node with term."""
    if isinstance(term, Var):
        return Var(term.name)
    if isinstance(term, Atom):
        return Atom(term.name, term.provenance)
    return with_subterms(term, [_copy(s) for s in subterms(term)])


class TestFreeVariableCache:
    @given(st.one_of(terms(), redex_terms()))
    @settings(max_examples=300)
    def test_cached_sets_match_the_uncached_oracle(self, term) -> None:
        assert free_vars(term) == oracle_free_vars(term)
        # Every node got its own entry, and asking again reads it back.
        for node in _all_nodes(term):
            assert node._fv == oracle_free_vars(node)
            assert free_vars(node) is node._fv

    @given(terms())
    @settings(max_examples=200)
    def test_cache_is_invisible_to_equality_hash_and_repr(self, term) -> None:
        fresh = _copy(term)
        text = repr(term)
        free_vars(term)
        assert fresh._fv is None
        assert term == fresh and fresh == term
        assert hash(term) == hash(fresh)
        assert repr(term) == repr(fresh) == text

    @given(terms())
    @settings(max_examples=100)
    def test_copies_and_pickles_start_without_a_set(self, term) -> None:
        free_vars(term)
        for twin in (copy.copy(term), pickle.loads(pickle.dumps(term))):
            assert twin == term and twin._fv is None
            assert free_vars(twin) == term._fv

    @given(terms(), st.dictionaries(var_names, terms(max_leaves=3), max_size=3))
    @settings(max_examples=300)
    def test_substitution_skips_terms_without_the_names(self, term, mapping) -> None:
        absent = {n: t for n, t in mapping.items() if n not in oracle_free_vars(term)}
        assert substitute_many(term, absent) is term

    @given(st.one_of(terms(), redex_terms()), st.dictionaries(var_names, terms(max_leaves=4), max_size=3))
    @settings(max_examples=300)
    def test_substitution_matches_the_uncached_oracle(self, term, mapping) -> None:
        # Equal with ==: the same bound names are chosen, not only alpha-equal.
        assert substitute_many(term, mapping) == oracle_substitute(term, mapping)

    def test_deep_terms_need_no_recursion(self) -> None:
        term = Var("x")
        for i in range(5000):
            term = Lambda(f"y{i}", Pair(term, Atom("a")))
        assert free_vars(term) == {"x"}


class TestSubstitution:
    def test_plain_replacement(self) -> None:
        term = Apply(Var("f"), Var("x"))
        assert substitute(term, "x", Atom("a")) == Apply(Var("f"), Atom("a"))

    def test_shadowed_variable_is_untouched(self) -> None:
        term = Lambda("x", Var("x"))
        assert substitute(term, "x", Atom("a")) == term

    def test_capture_is_avoided_by_renaming(self) -> None:
        # (\y. (x, y))[x := y] must not capture the substituted y.
        term = Lambda("y", Pair(Var("x"), Var("y")))
        result = substitute(term, "x", Var("y"))
        expected = Lambda("w", Pair(Var("y"), Var("w")))
        assert alpha_equal(result, expected)
        assert to_db(result) == to_db(expected)
        assert free_vars(result) == {"y"}

    def test_simultaneous_substitution_swaps(self) -> None:
        term = Pair(Var("x"), Var("y"))
        swapped = substitute_many(term, {"x": Var("y"), "y": Var("x")})
        assert swapped == Pair(Var("y"), Var("x"))

    def test_split_binders_do_not_capture(self) -> None:
        # split(p, x. y. (x, (y, z)))[z := (x, y)] needs both binders renamed.
        term = SplitOf(Var("p"), "x", "y", Pair(Var("x"), Pair(Var("y"), Var("z"))))
        result = substitute(term, "z", Pair(Var("x"), Var("y")))
        expected = SplitOf(
            Var("p"), "u", "v", Pair(Var("u"), Pair(Var("v"), Pair(Var("x"), Var("y"))))
        )
        assert to_db(result) == to_db(expected)
        assert free_vars(result) == {"p", "x", "y"}

    @given(terms(), var_names, terms())
    @settings(max_examples=300)
    def test_free_variable_law(self, t, x, s) -> None:
        result = substitute(t, x, s)
        before = free_vars(t)
        if x in before:
            assert free_vars(result) == (before - {x}) | free_vars(s)
        else:
            assert to_db(result) == to_db(t)


def _binder_names(term):
    return {
        name
        for node in _all_nodes(term)
        for scope in scopes(node)
        for name in scope
    }


_SOME_TERMS, _SMALL_TERMS = st.one_of(terms(), redex_terms(12)), terms(max_leaves=3)


@st.composite
def _substitutions(draw):
    """(term, mapping): one to three names, the first free in term when any
    name is, each mapped to a replacement that is often built over term's
    binder names, so that it would be captured unless those binders are
    renamed; with two names under a split both binders may need it."""
    term = draw(_SOME_TERMS)
    free = sorted(oracle_free_vars(term))
    first = draw(st.sampled_from(free) if free else var_names)
    more = st.sampled_from(free) | var_names if free else var_names
    names = [first] + draw(st.lists(more, max_size=2, unique=True))
    binders = sorted(_binder_names(term)) or ["x"]
    over_binders = st.lists(st.sampled_from(binders), min_size=1, max_size=3).map(
        lambda names: _nest_pairs([Var(n) for n in names])
    )
    return term, {name: draw(st.one_of(over_binders, _SMALL_TERMS)) for name in names}


def _stored_sets_are_right(term):
    for node in _all_nodes(term):
        assert node._fv is None or node._fv == oracle_free_vars(node)


def _every_set_is_stored_and_right(term):
    for node in _all_nodes(term):
        assert node._fv is not None and node._fv == oracle_free_vars(node)


class TestSingleNameSubstitution:
    """substitute is substitute_many with one entry.  One walk does both,
    renames binders exactly as the oracle does, and hands free-name sets
    to the nodes it builds."""

    @given(_substitutions())
    @settings(max_examples=500)
    def test_matches_the_oracle_bound_names_included(self, case) -> None:
        term, mapping = case
        expected = oracle_substitute(term, mapping)
        assert substitute_many(term, mapping) == expected
        if len(mapping) == 1:
            [(name, replacement)] = mapping.items()
            assert substitute(term, name, replacement) == expected

    @given(_substitutions())
    @settings(max_examples=300)
    def test_every_stored_set_is_right(self, case) -> None:
        term, mapping = case
        _stored_sets_are_right(substitute_many(term, mapping))
        # With the replacements' sets known, every node built gets its own.
        for replacement in mapping.values():
            free_vars(replacement)
        _every_set_is_stored_and_right(substitute_many(term, mapping))
        try:
            normal, _ = normalize_counted(term, 200)
        except BudgetExceeded:
            return
        _stored_sets_are_right(normal)

    def test_hands_sets_to_rebuilt_nodes(self) -> None:
        # Each substitution passes a binder, where the replacements' sets
        # become known, so every node rebuilt gets one: one name, two names
        # at once, and the two of a split contraction.
        one_name = Pair(Lambda("y", Pair(Var("x"), Var("y"))), Atom("a"))
        two_names = Lambda("y", Pair(Var("x"), Pair(Var("y"), Var("z"))))
        split = SplitOf(
            Pair(Atom("a"), Lambda("u", Var("u"))),
            "x",
            "y",
            Lambda("w", Pair(Var("y"), TagR(Var("x")))),
        )
        cases = [
            (
                substitute(one_name, "x", Pair(Var("v"), Atom("b"))),
                Pair(Lambda("y", Pair(Pair(Var("v"), Atom("b")), Var("y"))), Atom("a")),
            ),
            (
                substitute_many(two_names, {"x": Pair(Var("v"), Atom("b")), "z": TagL(Var("w"))}),
                Lambda("y", Pair(Pair(Var("v"), Atom("b")), Pair(Var("y"), TagL(Var("w"))))),
            ),
            (
                normalize_counted(split)[0],
                Lambda("w", Pair(Lambda("u", Var("u")), TagR(Atom("a")))),
            ),
        ]
        for result, expected in cases:
            assert result == expected
            _every_set_is_stored_and_right(result)


class TestAlphaEquality:
    def test_bound_names_do_not_matter(self) -> None:
        assert alpha_equal(Lambda("x", Var("x")), Lambda("y", Var("y")))

    def test_free_names_do_matter(self) -> None:
        assert not alpha_equal(Lambda("x", Var("y")), Lambda("x", Var("z")))

    def test_free_and_bound_never_identified(self) -> None:
        assert not alpha_equal(Lambda("x", Var("x")), Lambda("x", Var("y")))

    def test_atom_provenance_is_part_of_identity(self) -> None:
        plain = Atom("w")
        sourced = Atom("w", Provenance(who="p"))
        assert not alpha_equal(plain, sourced)
        assert alpha_equal(sourced, Atom("w", Provenance(who="p")))

    def test_lambda_weight_transformers_compare(self) -> None:
        assert not alpha_equal(
            Lambda("x", Var("x"), Mul(Const(Fraction(1, 2)), ARG)),
            Lambda("x", Var("x")),
        )

    @pytest.mark.parametrize(
        "a, b, equal",
        [
            # An inner binder shadows an outer one, renamed or not.
            (Lambda("x", Lambda("x", Var("x"))), Lambda("q", Lambda("x", Var("x"))), True),
            (Lambda("q", Lambda("x", Var("x"))), Lambda("x", Lambda("x", Var("x"))), True),
            (Lambda("x", Lambda("x", Var("x"))), Lambda("x", Lambda("z", Var("x"))), False),
            (Lambda("x", Lambda("z", Var("x"))), Lambda("x", Lambda("x", Var("x"))), False),
            (Lambda("x", Lambda("y", Var("x"))), Lambda("y", Lambda("x", Var("y"))), True),
            (
                CasesOf(Var("s"), "x", Lambda("x", Var("x")), "y", Var("y")),
                CasesOf(Var("s"), "u", Lambda("x", Var("x")), "y", Var("y")),
                True,
            ),
            (
                SplitOf(Var("p"), "x", "y", Lambda("y", Pair(Var("x"), Var("y")))),
                SplitOf(Var("p"), "y", "x", Lambda("x", Pair(Var("y"), Var("x")))),
                True,
            ),
            (
                SplitOf(Var("p"), "x", "y", Pair(Var("x"), Var("y"))),
                SplitOf(Var("p"), "x", "x", Pair(Var("x"), Var("x"))),
                False,
            ),
        ],
    )
    def test_shadowing(self, a, b, equal) -> None:
        assert alpha_equal(a, b) is equal
        assert alpha_equal(b, a) is equal
        assert (to_db(a) == to_db(b)) is equal

    @given(terms())
    @settings(max_examples=300)
    def test_reflexive(self, t) -> None:
        assert alpha_equal(t, t)

    @given(terms(), terms())
    @settings(max_examples=300)
    def test_agrees_with_nameless_oracle(self, a, b) -> None:
        assert alpha_equal(a, b) == (to_db(a) == to_db(b))

    @given(terms(), terms())
    @settings(max_examples=300)
    def test_symmetric(self, a, b) -> None:
        assert alpha_equal(a, b) == alpha_equal(b, a)

    @given(terms())
    @settings(max_examples=200)
    def test_renamed_binders_stay_equal(self, t) -> None:
        renamed = _prime_binders(t)
        assert alpha_equal(t, renamed)
        assert to_db(t) == to_db(renamed)


def _chain(depth, binder, bottom):
    """depth nested binders \\b_k.(inner, b_k) around bottom."""
    term = bottom
    for k in range(depth):
        term = Lambda(f"{binder}{k}", Pair(term, Var(f"{binder}{k}")))
    return term


class TestDeepTerms:
    """Deep terms compare and report free names at a recursion limit far
    below their depth."""

    @pytest.fixture(autouse=True)
    def low_limit(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(saved)

    def test_alpha_equal_on_renamed_chains(self) -> None:
        assert alpha_equal(_chain(20000, "x", Var("z")), _chain(20000, "y", Var("z")))

    def test_alpha_equal_sees_a_difference_at_the_bottom(self) -> None:
        assert not alpha_equal(_chain(20000, "x", Var("z")), _chain(20000, "y", Var("w")))
        # The outermost binder in one, the innermost in the other.
        assert not alpha_equal(_chain(20000, "x", Var("x0")), _chain(20000, "x", Var("x19999")))

    def test_free_vars_on_a_chain(self) -> None:
        bottom = Pair(Var("z"), Pair(Var("x5"), Var("x20000")))
        assert free_vars(_chain(20000, "x", bottom)) == {"z", "x20000"}


_SAMPLES = {
    Atom: Atom("a", Provenance(who="p")),
    Var: Var("v"),
    Pair: Pair(Var("x"), Atom("a")),
    TagL: TagL(Var("x")),
    TagR: TagR(Atom("a")),
    Lambda: Lambda("x", Var("x"), Mul(Const(Fraction(1, 2)), ARG)),
    Apply: Apply(Var("f"), Var("x")),
    CasesOf: CasesOf(Var("s"), "x", Var("x"), "y", Atom("b")),
    SplitOf: SplitOf(Var("p"), "x", "y", Pair(Var("y"), Var("x"))),
}


class TestShapeTable:
    """The table in core is the one description of term structure; a new
    constructor without a row fails here."""

    def test_every_constructor_has_one_row(self) -> None:
        constructors = typing.get_args(core.Term)
        assert len(set(constructors)) == len(constructors)
        assert set(core._SHAPES) == set(constructors) == set(_SAMPLES)

    @pytest.mark.parametrize("kind", typing.get_args(core.Term), ids=lambda k: k.__name__)
    def test_rebuilding_from_own_subterms_gives_the_node(self, kind) -> None:
        term = _SAMPLES[kind]
        assert type(term) is kind
        assert with_subterms(term, subterms(term)) == term

    def test_binding_constructors(self) -> None:
        assert set(core.BINDING_TERMS) == {Lambda, CasesOf, SplitOf}

    @pytest.mark.parametrize("kind", typing.get_args(core.Term), ids=lambda k: k.__name__)
    def test_one_scope_per_subterm(self, kind) -> None:
        term = _SAMPLES[kind]
        assert len(scopes(term)) == len(subterms(term))
        assert any(scopes(term)) == (kind in core.BINDING_TERMS)

    @pytest.mark.parametrize(
        "term, kind",
        [
            (1, "int"),
            (Pair(1, Var("x")), "int"),
            (Lambda("y", TagL(Pair(Var("x"), "z"))), "str"),
            (Apply(Var("x"), Atomic("A")), "Atomic"),
        ],
    )
    def test_a_non_term_at_any_depth_is_a_type_error(self, term, kind) -> None:
        message = f"not a term type: {kind}"
        with pytest.raises(TypeError, match=message):
            free_vars(term)
        with pytest.raises(TypeError, match=message):
            substitute(term, "x", Atom("a"))
        with pytest.raises(TypeError, match=message):
            substitute_many(term, {"x": Atom("a"), "y": Atom("b")})

    @pytest.mark.parametrize("body", [Var("x"), Var("y")], ids=["free", "absent"])
    def test_a_non_term_replacement_is_a_type_error(self, body) -> None:
        with pytest.raises(TypeError, match="not a term type: int"):
            substitute(body, "x", 1)
        with pytest.raises(TypeError, match="not a term type: NoneType"):
            substitute_many(body, {"y": Var("z"), "x": None})


def _prime_binders(term):
    """Structurally rename every binder to a fresh primed name."""
    if isinstance(term, (Atom, Var)):
        return term
    if isinstance(term, Pair):
        return Pair(_prime_binders(term.fst), _prime_binders(term.snd))
    if isinstance(term, TagL):
        return TagL(_prime_binders(term.value))
    if isinstance(term, TagR):
        return TagR(_prime_binders(term.value))
    if isinstance(term, Apply):
        return Apply(_prime_binders(term.fn), _prime_binders(term.arg))
    if isinstance(term, Lambda):
        body = _prime_binders(term.body)
        new = fresh_name(term.param + "'", free_vars(body))
        return Lambda(new, substitute(body, term.param, Var(new)), term.weight_fn)
    if isinstance(term, CasesOf):
        scrutinee = _prime_binders(term.scrutinee)
        lbody = _prime_binders(term.left_body)
        rbody = _prime_binders(term.right_body)
        nl = fresh_name(term.left_var + "'", free_vars(lbody))
        nr = fresh_name(term.right_var + "'", free_vars(rbody))
        return CasesOf(
            scrutinee,
            nl,
            substitute(lbody, term.left_var, Var(nl)),
            nr,
            substitute(rbody, term.right_var, Var(nr)),
        )
    if isinstance(term, SplitOf):
        scrutinee = _prime_binders(term.scrutinee)
        body = _prime_binders(term.body)
        avoid = free_vars(body) | {term.fst_var, term.snd_var}
        nf = fresh_name(term.fst_var + "'", avoid)
        ns = fresh_name(term.snd_var + "'", avoid | {nf})
        renamed = substitute_many(body, {term.fst_var: Var(nf), term.snd_var: Var(ns)})
        return SplitOf(scrutinee, nf, ns, renamed)
    raise TypeError(term)


class TestClaims:
    def test_negation_is_implication_to_falsity(self) -> None:
        from veracity.core import BOTTOM, Implies

        assert neg(Atomic("A")) == Implies(Atomic("A"), BOTTOM)

    def test_atoms_of_claim(self) -> None:
        from veracity.core import And, Implies, Or

        claim = Implies(Or(Atomic("A"), Atomic("B")), And(Atomic("C"), neg(Atomic("A"))))
        assert atoms_of_claim(claim) == {"A", "B", "C"}


class TestTrustRelations:
    def test_duplicate_edges_are_rejected(self) -> None:
        with pytest.raises(ValueError):
            TrustRelation(
                "T",
                (
                    TrustEdge("k", "l", Fraction(1, 2)),
                    TrustEdge("k", "l", Fraction(1, 4)),
                ),
            )

    def test_lookup(self) -> None:
        rel = TrustRelation("T", (TrustEdge("k", "l", Fraction(1, 2)),))
        assert rel.weight_between("k", "l") == Fraction(1, 2)
        assert rel.weight_between("l", "k") is None
        assert rel.actors() == {"k", "l"}


# A relation in arrows of both kinds: the parser reads the "->" edges
# straight from the text and the "→" edge as tokens, into one index.
RELATION_TEXT = """claim A. actor a, b, c.
trust T {
  a -> b @ 0.5.
  b -> c.
  a → c @ 1/3.
}
proof D { trust(T, a -> b, assume x^b : A) }
"""

BUILT = TrustRelation(
    "T",
    (
        TrustEdge("a", "b", Fraction(1, 2)),
        TrustEdge("b", "c", Fraction(1)),
        TrustEdge("a", "c", Fraction(1, 3)),
    ),
)

_READS = {
    "edges": lambda r: r.edges,
    "eq": lambda r: (r == BUILT, BUILT == r, r != BUILT),
    "hash": hash,
    "repr": repr,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "replace": dataclasses.replace,
    "asdict": dataclasses.asdict,
}


class TestEdgesOnFirstRead:
    """A relation the parser reads keeps its edge index alone until its
    edges are first read; from then on, and to every reader, it is the
    relation the constructor builds from the same edges."""

    def parsed(self):
        (relation,) = parse_script(RELATION_TEXT).relations
        assert "edges" not in vars(relation)
        return relation

    def test_check_proof_builds_no_edges(self):
        script = parse_script(RELATION_TEXT)
        env = env_from_script(script)
        assert check_proof(script.proofs[0].tree, env).conclusion.weight == Fraction(1, 2)
        assert ["edges" in vars(r) for r in script.relations] == [False]

    def test_veracity_check_builds_no_edges(self, tmp_path, monkeypatch, capsys):
        scripts = []

        def parse_and_keep(text):
            scripts.append(parse_script(text))
            return scripts[-1]

        monkeypatch.setattr(cli, "parse_script", parse_and_keep)
        path = tmp_path / "relation.vlp"
        path.write_text(RELATION_TEXT, encoding="utf-8")
        assert cli.main(["check", str(path)]) == 0
        assert "proof D: ok" in capsys.readouterr().out
        assert ["edges" in vars(r) for s in scripts for r in s.relations] == [False]

    @pytest.mark.parametrize("read", _READS.values(), ids=_READS.keys())
    def test_a_parsed_relation_reads_as_built(self, read):
        assert read(self.parsed()) == read(BUILT)

    def test_edges_are_built_once(self):
        relation = self.parsed()
        assert relation.edges is relation.edges
        assert vars(relation)["edges"] == BUILT.edges
        assert relation.actors() == BUILT.actors()
        assert relation.weight_between("a", "c") == Fraction(1, 3)

    def test_copies_read_as_built(self):
        for copied in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            made = copied(self.parsed())
            assert type(made) is TrustRelation
            assert made.edges == BUILT.edges
            assert made.weight_between("a", "b") == Fraction(1, 2)


def _dataclass_twin(cls, slots=False):
    """A frozen dataclass with cls's fields, defaults and __post_init__,
    whose __init__ is the one dataclass generates; with slots, also with
    cls's bases and so the same slots."""
    namespace = {"__annotations__": {f.name: f.type for f in dataclasses.fields(cls)}}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            namespace[f.name] = dataclasses.field(default=f.default, compare=f.compare)
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    bases = cls.__mro__[1:-1] if slots else ()
    return dataclasses.dataclass(frozen=True, slots=slots)(type(cls.__name__, bases, namespace))


_CORE_DATACLASSES = [
    value for value in vars(core).values()
    if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == core.__name__
]


class TestConstructors:
    """Every core dataclass is built by the constructor @dataclass writes.
    These tests guard against a hand-written __init__ that would change a
    signature, a default or the instance size: the same parameters and
    defaults, __post_init__ still run, and instances no larger under
    tracemalloc."""

    @pytest.mark.parametrize("cls", _CORE_DATACLASSES, ids=lambda cls: cls.__name__)
    def test_parameters_and_defaults(self, cls):
        def shape(c):
            return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

        assert shape(cls) == shape(_dataclass_twin(cls))

    def test_keywords_defaults_and_validation(self):
        assert Lambda(body=Var("x"), param="x") == Lambda("x", Var("x"), ARG)
        assert Judgement(Atom("a"), "P", "1/2", Atomic("A")).weight == Fraction(1, 2)
        with pytest.raises(ValueError, match="outside"):
            Const(Fraction(3, 2))
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'snd'"):
            Pair(Atom("a"))
        assert dataclasses.replace(Pair(Atom("a"), Atom("b")), snd=Atom("c")) == Pair(Atom("a"), Atom("c"))

    def test_instances_are_no_larger(self):
        # Slotted instances have no __dict__, so a set that free_vars stored
        # on an earlier Pair, as any earlier test may, cannot widen these.
        free_vars(Pair(Var("x"), Var("y")))
        twin = _dataclass_twin(Pair, slots=True)
        sizes = []
        for build in (Pair, twin):
            [build(k, k) for k in range(1000)]  # once untraced, so lazy caches are not counted
            tracemalloc.start()
            kept = [build(k, k) for k in range(1000)]
            sizes.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
            assert not hasattr(kept[0], "__dict__")
            del kept
        assert sizes[0] <= sizes[1]

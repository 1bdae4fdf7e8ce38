"""Semantics tests: denotations, trust closure, membership, soundness."""

import functools
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import veracity.semantics as semantics
from memberoracle import oracle_close, oracle_denote, oracle_member
from proofgen import random_proof, random_scenario
from strategies import weights
from veracity.core import (
    And,
    AssumeArgs,
    Atom,
    Atomic,
    Bottom,
    Claimhood,
    Implies,
    Judgement,
    Lambda,
    Or,
    Pair,
    ProofTree,
    Rule,
    Sequent,
    TagL,
    TagR,
    TrustArgs,
    TrustEdge,
    TrustRelation,
    Var,
    neg,
    subterms,
    substitute,
    with_subterms,
)
from veracity.kernel import CheckEnv, check_proof, env_from_script
from veracity.parser import parse_script
from veracity.semantics import (
    DepthExceeded,
    MapTable,
    Model,
    PreconditionError,
    WeightedWitness,
    build_model,
    close_under_trust,
    denote,
    member,
    model_from_script,
    soundness_check,
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def ww(term, actor, weight=1):
    return WeightedWitness(term, actor, Fraction(weight))


def fixture_script(name: str):
    text = (resources.files("veracity") / "fixtures" / name).read_text(encoding="utf-8")
    return parse_script(text)


def closure_oracle(elements, family):
    """Round-based fixpoint with the max-per-pair quotient applied as it goes."""
    best = {}
    for w in elements:
        key = (w.term, w.actor)
        if key not in best or w.weight > best[key]:
            best[key] = w.weight
    while True:
        additions = {}
        for (term, actor), y in best.items():
            for relation in family:
                for e in relation.edges:
                    if e.target != actor:
                        continue
                    key, cand = (term, e.source), e.weight * y
                    if cand > best.get(key, Fraction(-1)) and cand > additions.get(
                        key, Fraction(-1)
                    ):
                        additions[key] = cand
        if not additions:
            return frozenset(
                WeightedWitness(term, actor, weight)
                for (term, actor), weight in best.items()
            )
        best.update(additions)


CHAIN_FAMILY = (
    TrustRelation(
        "T",
        (TrustEdge("k", "l", Fraction(1, 2)), TrustEdge("l", "m", Fraction(2, 5))),
    ),
)


class TestCloseUnderTrust:
    def test_single_edge(self):
        family = (TrustRelation("T", (TrustEdge("k", "l", Fraction(1, 2)),)),)
        out = close_under_trust({ww(Atom("a"), "l")}, family)
        assert out == {ww(Atom("a"), "l"), ww(Atom("a"), "k", Fraction(1, 2))}

    def test_two_step_chain(self):
        out = close_under_trust({ww(Atom("a"), "m")}, CHAIN_FAMILY)
        assert ww(Atom("a"), "k", Fraction(1, 5)) in out
        assert out == {
            ww(Atom("a"), "m"),
            ww(Atom("a"), "l", Fraction(2, 5)),
            ww(Atom("a"), "k", Fraction(1, 5)),
        }

    def test_cycle_is_cut_by_the_max_quotient(self):
        family = (
            TrustRelation(
                "T",
                (
                    TrustEdge("k", "l", Fraction(9, 10)),
                    TrustEdge("l", "k", Fraction(9, 10)),
                ),
            ),
        )
        out = close_under_trust({ww(Atom("a"), "k")}, family)
        assert out == {ww(Atom("a"), "k"), ww(Atom("a"), "l", Fraction(9, 10))}

    def test_empty_family_just_quotients(self):
        out = close_under_trust(
            {ww(Atom("a"), "P", Fraction(1, 2)), ww(Atom("a"), "P", Fraction(3, 4))},
            (),
        )
        assert out == {ww(Atom("a"), "P", Fraction(3, 4))}


SEM_ATOMS = st.sampled_from([Atom("a"), Atom("b")])
SEM_ACTORS = st.sampled_from(["P", "Q", "R"])
WITNESSES = st.builds(WeightedWitness, SEM_ATOMS, SEM_ACTORS, weights)
WITNESS_SETS = st.frozensets(WITNESSES, max_size=6)


def _relation(name, triples):
    seen = {}
    for source, target, weight in triples:
        seen.setdefault((source, target), weight)
    return TrustRelation(
        name, tuple(TrustEdge(s, t, w) for (s, t), w in seen.items())
    )


FAMILIES = st.tuples(
    st.lists(st.tuples(SEM_ACTORS, SEM_ACTORS, weights), max_size=5),
    st.lists(st.tuples(SEM_ACTORS, SEM_ACTORS, weights), max_size=4),
).map(lambda pair: (_relation("T", pair[0]), _relation("U", pair[1])))


def dominates(big, small):
    """Every element of small appears in big at the same (term, actor) with
    at least the same weight."""
    return all(
        any(
            b.term == s.term and b.actor == s.actor and b.weight >= s.weight
            for b in big
        )
        for s in small
    )


class TestClosureLaws:
    @given(WITNESS_SETS, FAMILIES)
    def test_matches_the_round_based_oracle(self, s, family):
        assert close_under_trust(s, family) == closure_oracle(s, family)

    @given(WITNESS_SETS, FAMILIES)
    def test_extensive(self, s, family):
        assert dominates(close_under_trust(s, family), s)

    @given(WITNESS_SETS, WITNESS_SETS, FAMILIES)
    def test_monotone(self, s, extra, family):
        assert dominates(
            close_under_trust(s | extra, family), close_under_trust(s, family)
        )

    @given(WITNESS_SETS, FAMILIES)
    def test_idempotent(self, s, family):
        once = close_under_trust(s, family)
        assert close_under_trust(once, family) == once

    @given(WITNESS_SETS, FAMILIES)
    def test_quotient_keeps_one_weight_per_pair(self, s, family):
        out = close_under_trust(s, family)
        keys = [(w.term, w.actor) for w in out]
        assert len(keys) == len(set(keys))


class TestDenote:
    def plain(self, **assignments):
        return build_model(
            {name: set(entries) for name, entries in assignments.items()}, ()
        )

    def test_falsity_is_empty(self):
        assert denote(Bottom(), self.plain()) == frozenset()

    def test_atomic_is_the_assignment(self):
        m = self.plain(A={ww(Atom("a"), "P")})
        assert denote(A, m) == {ww(Atom("a"), "P")}

    def test_unassigned_atomic_is_empty(self):
        assert denote(A, self.plain()) == frozenset()

    def test_disjunction_is_the_tagged_union(self):
        m = self.plain(A={ww(Atom("a"), "P")}, B={ww(Atom("b"), "P")})
        assert denote(Or(A, B), m) == {
            ww(TagL(Atom("a")), "P"),
            ww(TagR(Atom("b")), "P"),
        }

    def test_conjunction_pairs_share_an_actor_at_min_weight(self):
        m = self.plain(
            A={ww(Atom("a"), "P", Fraction(1, 2)), ww(Atom("a"), "Q")},
            B={ww(Atom("b"), "P", Fraction(3, 4))},
        )
        assert denote(And(A, B), m) == {
            ww(Pair(Atom("a"), Atom("b")), "P", Fraction(1, 2)),
        }

    def test_pair_weights_recompute_as_the_min(self):
        m = self.plain(
            A={ww(Atom("a"), "P", Fraction(1, 4)), ww(Atom("b"), "P", Fraction(7, 8))},
            B={ww(Atom("c"), "P", Fraction(1, 2))},
        )
        lefts, rights = denote(A, m), denote(B, m)
        expected = {
            ww(Pair(x.term, y.term), x.actor, min(x.weight, y.weight))
            for x in lefts
            for y in rights
            if x.actor == y.actor
        }
        assert denote(And(A, B), m) == expected

    def test_no_map_into_the_empty_set(self):
        m = self.plain(A={ww(Atom("a"), "P")})
        assert denote(Implies(A, Bottom()), m) == frozenset()
        assert denote(neg(A), m) == frozenset()

    def test_empty_domain_has_exactly_the_empty_map(self):
        m = self.plain(A={ww(Atom("a"), "P")})
        assert denote(Implies(Bottom(), Bottom()), m) == {ww(MapTable(()), "P")}

    def test_table_count_is_codomain_to_the_domain_power(self):
        m = self.plain(
            A={ww(Atom("a"), "P"), ww(Atom("b"), "P")},
            B={ww(Atom("c"), "P"), ww(Atom("d"), "P")},
        )
        tables = denote(Implies(A, B), m)
        assert len(tables) == 4

    def test_tables_are_total_over_the_domain(self):
        m = self.plain(
            A={ww(Atom("a"), "P"), ww(Atom("b"), "P")},
            B={ww(Atom("c"), "P")},
        )
        (table,) = denote(Implies(A, B), m)
        assert {key for key, _ in table.term.entries} == set(denote(A, m))
        assert table.weight == 1

    def test_spectator_actor_contributes_an_empty_map(self):
        family = (TrustRelation("T", (TrustEdge("Q", "P", Fraction(1, 2)),)),)
        m = build_model({"B": {ww(Atom("b"), "P")}}, family)
        tables = denote(Implies(A, B), m)
        by_actor = {t.actor for t in tables}
        assert by_actor == {"P", "Q"}
        assert all(t.term == MapTable(()) for t in tables)

    def test_depth_bound_limits_arrow_nesting(self):
        nested = Implies(A, Implies(A, Implies(A, Implies(A, A))))
        m = self.plain(A={ww(Atom("a"), "P")})
        with pytest.raises(DepthExceeded):
            denote(nested, m)
        assert denote(nested, m, depth_bound=4) is not None

    def test_depth_bound_counts_the_antecedent_side(self):
        m = self.plain(A={ww(Atom("a"), "P")})
        assert denote(Implies(A, A), m, depth_bound=1) is not None
        with pytest.raises(DepthExceeded):
            denote(Implies(Implies(A, A), A), m, depth_bound=1)


class TestExcludedMiddleSemantics:
    def test_inhabited_claim_forces_empty_negation(self):
        m = build_model({"A": {ww(Atom("a"), "P")}}, ())
        assert denote(neg(A), m) == frozenset()
        lem = denote(Or(A, neg(A)), m)
        assert lem == {ww(TagL(Atom("a")), "P")}
        assert all(isinstance(w.term, (TagL, TagR)) for w in lem)

    def test_refuted_claim_inhabits_only_the_right_tag(self):
        m = Model({}, (), frozenset({"P"}))
        lem = denote(Or(A, neg(A)), m)
        assert lem == {ww(TagR(MapTable(())), "P")}


class TestMember:
    def chain_model(self):
        return build_model({"A": {ww(Atom("a"), "m")}}, CHAIN_FAMILY)

    def test_weight_flows_down_the_chain(self):
        q = Judgement(Atom("a"), "k", Fraction(1, 5), A)
        assert member(q, self.chain_model())

    def test_weight_threshold_is_respected(self):
        model = build_model(
            {"A": {ww(Atom("a"), "l")}},
            (TrustRelation("T", (TrustEdge("k", "l", Fraction(1, 2)),)),),
        )
        assert member(Judgement(Atom("a"), "k", Fraction(1, 2), A), model)
        assert not member(Judgement(Atom("a"), "k", Fraction(3, 5), A), model)

    def test_nothing_belongs_to_falsity(self):
        q = Judgement(Atom("a"), "m", Fraction(0), Bottom())
        assert not member(q, self.chain_model())

    def test_actor_must_match(self):
        model = build_model({"A": {ww(Atom("a"), "P")}}, ())
        assert not member(Judgement(Atom("a"), "Q", Fraction(1), A), model)

    def test_witnesses_match_up_to_renaming(self):
        model = build_model({"A": {ww(Lambda("x", Var("x")), "P")}}, ())
        assert member(Judgement(Lambda("y", Var("y")), "P", Fraction(1), A), model)
        assert not member(Judgement(Lambda("y", Atom("y")), "P", Fraction(1), A), model)

    def test_composite_membership_closes_under_trust(self):
        family = (TrustRelation("T", (TrustEdge("k", "l", Fraction(1, 2)),)),)
        model = build_model(
            {"A": {ww(Atom("a"), "l")}, "B": {ww(Atom("b"), "l")}}, family
        )
        pair = Pair(Atom("a"), Atom("b"))
        assert member(Judgement(pair, "k", Fraction(1, 2), And(A, B)), model)


class TestMemberWalk:
    def test_table_atom_witness_builds_and_holds(self):
        model = build_model({"A": [ww(MapTable(()), "P")]})
        assert model.atom_assignment["A"] == {ww(MapTable(()), "P")}
        assert member(Judgement(MapTable(()), "P", Fraction(1), A), model)

    def test_depth_exceeded_reports_the_configured_bound(self):
        nested = Implies(A, Implies(A, Implies(A, Implies(A, A))))
        m = build_model({"A": {ww(Atom("a"), "P")}})
        q = Judgement(Lambda("x", Var("x")), "P", Fraction(1), nested)
        for call in (lambda: member(q, m), lambda: denote(nested, m)):
            with pytest.raises(DepthExceeded) as exc:
                call()
            assert exc.value.bound == 3
            assert str(exc.value) == "arrow nesting exceeds the depth bound of 3"
        with pytest.raises(DepthExceeded) as exc:
            member(Judgement(Atom("a"), "P", Fraction(1), Implies(A, A)), m, depth_bound=0)
        assert exc.value.bound == 0

    def test_builds_no_denotation_and_closes_nothing(self, monkeypatch):
        family = (TrustRelation("T", (TrustEdge("k", "l", Fraction(1, 2)),)),)
        assignments = {"A": {ww(Atom("a"), "l")}, "B": {ww(Atom("b"), "l")}}
        script = parse_script(
            "claim A, B. actor k, l. trust T { k -> l @ 0.5. }\n"
            "model M uses T { A = { a^l. }. B = { b^l. }. }\n"
        )
        (table,) = (
            w.term for w in denote(Implies(A, B), build_model(assignments, family)) if w.actor == "l"
        )

        def refuse(*args):
            raise AssertionError("the model or member enumerated or closed a set")

        for name in ("denote", "_denote", "close_under_trust"):
            monkeypatch.setattr(semantics, name, refuse)
        for model in (build_model(assignments, family), model_from_script(script)):
            assert member(Judgement(Pair(Atom("a"), Atom("b")), "k", Fraction(1, 2), And(A, B)), model)
            assert member(Judgement(TagR(Atom("b")), "k", Fraction(1, 2), Or(A, B)), model)
            assert member(Judgement(table, "k", Fraction(1, 2), Implies(A, B)), model)
            assert not member(Judgement(table, "k", Fraction(3, 4), Implies(A, B)), model)
            assert not member(Judgement(Lambda("x", Atom("b")), "l", Fraction(0), Implies(A, B)), model)

    def test_a_pair_holds_at_the_lesser_weight(self):
        model = build_model(
            {"A": {ww(Atom("a"), "P", Fraction(1, 2))}, "B": {ww(Atom("b"), "P", Fraction(3, 4))}}
        )
        pair = Pair(Atom("a"), Atom("b"))
        assert member(Judgement(pair, "P", Fraction(1, 2), And(A, B)), model)
        assert not member(Judgement(pair, "P", Fraction(3, 4), And(A, B)), model)

    def test_alpha_variants_hold_at_the_highest_weight(self):
        model = build_model({"A": {
            ww(Lambda("x", Var("x")), "P", Fraction(1, 4)),
            ww(Lambda("y", Var("y")), "P", Fraction(3, 4)),
        }})
        assert member(Judgement(Lambda("z", Var("z")), "P", Fraction(3, 4), A), model)

    def test_a_table_reaches_along_the_best_trust_path(self):
        edges = (
            TrustEdge("P", "R", Fraction(1, 4)),
            TrustEdge("P", "Q", Fraction(1)),
            TrustEdge("Q", "R", Fraction(1, 2)),
        )
        model = build_model(
            {"A": {ww(Atom("a"), "R")}, "B": {ww(Atom("b"), "R")}}, (TrustRelation("T", edges),)
        )
        table = MapTable(((ww(Atom("a"), "R"), ww(Atom("b"), "R")),))
        assert member(Judgement(table, "P", Fraction(1, 2), Implies(A, B)), model)
        assert not member(Judgement(table, "P", Fraction(3, 4), Implies(A, B)), model)
        assert not member(Judgement(MapTable(()), "S", Fraction(0), Implies(B, A)), model)

    def test_reach_along_a_chain_too_long_for_floats(self):
        actors = [f"a{k}" for k in range(1200)]
        edges = tuple(TrustEdge(a, b, Fraction(1, 2)) for a, b in zip(actors, actors[1:]))
        model = build_model({"A": {ww(Atom("a"), "a1199")}}, (TrustRelation("T", edges),))
        assert member(Judgement(Atom("a"), "a0", Fraction(1, 2**1199), A), model)
        assert not member(Judgement(Atom("a"), "a0", Fraction(1, 2**1198), A), model)

    def test_a_table_belongs_to_the_actor_its_witnesses_name(self):
        both = lambda term: {ww(term, "P"), ww(term, "Q")}
        model = build_model({"A": both(Atom("a")), "B": both(Atom("b"))})
        at_q = MapTable(((ww(Atom("a"), "Q"), ww(Atom("b"), "Q")),))
        assert member(Judgement(at_q, "Q", Fraction(1), Implies(A, B)), model)
        assert not member(Judgement(at_q, "P", Fraction(0), Implies(A, B)), model)

    def test_an_eight_by_eight_table_is_looked_up_not_enumerated(self):
        domain = [ww(Atom(f"x{i}"), "P") for i in range(8)]
        codomain = [ww(Atom(f"y{i}"), "P") for i in range(8)]
        model = build_model({"A": domain, "B": codomain})
        keys = sorted(domain, key=repr)
        table = MapTable(tuple(zip(keys, reversed(codomain))))
        assert member(Judgement(table, "P", Fraction(1), Implies(A, B)), model)
        swapped = MapTable(tuple(zip(reversed(keys), codomain)))
        assert not member(Judgement(swapped, "P", Fraction(1), Implies(A, B)), model)
        short = MapTable(table.entries[1:])
        assert not member(Judgement(short, "P", Fraction(1), Implies(A, B)), model)

    def test_tables_over_a_disjunction_and_over_falsity(self):
        # Counting an antecedent's witnesses reaches Or and Bottom here.
        # Each table denote gives, and the table with a key missing, its
        # keys out of order or a key where falsity has none, at each actor.
        model = build_model({
            "A": {ww(Atom("a1"), "P"), ww(Atom("a2"), "P")},
            "B": {ww(Atom("b"), "P")},
            "C": {ww(Atom("c1"), "P"), ww(Atom("c2"), "P"), ww(Atom("c"), "Q")},
        })
        extra = ((ww(Atom("a1"), "P"), ww(Atom("a1"), "P")),)
        for claim, count in ((Implies(Or(A, B), C), 2**3 + 1), (Implies(Bottom(), A), 2)):
            tables = denote(claim, model)
            held = {(w.term, w.actor) for w in tables}
            assert len(held) == count
            for given in tables:
                entries = given.term.entries
                perturbed = [MapTable(entries[1:]), MapTable(entries[::-1])] if entries else [MapTable(extra)]
                for table in (given.term, *perturbed):
                    for actor in ("P", "Q"):
                        query = Judgement(table, actor, Fraction(1), claim)
                        expected = (table, actor) in held
                        assert member(query, model) == oracle_member(query, model) == expected


# The differential test against the frozen enumerating member: small models
# (cyclic, zero-weight and two-relation trust families), claims nesting
# arrows up to one past the depth bound, and witnesses taken from the
# closed denotation, renamed, or perturbed.

ORACLE_TERMS = st.sampled_from(
    [Atom("a"), Atom("b"), Lambda("x", Var("x")), Lambda("y", Var("y")), Lambda("x", Atom("a")),
     Pair(Atom("a"), Lambda("x", Var("x")))]
)
ORACLE_ACTORS = ["P", "Q", "R", "S"]
ORACLE_LEAVES = st.sampled_from([A, A, B, B, A, B, Bottom(), C])
ORACLE_CLAIMS = st.one_of(
    st.recursive(
        ORACLE_LEAVES,
        lambda inner: st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Implies, inner, inner)),
        max_leaves=5,
    ),
    # Right-nested arrow chains reach one past the default depth bound.
    st.lists(ORACLE_LEAVES, min_size=2, max_size=5).map(
        lambda leaves: functools.reduce(lambda acc, leaf: Implies(leaf, acc), reversed(leaves[:-1]), leaves[-1])
    ),
)
ORACLE_MODELS = st.builds(
    lambda holdings, family: build_model(
        {name: [ww(t, a, x) for t, a, x in entries] for name, entries in holdings.items()}, family
    ),
    st.fixed_dictionaries({
        "A": st.lists(st.tuples(ORACLE_TERMS, SEM_ACTORS, weights), min_size=1, max_size=3),
        "B": st.lists(st.tuples(ORACLE_TERMS, SEM_ACTORS, weights), max_size=3),
    }),
    FAMILIES,
)


def _size(claim, model, bound):
    """A bound on the witnesses one actor holds in the claim's denotation,
    or in the part the oracle builds before an arrow too deep stops it;
    it keeps the enumerating oracle small."""
    if isinstance(claim, Atomic):
        entries = oracle_close(model.assignment.get(claim.name, ()), model.trust_family)
        return max([sum(w.actor == a for w in entries) for a in model.actors] + [0])
    if isinstance(claim, (And, Or)):
        left, right = _size(claim.left, model, bound), _size(claim.right, model, bound)
        return left * right if isinstance(claim, And) else left + right
    if isinstance(claim, Implies):
        if bound <= 0:
            return 0
        domain = _size(claim.antecedent, model, bound - 1)
        codomain = _size(claim.consequent, model, bound - 1)
        return codomain ** min(domain, 12)
    return 0


def _renamed(term):
    """term with every lambda parameter renamed fresh, inside tables too."""
    if isinstance(term, MapTable):
        return MapTable(tuple(
            tuple(WeightedWitness(_renamed(w.term), w.actor, w.weight) for w in entry)
            for entry in term.entries
        ))
    if isinstance(term, Lambda):
        new = term.param + "1"
        return Lambda(new, substitute(_renamed(term.body), term.param, Var(new)), term.weight_fn)
    return with_subterms(term, [_renamed(sub) for sub in subterms(term)])


def _retagged(term):
    """term with its first tag, outside tables, swapped."""
    if isinstance(term, TagL):
        return TagR(term.value)
    if isinstance(term, TagR):
        return TagL(term.value)
    if isinstance(term, Pair):
        fst = _retagged(term.fst)
        return Pair(fst, term.snd) if fst != term.fst else Pair(term.fst, _retagged(term.snd))
    return term


def _reheld(term, actor):
    """term with every witness inside its tables moved to actor."""
    if isinstance(term, MapTable):
        return MapTable(tuple(
            tuple(WeightedWitness(_reheld(w.term, actor), actor, w.weight) for w in entry)
            for entry in term.entries
        ))
    return with_subterms(term, [_reheld(sub, actor) for sub in subterms(term)])


def _shortened(term):
    """term with the last entry of its first table dropped."""
    if isinstance(term, MapTable):
        return MapTable(term.entries[:-1])
    if isinstance(term, (TagL, TagR)):
        return type(term)(_shortened(term.value))
    if isinstance(term, Pair):
        return Pair(_shortened(term.fst), _shortened(term.snd))
    return term


@st.composite
def oracle_queries(draw, closed):
    if not closed:
        return draw(ORACLE_TERMS), draw(st.sampled_from(ORACLE_ACTORS)), draw(weights)
    held = draw(st.sampled_from(sorted(closed, key=repr)))
    term, actor, weight = held.term, held.actor, held.weight
    change = draw(st.sampled_from(
        ["none", "none", "rename", "rename", "actor", "heavier", "weight", "tag", "shorten", "reheld"]
    ))
    if change == "rename":
        term = _renamed(term)
    elif change == "actor":
        actor = draw(st.sampled_from([a for a in ORACLE_ACTORS if a != actor]))
    elif change == "heavier":
        weight = (weight + 1) / 2 if weight < 1 else weight
    elif change == "weight":
        weight = draw(weights)
    elif change == "tag":
        term = _retagged(term)
    elif change == "shorten":
        term = _shortened(term)
    elif change == "reheld":
        term = _reheld(term, draw(st.sampled_from(ORACLE_ACTORS)))
    return term, actor, weight


def _outcome(fn, query, model, bound):
    try:
        return fn(query, model, bound)
    except DepthExceeded:
        return DepthExceeded


class TestMemberOracle:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(ORACLE_MODELS, ORACLE_CLAIMS, st.integers(min_value=0, max_value=3), st.data())
    def test_member_answers_as_the_enumerating_oracle(self, model, claim, bound, data):
        assume(_size(claim, model, bound) <= 300)
        try:
            closed = oracle_close(oracle_denote(claim, model, bound), model.trust_family)
        except DepthExceeded:
            closed = frozenset()
        query = Judgement(*data.draw(oracle_queries(closed)), claim)
        assert _outcome(member, query, model, bound) == _outcome(oracle_member, query, model, bound)


class TestUnclosedModel:
    """A Model keeps its assignment as given and closes it through each
    actor's reach, so a directly built Model need not be closed: unclosed,
    closed by the oracle, or built by build_model, it answers alike."""

    @staticmethod
    def variants(built):
        family, actors = built.trust_family, built.actors
        given = {name: list(entries) for name, entries in built.assignment.items()}
        closed = {name: oracle_close(entries, family) for name, entries in given.items()}
        return Model(given, family, actors), Model(closed, family, actors)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(ORACLE_MODELS, ORACLE_CLAIMS, st.integers(min_value=0, max_value=3), st.data())
    def test_a_hand_built_model_answers_as_build_model(self, built, claim, bound, data):
        assume(_size(claim, built, bound) <= 300)
        try:
            closed = oracle_close(oracle_denote(claim, built, bound), built.trust_family)
        except DepthExceeded:
            closed = frozenset()
        query = Judgement(*data.draw(oracle_queries(closed)), claim)
        want = _outcome(member, query, built, bound)
        for model in self.variants(built):
            assert _outcome(member, query, model, bound) == want

    @given(ORACLE_MODELS)
    def test_atom_assignment_is_the_oracle_closure(self, built):
        for model in (built, *self.variants(built)):
            assert model.atom_assignment.keys() == built.assignment.keys()
            for name, entries in built.assignment.items():
                assert model.atom_assignment[name] == oracle_close(entries, built.trust_family)

    @given(ORACLE_MODELS)
    def test_held_weight_reads_the_held_map(self, built):
        """held_weight gives held(...).get(term), before and after held
        has built the map, for held terms and a term no one holds."""
        terms = {w.term for entries in built.assignment.values() for w in entries}
        terms.add(Atom("nobody-holds-this"))
        for model in (built, *self.variants(built)):
            for name in built.assignment:
                for actor in model.actors:
                    first = {term: model.held_weight(name, actor, term) for term in terms}
                    held = model.held(name, actor)
                    assert first == {term: held.get(term) for term in terms}
                    assert first == {term: model.held_weight(name, actor, term) for term in terms}


class TestModelFromScript:
    def test_assignments_close_at_build_time(self):
        script = fixture_script("trust-chain.vlp")
        model = model_from_script(script, "Chain")
        assert ww(Atom("a"), "k", Fraction(1, 5)) in model.atom_assignment["A"]
        assert model.actors == {"k", "l", "m"}
        assert [r.name for r in model.trust_family] == ["T"]

    def test_sole_model_needs_no_name(self):
        script = fixture_script("trust-chain.vlp")
        assert model_from_script(script).actors == {"k", "l", "m"}

    def test_an_undeclared_name_is_a_value_error(self):
        script = parse_script("claim A. actor P. model M { A = { a. }. }")
        with pytest.raises(ValueError, match="script declares no model N"):
            model_from_script(script, "N")


class TestSoundness:
    def test_trust_chain_fixture_is_sound(self):
        script = fixture_script("trust-chain.vlp")
        env = env_from_script(script)
        model = model_from_script(script, "Chain")
        assert soundness_check(script.proof("Chained").tree, model, env)

    def penelope(self):
        script = fixture_script("penelope.vlp")
        return script, env_from_script(script)

    def test_conjunction_fixture_is_sound(self):
        script, env = self.penelope()
        model = build_model(
            {
                "C1": {ww(Atom("l"), "P")},
                "C2": {ww(Atom("s"), "P")},
                "C3": {ww(Atom("c"), "P")},
            },
            (),
        )
        assert soundness_check(script.proofs[0].tree, model, env)

    def test_unsatisfied_hypothesis_is_a_precondition_failure(self):
        script, env = self.penelope()
        model = build_model(
            {"C1": {ww(Atom("l"), "P")}, "C2": {ww(Atom("s"), "P")}, "C3": set()},
            (),
        )
        with pytest.raises(PreconditionError) as exc:
            soundness_check(script.proofs[0].tree, model, env)
        assert "hypothesis" in str(exc.value)

    def test_missing_trust_relation_is_a_precondition_failure(self):
        script = fixture_script("trust-chain.vlp")
        env = env_from_script(script)
        bare = build_model({"A": {ww(Atom("a"), "m")}}, ())
        with pytest.raises(PreconditionError) as exc:
            soundness_check(script.proof("Chained").tree, bare, env)
        assert "trust relation" in str(exc.value)

    @pytest.mark.parametrize("arrow", ["->", "→"])
    def test_an_equal_relation_read_elsewhere_is_carried(self, arrow):
        """The model may carry the proof's relation as another object: one
        parsed from the same edges, in either arrow spelling, or built by
        the constructor.  A relation with another weight is not carried."""
        script = parse_script(
            f"claim A. actor P, Q. trust T {{ P {arrow} Q @ 0.5. }}\n"
            "proof D { trust(T, P -> Q, assume x^Q : A) }"
        )
        env = env_from_script(script)
        tree = script.proofs[0].tree
        holdings = {"A": {ww(Atom("x"), "Q")}}
        for twin in (
            parse_script("actor P, Q. trust T { P -> Q @ 1/2. }").relations[0],
            TrustRelation("T", (TrustEdge("P", "Q", Fraction(1, 2)),)),
        ):
            assert twin is not env.trust_relations["T"]
            assert soundness_check(tree, build_model(holdings, (twin,)), env)
        other = TrustRelation("T", (TrustEdge("P", "Q", Fraction(1, 4)),))
        with pytest.raises(PreconditionError) as exc:
            soundness_check(tree, build_model(holdings, (other,)), env)
        assert "trust relation 'T'" in str(exc.value)

    def test_a_deep_trust_chain_at_the_default_recursion_limit(self):
        """Replay and the soundness check walk the proof on their own
        stacks: a 50,000-step trust chain checks and is sound at the
        interpreter's default recursion limit."""
        edges = (TrustEdge("P", "Q", Fraction(1)), TrustEdge("Q", "P", Fraction(1)))
        relation = TrustRelation("T", edges)
        env = CheckEnv(frozenset({"A"}), {"T": relation}, "P")
        tree, actor = ProofTree(Rule.ASSUME, (), AssumeArgs("x", A, "P")), "P"
        for _ in range(50_000):
            source = "Q" if actor == "P" else "P"
            tree = ProofTree(Rule.TRUST, (tree,), TrustArgs("T", source, actor))
            actor = source
        model = build_model({"A": {ww(Atom("x"), "P")}}, (relation,))
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            sequent = check_proof(tree, env)
            sound = soundness_check(tree, model, env)
        finally:
            sys.setrecursionlimit(saved)
        assert sequent.conclusion == Judgement(Var("x"), "P", Fraction(1), A)
        assert sound

    def test_claimhood_has_nothing_to_test(self):
        script = parse_script("claim A. proof X { claim(assume x : A) }")
        env = env_from_script(script)
        with pytest.raises(PreconditionError):
            soundness_check(script.proofs[0].tree, build_model({}, ()), env)

    def test_random_proofs_draw_every_arrow_free_rule(self):
        rng = random.Random(4258)
        drawn = set()
        for index in range(200):
            todo = [random_proof(rng, random_scenario(rng), falsity=index % 2 == 1)]
            while todo:
                node = todo.pop()
                drawn.add((node.rule, type(getattr(node.args, "family", None)).__name__))
                todo.extend(node.premises)
        arrow_free = set(Rule) - {Rule.CLAIM, Rule.IMP_INTRO, Rule.IMP_ELIM}
        assert {rule for rule, _ in drawn} == arrow_free
        assert {(Rule.OR_ELIM, "TagFamily"), (Rule.OR_ELIM, "ConstantFamily")} <= drawn

    def test_random_refused_proofs_are_precondition_failures(self):
        """A claim(...) root has no witness to test, and a bottomElim over an
        assumed _|_ leaves a hypothesis that holds in no model: each random
        proof of either kind checks, and soundness_check raises exactly
        PreconditionError."""
        rng = random.Random(6113)
        for index in range(300):
            scenario = random_scenario(rng)
            if index % 2:
                tree = ProofTree(Rule.CLAIM, (random_proof(rng, scenario),))
                assert isinstance(check_proof(tree, scenario.env), Claimhood)
            else:
                tree = random_proof(rng, scenario, falsity=True)
                assert isinstance(check_proof(tree, scenario.env), Sequent)
            with pytest.raises(PreconditionError) as exc:
                soundness_check(tree, scenario.model, scenario.env)
            assert type(exc.value) is PreconditionError

    def test_random_fragment_proofs_are_sound(self):
        rng = random.Random(4257)
        for _ in range(60):
            scenario = random_scenario(rng)
            tree = random_proof(rng, scenario)
            result = check_proof(tree, scenario.env)
            assert isinstance(result, Sequent)
            assert soundness_check(tree, scenario.model, scenario.env)


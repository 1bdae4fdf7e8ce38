"""Kernel tests: per-rule oracle cases, fixture replay, and weight laws."""

from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kerneloracle
from strategies import decreasing_weight_exprs, weights
from veracity.core import (
    ARG,
    And,
    AndElimArgs,
    Apply,
    AssumeArgs,
    Atomic,
    Bottom,
    BottomElimArgs,
    CasesOf,
    Claimhood,
    Const,
    ConstantFamily,
    Hypothesis,
    Implies,
    ImpIntroArgs,
    Judgement,
    Lambda,
    Mul,
    Or,
    OrElimArgs,
    OrIntroArgs,
    Pair,
    ProofTree,
    Rule,
    Sequent,
    SplitOf,
    TagFamily,
    TagL,
    TagR,
    TrustArgs,
    TrustEdge,
    TrustRelation,
    Var,
    eval_weight_expr,
    neg,
    as_weight,
)
from veracity.kernel import (
    CheckEnv,
    CheckError,
    ErrorKind,
    check_and_elim,
    check_and_intro,
    check_assume,
    check_bottom_elim,
    check_claimhood,
    check_implies_elim,
    check_implies_intro,
    check_or_elim,
    check_or_intro,
    check_proof,
    check_trust,
    env_from_script,
)
from veracity import kernel, parser
from veracity.cli import main
from veracity.parser import parse_script, render_sequent
from veracity.report import parse_structured

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")

ENV = CheckEnv(frozenset({"A", "B", "C"}), {}, "P")


def fixture_text(name: str) -> str:
    return (resources.files("veracity") / "fixtures" / name).read_text(encoding="utf-8")


def check_fixture(name: str, proof: str | None = None):
    script = parse_script(fixture_text(name))
    env = env_from_script(script)
    decl = script.proofs[0] if proof is None else script.proof(proof)
    return check_proof(decl.tree, env)


def closed(witness, actor, weight, claim) -> Sequent:
    return Sequent((), Judgement(witness, actor, Fraction(weight), claim))


class TestAssume:
    def test_single_hypothesis_sequent(self):
        from veracity.core import AssumeArgs

        s = check_assume(AssumeArgs("l", A, "P"), ENV)
        assert s == Sequent(
            (Hypothesis("l", "P", Fraction(1), A),),
            Judgement(Var("l"), "P", Fraction(1), A),
        )

    def test_defaults_to_environment_actor(self):
        from veracity.core import AssumeArgs

        s = check_assume(AssumeArgs("x", A), ENV)
        assert s.conclusion.actor == "P"

    def test_falsity_is_assumable(self):
        from veracity.core import AssumeArgs

        s = check_assume(AssumeArgs("x", Bottom(), "P"), ENV)
        assert s.conclusion.claim == Bottom()

    def test_undeclared_claim(self):
        from veracity.core import AssumeArgs

        with pytest.raises(CheckError) as exc:
            check_assume(AssumeArgs("x", Atomic("Nope"), "P"), ENV)
        assert exc.value.kind is ErrorKind.UNKNOWN_CLAIM

    def test_carried_context_precedes_the_assumption(self):
        from veracity.core import AssumeArgs

        ctx = (Hypothesis("h", "P", Fraction(1), B),)
        s = check_assume(AssumeArgs("x", A, "P", ctx), ENV)
        assert [h.var for h in s.hypotheses] == ["h", "x"]

    def test_conflicting_context_is_rejected(self):
        from veracity.core import AssumeArgs

        ctx = (Hypothesis("x", "P", Fraction(1), B),)
        with pytest.raises(CheckError) as exc:
            check_assume(AssumeArgs("x", A, "P", ctx), ENV)
        assert exc.value.kind is ErrorKind.SEQUENT_MISMATCH


class TestBottomElim:
    def test_any_claim_follows_from_falsity(self):
        premise = Sequent(
            (Hypothesis("x", "P", Fraction(1), Bottom()),),
            Judgement(Var("x"), "P", Fraction(1), Bottom()),
        )
        s = check_bottom_elim(premise, A, ENV)
        assert s.conclusion == Judgement(Var("x"), "P", Fraction(1), A)
        assert s.hypotheses == premise.hypotheses

    def test_requires_falsity_premise(self):
        with pytest.raises(CheckError) as exc:
            check_bottom_elim(closed(Var("x"), "P", 1, B), A, ENV)
        assert exc.value.kind is ErrorKind.SEQUENT_MISMATCH

    def test_degenerate_target(self):
        premise = closed(Var("x"), "P", 1, Bottom())
        assert check_bottom_elim(premise, Bottom(), ENV).conclusion.claim == Bottom()


class TestOrIntro:
    def test_left_tags_left(self):
        s = check_or_intro(closed(Var("a"), "P", 1, A), "left", B, ENV)
        assert s.conclusion == Judgement(TagL(Var("a")), "P", Fraction(1), Or(A, B))

    def test_right_tags_right(self):
        s = check_or_intro(closed(Var("b"), "P", 1, B), "right", A, ENV)
        assert s.conclusion == Judgement(TagR(Var("b")), "P", Fraction(1), Or(A, B))

    def test_idempotent_operands_allowed(self):
        s = check_or_intro(closed(Var("a"), "P", 1, A), "left", A, ENV)
        assert s.conclusion.claim == Or(A, A)

    def test_undeclared_other(self):
        with pytest.raises(CheckError) as exc:
            check_or_intro(closed(Var("a"), "P", 1, A), "left", Atomic("Nope"), ENV)
        assert exc.value.kind is ErrorKind.UNKNOWN_CLAIM


def branch(var, claim, conclusion_claim, witness, actor="P", weight=1):
    return Sequent(
        (Hypothesis(var, actor, Fraction(1), claim),),
        Judgement(witness, actor, Fraction(weight), conclusion_claim),
    )


class TestOrElim:
    FAMILY = TagFamily(A, B)

    def test_tag_family_selects_by_scrutinee_tag(self):
        scrutinee = closed(TagL(Var("a")), "P", 1, Or(A, B))
        s = check_or_elim(
            scrutinee,
            branch("x", A, A, Var("x")),
            branch("y", B, B, Var("y")),
            self.FAMILY,
            "x",
            "y",
            ENV,
        )
        assert s.conclusion == Judgement(
            CasesOf(TagL(Var("a")), "x", Var("x"), "y", Var("y")),
            "P",
            Fraction(1),
            A,
        )
        assert s.hypotheses == ()

    def test_constant_family_allows_untagged_scrutinee(self):
        scrutinee = closed(Var("c"), "P", 1, Or(A, B))
        s = check_or_elim(
            scrutinee,
            branch("x", A, C, Var("u")),
            branch("y", B, C, Var("v")),
            ConstantFamily(C),
            "x",
            "y",
            ENV,
        )
        assert s.conclusion.claim == C

    def test_tag_family_undefined_at_untagged_scrutinee(self):
        scrutinee = closed(Var("c"), "P", 1, Or(A, B))
        with pytest.raises(CheckError) as exc:
            check_or_elim(
                scrutinee,
                branch("x", A, A, Var("x")),
                branch("y", B, B, Var("y")),
                self.FAMILY,
                "x",
                "y",
                ENV,
            )
        assert exc.value.kind is ErrorKind.FAMILY_NOT_TOTAL

    def test_missing_branch_hypothesis(self):
        scrutinee = closed(TagL(Var("a")), "P", 1, Or(A, B))
        with pytest.raises(CheckError) as exc:
            check_or_elim(
                scrutinee,
                closed(Var("u"), "P", 1, A),
                branch("y", B, B, Var("y")),
                self.FAMILY,
                "x",
                "y",
                ENV,
            )
        assert exc.value.kind is ErrorKind.HYPOTHESIS_MISSING

    @pytest.mark.parametrize(
        "left, right, detail",
        [
            (C, B, "left branch assumes x : C, need A"),
            (A, C, "right branch assumes y : C, need B"),
            (C, C, "left branch assumes x : C, need A"),
        ],
    )
    def test_branch_must_assume_its_disjunct(self, left, right, detail):
        scrutinee = closed(TagL(Var("a")), "P", 1, Or(A, B))
        with pytest.raises(CheckError) as exc:
            check_or_elim(
                scrutinee,
                branch("x", left, A, Var("x")),
                branch("y", right, B, Var("y")),
                self.FAMILY,
                "x",
                "y",
                ENV,
            )
        assert (exc.value.kind, exc.value.detail) == (ErrorKind.HYPOTHESIS_MISSING, detail)

    def test_branch_claim_must_match_family(self):
        scrutinee = closed(TagL(Var("a")), "P", 1, Or(A, B))
        with pytest.raises(CheckError) as exc:
            check_or_elim(
                scrutinee,
                branch("x", A, B, Var("u")),
                branch("y", B, B, Var("y")),
                self.FAMILY,
                "x",
                "y",
                ENV,
            )
        assert exc.value.kind is ErrorKind.TAG_MISMATCH

    def test_weight_is_the_minimum(self):
        scrutinee = closed(TagL(Var("a")), "P", Fraction(4, 5), Or(A, B))
        s = check_or_elim(
            scrutinee,
            branch("x", A, C, Var("u"), weight=Fraction(1, 2)),
            branch("y", B, C, Var("v"), weight=Fraction(3, 4)),
            ConstantFamily(C),
            "x",
            "y",
            ENV,
        )
        assert s.conclusion.weight == Fraction(1, 2)

    def test_actor_mismatch(self):
        scrutinee = closed(TagL(Var("a")), "Q", 1, Or(A, B))
        with pytest.raises(CheckError) as exc:
            check_or_elim(
                scrutinee,
                branch("x", A, A, Var("x")),
                branch("y", B, B, Var("y")),
                self.FAMILY,
                "x",
                "y",
                ENV,
            )
        assert exc.value.kind is ErrorKind.ACTOR_MISMATCH


class TestAndIntro:
    def test_pairs_witnesses_and_takes_min_weight(self):
        s = check_and_intro(
            closed(Var("a"), "P", Fraction(3, 10), A),
            closed(Var("b"), "P", Fraction(7, 10), B),
        )
        assert s.conclusion == Judgement(
            Pair(Var("a"), Var("b")), "P", Fraction(3, 10), And(A, B)
        )

    def test_cross_actor_requires_trust_first(self):
        with pytest.raises(CheckError) as exc:
            check_and_intro(closed(Var("a"), "P", 1, A), closed(Var("b"), "Q", 1, B))
        assert exc.value.kind is ErrorKind.ACTOR_MISMATCH

    def test_shared_hypotheses_merge(self):
        h = Hypothesis("x", "P", Fraction(1), A)
        left = Sequent((h,), Judgement(Var("x"), "P", Fraction(1), A))
        s = check_and_intro(left, left)
        assert s.hypotheses == (h,)

    def test_conflicting_hypotheses_are_rejected(self):
        left = Sequent(
            (Hypothesis("x", "P", Fraction(1), A),),
            Judgement(Var("x"), "P", Fraction(1), A),
        )
        right = Sequent(
            (Hypothesis("x", "P", Fraction(1), B),),
            Judgement(Var("x"), "P", Fraction(1), B),
        )
        with pytest.raises(CheckError) as exc:
            check_and_intro(left, right)
        assert exc.value.kind is ErrorKind.SEQUENT_MISMATCH


class TestAndElim:
    def scrutinee(self):
        return closed(Pair(Var("a"), Var("b")), "P", 1, And(A, B))

    def test_first_projection(self):
        b = Sequent(
            (
                Hypothesis("x", "P", Fraction(1), A),
                Hypothesis("y", "P", Fraction(1), B),
            ),
            Judgement(Var("x"), "P", Fraction(1), A),
        )
        s = check_and_elim(self.scrutinee(), b, ConstantFamily(A), "x", "y", ENV)
        assert s.conclusion.witness == SplitOf(
            Pair(Var("a"), Var("b")), "x", "y", Var("x")
        )
        assert s.conclusion.claim == A

    def test_commutativity_witness(self):
        b = Sequent(
            (
                Hypothesis("x", "P", Fraction(1), A),
                Hypothesis("y", "P", Fraction(1), B),
            ),
            Judgement(Pair(Var("y"), Var("x")), "P", Fraction(1), And(B, A)),
        )
        s = check_and_elim(self.scrutinee(), b, ConstantFamily(And(B, A)), "x", "y", ENV)
        assert s.conclusion.claim == And(B, A)

    def test_non_constant_family_rejected(self):
        b = Sequent(
            (
                Hypothesis("x", "P", Fraction(1), A),
                Hypothesis("y", "P", Fraction(1), B),
            ),
            Judgement(Var("x"), "P", Fraction(1), A),
        )
        with pytest.raises(CheckError) as exc:
            check_and_elim(self.scrutinee(), b, TagFamily(A, B), "x", "y", ENV)
        assert exc.value.kind is ErrorKind.FAMILY_NOT_TOTAL

    def test_missing_component_hypothesis(self):
        b = Sequent(
            (Hypothesis("x", "P", Fraction(1), A),),
            Judgement(Var("x"), "P", Fraction(1), A),
        )
        with pytest.raises(CheckError) as exc:
            check_and_elim(self.scrutinee(), b, ConstantFamily(A), "x", "y", ENV)
        assert exc.value.kind is ErrorKind.HYPOTHESIS_MISSING

    @pytest.mark.parametrize(
        "fst, snd, detail",
        [
            (C, B, "branch assumes x : C, need A"),
            (A, C, "branch assumes y : C, need B"),
            (C, C, "branch assumes x : C, need A"),
            # Both variables are discharged before either claim is compared.
            (C, None, "no hypothesis 'y' to discharge"),
        ],
    )
    def test_branch_must_assume_both_components(self, fst, snd, detail):
        hyps = [Hypothesis("x", "P", Fraction(1), fst)]
        if snd is not None:
            hyps.append(Hypothesis("y", "P", Fraction(1), snd))
        b = Sequent(tuple(hyps), Judgement(Var("x"), "P", Fraction(1), A))
        with pytest.raises(CheckError) as exc:
            check_and_elim(self.scrutinee(), b, ConstantFamily(A), "x", "y", ENV)
        assert (exc.value.kind, exc.value.detail) == (ErrorKind.HYPOTHESIS_MISSING, detail)


class TestImpliesIntro:
    def test_identity(self):
        premise = Sequent(
            (Hypothesis("x", "P", Fraction(1), A),),
            Judgement(Var("x"), "P", Fraction(1), A),
        )
        s = check_implies_intro(premise, "x", ARG)
        assert s == Sequent(
            (), Judgement(Lambda("x", Var("x")), "P", Fraction(1), Implies(A, A))
        )

    def test_missing_variable(self):
        with pytest.raises(CheckError) as exc:
            check_implies_intro(closed(Var("x"), "P", 1, A), "y", ARG)
        assert exc.value.kind is ErrorKind.HYPOTHESIS_MISSING

    def test_transformer_value_must_match_premise_weight(self):
        premise = Sequent(
            (Hypothesis("x", "P", Fraction(1), A),),
            Judgement(Var("x"), "P", Fraction(1, 2), A),
        )
        fn = Mul(Const(Fraction(1, 2)), ARG)
        s = check_implies_intro(premise, "x", fn)
        assert s.conclusion.witness == Lambda("x", Var("x"), fn)
        assert s.conclusion.weight == Fraction(1)

    def test_wrong_transformer_value(self):
        premise = Sequent(
            (Hypothesis("x", "P", Fraction(1), A),),
            Judgement(Var("x"), "P", Fraction(1, 2), A),
        )
        with pytest.raises(CheckError) as exc:
            check_implies_intro(premise, "x", ARG)
        assert exc.value.kind is ErrorKind.WEIGHT_MISMATCH
        assert exc.value.detail == (
            "premise weight 1/2 differs from the transformer's value 1 at the hypothesis weight 1"
        )

    def test_a_mismatch_between_long_weights_is_named_in_full(self):
        """Weights past the interpreter's int/str limit (4,300 digits by
        default) still render as p/q in the detail."""
        long = Fraction(9, 10) ** 5000
        premise = Sequent(
            (Hypothesis("x", "P", long, A),),
            Judgement(Var("x"), "P", long / 2, A),
        )
        with pytest.raises(CheckError) as exc:
            check_implies_intro(premise, "x", ARG)
        shown = exc.value.detail.split()
        assert (as_weight(shown[2]), as_weight(shown[-1])) == (long / 2, long)
        numerator, denominator = shown[-1].split("/")
        assert (len(numerator), len(denominator)) == (4772, 5001)


class TestImpliesElim:
    def test_identity_application(self):
        fn = closed(Lambda("x", Var("x")), "P", 1, Implies(A, A))
        arg = closed(Var("a"), "P", 1, A)
        s = check_implies_elim(fn, arg)
        assert s.conclusion == Judgement(
            Apply(Lambda("x", Var("x")), Var("a")), "P", Fraction(1), A
        )

    def test_transformer_applies_to_argument_weight(self):
        fn_witness = Lambda("x", Var("x"), Mul(Const(Fraction(1, 2)), ARG))
        fn = closed(fn_witness, "P", 1, Implies(A, B))
        arg = closed(Var("a"), "P", Fraction(2, 5), A)
        s = check_implies_elim(fn, arg)
        assert s.conclusion.weight == Fraction(1, 5)

    def test_function_judgement_weight_scales_the_result(self):
        fn = closed(Var("g"), "P", Fraction(1, 2), Implies(A, B))
        arg = closed(Var("a"), "P", Fraction(2, 5), A)
        s = check_implies_elim(fn, arg)
        assert s.conclusion.weight == Fraction(1, 5)

    def test_argument_claim_must_match_antecedent(self):
        fn = closed(Lambda("x", Var("x")), "P", 1, Implies(A, A))
        with pytest.raises(CheckError) as exc:
            check_implies_elim(fn, closed(Var("b"), "P", 1, B))
        assert exc.value.kind is ErrorKind.SEQUENT_MISMATCH

    def test_function_premise_must_be_an_implication(self):
        with pytest.raises(CheckError) as exc:
            check_implies_elim(closed(Var("g"), "P", 1, A), closed(Var("a"), "P", 1, A))
        assert exc.value.kind is ErrorKind.SEQUENT_MISMATCH


TRUST_ENV = CheckEnv(
    frozenset({"A", "B"}),
    {
        "T": TrustRelation(
            "T",
            (
                TrustEdge("k", "l", Fraction(1, 2)),
                TrustEdge("l", "m", Fraction(2, 5)),
                TrustEdge("n", "k", Fraction(1)),
            ),
        )
    },
    "k",
)


class TestTrust:
    def test_single_step_multiplies(self):
        s = check_trust(closed(Var("a"), "l", 1, A), "T", "k", "l", TRUST_ENV)
        assert s.conclusion == Judgement(Var("a"), "k", Fraction(1, 2), A)

    def test_full_trust_preserves_weight(self):
        s = check_trust(closed(Var("a"), "k", Fraction(3, 4), A), "T", "n", "k", TRUST_ENV)
        assert s.conclusion.weight == Fraction(3, 4)

    def test_missing_edge(self):
        with pytest.raises(CheckError) as exc:
            check_trust(closed(Var("a"), "m", 1, A), "T", "k", "m", TRUST_ENV)
        assert exc.value.kind is ErrorKind.UNKNOWN_TRUST_EDGE

    def test_missing_relation(self):
        with pytest.raises(CheckError) as exc:
            check_trust(closed(Var("a"), "l", 1, A), "U", "k", "l", TRUST_ENV)
        assert exc.value.kind is ErrorKind.UNKNOWN_TRUST_EDGE

    def test_premise_actor_must_be_the_trusted_one(self):
        with pytest.raises(CheckError) as exc:
            check_trust(closed(Var("a"), "k", 1, A), "T", "k", "l", TRUST_ENV)
        assert exc.value.kind is ErrorKind.ACTOR_MISMATCH


class TestFixtures:
    def test_penelope_concludes_the_nested_pair(self):
        s = check_fixture("penelope.vlp")
        assert (
            render_sequent(s)
            == "l^P : C1, s^P : C2, c^P : C3 |- ((l,s),c)^P : C1 /\\ C2 /\\ C3"
        )

    def test_curried_discharges_everything(self):
        s = check_fixture("curried.vlp")
        assert s.hypotheses == ()
        assert render_sequent(s) == (
            "|- \\z.\\y.\\x.((x,y),z)^P : C3 -> C2 -> C1 -> C1 /\\ C2 /\\ C3"
        )

    def test_process_keeps_only_the_completion_hypothesis(self):
        s = check_fixture("process.vlp")
        assert [h.var for h in s.hypotheses] == ["l"]
        assert render_sequent(s) == (
            "l : L12 |- \\x.\\y.\\z.l : L3 -> L5 /\\ L6 -> L10 -> L12"
        )

    def test_trust_chain_reaches_exactly_one_fifth(self):
        s = check_fixture("trust-chain.vlp")
        assert s.conclusion.weight == Fraction(1, 5)
        assert s.conclusion.actor == "k"

    def test_double_negation(self):
        s = check_fixture("negation.vlp", "DoubleNegation")
        assert s.conclusion.claim == neg(neg(A))

    def test_disjunction_implication_keeps_the_idle_hypothesis(self):
        s = check_fixture("negation.vlp", "DisjImpl")
        assert [h.var for h in s.hypotheses] == ["n", "g"]

    def test_excluded_middle_attempt_fails_with_tag_mismatch(self):
        with pytest.raises(CheckError) as exc:
            check_fixture("excluded-middle-attempt.vlp")
        assert exc.value.kind is ErrorKind.TAG_MISMATCH
        assert exc.value.path == ()


class TestTreeReplay:
    def test_first_error_is_post_order(self):
        script = parse_script(
            """
            claim A, B.
            actor P, Q.
            proof X {
              andIntro(assume x^P : A, assume x^Q : B)
            }
            """
        )
        env = env_from_script(script)
        with pytest.raises(CheckError) as exc:
            check_proof(script.proofs[0].tree, env)
        # Both children check alone; the conflict surfaces at the node.
        assert exc.value.path == ()
        assert exc.value.kind is ErrorKind.ACTOR_MISMATCH

    def test_error_paths_locate_premises(self):
        script = parse_script(
            """
            claim A, B.
            actor P.
            proof X {
              andIntro(assume x : A, bottomElim(assume y : B, A))
            }
            """
        )
        env = env_from_script(script)
        with pytest.raises(CheckError) as exc:
            check_proof(script.proofs[0].tree, env)
        assert exc.value.path == (1,)
        assert exc.value.kind is ErrorKind.SEQUENT_MISMATCH

    def test_arity_mismatch(self):
        leaf = ProofTree(Rule.AND_INTRO, ())
        with pytest.raises(CheckError) as exc:
            check_proof(leaf, ENV)
        assert exc.value.kind is ErrorKind.RULE_ARITY_MISMATCH

    def test_claimhood(self):
        script = parse_script("claim A. proof X { claim(assume x : A) }")
        result = check_proof(script.proofs[0].tree, env_from_script(script))
        assert result == Claimhood(A)

    def test_claimhood_cannot_feed_a_rule(self):
        script = parse_script(
            "claim A, B. proof X { andIntro(claim(assume x : A), assume y : B) }"
        )
        with pytest.raises(CheckError) as exc:
            check_proof(script.proofs[0].tree, env_from_script(script))
        assert exc.value.kind is ErrorKind.MALFORMED_WITNESS

    def test_stated_sequent_mismatch(self):
        script = parse_script(
            "claim A, B. proof X { assume x : A stating (x : A |- x : B) }"
        )
        with pytest.raises(CheckError) as exc:
            check_proof(script.proofs[0].tree, env_from_script(script))
        assert exc.value.kind is ErrorKind.SEQUENT_MISMATCH

    def test_stated_hypotheses_compare_as_a_set(self):
        script = parse_script(
            """
            claim A, B.
            proof X {
              andIntro(assume x : A, assume y : B)
                stating (y : B, x : A |- (x,y) : A /\\ B)
            }
            """
        )
        s = check_proof(script.proofs[0].tree, env_from_script(script))
        assert [h.var for h in s.hypotheses] == ["x", "y"]


# Every rule with its premise count and a well-formed argument record.
RULES = [
    (Rule.ASSUME, 0, AssumeArgs("x", A)),
    (Rule.CLAIM, 1, None),
    (Rule.BOTTOM_ELIM, 1, BottomElimArgs(A)),
    (Rule.OR_INTRO_L, 1, OrIntroArgs(B)),
    (Rule.OR_INTRO_R, 1, OrIntroArgs(B)),
    (Rule.OR_ELIM, 3, OrElimArgs(ConstantFamily(A), "u", "v")),
    (Rule.AND_INTRO, 2, None),
    (Rule.AND_ELIM, 2, AndElimArgs(ConstantFamily(A), "u", "v")),
    (Rule.IMP_INTRO, 1, ImpIntroArgs("x")),
    (Rule.IMP_ELIM, 2, None),
    (Rule.TRUST, 1, TrustArgs("T", "P", "Q")),
]

LEAF = ProofTree(Rule.ASSUME, (), AssumeArgs("x", A))


class TestRuleTable:
    def test_cases_cover_every_rule(self):
        assert {rule for rule, _, _ in RULES} == set(Rule)

    def test_each_rule_is_defined_once_in_each_table(self):
        assert set(kernel._RULES) == set(Rule)
        assert set(parser._RULE_SYNTAX) == set(Rule) - {Rule.ASSUME}

    @pytest.mark.parametrize("rule, arity, args", RULES)
    def test_wrong_premise_count(self, rule, arity, args):
        for found in {max(arity - 1, 0), arity + 1} - {arity}:
            tree = ProofTree(rule, (LEAF,) * found, args)
            with pytest.raises(CheckError) as exc:
                check_proof(tree, ENV)
            assert exc.value.kind is ErrorKind.RULE_ARITY_MISMATCH
            assert exc.value.path == ()
            assert exc.value.detail == f"{rule.value} takes {arity} premises, found {found}"

    @pytest.mark.parametrize("rule, arity, args", RULES)
    def test_wrong_argument_record(self, rule, arity, args):
        other = BottomElimArgs(A) if not isinstance(args, BottomElimArgs) else OrIntroArgs(A)
        wrong = [other, TrustArgs("T", "P", "Q")] if args is None else [other, None]
        for record in wrong:
            tree = ProofTree(rule, (LEAF,) * arity, record)
            with pytest.raises(CheckError) as exc:
                check_proof(tree, ENV)
            assert exc.value.kind is ErrorKind.RULE_ARITY_MISMATCH
            assert exc.value.detail == f"{rule.value} node carries the wrong argument record"

    def test_unknown_rule(self):
        with pytest.raises(CheckError) as exc:
            check_proof(ProofTree("frobnicate", ()), ENV)
        assert exc.value.kind is ErrorKind.RULE_ARITY_MISMATCH
        assert exc.value.detail == "unknown rule 'frobnicate'"

    def test_rule_given_by_its_name(self):
        with pytest.raises(CheckError) as exc:
            check_proof(ProofTree("andIntro", (LEAF,)), ENV)
        assert exc.value.detail == "andIntro takes 2 premises, found 1"
        with pytest.raises(CheckError) as exc:
            check_proof(ProofTree("andIntro", (LEAF, LEAF), OrIntroArgs(A)), ENV)
        assert exc.value.detail == "andIntro node carries the wrong argument record"
        assert check_proof(ProofTree("claim", (LEAF,)), ENV) == Claimhood(A)


class TestWeightLaws:
    @given(weights, weights, weights)
    def test_conjunction_across_trust_replays(self, w, x, y):
        relation = TrustRelation("T", (TrustEdge("k", "l", w),))
        env = CheckEnv(frozenset({"A", "B"}), {"T": relation}, "k")
        trusted = check_trust(closed(Var("a"), "l", x, A), "T", "k", "l", env)
        combined = check_and_intro(trusted, closed(Var("b"), "k", y, B))
        assert combined.conclusion.weight == min(w * x, y)

    @given(weights, weights, decreasing_weight_exprs())
    @settings(max_examples=200)
    def test_application_never_amplifies_the_argument(self, fn_weight, arg_weight, f):
        fn = closed(Lambda("x", Var("x"), f), "P", fn_weight, Implies(A, B))
        arg = closed(Var("a"), "P", arg_weight, A)
        s = check_implies_elim(fn, arg)
        assert s.conclusion.weight <= arg_weight

    @given(weights, weights)
    def test_trust_never_amplifies(self, edge, premise):
        relation = TrustRelation("T", (TrustEdge("k", "l", edge),))
        env = CheckEnv(frozenset({"A"}), {"T": relation}, "k")
        s = check_trust(closed(Var("a"), "l", premise, A), "T", "k", "l", env)
        assert s.conclusion.weight <= premise

    @given(weights, weights)
    def test_and_intro_weight_is_min(self, x, y):
        s = check_and_intro(
            closed(Var("a"), "P", x, A), closed(Var("b"), "P", y, B)
        )
        assert s.conclusion.weight == min(x, y)


class TestClaimhoodHelper:
    def test_claim_of_premise(self):
        assert check_claimhood(closed(Var("a"), "P", 1, And(A, B))) == Claimhood(And(A, B))


# Each bad node is the second premise of an andIntro, so it sits at path 1,
# on line 6 at column 3.
def _second_premise(header: str, bad: str) -> str:
    return f"{header}\nproof Bad {{\n  andIntro(\n  assume w : A,\n  {bad})\n}}\n"


_RARE_ERRORS = {
    "or-elim-not-a-disjunction": (
        _second_premise("claim A, B.\nactor P.", "orElim(assume x : A, l.assume l : A, r.assume r : A, A)"),
        ErrorKind.SEQUENT_MISMATCH,
        "scrutinee concludes A, not a disjunction",
    ),
    "or-elim-right-branch-against-the-family": (
        _second_premise(
            "claim A, B.\nactor P.",
            "orElim(orIntroL(assume x : A, B), l.assume l : A, r.assume r : B, A)",
        ),
        ErrorKind.TAG_MISMATCH,
        "right branch concludes B, family expects A",
    ),
    "and-elim-not-a-conjunction": (
        _second_premise("claim A, B.\nactor P.", "andElim(assume p : A, u.v.assume u : A, A)"),
        ErrorKind.SEQUENT_MISMATCH,
        "scrutinee concludes A, not a conjunction",
    ),
    "and-elim-branch-against-the-family": (
        _second_premise(
            "claim A, B.\nactor P.",
            "andElim(assume p : A /\\ B, u.v.andIntro(assume u : A, assume v : B), A)",
        ),
        ErrorKind.SEQUENT_MISMATCH,
        "branch concludes A /\\ B, family expects A",
    ),
    "imp-intro-hypothesis-of-another-actor": (
        _second_premise("claim A, B.\nactor P, Q.", "impIntro(x, assume y^P : B under (x^Q : A))"),
        ErrorKind.ACTOR_MISMATCH,
        "hypothesis 'x' belongs to Q, conclusion to P",
    ),
    "claimhood-with-a-stated-sequent": (
        _second_premise("claim A.\nactor P.", "claim(assume x : A) stating (x^P : A |- x^P : A)"),
        ErrorKind.SEQUENT_MISMATCH,
        "a claimhood statement has no sequent to state",
    ),
}


class TestRareErrors:
    """Kernel raises no other test reaches, each from a script: through
    check_proof, and through the CLI's structured report with the bad
    node's location."""

    @pytest.mark.parametrize("name", sorted(_RARE_ERRORS))
    def test_check_proof(self, name):
        text, kind, detail = _RARE_ERRORS[name]
        script = parse_script(text)
        with pytest.raises(CheckError) as exc:
            check_proof(script.proofs[0].tree, env_from_script(script))
        assert (exc.value.kind, exc.value.path, exc.value.detail) == (kind, (1,), detail)

    @pytest.mark.parametrize("name", sorted(_RARE_ERRORS))
    def test_structured_report(self, name, tmp_path, capsys):
        text, kind, detail = _RARE_ERRORS[name]
        path = tmp_path / "bad.vlp"
        path.write_text(text, encoding="utf-8")
        assert main(["check", "--format", "structured", str(path)]) == 1
        (section,) = parse_structured(capsys.readouterr().out).sections
        fields = dict(section.fields)
        assert (fields["status"], fields["error-kind"], fields["error-path"]) == ("failed", kind.value, "1")
        assert (fields["error-detail"], fields["line"], fields["col"]) == (detail, "6", "3")


# An undeclared atom in an assumed claim: atomic, inside a compound claim,
# and inside a claim of the assume's context (its "under" list).  Each must
# name the first missing name in sorted order, "Nope" before "Zed".
_UNDECLARED = {
    "atomic": ("Nope", AssumeArgs("x", Atomic("Nope"))),
    "compound": ("Zed \\/ (Nope /\\ A)", AssumeArgs("x", Or(Atomic("Zed"), And(Atomic("Nope"), A)))),
    "under": (
        "A under (h : Zed \\/ (Nope /\\ A))",
        AssumeArgs("x", A, None, (Hypothesis("h", "P", Fraction(1), Or(Atomic("Zed"), And(Atomic("Nope"), A))),)),
    ),
}


class TestUndeclaredClaims:
    """The kernel answers a declared atomic claim with one set probe and
    any other claim by its atoms; an undeclared name is reported as the
    frozen kernel reports it.  The parser refuses the same names first, so
    the CLI reports them as a parse error."""

    @pytest.mark.parametrize("name", sorted(_UNDECLARED))
    def test_check_proof(self, name):
        tree = ProofTree(Rule.ASSUME, (), _UNDECLARED[name][1])
        with pytest.raises(CheckError) as exc:
            check_proof(tree, ENV)
        with pytest.raises(kerneloracle.CheckError) as frozen:
            kerneloracle.check_proof(tree, ENV)
        assert (exc.value.kind, exc.value.path, exc.value.detail) == (
            ErrorKind.UNKNOWN_CLAIM, (), "claim 'Nope' is not declared"
        )
        assert (frozen.value.kind.value, frozen.value.path, frozen.value.detail) == (
            "unknownClaim", (), "claim 'Nope' is not declared"
        )

    def test_declared_claims_pass(self):
        env = CheckEnv(frozenset({"A", "Nope", "Zed"}), {}, "P")
        for _, args in _UNDECLARED.values():
            assert check_proof(ProofTree(Rule.ASSUME, (), args), env).conclusion.claim == args.claim

    @pytest.mark.parametrize("name", sorted(_UNDECLARED))
    def test_structured_report(self, name, tmp_path, capsys):
        path = tmp_path / "undeclared.vlp"
        path.write_text(f"claim A. actor P.\nproof D {{ assume x : {_UNDECLARED[name][0]} }}\n", encoding="utf-8")
        assert main(["check", "--format", "structured", str(path)]) == 2
        assert capsys.readouterr() == ("", f"{path}:2:11: claim 'Nope' is not declared\n")

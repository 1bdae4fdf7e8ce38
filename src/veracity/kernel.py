"""Proof checking.

The kernel replays a proof tree bottom-up: premises are checked first, then
the node's rule is validated and its conclusion sequent computed.  Trees are
never searched for; checking either returns the root sequent or raises a
CheckError naming the first offending node in post-order, located by its
path of premise indices from the root.  The replay keeps its own stack, so
the depth of a proof tree costs no interpreter frames; only comparing
deeply nested claims or terms still does.  Only check_proof locates
errors: a check_* function called on its own reports path (), the root,
since no rule knows where in a tree it was applied.

Rule conventions:

  - Hypotheses enter through assume at weight 1.0 and propagate by union;
    two hypotheses may share a variable only if they agree exactly.
  - All premises of a rule must share one actor.  The trust rule is the
    only one that changes the actor, multiplying the judgement weight by
    the edge weight of the named relation.
  - Conjunction takes the minimum of the premise weights; the eliminators
    take the minimum of scrutinee and branch weights.
  - Implication introduction packages the discharged derivation into a
    lambda carrying a weight transformer; the premise weight must equal
    the transformer applied at the discharged hypothesis's weight, and the
    arrow judgement itself enters at weight 1.0.  Implication elimination
    applies the lambda's transformer to the argument weight and scales by
    the function judgement's weight.
  - A node may state the sequent it believes it derives; the checker
    compares, reporting a tag mismatch specially when a disjunction
    introduction was stated with the wrong tag.  The comparison takes the
    hypotheses first, as a set: it compares the two tuples, which match
    when the stated list is in the kernel's order, and builds and compares
    frozensets only when they differ, so a list in another order or with a
    hypothesis repeated still matches.  Then the witness up to renaming of
    bound variables, the actor, the weight and the claim.

Each rule is defined for the kernel in exactly one row of _RULES: its
premise count, the type of its argument record, and the call to its public
check_* function.  Its surface form lives in parser._RULE_SYNTAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping, Union

from .core import (
    _ONE,
    And,
    AndElimArgs,
    AssumeArgs,
    Atomic,
    Bottom,
    BottomElimArgs,
    CasesOf,
    Claim,
    Claimhood,
    ClaimFamily,
    ConstantFamily,
    Hypothesis,
    Implies,
    ImpIntroArgs,
    Judgement,
    Lambda,
    Or,
    OrElimArgs,
    OrIntroArgs,
    Apply,
    Pair,
    ProofTree,
    Rule,
    Sequent,
    SplitOf,
    TagL,
    TagR,
    TrustArgs,
    TrustRelation,
    Var,
    WeightExpr,
    ARG,
    alpha_equal,
    atoms_of_claim,
    eval_weight_expr,
    family_at,
    family_claims,
    ratio_text,
)
from .parser import DEFAULT_ACTOR, Script, render_claim, render_sequent, render_term

Path = tuple[int, ...]
CheckResult = Union[Sequent, Claimhood]


class ErrorKind(str, Enum):
    RULE_ARITY_MISMATCH = "ruleArityMismatch"
    SEQUENT_MISMATCH = "sequentMismatch"
    UNKNOWN_CLAIM = "unknownClaim"
    UNKNOWN_TRUST_EDGE = "unknownTrustEdge"
    TAG_MISMATCH = "tagMismatch"
    ACTOR_MISMATCH = "actorMismatch"
    WEIGHT_MISMATCH = "weightMismatch"
    FAMILY_NOT_TOTAL = "familyNotTotal"
    HYPOTHESIS_MISSING = "hypothesisMissing"
    MALFORMED_WITNESS = "malformedWitness"


class CheckError(Exception):
    """A rule that does not apply: its kind, a detail, and the path of
    premise indices from the root to the failing node.  The path is (), the
    root, until check_proof locates the error in the tree it replays."""

    def __init__(self, kind: ErrorKind, detail: str) -> None:
        self.kind = kind
        self.detail = detail
        self._locate(())

    def _locate(self, path: Path) -> None:
        where = ".".join(str(i) for i in path) if path else "root"
        self.args = (f"{self.kind.value} at {where}: {self.detail}",)
        self.path = path


@dataclass(frozen=True)
class CheckEnv:
    declared_claims: frozenset[str]
    trust_relations: Mapping[str, TrustRelation]
    default_actor: str = DEFAULT_ACTOR


def env_from_script(script: Script) -> CheckEnv:
    return CheckEnv(
        frozenset(script.claims),
        {r.name: r for r in script.relations},
        script.default_actor,
    )


# ---------------------------------------------------------------------------
# Shared checks


def _require_declared(claim: Claim, env: CheckEnv) -> None:
    if type(claim) is Atomic and claim.name in env.declared_claims:
        return
    missing = sorted(atoms_of_claim(claim) - env.declared_claims)
    if missing:
        raise CheckError(ErrorKind.UNKNOWN_CLAIM, f"claim {missing[0]!r} is not declared")


def _union_hypotheses(*groups: tuple[Hypothesis, ...]) -> tuple[Hypothesis, ...]:
    merged: dict[str, Hypothesis] = {}
    for group in groups:
        for h in group:
            prior = merged.get(h.var)
            if prior is None:
                merged[h.var] = h
            elif prior != h:
                raise CheckError(
                    ErrorKind.SEQUENT_MISMATCH,
                    f"hypothesis {h.var!r} occurs with conflicting statements",
                )
    return tuple(merged.values())


def _discharge(
    hypotheses: tuple[Hypothesis, ...], var: str
) -> tuple[Hypothesis, tuple[Hypothesis, ...]]:
    for h in hypotheses:
        if h.var == var:
            rest = tuple(k for k in hypotheses if k.var != var)
            return h, rest
    raise CheckError(ErrorKind.HYPOTHESIS_MISSING, f"no hypothesis {var!r} to discharge")


def _require_assumed(branch: str, hyp: Hypothesis, need: Claim) -> None:
    """A branch's discharged hypothesis must assume the claim it stands for."""
    if hyp.claim != need:
        raise CheckError(
            ErrorKind.HYPOTHESIS_MISSING,
            f"{branch} assumes {hyp.var} : {render_claim(hyp.claim)}, "
            f"need {render_claim(need)}",
        )


def _same_actor(*judgements: Judgement) -> str:
    actors = {j.actor for j in judgements}
    if len(actors) != 1:
        listed = ", ".join(sorted(actors))
        raise CheckError(ErrorKind.ACTOR_MISMATCH, f"premises name different actors: {listed}")
    return judgements[0].actor


# ---------------------------------------------------------------------------
# One checker per rule


def check_assume(args: AssumeArgs, env: CheckEnv) -> Sequent:
    _require_declared(args.claim, env)
    for h in args.context:
        _require_declared(h.claim, env)
    actor = args.actor if args.actor is not None else env.default_actor
    introduced = Hypothesis(args.var, actor, _ONE, args.claim)
    hypotheses = _union_hypotheses(args.context, (introduced,))
    conclusion = Judgement(Var(args.var), actor, _ONE, args.claim)
    return Sequent(hypotheses, conclusion)


def check_claimhood(premise: Sequent) -> Claimhood:
    return Claimhood(premise.conclusion.claim)


def check_bottom_elim(premise: Sequent, target: Claim, env: CheckEnv) -> Sequent:
    _require_declared(target, env)
    j = premise.conclusion
    if not isinstance(j.claim, Bottom):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            f"premise concludes {render_claim(j.claim)}, not _|_",
        )
    return Sequent(premise.hypotheses, Judgement(j.witness, j.actor, j.weight, target))


def check_or_intro(premise: Sequent, side: str, other: Claim, env: CheckEnv) -> Sequent:
    _require_declared(other, env)
    j = premise.conclusion
    if side == "left":
        witness, claim = TagL(j.witness), Or(j.claim, other)
    else:
        witness, claim = TagR(j.witness), Or(other, j.claim)
    return Sequent(premise.hypotheses, Judgement(witness, j.actor, j.weight, claim))


def check_or_elim(
    scrutinee: Sequent,
    left_branch: Sequent,
    right_branch: Sequent,
    family: ClaimFamily,
    left_var: str,
    right_var: str,
    env: CheckEnv,
) -> Sequent:
    for claim in family_claims(family):
        _require_declared(claim, env)
    sj = scrutinee.conclusion
    if not isinstance(sj.claim, Or):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            f"scrutinee concludes {render_claim(sj.claim)}, not a disjunction",
        )
    lj, rj = left_branch.conclusion, right_branch.conclusion
    actor = _same_actor(sj, lj, rj)

    left_hyp, left_rest = _discharge(left_branch.hypotheses, left_var)
    _require_assumed("left branch", left_hyp, sj.claim.left)
    right_hyp, right_rest = _discharge(right_branch.hypotheses, right_var)
    _require_assumed("right branch", right_hyp, sj.claim.right)

    want_left = family_at(family, TagL(Var(left_var)))
    want_right = family_at(family, TagR(Var(right_var)))
    if lj.claim != want_left:
        raise CheckError(
            ErrorKind.TAG_MISMATCH,
            f"left branch concludes {render_claim(lj.claim)}, "
            f"family expects {render_claim(want_left)}",
        )
    if rj.claim != want_right:
        raise CheckError(
            ErrorKind.TAG_MISMATCH,
            f"right branch concludes {render_claim(rj.claim)}, "
            f"family expects {render_claim(want_right)}",
        )
    conclusion_claim = family_at(family, sj.witness)
    if conclusion_claim is None:
        raise CheckError(
            ErrorKind.FAMILY_NOT_TOTAL,
            f"family is undefined at scrutinee witness {render_term(sj.witness)}",
        )

    witness = CasesOf(sj.witness, left_var, lj.witness, right_var, rj.witness)
    weight = min(sj.weight, lj.weight, rj.weight)
    hypotheses = _union_hypotheses(scrutinee.hypotheses, left_rest, right_rest)
    return Sequent(hypotheses, Judgement(witness, actor, weight, conclusion_claim))


def check_and_intro(left: Sequent, right: Sequent) -> Sequent:
    lj, rj = left.conclusion, right.conclusion
    actor = _same_actor(lj, rj)
    conclusion = Judgement(
        Pair(lj.witness, rj.witness),
        actor,
        min(lj.weight, rj.weight),
        And(lj.claim, rj.claim),
    )
    hypotheses = _union_hypotheses(left.hypotheses, right.hypotheses)
    return Sequent(hypotheses, conclusion)


def check_and_elim(
    scrutinee: Sequent,
    branch: Sequent,
    family: ClaimFamily,
    fst_var: str,
    snd_var: str,
    env: CheckEnv,
) -> Sequent:
    if not isinstance(family, ConstantFamily):
        raise CheckError(
            ErrorKind.FAMILY_NOT_TOTAL,
            "conjunction elimination takes a constant family",
        )
    _require_declared(family.claim, env)
    sj, bj = scrutinee.conclusion, branch.conclusion
    if not isinstance(sj.claim, And):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            f"scrutinee concludes {render_claim(sj.claim)}, not a conjunction",
        )
    actor = _same_actor(sj, bj)
    fst_hyp, rest = _discharge(branch.hypotheses, fst_var)
    snd_hyp, rest = _discharge(rest, snd_var)
    _require_assumed("branch", fst_hyp, sj.claim.left)
    _require_assumed("branch", snd_hyp, sj.claim.right)
    if bj.claim != family.claim:
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            f"branch concludes {render_claim(bj.claim)}, "
            f"family expects {render_claim(family.claim)}",
        )
    witness = SplitOf(sj.witness, fst_var, snd_var, bj.witness)
    weight = min(sj.weight, bj.weight)
    hypotheses = _union_hypotheses(scrutinee.hypotheses, rest)
    return Sequent(hypotheses, Judgement(witness, actor, weight, family.claim))


def check_implies_intro(premise: Sequent, var: str, weight_fn: WeightExpr) -> Sequent:
    j = premise.conclusion
    hyp, rest = _discharge(premise.hypotheses, var)
    if hyp.actor != j.actor:
        raise CheckError(
            ErrorKind.ACTOR_MISMATCH,
            f"hypothesis {var!r} belongs to {hyp.actor}, conclusion to {j.actor}",
        )
    expected = eval_weight_expr(weight_fn, hyp.weight)
    if j.weight != expected:
        raise CheckError(
            ErrorKind.WEIGHT_MISMATCH,
            f"premise weight {ratio_text(j.weight)} differs from the transformer's "
            f"value {ratio_text(expected)} at the hypothesis weight {ratio_text(hyp.weight)}",
        )
    witness = Lambda(var, j.witness, weight_fn)
    conclusion = Judgement(witness, j.actor, _ONE, Implies(hyp.claim, j.claim))
    return Sequent(rest, conclusion)


def check_implies_elim(fn: Sequent, arg: Sequent) -> Sequent:
    fj, aj = fn.conclusion, arg.conclusion
    if not isinstance(fj.claim, Implies):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            f"function premise concludes {render_claim(fj.claim)}, not an implication",
        )
    if aj.claim != fj.claim.antecedent:
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            f"argument concludes {render_claim(aj.claim)}, "
            f"antecedent is {render_claim(fj.claim.antecedent)}",
        )
    actor = _same_actor(fj, aj)
    transformer = fj.witness.weight_fn if isinstance(fj.witness, Lambda) else ARG
    weight = fj.weight * eval_weight_expr(transformer, aj.weight)
    witness = Apply(fj.witness, aj.witness)
    hypotheses = _union_hypotheses(fn.hypotheses, arg.hypotheses)
    return Sequent(hypotheses, Judgement(witness, actor, weight, fj.claim.consequent))


def check_trust(
    premise: Sequent,
    relation_name: str,
    source: str,
    target: str,
    env: CheckEnv,
) -> Sequent:
    relation = env.trust_relations.get(relation_name)
    if relation is None:
        raise CheckError(
            ErrorKind.UNKNOWN_TRUST_EDGE,
            f"trust relation {relation_name!r} is not in the environment",
        )
    j = premise.conclusion
    if j.actor != target:
        raise CheckError(
            ErrorKind.ACTOR_MISMATCH,
            f"premise actor is {j.actor}, trust step expects {target}",
        )
    edge_weight = relation.weight_between(source, target)
    if edge_weight is None:
        raise CheckError(
            ErrorKind.UNKNOWN_TRUST_EDGE,
            f"{relation_name} has no edge {source} -> {target}",
        )
    conclusion = Judgement(j.witness, source, edge_weight * j.weight, j.claim)
    return Sequent(premise.hypotheses, conclusion)


# ---------------------------------------------------------------------------
# Tree replay

_Apply = Callable[[list[Sequent], Any, CheckEnv], CheckResult]

_RULES: dict[Rule, tuple[int, type, _Apply]] = {
    Rule.ASSUME: (0, AssumeArgs, lambda ps, a, env: check_assume(a, env)),
    Rule.CLAIM: (1, type(None), lambda ps, a, env: check_claimhood(*ps)),
    Rule.BOTTOM_ELIM: (
        1, BottomElimArgs, lambda ps, a, env: check_bottom_elim(*ps, a.target, env)
    ),
    Rule.OR_INTRO_L: (
        1, OrIntroArgs, lambda ps, a, env: check_or_intro(*ps, "left", a.other, env)
    ),
    Rule.OR_INTRO_R: (
        1, OrIntroArgs, lambda ps, a, env: check_or_intro(*ps, "right", a.other, env)
    ),
    Rule.OR_ELIM: (
        3,
        OrElimArgs,
        lambda ps, a, env: check_or_elim(*ps, a.family, a.left_var, a.right_var, env),
    ),
    Rule.AND_INTRO: (2, type(None), lambda ps, a, env: check_and_intro(*ps)),
    Rule.AND_ELIM: (
        2,
        AndElimArgs,
        lambda ps, a, env: check_and_elim(*ps, a.family, a.fst_var, a.snd_var, env),
    ),
    Rule.IMP_INTRO: (
        1, ImpIntroArgs, lambda ps, a, env: check_implies_intro(*ps, a.var, a.weight_fn)
    ),
    Rule.IMP_ELIM: (2, type(None), lambda ps, a, env: check_implies_elim(*ps)),
    Rule.TRUST: (
        1,
        TrustArgs,
        lambda ps, a, env: check_trust(*ps, a.relation, a.source, a.target, env),
    ),
}


def check_proof(tree: ProofTree, env: CheckEnv) -> CheckResult:
    """Replay a proof tree; the first invalid node in post-order raises.

    Each frame of the stack holds a node, its rule's call and the sequents
    its premises have derived so far.  A node's rule, premise count and
    argument record are checked when the walk first reaches it; its rule
    applies once its last premise is done.  path holds the premise index of
    every frame but the root's, and is stamped on a CheckError as it leaves.
    """
    path: list[int] = []
    try:
        stack = [(tree, _rule_call(tree), [])]
        while True:
            node, apply, derived = stack[-1]
            premises = node.premises
            if len(derived) < len(premises):
                path.append(len(derived))
                premise = premises[len(derived)]
                stack.append((premise, _rule_call(premise), []))
                continue
            result = apply(derived, node.args, env)
            _match_stated(result, node)
            stack.pop()
            if not stack:
                return result
            path.pop()
            if isinstance(result, Claimhood):
                raise CheckError(
                    ErrorKind.MALFORMED_WITNESS,
                    "a claimhood statement cannot justify a sequent rule",
                )
            stack[-1][2].append(result)
    except CheckError as err:
        err._locate(tuple(path))
        raise


def _rule_call(tree: ProofTree) -> _Apply:
    """The call that applies tree's rule, once its rule, premise count and
    argument record are known to fit."""
    rule = tree.rule
    spec = _RULES.get(rule)
    if spec is None:
        raise CheckError(ErrorKind.RULE_ARITY_MISMATCH, f"unknown rule {rule!r}")
    arity, args_type, apply = spec
    if len(tree.premises) != arity:
        raise CheckError(
            ErrorKind.RULE_ARITY_MISMATCH,
            f"{Rule(rule).value} takes {arity} premises, found {len(tree.premises)}",
        )
    if not isinstance(tree.args, args_type):
        raise CheckError(
            ErrorKind.RULE_ARITY_MISMATCH,
            f"{Rule(rule).value} node carries the wrong argument record",
        )
    return apply


def _match_stated(result: CheckResult, tree: ProofTree) -> None:
    stated = tree.stated
    if stated is None:
        return
    if isinstance(result, Claimhood):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH, "a claimhood statement has no sequent to state"
        )
    computed, wanted = result.conclusion, stated.conclusion
    if tree.rule in (Rule.OR_INTRO_L, Rule.OR_INTRO_R):
        cw, sw = computed.witness, wanted.witness
        if (
            isinstance(cw, (TagL, TagR))
            and isinstance(sw, (TagL, TagR))
            and type(cw) is not type(sw)
        ):
            stated_tag = "i" if isinstance(sw, TagL) else "j"
            computed_tag = "i" if isinstance(cw, TagL) else "j"
            raise CheckError(
                ErrorKind.TAG_MISMATCH,
                f"stated witness tags the {stated_tag}-side, "
                f"the rule derives the {computed_tag}-side",
            )
    hypotheses, stated_hypotheses = result.hypotheses, stated.hypotheses
    matches = (
        (
            hypotheses == stated_hypotheses
            or frozenset(hypotheses) == frozenset(stated_hypotheses)
        )
        and alpha_equal(computed.witness, wanted.witness)
        and computed.actor == wanted.actor
        and computed.weight == wanted.weight
        and computed.claim == wanted.claim
    )
    if not matches:
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            f"checked {render_sequent(result)}, stated {render_sequent(stated)}",
        )

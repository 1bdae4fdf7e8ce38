"""Reference kernel for differential kernel tests.

The proof checker as it stood when replay recursed, frozen: _check and
_sequent_premises call each other once per node, and every rule and helper
takes the path of the node it checks, so each CheckError is built with its
location.  It must not change: veracity.kernel is checked against it,
sequent for sequent (hypothesis order included) and error for error.

Its rule conventions are veracity.kernel's; see that module's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Mapping, Union

from veracity.core import (
    And,
    AndElimArgs,
    AssumeArgs,
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
)
from veracity.parser import DEFAULT_ACTOR, Script, render_claim, render_sequent, render_term

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
    def __init__(self, kind: ErrorKind, path: Path, detail: str) -> None:
        where = ".".join(str(i) for i in path) if path else "root"
        super().__init__(f"{kind.value} at {where}: {detail}")
        self.kind = kind
        self.path = path
        self.detail = detail


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


def _require_declared(claim: Claim, env: CheckEnv, path: Path) -> None:
    missing = sorted(atoms_of_claim(claim) - env.declared_claims)
    if missing:
        raise CheckError(ErrorKind.UNKNOWN_CLAIM, path, f"claim {missing[0]!r} is not declared")


def _union_hypotheses(path: Path, *groups: tuple[Hypothesis, ...]) -> tuple[Hypothesis, ...]:
    merged: dict[str, Hypothesis] = {}
    for group in groups:
        for h in group:
            prior = merged.get(h.var)
            if prior is None:
                merged[h.var] = h
            elif prior != h:
                raise CheckError(
                    ErrorKind.SEQUENT_MISMATCH,
                    path,
                    f"hypothesis {h.var!r} occurs with conflicting statements",
                )
    return tuple(merged.values())


def _discharge(
    hypotheses: tuple[Hypothesis, ...], var: str, path: Path
) -> tuple[Hypothesis, tuple[Hypothesis, ...]]:
    for h in hypotheses:
        if h.var == var:
            rest = tuple(k for k in hypotheses if k.var != var)
            return h, rest
    raise CheckError(
        ErrorKind.HYPOTHESIS_MISSING, path, f"no hypothesis {var!r} to discharge"
    )


def _require_assumed(path: Path, branch: str, hyp: Hypothesis, need: Claim) -> None:
    """A branch's discharged hypothesis must assume the claim it stands for."""
    if hyp.claim != need:
        raise CheckError(
            ErrorKind.HYPOTHESIS_MISSING,
            path,
            f"{branch} assumes {hyp.var} : {render_claim(hyp.claim)}, "
            f"need {render_claim(need)}",
        )


def _same_actor(path: Path, *judgements: Judgement) -> str:
    actors = {j.actor for j in judgements}
    if len(actors) != 1:
        listed = ", ".join(sorted(actors))
        raise CheckError(
            ErrorKind.ACTOR_MISMATCH, path, f"premises name different actors: {listed}"
        )
    return judgements[0].actor


# ---------------------------------------------------------------------------
# One checker per rule


def check_assume(args: AssumeArgs, env: CheckEnv, path: Path = ()) -> Sequent:
    _require_declared(args.claim, env, path)
    for h in args.context:
        _require_declared(h.claim, env, path)
    actor = args.actor if args.actor is not None else env.default_actor
    introduced = Hypothesis(args.var, actor, Fraction(1), args.claim)
    hypotheses = _union_hypotheses(path, args.context, (introduced,))
    conclusion = Judgement(Var(args.var), actor, Fraction(1), args.claim)
    return Sequent(hypotheses, conclusion)


def check_claimhood(premise: Sequent) -> Claimhood:
    return Claimhood(premise.conclusion.claim)


def check_bottom_elim(premise: Sequent, target: Claim, env: CheckEnv, path: Path = ()) -> Sequent:
    _require_declared(target, env, path)
    j = premise.conclusion
    if not isinstance(j.claim, Bottom):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            path,
            f"premise concludes {render_claim(j.claim)}, not _|_",
        )
    return Sequent(premise.hypotheses, Judgement(j.witness, j.actor, j.weight, target))


def check_or_intro(
    premise: Sequent, side: str, other: Claim, env: CheckEnv, path: Path = ()
) -> Sequent:
    _require_declared(other, env, path)
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
    path: Path = (),
) -> Sequent:
    for claim in family_claims(family):
        _require_declared(claim, env, path)
    sj = scrutinee.conclusion
    if not isinstance(sj.claim, Or):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            path,
            f"scrutinee concludes {render_claim(sj.claim)}, not a disjunction",
        )
    lj, rj = left_branch.conclusion, right_branch.conclusion
    actor = _same_actor(path, sj, lj, rj)

    left_hyp, left_rest = _discharge(left_branch.hypotheses, left_var, path)
    _require_assumed(path, "left branch", left_hyp, sj.claim.left)
    right_hyp, right_rest = _discharge(right_branch.hypotheses, right_var, path)
    _require_assumed(path, "right branch", right_hyp, sj.claim.right)

    want_left = family_at(family, TagL(Var(left_var)))
    want_right = family_at(family, TagR(Var(right_var)))
    if lj.claim != want_left:
        raise CheckError(
            ErrorKind.TAG_MISMATCH,
            path,
            f"left branch concludes {render_claim(lj.claim)}, "
            f"family expects {render_claim(want_left)}",
        )
    if rj.claim != want_right:
        raise CheckError(
            ErrorKind.TAG_MISMATCH,
            path,
            f"right branch concludes {render_claim(rj.claim)}, "
            f"family expects {render_claim(want_right)}",
        )
    conclusion_claim = family_at(family, sj.witness)
    if conclusion_claim is None:
        raise CheckError(
            ErrorKind.FAMILY_NOT_TOTAL,
            path,
            f"family is undefined at scrutinee witness {render_term(sj.witness)}",
        )

    witness = CasesOf(sj.witness, left_var, lj.witness, right_var, rj.witness)
    weight = min(sj.weight, lj.weight, rj.weight)
    hypotheses = _union_hypotheses(path, scrutinee.hypotheses, left_rest, right_rest)
    return Sequent(hypotheses, Judgement(witness, actor, weight, conclusion_claim))


def check_and_intro(left: Sequent, right: Sequent, path: Path = ()) -> Sequent:
    lj, rj = left.conclusion, right.conclusion
    actor = _same_actor(path, lj, rj)
    conclusion = Judgement(
        Pair(lj.witness, rj.witness),
        actor,
        min(lj.weight, rj.weight),
        And(lj.claim, rj.claim),
    )
    hypotheses = _union_hypotheses(path, left.hypotheses, right.hypotheses)
    return Sequent(hypotheses, conclusion)


def check_and_elim(
    scrutinee: Sequent,
    branch: Sequent,
    family: ClaimFamily,
    fst_var: str,
    snd_var: str,
    env: CheckEnv,
    path: Path = (),
) -> Sequent:
    if not isinstance(family, ConstantFamily):
        raise CheckError(
            ErrorKind.FAMILY_NOT_TOTAL,
            path,
            "conjunction elimination takes a constant family",
        )
    _require_declared(family.claim, env, path)
    sj, bj = scrutinee.conclusion, branch.conclusion
    if not isinstance(sj.claim, And):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            path,
            f"scrutinee concludes {render_claim(sj.claim)}, not a conjunction",
        )
    actor = _same_actor(path, sj, bj)
    fst_hyp, rest = _discharge(branch.hypotheses, fst_var, path)
    snd_hyp, rest = _discharge(rest, snd_var, path)
    _require_assumed(path, "branch", fst_hyp, sj.claim.left)
    _require_assumed(path, "branch", snd_hyp, sj.claim.right)
    if bj.claim != family.claim:
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            path,
            f"branch concludes {render_claim(bj.claim)}, "
            f"family expects {render_claim(family.claim)}",
        )
    witness = SplitOf(sj.witness, fst_var, snd_var, bj.witness)
    weight = min(sj.weight, bj.weight)
    hypotheses = _union_hypotheses(path, scrutinee.hypotheses, rest)
    return Sequent(hypotheses, Judgement(witness, actor, weight, family.claim))


def check_implies_intro(
    premise: Sequent, var: str, weight_fn: WeightExpr, path: Path = ()
) -> Sequent:
    j = premise.conclusion
    hyp, rest = _discharge(premise.hypotheses, var, path)
    if hyp.actor != j.actor:
        raise CheckError(
            ErrorKind.ACTOR_MISMATCH,
            path,
            f"hypothesis {var!r} belongs to {hyp.actor}, conclusion to {j.actor}",
        )
    expected = eval_weight_expr(weight_fn, hyp.weight)
    if j.weight != expected:
        raise CheckError(
            ErrorKind.WEIGHT_MISMATCH,
            path,
            f"premise weight {j.weight} differs from the transformer's "
            f"value {expected} at the hypothesis weight {hyp.weight}",
        )
    witness = Lambda(var, j.witness, weight_fn)
    conclusion = Judgement(witness, j.actor, Fraction(1), Implies(hyp.claim, j.claim))
    return Sequent(rest, conclusion)


def check_implies_elim(fn: Sequent, arg: Sequent, path: Path = ()) -> Sequent:
    fj, aj = fn.conclusion, arg.conclusion
    if not isinstance(fj.claim, Implies):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            path,
            f"function premise concludes {render_claim(fj.claim)}, not an implication",
        )
    if aj.claim != fj.claim.antecedent:
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            path,
            f"argument concludes {render_claim(aj.claim)}, "
            f"antecedent is {render_claim(fj.claim.antecedent)}",
        )
    actor = _same_actor(path, fj, aj)
    transformer = fj.witness.weight_fn if isinstance(fj.witness, Lambda) else ARG
    weight = fj.weight * eval_weight_expr(transformer, aj.weight)
    witness = Apply(fj.witness, aj.witness)
    hypotheses = _union_hypotheses(path, fn.hypotheses, arg.hypotheses)
    return Sequent(hypotheses, Judgement(witness, actor, weight, fj.claim.consequent))


def check_trust(
    premise: Sequent,
    relation_name: str,
    source: str,
    target: str,
    env: CheckEnv,
    path: Path = (),
) -> Sequent:
    relation = env.trust_relations.get(relation_name)
    if relation is None:
        raise CheckError(
            ErrorKind.UNKNOWN_TRUST_EDGE,
            path,
            f"trust relation {relation_name!r} is not in the environment",
        )
    j = premise.conclusion
    if j.actor != target:
        raise CheckError(
            ErrorKind.ACTOR_MISMATCH,
            path,
            f"premise actor is {j.actor}, trust step expects {target}",
        )
    edge_weight = relation.weight_between(source, target)
    if edge_weight is None:
        raise CheckError(
            ErrorKind.UNKNOWN_TRUST_EDGE,
            path,
            f"{relation_name} has no edge {source} -> {target}",
        )
    conclusion = Judgement(j.witness, source, edge_weight * j.weight, j.claim)
    return Sequent(premise.hypotheses, conclusion)


# ---------------------------------------------------------------------------
# Tree replay

_Apply = Callable[[tuple[Sequent, ...], Any, CheckEnv, Path], CheckResult]

_RULES: dict[Rule, tuple[int, type, _Apply]] = {
    Rule.ASSUME: (0, AssumeArgs, lambda ps, a, env, path: check_assume(a, env, path)),
    Rule.CLAIM: (1, type(None), lambda ps, a, env, path: check_claimhood(*ps)),
    Rule.BOTTOM_ELIM: (
        1, BottomElimArgs, lambda ps, a, env, path: check_bottom_elim(*ps, a.target, env, path)
    ),
    Rule.OR_INTRO_L: (
        1, OrIntroArgs, lambda ps, a, env, path: check_or_intro(*ps, "left", a.other, env, path)
    ),
    Rule.OR_INTRO_R: (
        1, OrIntroArgs, lambda ps, a, env, path: check_or_intro(*ps, "right", a.other, env, path)
    ),
    Rule.OR_ELIM: (
        3,
        OrElimArgs,
        lambda ps, a, env, path: check_or_elim(*ps, a.family, a.left_var, a.right_var, env, path),
    ),
    Rule.AND_INTRO: (2, type(None), lambda ps, a, env, path: check_and_intro(*ps, path)),
    Rule.AND_ELIM: (
        2,
        AndElimArgs,
        lambda ps, a, env, path: check_and_elim(*ps, a.family, a.fst_var, a.snd_var, env, path),
    ),
    Rule.IMP_INTRO: (
        1, ImpIntroArgs, lambda ps, a, env, path: check_implies_intro(*ps, a.var, a.weight_fn, path)
    ),
    Rule.IMP_ELIM: (2, type(None), lambda ps, a, env, path: check_implies_elim(*ps, path)),
    Rule.TRUST: (
        1,
        TrustArgs,
        lambda ps, a, env, path: check_trust(*ps, a.relation, a.source, a.target, env, path),
    ),
}


def check_proof(tree: ProofTree, env: CheckEnv) -> CheckResult:
    """Replay a proof tree; the first invalid node in post-order raises."""
    return _check(tree, env, ())


def _sequent_premises(
    tree: ProofTree, env: CheckEnv, path: Path
) -> tuple[Sequent, ...]:
    results = []
    for i, premise in enumerate(tree.premises):
        result = _check(premise, env, path + (i,))
        if isinstance(result, Claimhood):
            raise CheckError(
                ErrorKind.MALFORMED_WITNESS,
                path,
                "a claimhood statement cannot justify a sequent rule",
            )
        results.append(result)
    return tuple(results)


def _check(tree: ProofTree, env: CheckEnv, path: Path) -> CheckResult:
    rule = tree.rule
    spec = _RULES.get(rule)
    if spec is None:
        raise CheckError(ErrorKind.RULE_ARITY_MISMATCH, path, f"unknown rule {rule!r}")
    arity, args_type, apply = spec
    if len(tree.premises) != arity:
        raise CheckError(
            ErrorKind.RULE_ARITY_MISMATCH,
            path,
            f"{Rule(rule).value} takes {arity} premises, found {len(tree.premises)}",
        )
    if not isinstance(tree.args, args_type):
        raise CheckError(
            ErrorKind.RULE_ARITY_MISMATCH,
            path,
            f"{Rule(rule).value} node carries the wrong argument record",
        )
    result = apply(_sequent_premises(tree, env, path), tree.args, env, path)
    _match_stated(result, tree, path)
    return result


def _match_stated(result: CheckResult, tree: ProofTree, path: Path) -> None:
    stated = tree.stated
    if stated is None:
        return
    if isinstance(result, Claimhood):
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH, path, "a claimhood statement has no sequent to state"
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
                path,
                f"stated witness tags the {stated_tag}-side, "
                f"the rule derives the {computed_tag}-side",
            )
    matches = (
        frozenset(result.hypotheses) == frozenset(stated.hypotheses)
        and alpha_equal(computed.witness, wanted.witness)
        and computed.actor == wanted.actor
        and computed.weight == wanted.weight
        and computed.claim == wanted.claim
    )
    if not matches:
        raise CheckError(
            ErrorKind.SEQUENT_MISMATCH,
            path,
            f"checked {render_sequent(result)}, stated {render_sequent(stated)}",
        )

"""The kernel against the frozen one in kerneloracle.py.  Every proof, as
generated and broken at one random node, gives the oracle's sequent,
hypothesis order included, or the oracle's error: the same kind, path,
detail and message.  So does every proof whose nodes state their sequents
with the hypotheses shuffled, one of them repeated or one conflicting."""

import functools
import random
from dataclasses import replace
from fractions import Fraction
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from veracity.core import (
    ARG,
    And,
    AssumeArgs,
    Atom,
    Atomic,
    Bottom,
    BottomElimArgs,
    Const,
    ConstantFamily,
    Hypothesis,
    Implies,
    ImpIntroArgs,
    Judgement,
    Min,
    Mul,
    Or,
    OrIntroArgs,
    ProofTree,
    Rule,
    Sequent,
    TagFamily,
    TagL,
    TagR,
    TrustArgs,
    TrustEdge,
    TrustRelation,
    format_weight,
    neg,
)
from veracity.cli import main
from veracity.kernel import CheckEnv, CheckError, ErrorKind, check_proof, env_from_script
from veracity.parser import parse_script, render_proof_tree, render_sequent

import kerneloracle as oracle
from proof_search import search_proof
from proofgen import random_proof, random_scenario

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")
LEAF = ProofTree(Rule.ASSUME, (), AssumeArgs("w", A))
SEARCH_ENV = CheckEnv(frozenset({"A", "B", "C"}), {}, "P")
SEARCH_GOALS = [
    Implies(A, A),
    Implies(And(A, B), And(B, A)),
    Implies(Or(A, B), Or(B, A)),
    Implies(A, Implies(B, A)),
    Implies(And(Implies(A, B), Implies(B, C)), Implies(A, C)),
    Implies(And(Or(A, B), C), Or(And(A, C), And(B, C))),
    Implies(Bottom(), A),
    neg(neg(Or(A, neg(A)))),
]


@functools.cache
def searched() -> list[ProofTree]:
    found = [search_proof(goal, SEARCH_ENV, 6) for goal in SEARCH_GOALS]
    assert None not in found
    return found


def outcome(check, tree, env):
    try:
        return ("result", check(tree, env))
    except (CheckError, oracle.CheckError) as err:
        return ("error", err.kind.value, err.path, err.detail, str(err))


def assert_agrees(tree, env):
    new, old = outcome(check_proof, tree, env), outcome(oracle.check_proof, tree, env)
    assert new == old, tree


def _nodes(tree):
    """Every node of tree with its path, in pre-order."""
    found, todo = [], [((), tree)]
    while todo:
        path, node = todo.pop()
        found.append((path, node))
        todo.extend((path + (i,), p) for i, p in reversed(list(enumerate(node.premises))))
    return found


def _replace_at(tree, path, new):
    if not path:
        return new
    premises = list(tree.premises)
    premises[path[0]] = _replace_at(premises[path[0]], path[1:], new)
    return replace(tree, premises=tuple(premises))


def _trust_chain(rng, n):
    """n trust steps over P and Q, alternating, above one assume."""
    edges = (TrustEdge("P", "Q", Fraction(1, 2)), TrustEdge("Q", "P", Fraction(1)))
    relation = TrustRelation("T", edges)
    env = CheckEnv(frozenset({"A"}), {"T": relation}, "P")
    actor = rng.choice("PQ")
    tree = ProofTree(Rule.ASSUME, (), AssumeArgs("x", A, actor))
    for _ in range(n):
        source = "Q" if actor == "P" else "P"
        tree = ProofTree(Rule.TRUST, (tree,), TrustArgs("T", source, actor))
        actor = source
    return tree, env


# Each way to break a node: rng, node, env -> a node to put in its place.


def _drop_or_add_premise(rng, node, env):
    premises = list(node.premises)
    if premises and rng.random() < 0.5:
        del premises[rng.randrange(len(premises))]
    else:
        premises.insert(rng.randint(0, len(premises)), LEAF)
    return replace(node, premises=tuple(premises))


def _wrong_arguments(rng, node, env):
    """A record of another type, or the node's own with one field changed:
    an undeclared or another claim, a family of the other kind, or another
    weight transformer."""
    args = node.args
    if args is None or isinstance(args, TrustArgs) or rng.random() < 0.5:
        records = [None, BottomElimArgs(A), OrIntroArgs(B), TrustArgs("T", "P", "Q"), LEAF.args]
        return replace(node, args=rng.choice([r for r in records if type(r) is not type(args)]))
    claim = rng.choice([Atomic("Z"), Bottom(), A, Or(A, B)])
    if isinstance(args, AssumeArgs):
        args = replace(args, claim=claim)
    elif isinstance(args, BottomElimArgs):
        args = replace(args, target=claim)
    elif isinstance(args, OrIntroArgs):
        args = replace(args, other=claim)
    elif isinstance(args, ImpIntroArgs):
        half = Const(Fraction(1, 2))
        args = replace(args, weight_fn=rng.choice([half, Mul(ARG, half), Min(ARG, half)]))
    elif isinstance(args.family, ConstantFamily):
        families = [TagFamily(args.family.claim, claim), ConstantFamily(claim)]
        args = replace(args, family=rng.choice(families))
    else:
        args = replace(args, family=ConstantFamily(rng.choice([args.family.on_left, claim])))
    return replace(node, args=args)


def _wrong_rule(rng, node, env):
    return replace(node, rule=rng.choice(["frobnicate", *Rule]))


def _claimhood_premise(rng, node, env):
    if not node.premises:
        return ProofTree(Rule.CLAIM, (node,))
    i = rng.randrange(len(node.premises))
    premises = list(node.premises)
    premises[i] = ProofTree(Rule.CLAIM, (premises[i],))
    return replace(node, premises=tuple(premises))


def _hypothesis(rng, node, env):
    """A conflicting hypothesis carried by an assume, or a discharged
    variable that no premise assumes."""
    args = node.args
    if isinstance(args, AssumeArgs):
        var = rng.choice([args.var, *(h.var for h in args.context), "a", "b", "x", "u0"])
        actor = rng.choice(["P", "Q", "R", args.actor or env.default_actor])
        extra = Hypothesis(var, actor, Fraction(rng.randint(1, 2), 2), rng.choice([A, B, Bottom()]))
        context = list(args.context)
        context.insert(rng.randint(0, len(context)), extra)
        return replace(node, args=replace(args, context=tuple(context)))
    names = [f for f in ("var", "left_var", "right_var", "fst_var", "snd_var") if hasattr(args, f)]
    if not names:
        return _drop_or_add_premise(rng, node, env)
    return replace(node, args=replace(args, **{rng.choice(names): "missing"}))


def _wrong_statement(rng, node, env):
    """A stated sequent: the one the oracle derives, as it is or changed in
    one part, or when the node does not check, any sequent."""
    result = outcome(oracle.check_proof, node, env)
    if result[0] != "result" or not isinstance(result[1], Sequent):
        conclusion = Judgement(TagL(Atom("a")), "P", Fraction(1), Or(A, B))
        return replace(node, stated=Sequent((), conclusion))
    hyps, j = result[1].hypotheses, result[1].conclusion
    change = rng.choice(["none", "reorder", "weight", "actor", "claim", "hypothesis", "tag"])
    if change == "reorder":
        hyps = hyps[::-1]
    elif change == "weight":
        j = replace(j, weight=j.weight / 2)
    elif change == "actor":
        j = replace(j, actor=j.actor + "'")
    elif change == "claim":
        j = replace(j, claim=And(j.claim, A))
    elif change == "hypothesis":
        hyps = hyps[1:] if hyps else (Hypothesis("h", "P", Fraction(1), A),)
    elif change == "tag":
        witness = j.witness
        if isinstance(witness, TagL):
            j = replace(j, witness=TagR(witness.value))
        elif isinstance(witness, TagR):
            j = replace(j, witness=TagL(witness.value))
    return replace(node, stated=Sequent(hyps, j))


def _trust_step(rng, node, env):
    """An unknown relation, or an edge the relation lacks or whose target is
    not the premise's actor."""
    args = node.args
    if not isinstance(args, TrustArgs):
        args = TrustArgs("T", "P", "Q")
        return ProofTree(Rule.TRUST, (node,), args)
    change = rng.choice(["relation", "reverse", "source", "target"])
    if change == "relation":
        return replace(node, args=replace(args, relation="Z"))
    if change == "reverse":
        return replace(node, args=TrustArgs(args.relation, args.target, args.source))
    return replace(node, args=replace(args, **{change: rng.choice("PQRS")}))


BREAKS = [
    _drop_or_add_premise,
    _wrong_arguments,
    _wrong_rule,
    _claimhood_premise,
    _hypothesis,
    _wrong_statement,
    _trust_step,
]


def _source(rng):
    """A proof and its environment: a proofgen draw, falsity included, a
    proof_search hit, or a trust chain up to 150 steps deep."""
    kind = rng.choice(["proofgen", "proofgen", "search", "chain"])
    if kind == "proofgen":
        scenario = random_scenario(rng)
        return random_proof(rng, scenario, rng.randint(1, 4), rng.random() < 0.2), scenario.env
    if kind == "search":
        return rng.choice(searched()), SEARCH_ENV
    return _trust_chain(rng, rng.randint(1, 150))


def _break_one(seed):
    """A drawn proof, and the same proof broken at one random node, each
    checked against the oracle; the broken proof's outcome."""
    rng = random.Random(seed)
    tree, env = _source(rng)
    assert_agrees(tree, env)
    path, node = rng.choice(_nodes(tree))
    broken = _replace_at(tree, path, rng.choice(BREAKS)(rng, node, env))
    assert_agrees(broken, env)
    return outcome(check_proof, broken, env)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_broken_proofs_fail_as_the_oracle_fails(seed):
    _break_one(seed)


def test_the_breaks_reach_every_error_kind():
    """Over fixed seeds, the broken proofs raise every kind of error, some
    of them below the root, and some still check."""
    seen = [_break_one(seed) for seed in range(1500)]
    errors = [result for result in seen if result[0] == "error"]
    assert {result[1] for result in errors} == {kind.value for kind in ErrorKind}
    assert max(len(result[2]) for result in errors) > 100
    assert len(errors) < len(seen)


def test_every_search_hit_replays_as_the_oracle_replays():
    for tree in searched():
        assert_agrees(tree, SEARCH_ENV)


# Stated sequents whose hypotheses are not listed in the kernel's order.
# The kernel compares the two lists as tuples first and as sets only when
# the tuples differ; the oracle always compares sets.  Every node states
# what the oracle derives there with its hypotheses shuffled, and one node,
# drawn at random, may also repeat one of them or list one that conflicts.

RESTATINGS = ["shuffled", "repeated", "conflicting"]


def _restated(rng, hypotheses, kind):
    listed = list(hypotheses)
    rng.shuffle(listed)
    if listed and kind == "repeated":
        listed.insert(rng.randint(0, len(listed)), rng.choice(listed))
    elif listed and kind == "conflicting":
        i = rng.randrange(len(listed))
        h = listed[i]
        other = rng.choice(
            [replace(h, weight=h.weight / 2), replace(h, actor=h.actor + "'"), replace(h, claim=And(h.claim, A))]
        )
        if rng.random() < 0.5:
            listed[i] = other
        else:
            listed.insert(rng.randint(0, len(listed)), other)
    return tuple(listed)


def _stating(rng, tree, env, kinds):
    """tree with each node stating the oracle's sequent for it, restated as
    kinds (a node's pre-order index to its kind) says, shuffled by default."""
    index = count()

    def state(node):
        kind = kinds.get(next(index), "shuffled")
        premises = tuple(state(p) for p in node.premises)
        result = outcome(oracle.check_proof, node, env)
        if result[0] == "result" and isinstance(result[1], Sequent):
            sequent = result[1]
            stated = Sequent(_restated(rng, sequent.hypotheses, kind), sequent.conclusion)
            return replace(node, premises=premises, stated=stated)
        return replace(node, premises=premises)

    return state(tree)


def _restate_one(seed):
    """A proofgen draw stating its sequents; the kind of its one drawn
    restating, and the kernel's outcome, checked to be the oracle's."""
    rng = random.Random(seed)
    scenario = random_scenario(rng)
    tree = random_proof(rng, scenario, rng.randint(1, 4), rng.random() < 0.2)
    kind = rng.choice(RESTATINGS)
    stating = _stating(rng, tree, scenario.env, {rng.randrange(len(_nodes(tree))): kind})
    assert_agrees(stating, scenario.env)
    return kind, outcome(check_proof, stating, scenario.env)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restated_hypotheses_match_as_the_oracle_matches(seed):
    _restate_one(seed)


def test_restatings_reach_each_outcome():
    """Over fixed seeds, shuffled and repeated lists check, even with two or
    more hypotheses, and conflicting ones fail, some below the root."""
    seen = [_restate_one(seed) for seed in range(300)]
    for kind in ("shuffled", "repeated"):
        results = [result for k, result in seen if k == kind]
        assert all(result[0] == "result" for result in results)
        assert any(len(result[1].hypotheses) > 1 for result in results)
    conflicts = [result for k, result in seen if k == "conflicting" and result[0] == "error"]
    assert {result[1] for result in conflicts} == {"sequentMismatch"}
    assert any(result[2] for result in conflicts)


def _script_of(scenario, tree):
    """A script of tree as proof Drawn, over the scenario's names, with the
    claim A and each actor's name with a prime, as a conflicting restating
    may write them."""
    claims = sorted({*scenario.claims, "A"})
    actors = [*scenario.actors, *(f"{actor}'" for actor in scenario.actors)]
    lines = [f"claim {', '.join(claims)}.", f"actor {', '.join(actors)}."]
    for relation in scenario.env.trust_relations.values():
        edges = " ".join(f"{e.source} -> {e.target} @ {format_weight(e.weight)}." for e in relation.edges)
        lines.append(f"trust {relation.name} {{ {edges} }}")
    lines.append(f"proof Drawn {{ {render_proof_tree(tree)} }}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parsed_restatings_match_as_the_oracle_matches(seed):
    """A proofgen draw stating its sequents at every node, one of them
    drawn restated, written as a script and parsed, so that its stated
    values are shared: it reads back as the tree it was written from, and
    the kernel gives the oracle's sequent or error."""
    rng = random.Random(seed)
    scenario = random_scenario(rng)
    tree = random_proof(rng, scenario, rng.randint(1, 4), rng.random() < 0.2)
    kind = rng.choice(RESTATINGS)
    stating = _stating(rng, tree, scenario.env, {rng.randrange(len(_nodes(tree))): kind})
    parsed = parse_script(_script_of(scenario, stating)).proofs[0].tree
    assert parsed == stating
    assert_agrees(parsed, scenario.env)


STATED_SCRIPT = """claim A, B. actor P.
proof Shuffled { andIntro(assume x : A, assume y : B) stating (y : B, x : A |- (x,y) : A /\\ B) }
proof Repeated { andIntro(assume x : A, assume y : B) stating (y : B, x : A, y : B |- (x,y) : A /\\ B) }
proof Conflicting {
  orIntroL(andIntro(assume x : A, assume y : B) stating (y : B, x : A, y@0.5 : B |- (x,y) : A /\\ B), B)
}
"""
CHECKED = "x^P : A, y^P : B |- (x,y)^P : A /\\ B"
CONFLICT = f"checked {CHECKED}, stated y^P : B, x^P : A, y^P@0.5 : B |- (x,y)^P : A /\\ B"


def test_pinned_restatings_in_the_library():
    script = parse_script(STATED_SCRIPT)
    env = env_from_script(script)
    shuffled, repeated, conflicting = (proof.tree for proof in script.proofs)
    for tree in (shuffled, repeated, conflicting):
        assert outcome(check_proof, tree, env) == outcome(oracle.check_proof, tree, env)
    assert render_sequent(check_proof(shuffled, env)) == CHECKED
    assert render_sequent(check_proof(repeated, env)) == CHECKED
    kind, path, detail = outcome(check_proof, conflicting, env)[1:4]
    assert (kind, path, detail) == ("sequentMismatch", (0,), CONFLICT)


def test_pinned_restatings_in_the_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VERACITY_COLOR", "never")
    path = tmp_path / "stated.vlp"
    path.write_text(STATED_SCRIPT, encoding="utf-8")
    assert main(["check", "--format", "structured", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"[check {path} Shuffled]\nstatus=ok\nsequent={CHECKED}\n\n"
        f"[check {path} Repeated]\nstatus=ok\nsequent={CHECKED}\n\n"
        f"[check {path} Conflicting]\nstatus=failed\nerror-kind=sequentMismatch\nerror-path=0\n"
        f"error-detail={CONFLICT}\nline=5\ncol=12\n"
    )

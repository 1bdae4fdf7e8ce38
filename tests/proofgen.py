"""Random checked proofs with compatible models.

Generates scenarios over the assume, conjunction and disjunction
introduction and elimination, and trust rules: a claim vocabulary, a few
actors, up to two trust relations, a model assigning atoms at weight 1,
and proof trees whose hypotheses hold in that model by construction.
andElim takes a constant family; orElim takes a constant family, or a tag
family over a literally tagged scrutinee.  Used to stress the semantic
soundness of the whole pipeline; the arrow rules are left out because
membership in an arrow claim reads tables only.  Asked for falsity, the
generator also puts a bottomElim over an assumed _|_ into the proof, which
then checks but cannot be sound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Optional

from veracity.core import (
    And,
    AndElimArgs,
    AssumeArgs,
    Atom,
    Atomic,
    Bottom,
    BottomElimArgs,
    Claim,
    ConstantFamily,
    Hypothesis,
    Or,
    OrElimArgs,
    OrIntroArgs,
    ProofTree,
    Rule,
    TagFamily,
    TrustArgs,
    TrustEdge,
    TrustRelation,
)
from veracity.kernel import CheckEnv
from veracity.semantics import Model, WeightedWitness, build_model

CLAIM_POOL = ["A", "B", "C", "D"]
ACTOR_POOL = ["P", "Q", "R", "S"]
ATOM_POOL = ["a", "b", "c", "d", "e", "f"]


@dataclass
class Scenario:
    env: CheckEnv
    model: Model
    claims: list[str]
    actors: list[str]
    dedicated: dict[str, str]


def random_scenario(rng: random.Random) -> Scenario:
    claims = rng.sample(CLAIM_POOL, rng.randint(2, 4))
    actors = rng.sample(ACTOR_POOL, rng.randint(1, 3))

    relations: dict[str, TrustRelation] = {}
    directed = [(s, t) for s in actors for t in actors if s != t]
    for name in ("T", "U")[: rng.randint(0, 2)]:
        if not directed:
            break
        rng.shuffle(directed)
        count = rng.randint(1, min(4, len(directed)))
        edges = tuple(
            TrustEdge(s, t, Fraction(rng.randint(1, 8), 8)) for s, t in directed[:count]
        )
        relations[name] = TrustRelation(name, edges)

    # Each actor gets a dedicated atom so proof leaves always exist; the
    # dedicated atoms stay out of the extra assignments, keeping each one
    # bound to a single claim and actor.
    dedicated = rng.sample(ATOM_POOL, len(actors))
    spare = [a for a in ATOM_POOL if a not in dedicated]
    assignment: dict[str, set[WeightedWitness]] = {c: set() for c in claims}
    for actor, atom in zip(actors, dedicated):
        assignment[rng.choice(claims)].add(WeightedWitness(Atom(atom), actor, Fraction(1)))
    for _ in range(rng.randint(0, 6)):
        assignment[rng.choice(claims)].add(
            WeightedWitness(Atom(rng.choice(spare)), rng.choice(actors), Fraction(1))
        )

    env = CheckEnv(frozenset(claims), relations, actors[0])
    model = build_model(assignment, tuple(relations.values()))
    return Scenario(env, model, claims, actors, dict(zip(dedicated, actors)))


# Hypotheses an eliminator's branch has yet to discharge, and of those the
# ones a leaf may assume: var -> claim, at the branch's own actor.
Scope = tuple[Hypothesis, ...]
Usable = dict[str, Claim]


def random_proof(
    rng: random.Random, scenario: Scenario, max_depth: int = 3, falsity: bool = False
) -> ProofTree:
    """A proof tree that checks under the scenario's environment and whose
    hypotheses all hold in the scenario's model.  With falsity, a proof that
    checks but has an open hypothesis z : _|_ under a bottomElim, which
    holds in no model."""
    bindings: dict[str, tuple[str, str]] = {}
    fresh = count()

    def leaf_candidates(actor: str) -> list[tuple[str, str]]:
        # A weight-1 trust edge can copy a dedicated atom to another actor
        # at weight 1 in the closed model. Reserving dedicated atoms for
        # their own actor keeps every actor's candidate list nonempty no
        # matter which bindings earlier leaves have claimed.
        out = []
        for claim_name in scenario.claims:
            for w in scenario.model.atom_assignment.get(claim_name, frozenset()):
                if w.actor != actor or not isinstance(w.term, Atom):
                    continue
                if w.weight != 1:
                    continue
                owner = scenario.dedicated.get(w.term.name)
                if owner is not None and owner != actor:
                    continue
                bound = bindings.get(w.term.name)
                if bound is None or bound == (claim_name, actor):
                    out.append((claim_name, w.term.name))
        return sorted(out)

    def trust_options(actor: str) -> list[tuple[str, TrustEdge]]:
        out = []
        for name, relation in sorted(scenario.env.trust_relations.items()):
            for edge in relation.edges:
                if edge.source == actor:
                    out.append((name, edge))
        return out

    # Every leaf carries the scope as its context, so a branch always has
    # the hypotheses its eliminator discharges.  A leaf may assume a usable
    # one only at the eliminator's actor: a weight-1 hypothesis stands for
    # a component held at the scrutinee's weight, which the eliminator's
    # minimum covers there but a trust product could undercut.
    def assume(var: str, claim: Claim, actor: str, scope: Scope) -> ProofTree:
        return ProofTree(Rule.ASSUME, (), AssumeArgs(var, claim, actor, scope))

    def falsity_leaf(actor: str, scope: Scope) -> tuple[ProofTree, Claim]:
        var = f"z{next(fresh)}"
        target = Atomic(rng.choice(scenario.claims))
        node = ProofTree(
            Rule.BOTTOM_ELIM, (assume(var, Bottom(), actor, scope),), BottomElimArgs(target)
        )
        return node, target

    def leaf(actor: str, scope: Scope, usable: Usable) -> tuple[ProofTree, Claim]:
        options = [(var, Atomic(name)) for name, var in leaf_candidates(actor)]
        options += sorted(usable.items())
        if falsity:
            options.append(None)
        pick = rng.choice(options)
        if pick is None:
            return falsity_leaf(actor, scope)
        var, claim = pick
        if var not in usable:
            bindings[var] = (claim.name, actor)
        return assume(var, claim, actor, scope), claim

    def extended(
        scope: Scope, usable: Usable, actor: str, *named: tuple[str, Claim]
    ) -> tuple[Scope, Usable]:
        hyps = tuple(Hypothesis(var, actor, Fraction(1), claim) for var, claim in named)
        return scope + hyps, {**usable, **dict(named)}

    def prove(
        actor: str, goal: Claim, hops: int, scope: Scope, usable: Usable
    ) -> Optional[ProofTree]:
        """A proof of goal at actor, or None: a usable hypothesis, a leaf,
        introductions by the goal's shape, and up to hops trust steps."""
        hits = sorted(var for var, claim in usable.items() if claim == goal)
        if hits:
            return assume(rng.choice(hits), goal, actor, scope)
        if isinstance(goal, Atomic):
            atoms = [var for name, var in leaf_candidates(actor) if name == goal.name]
            if atoms:
                var = rng.choice(atoms)
                bindings[var] = (goal.name, actor)
                return assume(var, goal, actor, scope)
            edges = trust_options(actor) if hops > 0 else []
            rng.shuffle(edges)
            for relation_name, edge in edges:
                premise = prove(edge.target, goal, hops - 1, scope, {})
                if premise is not None:
                    args = TrustArgs(relation_name, edge.source, edge.target)
                    return ProofTree(Rule.TRUST, (premise,), args)
            return None
        if isinstance(goal, And):
            left = prove(actor, goal.left, hops, scope, usable)
            if left is None:
                return None
            right = prove(actor, goal.right, hops, scope, usable)
            return None if right is None else ProofTree(Rule.AND_INTRO, (left, right))
        if isinstance(goal, Or):
            sides = [
                (Rule.OR_INTRO_L, goal.left, goal.right),
                (Rule.OR_INTRO_R, goal.right, goal.left),
            ]
            rng.shuffle(sides)
            for rule, side, other in sides:
                premise = prove(actor, side, hops, scope, usable)
                if premise is not None:
                    return ProofTree(rule, (premise,), OrIntroArgs(other))
        return None

    def build(
        actor: str, depth: int, scope: Scope, usable: Usable, shape: Optional[type] = None
    ) -> tuple[ProofTree, Claim]:
        """A proof at actor.  shape And asks for a conjunction and shape Or
        for a disjunction whose witness is literally tagged."""
        if shape is And:
            options = ["and"]
        elif shape is Or:
            options = ["or"]
        else:
            options = ["leaf", "leaf"]
            if depth > 0:
                options += ["and", "or", "andElim", "orElim"]
        if depth > 0 and trust_options(actor):
            options.append("trust")
        choice = rng.choice(options)
        if choice == "and":
            left, left_claim = build(actor, depth - 1, scope, usable)
            right, right_claim = build(actor, depth - 1, scope, usable)
            return (
                ProofTree(Rule.AND_INTRO, (left, right)),
                And(left_claim, right_claim),
            )
        if choice == "or":
            premise, claim = build(actor, depth - 1, scope, usable)
            other = Atomic(rng.choice(scenario.claims))
            rule = rng.choice((Rule.OR_INTRO_L, Rule.OR_INTRO_R))
            node = ProofTree(rule, (premise,), OrIntroArgs(other))
            combined = Or(claim, other) if rule is Rule.OR_INTRO_L else Or(other, claim)
            return node, combined
        if choice == "trust":
            relation_name, edge = rng.choice(trust_options(actor))
            premise, claim = build(edge.target, depth - 1, scope, {}, shape)
            node = ProofTree(
                Rule.TRUST,
                (premise,),
                TrustArgs(relation_name, edge.source, edge.target),
            )
            return node, claim
        if choice == "andElim":
            pair, pair_claim = scrutinee(actor, depth, scope, usable, And)
            fst, snd = f"u{next(fresh)}", f"v{next(fresh)}"
            inner = extended(scope, usable, actor, (fst, pair_claim.left), (snd, pair_claim.right))
            branch, claim = build(actor, depth - 1, *inner)
            args = AndElimArgs(ConstantFamily(claim), fst, snd)
            return ProofTree(Rule.AND_ELIM, (pair, branch), args), claim
        if choice == "orElim":
            tagged = rng.random() < 0.5
            cases, cases_claim = scrutinee(actor, depth, scope, usable, Or, tagged)
            left_var, right_var = f"l{next(fresh)}", f"r{next(fresh)}"
            left, left_claim = build(
                actor, depth - 1, *extended(scope, usable, actor, (left_var, cases_claim.left))
            )
            right_inner = extended(scope, usable, actor, (right_var, cases_claim.right))
            if tagged:
                right, right_claim = build(actor, depth - 1, *right_inner)
                family = TagFamily(left_claim, right_claim)
                claim = left_claim if _tagged_left(cases) else right_claim
            else:
                right = prove(actor, left_claim, depth, *right_inner)
                if right is None:
                    return build(actor, depth, scope, usable)
                family, claim = ConstantFamily(left_claim), left_claim
            args = OrElimArgs(family, left_var, right_var)
            return ProofTree(Rule.OR_ELIM, (cases, left, right), args), claim
        return leaf(actor, scope, usable)

    def scrutinee(
        actor: str, depth: int, scope: Scope, usable: Usable, shape: type, tagged: bool = False
    ) -> tuple[ProofTree, Claim]:
        """An eliminator's scrutinee: a built proof of the shape, or, unless
        its witness must be tagged, sometimes a usable hypothesis of it."""
        held = sorted(var for var, claim in usable.items() if isinstance(claim, shape))
        if held and not tagged and rng.random() < 0.5:
            var = rng.choice(held)
            return assume(var, usable[var], actor, scope), usable[var]
        return build(actor, depth - 1, scope, usable, shape)

    actor = rng.choice(scenario.actors)
    tree, claim = build(actor, max_depth, (), {})
    # A falsity leaf drawn in a branch that was then given up is not in tree.
    if falsity and not any(node.rule is Rule.BOTTOM_ELIM for node in _nodes(tree)):
        refused, _ = falsity_leaf(actor, ())
        tree = ProofTree(Rule.AND_INTRO, (tree, refused))
    return tree


def _nodes(tree: ProofTree) -> list[ProofTree]:
    found, todo = [], [tree]
    while todo:
        node = todo.pop()
        found.append(node)
        todo.extend(node.premises)
    return found


def _tagged_left(tree: ProofTree) -> bool:
    """Whether a proof built as a tagged disjunction concludes a TagL."""
    while tree.rule is Rule.TRUST:
        (tree,) = tree.premises
    return tree.rule is Rule.OR_INTRO_L

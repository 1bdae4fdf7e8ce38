"""Finite-model semantics for claims.

A model assigns each atomic claim a finite set of weighted, actor-tagged
witness terms and carries a family of trust relations. Evidence moves
along trust: an edge of weight e from actor a to actor h gives a, at e
times x, every term h holds at x. So a holds a term at the highest x_h
times best(a -> h) over the holders h, where best is the highest product
of edge weights along a path, and a itself counts as a holder at 1. That
is the assignment closed under the trust family. The model keeps its
assignment as it is given and reads atomic weights through reach: the
first lookup at an actor runs one max-product search from it
(trust.best_trust_from), and the model caches the products and each
(claim name, actor) map of held terms it builds; an exact lookup of one
term reads the products without building that map. Composite claims
denote pointwise:

    falsity     the empty set
    X /\\ Y      same-actor pairs, weight the minimum of the components
    X \\/ Y      the tagged union of the component sets
    X -> Y      per actor, every total map from the X-witnesses to the
                Y-witnesses held by that actor, as an opaque table term
                at weight 1 (tables apply no weight transformation)

Negation unfolds as X -> falsity. Arrow nesting is limited by a depth
bound so denotations stay finite. A judgement holds when the claim's
denotation, closed under the trust family, holds its witness at its actor
with at least its weight. Witnesses compare up to renaming of bound
variables, or by equality when the query holds a table.

Both an entry of a model's assignment and an element of a denotation
are a core.WeightedWitness, the record the parser reads a model's
entries into; an arrow's elements hold a MapTable as their term.

A membership query (member) never builds a denotation. It walks the
claim once, steered by the query witness, and asks each part for the
weight at which one actor holds one term:

    falsity     nothing is held
    atomic      a lookup through the actor's reach, the highest weight
                among the terms that match
    X /\\ Y      a pair, at the lesser of its components' weights
    X \\/ Y      i(...) is asked of X, j(...) of Y, anything else fails
    X -> Y      a table only: held at weight 1 when its keys are exactly
                the actor's X-witnesses, in the denotation's order, and
                its images are the actor's Y-witnesses. Keys and images
                are looked up and the keys counted, so the |Y|^|X| tables
                are never listed. Arrow members are tables only, so a
                witness without a table is never a member of an arrow.

No closure is needed at the end. Atomic weights are read closed. A pair
set built from closed sets is closed: an edge of weight e moves both
components of a pair, and e * min(x, y) = min(e * x, e * y) is at most
the pair's weight at the edge's source. The same holds along a path,
with e the product of its weights, so a pair needs no closing on top of
the reach its atoms were read through. A tagged union of closed sets is
closed, since a tag keeps its value's weight. Only table sets are not
closed. A witness without a table meets none of them, so it is answered
at the query actor alone. A witness with a table is answered at every
actor the query actor reaches, at the weight that actor holds it times
the best trust product to it, which is the weight closing the
denotation would have given it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Optional, Union

from .core import (
    BINDING_TERMS,
    And,
    Atom,
    Atomic,
    Bottom,
    Claim,
    Claimhood,
    Implies,
    Judgement,
    Or,
    Pair,
    ProofTree,
    TagL,
    TagR,
    Term,
    TrustArgs,
    TrustRelation,
    Weight,
    WeightedWitness,
    alpha_equal,
    substitute_many,
    subterms,
)
from .evaluator import DEFAULT_BUDGET, normalize
from .kernel import CheckEnv, check_proof
from .parser import ModelDecl, Script, render_claim
from .trust import best_trust_from, outgoing

DEFAULT_DEPTH_BOUND = 3


class DepthExceeded(RuntimeError):
    """Raised when a claim nests arrows deeper than the bound allows."""

    def __init__(self, bound: int) -> None:
        super().__init__(f"arrow nesting exceeds the depth bound of {bound}")
        self.bound = bound


class PreconditionError(RuntimeError):
    """Raised when a soundness check is asked about a model it cannot judge.

    Distinct from an unsound outcome: the check never ran, because a
    hypothesis fails in the model or the model lacks a trust relation the
    proof uses.
    """


@dataclass(frozen=True)
class MapTable:
    """A total map between two finite witness sets, used as a witness term.

    Tables stand in for arrow witnesses in denotations. They are compared
    by their entries, which are kept in a canonical order, and they apply
    no weight transformation to their argument.
    """

    entries: tuple[tuple["WeightedWitness", "WeightedWitness"], ...] = ()


SemanticTerm = Union[Term, MapTable]


@dataclass(frozen=True)
class Model:
    """A finite model: atomic assignments plus the trust family.

    The assignment is kept as it is given; it need not be closed under the
    trust family, and a Model built directly, closed or not, answers every
    query as build_model's model of the same assignment does, given the
    same actors. held(name, actor) reads what an actor holds for a claim
    through the actor's reach, its best trust products to every actor,
    searched on first use. The model caches each reach and each map held
    builds; held_weight reads one term's weight without a map.
    atom_assignment is the closed view of the whole assignment, one weight
    per term and actor, computed on first read. build_model and
    model_from_script also collect the actor universe.
    """

    assignment: Mapping[str, Iterable[WeightedWitness]]
    trust_family: tuple[TrustRelation, ...]
    actors: frozenset[str] = field(default=frozenset())
    # claim name -> holder -> term -> the highest weight given for it
    _given: dict[str, dict[str, dict[SemanticTerm, Weight]]] = field(
        init=False, compare=False, repr=False
    )
    _outgoing: dict[str, list[tuple[str, Weight]]] = field(
        init=False, compare=False, repr=False
    )
    _reach: dict[str, dict[str, Weight]] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )
    _held: dict[tuple[str, str], dict[SemanticTerm, Weight]] = field(
        init=False, compare=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        given: dict[str, dict[str, dict[SemanticTerm, Weight]]] = {}
        for name, entries in self.assignment.items():
            by_holder = given.setdefault(name, {})
            for w in entries:
                terms = by_holder.setdefault(w.actor, {})
                if w.weight > terms.get(w.term, -1):
                    terms[w.term] = w.weight
        object.__setattr__(self, "_given", given)
        object.__setattr__(self, "_outgoing", outgoing(self.trust_family))

    def reach(self, actor: str) -> Mapping[str, Weight]:
        """The best trust product from actor to every actor it reaches,
        itself at 1: the share of a weight held there that actor holds."""
        found = self._reach.get(actor)
        if found is None:
            found = self._reach[actor] = best_trust_from(self._outgoing, actor)[0]
        return found

    def held(self, name: str, actor: str) -> Mapping[SemanticTerm, Weight]:
        """The terms actor holds for the named claim under closure, each at
        its highest weight: x_h times the best trust product to h, over the
        holders h that actor reaches."""
        key = (name, actor)
        terms = self._held.get(key)
        if terms is None:
            terms = {}
            given = self._given.get(name, {})
            for holder, share in self.reach(actor).items():
                for term, weight in given.get(holder, {}).items():
                    weight *= share
                    if weight > terms.get(term, -1):
                        terms[term] = weight
            self._held[key] = terms
        return terms

    def held_weight(self, name: str, actor: str, term: SemanticTerm) -> Optional[Weight]:
        """held(name, actor).get(term), read through the actor's reach
        without building that map, so an exact query keeps no weight for
        each term the actor holds; kept, those maps made a model's memory
        follow how far up a trust chain the queried actors sit."""
        best = None
        given = self._given.get(name, {})
        for holder, share in self.reach(actor).items():
            weight = given.get(holder, {}).get(term)
            if weight is not None:
                weight *= share
                if best is None or weight > best:
                    best = weight
        return best

    @cached_property
    def atom_assignment(self) -> Mapping[str, frozenset[WeightedWitness]]:
        """The assignment closed under the trust family."""
        # Only a holder, or an actor with an edge out, can hold anything.
        actors = {a for by_holder in self._given.values() for a in by_holder}
        actors |= self._outgoing.keys()
        return {
            name: frozenset(
                WeightedWitness(term, actor, weight)
                for actor in actors
                for term, weight in self.held(name, actor).items()
            )
            for name in self._given
        }


def close_under_trust(
    witnesses: Iterable[WeightedWitness], family: Iterable[TrustRelation]
) -> frozenset[WeightedWitness]:
    """Least superset closed under weighted trust transfer.

    An element held by the target of an edge transfers to the edge's
    source at the product of the edge weight and the element weight. The
    result keeps only the maximal weight per (term, actor) pair; lower
    weights are subsumed because membership tests ask for a threshold.
    The quotient also cuts the descending chains that weighted cycles
    would otherwise generate. It is the closed view of a one-claim model:
    a fold of the witnesses over each actor's best trust products.
    """
    return Model({"": witnesses}, tuple(family)).atom_assignment[""]


def build_model(
    assignments: Mapping[str, Iterable[WeightedWitness]],
    trust_family: Iterable[TrustRelation] = (),
) -> Model:
    """Package the assignments and the trust family as a model, with every
    actor either names; the assignments are not closed here."""
    family = tuple(trust_family)
    given = {name: frozenset(entries) for name, entries in assignments.items()}
    actors = {w.actor for entries in given.values() for w in entries}
    for relation in family:
        actors |= relation.actors()
    return Model(given, family, frozenset(actors))


def model_from_script(script: Script, name: Optional[str] = None) -> Model:
    """Build the named model from a parsed script (the sole model if unnamed)."""
    if name is None:
        if len(script.models) != 1:
            raise ValueError(
                f"script declares {len(script.models)} models; name one"
            )
        decl: ModelDecl = script.models[0]
    else:
        decl = script.model(name)
        if decl is None:
            raise ValueError(f"script declares no model {name}")
    family = tuple(script.relation(used) for used in decl.uses)
    return build_model(dict(decl.assignments), family)


def _arrow_depth(claim: Claim) -> int:
    if isinstance(claim, (And, Or)):
        return max(_arrow_depth(claim.left), _arrow_depth(claim.right))
    if isinstance(claim, Implies):
        return 1 + max(_arrow_depth(claim.antecedent), _arrow_depth(claim.consequent))
    return 0


def _check_depth(claim: Claim, depth_bound: int) -> None:
    """Raise DepthExceeded when claim nests arrows deeper than the bound."""
    if _arrow_depth(claim) > max(depth_bound, 0):
        raise DepthExceeded(depth_bound)


def denote(
    claim: Claim, model: Model, depth_bound: int = DEFAULT_DEPTH_BOUND
) -> frozenset[WeightedWitness]:
    """The whole witness set of a claim in a model.

    Atomic sets are the model's closed view, Model.atom_assignment; the
    composite set built here is not re-closed. Arrows enumerate every
    table, so this is for callers that need the whole set; member answers
    one query without it.
    """
    _check_depth(claim, depth_bound)
    return _denote(claim, model)


def _denote(claim: Claim, model: Model) -> frozenset[WeightedWitness]:
    if isinstance(claim, Bottom):
        return frozenset()
    if isinstance(claim, Atomic):
        return model.atom_assignment.get(claim.name, frozenset())
    if isinstance(claim, And):
        lefts = _denote(claim.left, model)
        rights = _denote(claim.right, model)
        return frozenset(
            WeightedWitness(Pair(a.term, b.term), a.actor, min(a.weight, b.weight))
            for a in lefts
            for b in rights
            if a.actor == b.actor
        )
    if isinstance(claim, Or):
        lefts = _denote(claim.left, model)
        rights = _denote(claim.right, model)
        tagged = [WeightedWitness(TagL(a.term), a.actor, a.weight) for a in lefts]
        tagged += [WeightedWitness(TagR(b.term), b.actor, b.weight) for b in rights]
        return frozenset(tagged)
    if isinstance(claim, Implies):
        domain_set = _denote(claim.antecedent, model)
        codomain_set = _denote(claim.consequent, model)
        tables: list[WeightedWitness] = []
        for actor in sorted(model.actors):
            domain = sorted(
                (w for w in domain_set if w.actor == actor), key=repr
            )
            codomain = sorted(
                (w for w in codomain_set if w.actor == actor), key=repr
            )
            if not domain:
                # The empty map is total over an empty domain.
                tables.append(WeightedWitness(MapTable(()), actor, Fraction(1)))
                continue
            if not codomain:
                continue
            for images in product(codomain, repeat=len(domain)):
                table = MapTable(tuple(zip(domain, images)))
                tables.append(WeightedWitness(table, actor, Fraction(1)))
        return frozenset(tables)
    raise TypeError(f"not a claim: {claim!r}")


def _kinds_held(term: SemanticTerm) -> tuple[bool, bool]:
    """Whether term holds a table, and whether it holds a binder, from one
    walk that stops at the first table; tables are leaves."""
    binder = False
    todo = [term]
    while todo:
        node = todo.pop()
        if isinstance(node, MapTable):
            return True, binder
        binder = binder or isinstance(node, BINDING_TERMS)
        todo.extend(subterms(node))
    return False, binder


def member(
    judgement: Judgement, model: Model, depth_bound: int = DEFAULT_DEPTH_BOUND
) -> bool:
    """Whether the judgement holds in the model.

    True when the claim's trust-closed denotation contains the witness at
    the same actor with at least the judgement's weight. Witnesses match
    up to renaming bound variables, or by equality when the witness holds
    a table. The answer is denote's, closed, without building it; see the
    module docstring for the walk. DepthExceeded is raised exactly when
    denote would raise it.
    """
    claim, witness = judgement.claim, judgement.witness
    _check_depth(claim, depth_bound)
    table, binder = _kinds_held(witness)
    if not table:
        # Binder-free terms are alpha-equal exactly when they are equal.
        weight = _held(claim, witness, judgement.actor, model, not binder)
        return weight is not None and weight >= judgement.weight
    for actor, share in model.reach(judgement.actor).items():
        weight = _held(claim, witness, actor, model, True)
        if weight is not None and share * weight >= judgement.weight:
            return True
    return False


def _held(
    claim: Claim, term: SemanticTerm, actor: str, model: Model, exact: bool
) -> Optional[Weight]:
    """The highest weight at which actor holds a term matching term in the
    claim's denotation, before closure; None when it holds none. Terms
    match by equality when exact, else up to renaming bound variables."""
    if isinstance(claim, Bottom):
        return None
    if isinstance(claim, Atomic):
        if exact:
            return model.held_weight(claim.name, actor, term)
        terms = model.held(claim.name, actor)
        return max((w for t, w in terms.items() if alpha_equal(term, t)), default=None)
    if isinstance(claim, And):
        if not isinstance(term, Pair):
            return None
        left = _held(claim.left, term.fst, actor, model, exact)
        if left is None:
            return None
        right = _held(claim.right, term.snd, actor, model, exact)
        return None if right is None else min(left, right)
    if isinstance(claim, Or):
        if isinstance(term, TagL):
            return _held(claim.left, term.value, actor, model, exact)
        if isinstance(term, TagR):
            return _held(claim.right, term.value, actor, model, exact)
        return None
    if isinstance(claim, Implies):
        if isinstance(term, MapTable) and _is_table_of(claim, term, actor, model):
            return Fraction(1)
        return None
    raise TypeError(f"not a claim: {claim!r}")


def _is_table_of(claim: Implies, table: MapTable, actor: str, model: Model) -> bool:
    """Whether table is one of the maps claim denotes at actor: its keys
    are all of the actor's antecedent witnesses, in denote's order, and
    its images are consequent witnesses of the same actor."""
    if actor not in model.actors:
        return False
    keys = [key for key, _ in table.entries]
    if _count(claim.antecedent, actor, model, len(keys) + 1) != len(keys):
        return False
    if len(set(keys)) != len(keys) or keys != sorted(keys, key=repr):
        return False
    return all(
        w.actor == actor and _held(part, w.term, actor, model, True) == w.weight
        for entry in table.entries
        for part, w in zip((claim.antecedent, claim.consequent), entry)
    )


def _count(claim: Claim, actor: str, model: Model, cap: int) -> int:
    """How many witnesses actor holds in the claim's denotation, or cap if
    that many or more (cap >= 1)."""
    if isinstance(claim, Atomic):
        return min(len(model.held(claim.name, actor)), cap)
    if isinstance(claim, And):
        left, right = _count(claim.left, actor, model, cap), _count(claim.right, actor, model, cap)
        return min(left * right, cap)
    if isinstance(claim, Or):
        left, right = _count(claim.left, actor, model, cap), _count(claim.right, actor, model, cap)
        return min(left + right, cap)
    if isinstance(claim, Implies):
        if actor not in model.actors:
            return 0
        domain = _count(claim.antecedent, actor, model, cap)
        codomain = _count(claim.consequent, actor, model, cap)
        tables = 1
        for _ in range(domain):
            tables = min(tables * codomain, cap)
        return tables
    return 0


def _relations_used(tree: ProofTree) -> set[str]:
    names: set[str] = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node.args, TrustArgs):
            names.add(node.args.relation)
        todo.extend(node.premises)
    return names


def soundness_check(
    tree: ProofTree,
    model: Model,
    env: CheckEnv,
    depth_bound: int = DEFAULT_DEPTH_BOUND,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether a checked proof's conclusion holds in the model.

    The proof is checked first; its undischarged hypotheses must hold in
    the model (each hypothesis variable is read as the atom of the same
    name), and every trust relation the proof invokes must be part of the
    model's family. A PreconditionError reports a violated precondition;
    the boolean reports semantic truth of the conclusion.
    """
    result = check_proof(tree, env)
    if isinstance(result, Claimhood):
        raise PreconditionError("a claimhood conclusion has no witness to test")
    by_name = {relation.name: relation for relation in model.trust_family}
    for name in sorted(_relations_used(tree)):
        relation = env.trust_relations.get(name)
        carried = by_name.get(name)
        if carried is not relation and carried != relation:
            raise PreconditionError(
                f"the proof uses trust relation {name!r}, "
                "which the model does not carry"
            )
    for hyp in result.hypotheses:
        query = Judgement(Atom(hyp.var), hyp.actor, hyp.weight, hyp.claim)
        if not member(query, model, depth_bound):
            raise PreconditionError(
                f"hypothesis {hyp.var} : {render_claim(hyp.claim)} "
                f"does not hold in the model"
            )
    conclusion = result.conclusion
    grounding = {hyp.var: Atom(hyp.var) for hyp in result.hypotheses}
    witness = normalize(substitute_many(conclusion.witness, grounding), budget)
    grounded = Judgement(witness, conclusion.actor, conclusion.weight, conclusion.claim)
    return member(grounded, model, depth_bound)


"""Finite-model semantics for claims.

A model assigns each atomic claim a finite set of weighted, actor-tagged
witness terms, closed under a family of trust relations. Composite claims
denote pointwise:

    falsity     the empty set
    X /\\ Y      same-actor pairs, weight the minimum of the components
    X \\/ Y      the tagged union of the component sets
    X -> Y      per actor, every total map from the X-witnesses to the
                Y-witnesses held by that actor, as an opaque table term
                at weight 1 (tables apply no weight transformation)

Negation unfolds as X -> falsity. Arrow nesting is limited by a depth
bound so denotations stay finite; membership queries close the final
denotation under the trust family before matching.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Optional, Union

from .core import (
    And,
    Apply,
    Atom,
    Atomic,
    Bottom,
    CasesOf,
    Claim,
    Claimhood,
    Implies,
    Judgement,
    Lambda,
    Or,
    Pair,
    ProofTree,
    SplitOf,
    TagL,
    TagR,
    Term,
    TrustArgs,
    TrustRelation,
    Var,
    Weight,
    alpha_equal,
    as_weight,
    format_weight,
    substitute_many,
)
from .evaluator import DEFAULT_BUDGET, normalize
from .kernel import CheckEnv, check_proof
from .parser import ModelDecl, Script, render_claim, render_term

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
class WeightedWitness:
    """One element of a denotation: a witness term held by an actor."""

    term: SemanticTerm
    actor: str
    weight: Weight

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


@dataclass(frozen=True)
class Model:
    """A finite model: atomic assignments plus the trust family.

    Build instances with build_model or model_from_script, which close the
    assignments under the trust family and collect the witness universe
    and actor universe.
    """

    atom_assignment: Mapping[str, frozenset[WeightedWitness]]
    witness_universe: frozenset[str]
    trust_family: tuple[TrustRelation, ...]
    actors: frozenset[str] = field(default=frozenset())


def close_under_trust(
    witnesses: Iterable[WeightedWitness], family: Iterable[TrustRelation]
) -> frozenset[WeightedWitness]:
    """Least superset closed under weighted trust transfer.

    An element held by the target of an edge transfers to the edge's
    source at the product of the edge weight and the element weight. The
    result keeps only the maximal weight per (term, actor) pair; lower
    weights are subsumed because membership tests ask for a threshold.
    The quotient also cuts the descending chains that weighted cycles
    would otherwise generate.
    """
    best: dict[tuple[SemanticTerm, str], Fraction] = {}
    queue: deque[tuple[SemanticTerm, str]] = deque()

    def offer(term: SemanticTerm, actor: str, weight: Fraction) -> None:
        key = (term, actor)
        known = best.get(key)
        if known is None or weight > known:
            best[key] = weight
            queue.append(key)

    for w in witnesses:
        offer(w.term, w.actor, w.weight)

    by_target: dict[str, list] = defaultdict(list)
    for relation in family:
        for edge in relation.edges:
            by_target[edge.target].append(edge)

    while queue:
        term, actor = queue.popleft()
        weight = best[(term, actor)]
        for edge in by_target.get(actor, ()):
            offer(term, edge.source, edge.weight * weight)

    return frozenset(
        WeightedWitness(term, actor, weight) for (term, actor), weight in best.items()
    )


def _term_atoms(term: Term) -> frozenset[str]:
    if isinstance(term, Atom):
        return frozenset({term.name})
    if isinstance(term, Var):
        return frozenset()
    if isinstance(term, Pair):
        return _term_atoms(term.fst) | _term_atoms(term.snd)
    if isinstance(term, (TagL, TagR)):
        return _term_atoms(term.value)
    if isinstance(term, Apply):
        return _term_atoms(term.fn) | _term_atoms(term.arg)
    if isinstance(term, Lambda):
        return _term_atoms(term.body)
    if isinstance(term, CasesOf):
        return (
            _term_atoms(term.scrutinee)
            | _term_atoms(term.left_body)
            | _term_atoms(term.right_body)
        )
    if isinstance(term, SplitOf):
        return _term_atoms(term.scrutinee) | _term_atoms(term.body)
    raise TypeError(f"not a term: {term!r}")


def build_model(
    assignments: Mapping[str, Iterable[WeightedWitness]],
    trust_family: Iterable[TrustRelation] = (),
) -> Model:
    """Close the assignments under the trust family and package a model."""
    family = tuple(trust_family)
    closed = {
        name: close_under_trust(entries, family)
        for name, entries in assignments.items()
    }
    universe: set[str] = set()
    actors: set[str] = set()
    for entries in closed.values():
        for w in entries:
            universe |= _term_atoms(w.term)
            actors.add(w.actor)
    for relation in family:
        for edge in relation.edges:
            actors.add(edge.source)
            actors.add(edge.target)
    return Model(dict(closed), frozenset(universe), family, frozenset(actors))


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
    family = tuple(script.relation(used) for used in decl.uses)
    assignments = {
        claim_name: [
            WeightedWitness(entry.term, entry.actor, entry.weight)
            for entry in entries
        ]
        for claim_name, entries in decl.assignments
    }
    return build_model(assignments, family)


def denote(
    claim: Claim, model: Model, depth_bound: int = DEFAULT_DEPTH_BOUND
) -> frozenset[WeightedWitness]:
    """The witness set of a claim in a model.

    Atomic assignments are already trust-closed; the composite set built
    here is not re-closed (membership queries do that last).
    """
    if isinstance(claim, Bottom):
        return frozenset()
    if isinstance(claim, Atomic):
        return model.atom_assignment.get(claim.name, frozenset())
    if isinstance(claim, And):
        lefts = denote(claim.left, model, depth_bound)
        rights = denote(claim.right, model, depth_bound)
        return frozenset(
            WeightedWitness(Pair(a.term, b.term), a.actor, min(a.weight, b.weight))
            for a in lefts
            for b in rights
            if a.actor == b.actor
        )
    if isinstance(claim, Or):
        lefts = denote(claim.left, model, depth_bound)
        rights = denote(claim.right, model, depth_bound)
        tagged = [WeightedWitness(TagL(a.term), a.actor, a.weight) for a in lefts]
        tagged += [WeightedWitness(TagR(b.term), b.actor, b.weight) for b in rights]
        return frozenset(tagged)
    if isinstance(claim, Implies):
        if depth_bound <= 0:
            raise DepthExceeded(depth_bound)
        domain_set = denote(claim.antecedent, model, depth_bound - 1)
        codomain_set = denote(claim.consequent, model, depth_bound - 1)
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


def _contains_table(term: SemanticTerm) -> bool:
    if isinstance(term, MapTable):
        return True
    if isinstance(term, Pair):
        return _contains_table(term.fst) or _contains_table(term.snd)
    if isinstance(term, (TagL, TagR)):
        return _contains_table(term.value)
    if isinstance(term, Apply):
        return _contains_table(term.fn) or _contains_table(term.arg)
    if isinstance(term, Lambda):
        return _contains_table(term.body)
    if isinstance(term, CasesOf):
        return (
            _contains_table(term.scrutinee)
            or _contains_table(term.left_body)
            or _contains_table(term.right_body)
        )
    if isinstance(term, SplitOf):
        return _contains_table(term.scrutinee) or _contains_table(term.body)
    return False


def _terms_match(query: SemanticTerm, candidate: SemanticTerm) -> bool:
    # Tables are canonical structures, so plain equality is the right
    # comparison wherever one appears; alpha equivalence only matters for
    # binder terms, which never contain tables.
    if _contains_table(query) or _contains_table(candidate):
        return query == candidate
    return alpha_equal(query, candidate)


def member(
    judgement: Judgement, model: Model, depth_bound: int = DEFAULT_DEPTH_BOUND
) -> bool:
    """Whether the judgement holds in the model.

    True when the claim's trust-closed denotation contains the witness
    (up to renaming bound variables) at the same actor with at least the
    judgement's weight.
    """
    candidates = close_under_trust(
        denote(judgement.claim, model, depth_bound), model.trust_family
    )
    return any(
        c.actor == judgement.actor
        and c.weight >= judgement.weight
        and _terms_match(judgement.witness, c.term)
        for c in candidates
    )


def _relations_used(tree: ProofTree) -> frozenset[str]:
    names: set[str] = set()
    if isinstance(tree.args, TrustArgs):
        names.add(tree.args.relation)
    for premise in tree.premises:
        names |= _relations_used(premise)
    return frozenset(names)


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
        if by_name.get(name) != relation:
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


def render_witness(w: WeightedWitness) -> str:
    """Readable form of a denotation element, always explicit about both
    the actor and the weight."""
    return f"{_render_semantic_term(w.term)}^{w.actor}@{format_weight(w.weight)}"


def _render_semantic_term(term: SemanticTerm) -> str:
    if isinstance(term, MapTable):
        if not term.entries:
            return "table{}"
        inner = ", ".join(
            f"{render_witness(key)} => {render_witness(value)}"
            for key, value in term.entries
        )
        return f"table{{{inner}}}"
    if _contains_table(term):
        if isinstance(term, Pair):
            parts = f"{_render_semantic_term(term.fst)},{_render_semantic_term(term.snd)}"
            return f"({parts})"
        if isinstance(term, TagL):
            return f"i({_render_semantic_term(term.value)})"
        if isinstance(term, TagR):
            return f"j({_render_semantic_term(term.value)})"
        raise TypeError(f"cannot render {term!r}")
    return render_term(term)

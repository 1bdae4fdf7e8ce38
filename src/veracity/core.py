"""Core data types for the veracity logic.

Claims are propositional shapes (atoms, falsity, conjunction, disjunction,
implication); witness terms are the evidence language attached to them.
Judgements tie a witness, an actor, and a trust weight to a claim, and
sequents put judgements under hypotheses.  Everything here is an immutable
value; the kernel, evaluator, and semantics modules build on these types
without ever mutating them.

Weights are exact rationals throughout.  Floats are rejected at the door:
a spelled-out decimal like "0.4096" converts exactly, a float does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Weight = Fraction


def as_weight(value: Union[int, str, Fraction]) -> Weight:
    """Convert to an exact weight in [0, 1].

    Accepts ints, Fractions, and numeric strings ("0.5", "1/3").  Floats are
    refused because they would smuggle in binary rounding error.
    """
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError("weights must be exact: pass a Fraction or a string, not a float")
        value = Fraction(value)
    # A Fraction is normalized with a positive denominator, so the range
    # check is two int comparisons, and an exact Fraction is kept as it is.
    if 0 <= value.numerator <= value.denominator:
        return value
    raise ValueError(f"weight {value} outside [0, 1]")


def format_weight(w: Weight) -> str:
    """Render a weight exactly: as a decimal when one exists, else p/q."""
    if w.denominator == 1:
        return f"{w.numerator}.0"
    den = w.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{w.numerator}/{w.denominator}"
    digits = max(twos, fives)
    scaled = w.numerator * 10**digits // w.denominator
    text = str(scaled).rjust(digits, "0")
    whole, frac = text[:-digits] or "0", text[-digits:]
    return f"{whole}.{frac}"


# ---------------------------------------------------------------------------
# Weight transformers
#
# The restricted expression language for how an implication transforms the
# weight of its argument: constants, the argument itself, products, and
# minima.  Every expression is total and stays inside [0, 1].


@dataclass(frozen=True)
class Const:
    value: Weight

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_weight(self.value))


@dataclass(frozen=True)
class Arg:
    pass


@dataclass(frozen=True)
class Mul:
    left: "WeightExpr"
    right: "WeightExpr"


@dataclass(frozen=True)
class Min:
    left: "WeightExpr"
    right: "WeightExpr"


WeightExpr = Union[Const, Arg, Mul, Min]

ARG = Arg()


def eval_weight_expr(expr: WeightExpr, z: Weight) -> Weight:
    """Evaluate a weight transformer at argument weight z."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Arg):
        return z
    if isinstance(expr, Mul):
        return eval_weight_expr(expr.left, z) * eval_weight_expr(expr.right, z)
    if isinstance(expr, Min):
        return min(eval_weight_expr(expr.left, z), eval_weight_expr(expr.right, z))
    raise TypeError(f"not a weight expression: {expr!r}")


# ---------------------------------------------------------------------------
# Claims


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Atomic:
    name: str


@dataclass(frozen=True)
class And:
    left: "Claim"
    right: "Claim"


@dataclass(frozen=True)
class Or:
    left: "Claim"
    right: "Claim"


@dataclass(frozen=True)
class Implies:
    antecedent: "Claim"
    consequent: "Claim"


Claim = Union[Bottom, Atomic, And, Or, Implies]

BOTTOM = Bottom()


def neg(claim: Claim) -> Implies:
    """Negation is sugar: ~A is A -> falsity."""
    return Implies(claim, BOTTOM)


def is_neg(claim: Claim) -> bool:
    return isinstance(claim, Implies) and isinstance(claim.consequent, Bottom)


def atoms_of_claim(claim: Claim) -> frozenset[str]:
    if isinstance(claim, Bottom):
        return frozenset()
    if isinstance(claim, Atomic):
        return frozenset((claim.name,))
    if isinstance(claim, (And, Or)):
        return atoms_of_claim(claim.left) | atoms_of_claim(claim.right)
    if isinstance(claim, Implies):
        return atoms_of_claim(claim.antecedent) | atoms_of_claim(claim.consequent)
    raise TypeError(f"not a claim: {claim!r}")


# ---------------------------------------------------------------------------
# Claim families
#
# A family is how an elimination rule names its result claim.  The logic
# supports exactly two shapes: a constant family (the same claim whatever the
# scrutinee is) and a two-tag family keyed by which injection built the
# scrutinee.  Claims cannot mention witnesses, so the tag family carries one
# claim per tag and nothing more.


@dataclass(frozen=True)
class ConstantFamily:
    claim: Claim


@dataclass(frozen=True)
class TagFamily:
    on_left: Claim
    on_right: Claim


ClaimFamily = Union[ConstantFamily, TagFamily]


def family_claims(family: ClaimFamily) -> tuple[Claim, ...]:
    """The claims a family names, in source order."""
    if isinstance(family, ConstantFamily):
        return (family.claim,)
    return (family.on_left, family.on_right)


def family_at(family: ClaimFamily, scrutinee: "Term") -> Optional[Claim]:
    """Apply a family to a scrutinee witness.

    A tag family resolves only when the scrutinee is literally tagged;
    None signals an unresolvable application for the caller to report.
    """
    if isinstance(family, ConstantFamily):
        return family.claim
    if isinstance(scrutinee, TagL):
        return family.on_left
    if isinstance(scrutinee, TagR):
        return family.on_right
    return None


# ---------------------------------------------------------------------------
# Witness terms


@dataclass(frozen=True)
class Provenance:
    who: Optional[str] = None
    where: Optional[str] = None
    when: Optional[str] = None
    how: Optional[str] = None


@dataclass(frozen=True)
class Atom:
    name: str
    provenance: Optional[Provenance] = None


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(frozen=True)
class TagL:
    value: "Term"


@dataclass(frozen=True)
class TagR:
    value: "Term"


@dataclass(frozen=True)
class Lambda:
    param: str
    body: "Term"
    weight_fn: WeightExpr = ARG


@dataclass(frozen=True)
class Apply:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class CasesOf:
    scrutinee: "Term"
    left_var: str
    left_body: "Term"
    right_var: str
    right_body: "Term"


@dataclass(frozen=True)
class SplitOf:
    scrutinee: "Term"
    fst_var: str
    snd_var: str
    body: "Term"


Term = Union[Atom, Var, Pair, TagL, TagR, Lambda, Apply, CasesOf, SplitOf]


# Each constructor's subterms in leftmost-outermost order (binders in
# between are not subterms), and how to rebuild a node of that constructor
# around new subterms.
_SUBTERMS = {
    Atom: lambda t: (),
    Var: lambda t: (),
    Pair: lambda t: (t.fst, t.snd),
    TagL: lambda t: (t.value,),
    TagR: lambda t: (t.value,),
    Lambda: lambda t: (t.body,),
    Apply: lambda t: (t.fn, t.arg),
    CasesOf: lambda t: (t.scrutinee, t.left_body, t.right_body),
    SplitOf: lambda t: (t.scrutinee, t.body),
}

_REBUILD = {
    Atom: lambda t, s: t,
    Var: lambda t, s: t,
    Pair: lambda t, s: Pair(s[0], s[1]),
    TagL: lambda t, s: TagL(s[0]),
    TagR: lambda t, s: TagR(s[0]),
    Lambda: lambda t, s: Lambda(t.param, s[0], t.weight_fn),
    Apply: lambda t, s: Apply(s[0], s[1]),
    CasesOf: lambda t, s: CasesOf(s[0], t.left_var, s[1], t.right_var, s[2]),
    SplitOf: lambda t, s: SplitOf(s[0], t.fst_var, t.snd_var, s[1]),
}


def subterms(term: Term) -> tuple[Term, ...]:
    """The immediate subterms of term, in leftmost-outermost order."""
    try:
        return _SUBTERMS[type(term)](term)
    except KeyError:
        raise TypeError(f"not a term: {term!r}") from None


def with_subterms(term: Term, subs: Sequence[Term]) -> Term:
    """term with its immediate subterms replaced, binders and weights kept."""
    try:
        return _REBUILD[type(term)](term, subs)
    except KeyError:
        raise TypeError(f"not a term: {term!r}") from None


def free_vars(term: Term) -> frozenset[str]:
    """The names free in term.

    Each node keeps its set once computed, stored beside its dataclass
    fields (as TrustRelation keeps _weights), so ==, hash and repr never
    see it.  A repeated query is a lookup; a first query visits only the
    nodes not cached yet, with an explicit stack instead of recursion.
    """
    cached = getattr(term, "_fv", None)
    if cached is None:
        todo = [term]
        while todo:
            node = todo[-1]
            missing = [s for s in subterms(node) if getattr(s, "_fv", None) is None]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            object.__setattr__(node, "_fv", _node_free_vars(node))
        cached = term._fv
    return cached


def _node_free_vars(term: Term) -> frozenset[str]:
    """free_vars of a node whose subterms are all cached already."""
    if isinstance(term, Atom):
        return frozenset()
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, Pair):
        return _union(term.fst._fv, term.snd._fv)
    if isinstance(term, Apply):
        return _union(term.fn._fv, term.arg._fv)
    if isinstance(term, (TagL, TagR)):
        return term.value._fv
    if isinstance(term, Lambda):
        return _unbind(term.body._fv, (term.param,))
    if isinstance(term, CasesOf):
        return _union(
            term.scrutinee._fv,
            _union(
                _unbind(term.left_body._fv, (term.left_var,)),
                _unbind(term.right_body._fv, (term.right_var,)),
            ),
        )
    if isinstance(term, SplitOf):
        return _union(term.scrutinee._fv, _unbind(term.body._fv, (term.fst_var, term.snd_var)))
    raise TypeError(f"not a term: {term!r}")


# Both helpers return an operand itself when it already is the answer, so
# nodes share their sets wherever binders and siblings add no names.
def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    return a if b <= a else b if a <= b else a | b


def _unbind(names: frozenset[str], binders: tuple[str, ...]) -> frozenset[str]:
    return names if names.isdisjoint(binders) else names.difference(binders)


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    taken = set(avoid)
    name = base
    while name in taken:
        name += "'"
    return name


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Replace free occurrences of one variable, avoiding capture."""
    return substitute_many(term, {name: replacement})


def substitute_many(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution.

    Simultaneity matters: splitting a pair binds two variables at once, and
    substituting them one after the other would let the first replacement's
    free variables collide with the second binder.  A subterm in which no
    key of mapping is free comes back as the same object.
    """
    if not mapping or free_vars(term).isdisjoint(mapping):
        return term
    if isinstance(term, Var):
        return mapping[term.name]
    if isinstance(term, Pair):
        return Pair(substitute_many(term.fst, mapping), substitute_many(term.snd, mapping))
    if isinstance(term, TagL):
        return TagL(substitute_many(term.value, mapping))
    if isinstance(term, TagR):
        return TagR(substitute_many(term.value, mapping))
    if isinstance(term, Apply):
        return Apply(substitute_many(term.fn, mapping), substitute_many(term.arg, mapping))
    if isinstance(term, Lambda):
        (param,), body, live = _freshen((term.param,), term.body, mapping)
        return Lambda(param, substitute_many(body, live), term.weight_fn)
    if isinstance(term, CasesOf):
        scrutinee = substitute_many(term.scrutinee, mapping)
        (lv,), lbody, llive = _freshen((term.left_var,), term.left_body, mapping)
        (rv,), rbody, rlive = _freshen((term.right_var,), term.right_body, mapping)
        return CasesOf(
            scrutinee, lv, substitute_many(lbody, llive), rv, substitute_many(rbody, rlive)
        )
    if isinstance(term, SplitOf):
        scrutinee = substitute_many(term.scrutinee, mapping)
        (fv, sv), body, live = _freshen((term.fst_var, term.snd_var), term.body, mapping)
        return SplitOf(scrutinee, fv, sv, substitute_many(body, live))
    raise TypeError(f"not a term: {term!r}")


def _freshen(
    binders: tuple[str, ...], body: Term, mapping: Mapping[str, Term]
) -> tuple[tuple[str, ...], Term, dict[str, Term]]:
    """Rename binders that would capture free variables of the replacements.

    Returns the binders, the body renamed to match, and the entries of
    mapping whose names are free in the body: the only ones that can act
    under the binders, and none of them named by a binder old or new.
    """
    body_names = free_vars(body)
    live = {n: t for n, t in mapping.items() if n in body_names and n not in binders}
    danger: set[str] = set()
    for t in live.values():
        danger |= free_vars(t)
    renamed = list(binders)
    current = body
    for i, b in enumerate(binders):
        if b in danger:
            avoid = danger | free_vars(current) | set(live) | set(renamed)
            nb = fresh_name(b, avoid)
            current = substitute_many(current, {b: Var(nb)})
            renamed[i] = nb
    return tuple(renamed), current, live


def alpha_equal(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables.

    Free variables and atoms compare by name (atoms also by provenance);
    weight transformers on lambdas compare structurally.
    """
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Atom):
        return a == b
    if isinstance(a, Var):
        la, lb = env_a.get(a.name), env_b.get(b.name)
        if la is None and lb is None:
            return a.name == b.name
        return la == lb
    if isinstance(a, Pair):
        return _alpha(a.fst, b.fst, env_a, env_b, depth) and _alpha(a.snd, b.snd, env_a, env_b, depth)
    if isinstance(a, (TagL, TagR)):
        return _alpha(a.value, b.value, env_a, env_b, depth)
    if isinstance(a, Apply):
        return _alpha(a.fn, b.fn, env_a, env_b, depth) and _alpha(a.arg, b.arg, env_a, env_b, depth)
    if isinstance(a, Lambda):
        if a.weight_fn != b.weight_fn:
            return False
        return _alpha(
            a.body, b.body, {**env_a, a.param: depth}, {**env_b, b.param: depth}, depth + 1
        )
    if isinstance(a, CasesOf):
        return (
            _alpha(a.scrutinee, b.scrutinee, env_a, env_b, depth)
            and _alpha(
                a.left_body, b.left_body,
                {**env_a, a.left_var: depth}, {**env_b, b.left_var: depth}, depth + 1,
            )
            and _alpha(
                a.right_body, b.right_body,
                {**env_a, a.right_var: depth}, {**env_b, b.right_var: depth}, depth + 1,
            )
        )
    if isinstance(a, SplitOf):
        return _alpha(a.scrutinee, b.scrutinee, env_a, env_b, depth) and _alpha(
            a.body, b.body,
            {**env_a, a.fst_var: depth, a.snd_var: depth + 1},
            {**env_b, b.fst_var: depth, b.snd_var: depth + 1},
            depth + 2,
        )
    raise TypeError(f"not a term: {a!r}")


# ---------------------------------------------------------------------------
# Judgements, sequents, trust relations


@dataclass(frozen=True)
class Judgement:
    witness: Term
    actor: str
    weight: Weight
    claim: Claim

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


@dataclass(frozen=True)
class Claimhood:
    """The judgement form that says a claim is a well-formed veracity claim."""

    claim: Claim


@dataclass(frozen=True)
class Hypothesis:
    var: str
    actor: str
    weight: Weight
    claim: Claim

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


@dataclass(frozen=True)
class Sequent:
    hypotheses: tuple[Hypothesis, ...]
    conclusion: Judgement


@dataclass(frozen=True)
class TrustEdge:
    source: str
    target: str
    weight: Weight

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


@dataclass(frozen=True)
class TrustRelation:
    name: str
    edges: tuple[TrustEdge, ...] = ()

    def __post_init__(self) -> None:
        index: dict[tuple[str, str], Weight] = {}
        for e in self.edges:
            key = (e.source, e.target)
            if key in index:
                raise ValueError(f"duplicate trust edge {e.source} -> {e.target} in {self.name}")
            index[key] = e.weight
        object.__setattr__(self, "_weights", index)

    def weight_between(self, source: str, target: str) -> Optional[Weight]:
        return self._weights.get((source, target))

    def actors(self) -> frozenset[str]:
        out = set()
        for e in self.edges:
            out.add(e.source)
            out.add(e.target)
        return frozenset(out)


# ---------------------------------------------------------------------------
# Proof trees
#
# A proof is replayed, never searched for: each node names the rule it uses,
# carries the rule's own arguments, and may state the sequent it believes it
# derives so the checker can cross-check.


class Rule(str, Enum):
    ASSUME = "assume"
    CLAIM = "claim"
    BOTTOM_ELIM = "bottomElim"
    OR_INTRO_L = "orIntroL"
    OR_INTRO_R = "orIntroR"
    OR_ELIM = "orElim"
    AND_INTRO = "andIntro"
    AND_ELIM = "andElim"
    IMP_INTRO = "impIntro"
    IMP_ELIM = "impElim"
    TRUST = "trust"


@dataclass(frozen=True)
class AssumeArgs:
    var: str
    claim: Claim
    actor: Optional[str] = None
    context: tuple[Hypothesis, ...] = ()


@dataclass(frozen=True)
class BottomElimArgs:
    target: Claim


@dataclass(frozen=True)
class OrIntroArgs:
    other: Claim


@dataclass(frozen=True)
class OrElimArgs:
    family: ClaimFamily
    left_var: str
    right_var: str


@dataclass(frozen=True)
class AndElimArgs:
    family: ConstantFamily
    fst_var: str
    snd_var: str


@dataclass(frozen=True)
class ImpIntroArgs:
    var: str
    weight_fn: WeightExpr = ARG


@dataclass(frozen=True)
class TrustArgs:
    relation: str
    source: str
    target: str


RuleArgs = Union[
    AssumeArgs, BottomElimArgs, OrIntroArgs, OrElimArgs, AndElimArgs, ImpIntroArgs, TrustArgs
]


@dataclass(frozen=True)
class ProofTree:
    rule: Rule
    premises: tuple["ProofTree", ...] = ()
    args: Optional[RuleArgs] = None
    stated: Optional[Sequent] = None
    loc: Optional[tuple[int, int]] = field(default=None, compare=False)

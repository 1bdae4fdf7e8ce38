"""Core data types for the veracity logic.

Claims are propositional shapes (atoms, falsity, conjunction, disjunction,
implication); witness terms are the evidence language attached to them.
Judgements tie a witness, an actor, and a trust weight to a claim, and
sequents put judgements under hypotheses.  Everything here is an immutable
value; the kernel, evaluator, and semantics modules build on these types
without ever mutating them.

One table, _SHAPES, describes term structure: each constructor's subterms,
the names its binders scope over, and how to rebuild it.  subterms, scopes,
with_subterms, free_vars, alpha_equal and BINDING_TERMS read it.
Substitution has one walk, under substitute_many; substitute is that walk
with one entry.  The walk keeps a case per constructor: tracemalloc, which
measures peak memory, sees the tuples and lists a table-driven walk holds
per level, not the frames of a recursive one, and such a walk raised the
peak memory of long reductions by 7 to 15%.

Every dataclass here but TrustRelation is slotted: an instance holds its
fields in slots and has no __dict__, so it is smaller, tracemalloc counts
less per node, and it takes no attribute beyond its fields.  A term also
has one slot more, _fv, where free_vars keeps the term's free-name set;
substitution hands each node it builds that set, made from its children's.
TrustRelation keeps a dict for its edge index, built once: by its
constructor, or by the parser as it reads the edges.  The package reads
a relation only through that index (edge_weights, weight_between,
actors), so a relation the parser read builds its edges tuple only when a
caller reads it, and keeps it beside the index.  @dataclass writes
every constructor here; a term's runs _FreeNames.__post_init__, which sets
_fv to None, so reading the slot never meets an unset one.

Weights are exact rationals throughout.  Floats are rejected at the door:
a spelled-out decimal like "0.4096" converts exactly, a float does not.
Weights turn into text and back through the standard library's decimal,
which converts an int of any length; int() and str() refuse one of more
than sys.get_int_max_str_digits() digits (4,300 unless set), a
process-wide limit the package leaves as it is.
"""

from __future__ import annotations

import re
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field, fields
from decimal import Context, Decimal, Inexact
from enum import Enum
from fractions import Fraction
from typing import ItemsView, Iterable, Mapping, Optional, Sequence, Union

Weight = Fraction
_ONE = Fraction(1)   # weight 1, shared rather than rebuilt


def as_weight(value: Union[int, str, Fraction]) -> Weight:
    """Convert to an exact weight in [0, 1].

    Accepts ints, Fractions, and numeric strings ("0.5", "1/3").  Floats are
    refused because they would smuggle in binary rounding error.  A string
    in the grammar's forms, d, d.d or d/d, is read through Decimal at any
    length; any other goes to Fraction.
    """
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError("weights must be exact: pass a Fraction or a string, not a float")
        found = _NUMBER.fullmatch(value) if isinstance(value, str) else None
        if found is None:
            value = Fraction(value)
        elif found[2] is None:
            value = Fraction(Decimal(value))
        else:
            numerator, denominator = int(Decimal(found[1])), int(Decimal(found[2]))
            if not denominator:
                # Fraction's own message writes the numerator with str().
                raise ZeroDivisionError(f"Fraction({_int_text(numerator)}, 0)")
            value = Fraction(numerator, denominator)
    # A Fraction is normalized with a positive denominator, so the range
    # check is two int comparisons, and an exact Fraction is kept as it is.
    if 0 <= value.numerator <= value.denominator:
        return value
    raise ValueError(f"weight {ratio_text(value)} outside [0, 1]")


def format_weight(w: Weight) -> str:
    """Render a weight exactly: as a decimal when one exists, found by an
    exact Decimal division, else p/q, as ratio_text writes it.  Any number
    of digits renders, and as_weight reads the text back."""
    p, q = w.numerator, w.denominator
    if q == 1:
        return f"{_int_text(p)}.0"
    # p/q terminates only when q = 2**a * 5**b, and then it is
    # p * 2**(m-a) * 5**(m-b) / 10**m with m = max(a, b): at most
    # digits(p) + m digits.  digits(p) <= (p.bit_length() + 3) // 3, as
    # log10(2) < 1/3, and m < q.bit_length(), as q >= 2**a and q >= 5**b
    # >= 2**b.  So this precision divides every terminating p/q exactly,
    # and any other prime factor of q leaves a remainder: Inexact at every
    # precision.  The f format keeps the digits positional, where str
    # would turn to an exponent below 10**-6.
    exact = Context(prec=(p.bit_length() + 3) // 3 + q.bit_length(), traps=[Inexact])
    try:
        return f"{exact.divide(p, q):f}"
    except Inexact:
        return ratio_text(w)


def ratio_text(w: Fraction) -> str:
    """str(w), "p/q" or "p", for a Fraction of any number of digits, each
    int written through Decimal."""
    if w.denominator == 1:
        return _int_text(w.numerator)
    return f"{_int_text(w.numerator)}/{_int_text(w.denominator)}"


def _int_text(n: int) -> str:
    """str(n) for an int n of any length (see the module docstring)."""
    return str(Decimal(n))


_NUMBER = re.compile(r"(\d+)(?:\.\d+|/(\d+))?")


# ---------------------------------------------------------------------------
# Weight transformers
#
# The restricted expression language for how an implication transforms the
# weight of its argument: constants, the argument itself, products, and
# minima.  Every expression is total and stays inside [0, 1].


@dataclass(frozen=True, slots=True)
class Const:
    value: Weight

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_weight(self.value))


@dataclass(frozen=True, slots=True)
class Arg:
    pass


@dataclass(frozen=True, slots=True)
class Mul:
    left: "WeightExpr"
    right: "WeightExpr"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Bottom:
    pass


@dataclass(frozen=True, slots=True)
class Atomic:
    name: str


@dataclass(frozen=True, slots=True)
class And:
    left: "Claim"
    right: "Claim"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Claim"
    right: "Claim"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ConstantFamily:
    claim: Claim


@dataclass(frozen=True, slots=True)
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


class _FreeNames:
    """Base of the nine term classes: one slot, _fv, holding the term's
    free-name set once known and None until then (see free_vars).  It is
    not a dataclass field, so ==, hash and repr never see it."""

    __slots__ = ("_fv",)

    def __post_init__(self) -> None:
        _set(self, "_fv", None)

    def __reduce__(self):
        # Copies and pickles rebuild through __init__, which clears _fv.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, slots=True)
class Provenance:
    who: Optional[str] = None
    where: Optional[str] = None
    when: Optional[str] = None
    how: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Atom(_FreeNames):
    name: str
    provenance: Optional[Provenance] = None


@dataclass(frozen=True, slots=True)
class Var(_FreeNames):
    name: str


@dataclass(frozen=True, slots=True)
class Pair(_FreeNames):
    fst: "Term"
    snd: "Term"


@dataclass(frozen=True, slots=True)
class TagL(_FreeNames):
    value: "Term"


@dataclass(frozen=True, slots=True)
class TagR(_FreeNames):
    value: "Term"


@dataclass(frozen=True, slots=True)
class Lambda(_FreeNames):
    param: str
    body: "Term"
    weight_fn: WeightExpr = ARG


@dataclass(frozen=True, slots=True)
class Apply(_FreeNames):
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class CasesOf(_FreeNames):
    scrutinee: "Term"
    left_var: str
    left_body: "Term"
    right_var: str
    right_body: "Term"


@dataclass(frozen=True, slots=True)
class SplitOf(_FreeNames):
    scrutinee: "Term"
    fst_var: str
    snd_var: str
    body: "Term"


Term = Union[Atom, Var, Pair, TagL, TagR, Lambda, Apply, CasesOf, SplitOf]


# A term constructor's row: its subterms in leftmost-outermost order, how
# to rebuild a node around new ones, and, for a binder, the names bound over
# each subterm.
_Shape = namedtuple("_Shape", "subterms rebuild scopes", defaults=(None,))


class _ShapeTable(dict):
    def __missing__(self, kind: type) -> _Shape:
        raise TypeError(f"not a term type: {kind.__name__}")


_SHAPES: dict[type, _Shape] = _ShapeTable({
    Atom: _Shape(lambda t: (), lambda t, s: t),
    Var: _Shape(lambda t: (), lambda t, s: t),
    Pair: _Shape(lambda t: (t.fst, t.snd), lambda t, s: Pair(s[0], s[1])),
    TagL: _Shape(lambda t: (t.value,), lambda t, s: TagL(s[0])),
    TagR: _Shape(lambda t: (t.value,), lambda t, s: TagR(s[0])),
    Lambda: _Shape(
        lambda t: (t.body,),
        lambda t, s: Lambda(t.param, s[0], t.weight_fn),
        lambda t: ((t.param,),),
    ),
    Apply: _Shape(lambda t: (t.fn, t.arg), lambda t, s: Apply(s[0], s[1])),
    CasesOf: _Shape(
        lambda t: (t.scrutinee, t.left_body, t.right_body),
        lambda t, s: CasesOf(s[0], t.left_var, s[1], t.right_var, s[2]),
        lambda t: ((), (t.left_var,), (t.right_var,)),
    ),
    SplitOf: _Shape(
        lambda t: (t.scrutinee, t.body),
        lambda t, s: SplitOf(s[0], t.fst_var, t.snd_var, s[1]),
        lambda t: ((), (t.fst_var, t.snd_var)),
    ),
})

BINDING_TERMS: tuple[type, ...] = tuple(c for c, shape in _SHAPES.items() if shape.scopes)


def subterms(term: Term) -> tuple[Term, ...]:
    """The immediate subterms of term, in leftmost-outermost order."""
    return _SHAPES[type(term)].subterms(term)


def scopes(term: Term) -> tuple[tuple[str, ...], ...]:
    """For each immediate subterm of term, in the same order, the names
    term binds over it."""
    subterms_of, _, scopes_of = _SHAPES[type(term)]
    return scopes_of(term) if scopes_of else ((),) * len(subterms_of(term))


def with_subterms(term: Term, subs: Sequence[Term]) -> Term:
    """term with its immediate subterms replaced, binders and weights kept."""
    return _SHAPES[type(term)].rebuild(term, subs)


def free_vars(term: Term) -> frozenset[str]:
    """The names free in term.

    Each node keeps its set in its _fv slot once known, computed here or
    handed over by substitute_many from the node's children, so a repeated
    query is one slot read.  A first query visits only the nodes whose slot
    is still None, with an explicit stack instead of recursion.  A node's set
    is stored only after every child's, so a node with a set has sets all
    the way down.  A non-term at any depth is a TypeError.
    """
    try:
        cached = term._fv
    except AttributeError:
        raise TypeError(f"not a term type: {type(term).__name__}") from None
    if cached is None:
        todo = [term]
        while todo:
            node = todo[-1]
            subterms_of, _, scopes_of = _SHAPES[type(node)]
            subs = subterms_of(node)
            try:
                missing = [s for s in subs if s._fv is None]
            except AttributeError:
                # A child with no slot is no term: pushed, _SHAPES rejects it.
                missing = [s for s in subs if getattr(s, "_fv", None) is None]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            if scopes_of is None:
                names = frozenset((node.name,)) if type(node) is Var else _NO_NAMES
                for sub in subs:
                    names = _union(names, sub._fv)
            else:
                names = _NO_NAMES
                for sub, bound in zip(subs, scopes_of(node)):
                    names = _union(names, _unbind(sub._fv, bound))
            _set(node, "_fv", names)
        cached = term._fv
    return cached


_NO_NAMES: frozenset[str] = frozenset()
_set = object.__setattr__


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
    """Replace the free occurrences of name by replacement, avoiding
    capture: substitute_many with one entry."""
    return substitute_many(term, {name: replacement})


def substitute_many(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution.

    Simultaneity matters: splitting a pair binds two variables at once, and
    substituting them one after the other would let the first replacement's
    free variables collide with the second binder.  A subterm in which no
    key of mapping is free comes back as the same object.  A binder that
    would capture a free name of a replacement is renamed first: primes are
    added to it until the name is free neither in its body nor in any
    replacement that acts there, is none of their keys, and is no other
    binder of its group.  Each node built gets its free-name set from its
    children, so later free_vars queries need not walk it again.  A
    non-term, in term or among the replacements, is a TypeError.
    """
    for replacement in mapping.values():
        _SHAPES[type(replacement)]  # the lookup rejects a non-term
    if not mapping or free_vars(term).isdisjoint(mapping):
        return term
    return _substitute(term, mapping)


def _substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    # Some key of mapping is free in term, so term and every node below it
    # have their sets.  Explicit per constructor, not read from _SHAPES, to
    # keep no subterm tuple or scope list alive per level; see the module
    # docstring.
    kind = type(term)
    if kind is Var:
        return mapping[term.name]
    if kind is Apply:
        fn, arg = term.fn, term.arg
        if not fn._fv.isdisjoint(mapping):
            fn = _substitute(fn, mapping)
        if not arg._fv.isdisjoint(mapping):
            arg = _substitute(arg, mapping)
        return _with_union(Apply(fn, arg), fn._fv, arg._fv)
    if kind is Lambda:
        # _substitute_under's first test inline, for the commonest binder:
        # while no key is the parameter and no replacement has it free, the
        # body, in which a key is free as in term, takes mapping as it is.
        param, body = term.param, term.body
        for replacement in mapping.values():
            if param in mapping or param in free_vars(replacement):
                (param,), body = _substitute_under((param,), body, mapping)
                break
        else:
            body = _substitute(body, mapping)
        node = Lambda(param, body, term.weight_fn)
        _set(node, "_fv", _unbind(body._fv, (param,)))
        return node
    if kind is Pair:
        fst, snd = term.fst, term.snd
        if not fst._fv.isdisjoint(mapping):
            fst = _substitute(fst, mapping)
        if not snd._fv.isdisjoint(mapping):
            snd = _substitute(snd, mapping)
        return _with_union(Pair(fst, snd), fst._fv, snd._fv)
    if kind is TagL or kind is TagR:
        value = _substitute(term.value, mapping)
        node = kind(value)
        _set(node, "_fv", value._fv)
        return node
    scrutinee = term.scrutinee
    if not scrutinee._fv.isdisjoint(mapping):
        scrutinee = _substitute(scrutinee, mapping)
    if kind is CasesOf:
        (lv,), lbody = _substitute_under((term.left_var,), term.left_body, mapping)
        (rv,), rbody = _substitute_under((term.right_var,), term.right_body, mapping)
        node = CasesOf(scrutinee, lv, lbody, rv, rbody)
        bodies = _union(_unbind(lbody._fv, (lv,)), _unbind(rbody._fv, (rv,)))
    else:
        binders, body = _substitute_under((term.fst_var, term.snd_var), term.body, mapping)
        node = SplitOf(scrutinee, *binders, body)
        bodies = _unbind(body._fv, binders)
    return _with_union(node, scrutinee._fv, bodies)


def _substitute_under(
    binders: tuple[str, ...], body: Term, mapping: Mapping[str, Term]
) -> tuple[tuple[str, ...], Term]:
    """The binders of one group and its body, with mapping substituted
    under them.  Only the entries whose names are free in body and bound by
    none of binders act there, and a binder that would capture a free name
    of theirs is renamed first.  Entries that do not act are passed on
    when no binder is a key or a free name of any replacement: they change
    nothing below, and no binder needs a new name."""
    names = body._fv
    if names.isdisjoint(mapping):
        return binders, body
    if mapping.keys().isdisjoint(binders):
        for replacement in mapping.values():
            if not free_vars(replacement).isdisjoint(binders):
                break
        else:
            return binders, _substitute(body, mapping)
    mapping = {n: t for n, t in mapping.items() if n in names and n not in binders}
    danger = set().union(*map(free_vars, mapping.values()))
    renamed = list(binders)
    for i, b in enumerate(binders):
        if b in danger:
            avoid = danger | free_vars(body) | set(mapping) | set(renamed)
            renamed[i] = fresh = fresh_name(b, avoid)
            body = substitute_many(body, {b: Var(fresh)})
    return tuple(renamed), substitute_many(body, mapping)


def _with_union(
    node: Term, a: Optional[frozenset[str]], b: Optional[frozenset[str]]
) -> Term:
    """node, given the union of a and b as its free-name set when both are known."""
    if a is not None and b is not None:
        _set(node, "_fv", _union(a, b))
    return node


def alpha_equal(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables.

    Free variables and atoms compare by name (atoms also by provenance);
    weight transformers on lambdas compare structurally.  The walk keeps
    its own stack, so deep terms need no recursion.
    """
    # Per name, the levels of its recorded binders in scope, innermost last.
    levels_a, levels_b = defaultdict(list), defaultdict(list)
    depth = 0
    # Two stacks in step.  Around a binder's subterm, _BIND above it and
    # _UNBIND below it pair with the (name in a, name in b) pairs it binds.
    todo_a, todo_b = [a], [b]
    while todo_a:
        a, b = todo_a.pop(), todo_b.pop()
        kind = type(a)
        if kind is not type(b):
            if a is _BIND:
                for name_a, name_b in b:
                    levels_a[name_a].append(depth)
                    levels_b[name_b].append(depth)
                    depth += 1
            elif a is _UNBIND:
                for name_a, name_b in b:
                    levels_a[name_a].pop()
                    levels_b[name_b].pop()
                depth -= len(b)
            else:
                return False
            continue
        if kind is Var:
            # A bound name stands for its binder's level, a free one for itself.
            key_a = levels_a[a.name][-1] if levels_a.get(a.name) else a.name
            key_b = levels_b[b.name][-1] if levels_b.get(b.name) else b.name
            if key_a != key_b:
                return False
            continue
        if kind is Atom:
            if a.name != b.name or a.provenance != b.provenance:
                return False
            continue
        if kind is Lambda and a.weight_fn != b.weight_fn:
            return False
        subterms_of, _, scopes_of = _SHAPES[kind]
        if scopes_of is None:
            todo_a += subterms_of(a)
            todo_b += subterms_of(b)
            continue
        scopes = zip(subterms_of(a), subterms_of(b), scopes_of(a), scopes_of(b))
        for sub_a, sub_b, names_a, names_b in scopes:
            # Outside every recorded binder, one binding the same names in a
            # and b needs no record: a name stands for it on both sides.
            if names_a != names_b or depth and names_a:
                names = tuple(zip(names_a, names_b))
                todo_a += (_UNBIND, sub_a, _BIND)
                todo_b += (names, sub_b, names)
            else:
                todo_a.append(sub_a)
                todo_b.append(sub_b)
    return True


_BIND, _UNBIND = object(), object()


# ---------------------------------------------------------------------------
# Judgements, sequents, trust relations


@dataclass(frozen=True, slots=True)
class Judgement:
    witness: Term
    actor: str
    weight: Weight
    claim: Claim

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


@dataclass(frozen=True, slots=True)
class Claimhood:
    """The judgement form that says a claim is a well-formed veracity claim."""

    claim: Claim


@dataclass(frozen=True, slots=True)
class Hypothesis:
    var: str
    actor: str
    weight: Weight
    claim: Claim

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


@dataclass(frozen=True, slots=True)
class Sequent:
    hypotheses: tuple[Hypothesis, ...]
    conclusion: Judgement


@dataclass(frozen=True, slots=True)
class WeightedWitness:
    """A witness term an actor holds at a weight: an entry of a model as
    the parser reads it, and an element of a denotation, where an arrow's
    elements hold a semantics.MapTable as their term."""

    term: Term
    actor: str
    weight: Weight

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


@dataclass(frozen=True, slots=True)
class TrustEdge:
    source: str
    target: str
    weight: Weight

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight))


class _EdgesFromIndex:
    """The edges field of a TrustRelation.  A non-data descriptor: the
    constructor stores the edges it was given in the instance dict, which
    shadows this; a relation built by _from_index has none there, and its
    first read builds the tuple from the index and stores it the same way.
    Read on the class, as @dataclass does, it gives the field's default."""

    def __get__(
        self, relation: Optional[TrustRelation], owner: Optional[type] = None
    ) -> tuple[TrustEdge, ...]:
        if relation is None:
            return ()
        edges = tuple(TrustEdge(s, t, w) for (s, t), w in relation._weights.items())
        object.__setattr__(relation, "edges", edges)
        return edges


@dataclass(frozen=True)
class TrustRelation:
    """A named set of weighted edges between actors, in the order given.
    Its index maps each (source, target) to the edge's weight and is built
    once: by the constructor, which refuses a duplicate edge with a
    ValueError, or by whoever read the edges, through _from_index.  Every
    reader in the package goes through the index: weight_between for one
    edge, edge_weights for all of them in edge order, and actors.  A
    relation from _from_index builds its edges from the index only when
    they are first read, so no subcommand builds them; equality, hashing,
    repr, copying and pickling read them like any field."""

    name: str
    edges: tuple[TrustEdge, ...] = _EdgesFromIndex()

    def __post_init__(self) -> None:
        index: dict[tuple[str, str], Weight] = {}
        for e in self.edges:
            key = (e.source, e.target)
            if key in index:
                raise ValueError(f"duplicate trust edge {e.source} -> {e.target} in {self.name}")
            index[key] = e.weight
        object.__setattr__(self, "_weights", index)

    @classmethod
    def _from_index(cls, name: str, weights: dict[tuple[str, str], Weight]) -> TrustRelation:
        """The relation with an edge per entry of weights, in its order,
        keeping weights itself as the index; a dict holds no duplicate to
        refuse.  The parser reads each edge into weights as it checks it."""
        relation = object.__new__(cls)
        object.__setattr__(relation, "name", name)
        object.__setattr__(relation, "_weights", weights)
        return relation

    def weight_between(self, source: str, target: str) -> Optional[Weight]:
        return self._weights.get((source, target))

    def edge_weights(self) -> ItemsView[tuple[str, str], Weight]:
        """Each edge as ((source, target), weight), in edge order, read from
        the index without building a TrustEdge."""
        return self._weights.items()

    def actors(self) -> frozenset[str]:
        out = set()
        for source, target in self._weights:
            out.add(source)
            out.add(target)
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


@dataclass(frozen=True, slots=True)
class AssumeArgs:
    var: str
    claim: Claim
    actor: Optional[str] = None
    context: tuple[Hypothesis, ...] = ()


@dataclass(frozen=True, slots=True)
class BottomElimArgs:
    target: Claim


@dataclass(frozen=True, slots=True)
class OrIntroArgs:
    other: Claim


@dataclass(frozen=True, slots=True)
class OrElimArgs:
    family: ClaimFamily
    left_var: str
    right_var: str


@dataclass(frozen=True, slots=True)
class AndElimArgs:
    family: ConstantFamily
    fst_var: str
    snd_var: str


@dataclass(frozen=True, slots=True)
class ImpIntroArgs:
    var: str
    weight_fn: WeightExpr = ARG


@dataclass(frozen=True, slots=True)
class TrustArgs:
    relation: str
    source: str
    target: str


RuleArgs = Union[
    AssumeArgs, BottomElimArgs, OrIntroArgs, OrElimArgs, AndElimArgs, ImpIntroArgs, TrustArgs
]


@dataclass(frozen=True, slots=True)
class ProofTree:
    rule: Rule
    premises: tuple["ProofTree", ...] = ()
    args: Optional[RuleArgs] = None
    stated: Optional[Sequent] = None
    loc: Optional[tuple[int, int]] = field(default=None, compare=False)

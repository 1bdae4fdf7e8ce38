"""Witness term evaluation.

Reduction is leftmost-outermost with full congruence: the outermost redex
fires first, and reduction continues under binders, so a normal form has no
redex anywhere.  Four contractions fire:

    (\\x.b) a                -->  b[x := a]
    cases(i(a), x.d, y.e)    -->  d[x := a]
    cases(j(b), x.d, y.e)    -->  e[y := b]
    split((a,b), x.y.d)      -->  d[x := a, y := b]

The split substitution is simultaneous.  Lambda weight annotations ride
along unchanged; they describe weight flow, not term flow.

Every entry point (step, normalize, normalize_counted and trace) runs one
walk (_Walk), a zipper in the manner of Huet's "The Zipper" (JFP 1997): a
cursor at a subterm and the path to it from the root.  The walk visits
nodes in pre-order and keeps one invariant: no node before the cursor in
pre-order is a redex.  So the next redex is the first one at or after the
cursor, which is the leftmost-outermost one.

The path is three parallel stacks with one entry per ancestor: the
ancestor, the index of its subterm that holds the cursor, and None until
a subterm of it changes, then the list of its subterms as reduced so
far.  An ancestor whose subterms are unchanged costs three list slots, 24
bytes, so the path of a deep term is small beside the term: normalizing a
TagL tower over one redex takes 48 bytes a level, the rebuilt tag
included.  The subterm after the cursor's is read from the ancestor, or
from its list once it has one.

The resume rule.  After a contraction at the cursor, the walk resumes at
the contracted position, not at the root.  Subterms to the left of the
path from the root are untouched and stay normal.  Whether an ancestor is
a redex depends only on the constructor of its head: the function of an
application, or the scrutinee of cases or split.  The path child of every
ancestor above the parent keeps its constructor, so none of those can
become a redex.  Only the parent can, and only when the contracted
position is its head; that one cheap test decides whether the cursor
moves up to it.  Repeated, this rechecks exactly the chain of ancestors
in head position.  Parents are rebuilt once, when the walk leaves them.

Pending substitutions, explicit substitutions in the manner of Abadi,
Cardelli, Curien and Lévy (JFP 1991).  A contraction does not substitute:
its reduct is a pending node (_Pending, private to this module), the body
with the mapping attached.  The reduct's constructor is its body's, so the
parent test above needs no substitution.  The walk reads a reduct back
when it moves into it, through substitute_many, as every contraction used
to.  A reduct that makes its parent a redex is read only as far as that
contraction needs.  A pending tag or pair is read back.  So is a pending
lambda whose mapping has a free name in a replacement, for it may rename
the parameter.  A pending lambda whose replacements are all closed can
capture nothing: it keeps its parameter, and its mapping, minus the
parameter, moves one node down onto its body.  A closed argument then
joins that mapping, since sequential and simultaneous substitution agree
when every replacement is closed.  An argument with free names does not:
the older mapping is substituted first, in the order the two were made.

So a step along a seq chain (\\x0...\\xn.B) a0 ... an builds a few nodes
and adds one entry to the merged mapping, and B is read back once at the
end: linear work, where substituting at every step rebuilt the lambdas
left and their free-name sets.  A merged mapping is read back by a walk
that asks for no free-name set (on a seq chain's B those sets hold n²/2
names).  Every result equals the eager one, bound names included.  trace
reads back every stage, since it returns them all.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    _SHAPES,
    Apply,
    Atom,
    CasesOf,
    Lambda,
    Pair,
    SplitOf,
    TagL,
    TagR,
    Term,
    Var,
    free_vars,
    scopes,
    substitute,  # unused here, but bench/harness.py wraps it by this name
    substitute_many,
    subterms,
    with_subterms,
)

DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, budget: int) -> None:
        super().__init__(f"no normal form within {budget} reduction steps")
        self.budget = budget


class _Pending:
    """term with mapping still to be substituted.  merged says the mapping
    gathers the substitutions of several contractions, and then every
    replacement is closed.  term and the replacements hold no pending
    node, and term is no variable or atom.  A pending node is the only
    holder of its mapping, and it is the head of one redex at most, read
    by that one contraction."""

    __slots__ = ("term", "mapping", "merged")

    def __init__(self, term: Term, mapping: dict, merged: bool) -> None:
        self.term = term
        self.mapping = mapping
        self.merged = merged


def _delay(body: Term, mapping: dict, merged: bool):
    """body with mapping substituted, pending when body has subterms."""
    kind = type(body)
    if kind is Var:
        return mapping.get(body.name, body)
    if kind is Atom:
        return body
    return _Pending(body, mapping, merged)


def _resolve(term: Term, mapping: dict, merged: bool) -> Term:
    return _substitute_closed(term, mapping) if merged else substitute_many(term, mapping)


def _readback(term) -> Term:
    """term with its pending nodes substituted out: a pending reduct, or a
    redex whose head is one."""
    if type(term) is _Pending:
        return _resolve(term.term, term.mapping, term.merged)
    if type(term) in _REDEX_HEADS:
        head, *rest = subterms(term)
        if type(head) is _Pending:
            return with_subterms(term, [_readback(head), *rest])
    return term


def _substitute_closed(term: Term, mapping: dict) -> Term:
    """substitute_many(term, mapping) when every replacement is closed,
    without free-name sets: nothing can be captured, so no binder is
    renamed, and a binder only hides its own names from its scope.  One
    frame per level; unchanged subterms come back as the same objects."""
    if type(term) is Var:
        return mapping.get(term.name, term)
    subs, same = [], True
    for sub, bound in zip(subterms(term), scopes(term)):
        inner = mapping
        if bound and not mapping.keys().isdisjoint(bound):
            inner = {name: r for name, r in mapping.items() if name not in bound}
        new = _substitute_closed(sub, inner) if inner else sub
        same = same and new is sub
        subs.append(new)
    return term if same else with_subterms(term, subs)


def _contract(node: Term):
    """The reduct of node, a redex whose head may be pending: itself
    pending, with the mapping of this contraction or, after a pending
    lambda, the lambda's mapping merged with it."""
    kind = type(node)
    head = node.fn if kind is Apply else node.scrutinee
    older = None
    if type(head) is _Pending:
        if kind is Apply and (head.merged or not any(map(free_vars, head.mapping.values()))):
            older, merged, head = head.mapping, head.merged, head.term
        else:
            head = _readback(head)
    if kind is SplitOf:
        return _delay(node.body, {node.fst_var: head.fst, node.snd_var: head.snd}, False)
    if kind is CasesOf:
        if type(head) is TagL:
            return _delay(node.left_body, {node.left_var: head.value}, False)
        return _delay(node.right_body, {node.right_var: head.value}, False)
    param, body, arg = head.param, head.body, node.arg
    if older is None:
        return _delay(body, {param: arg}, False)
    # The pending lambda's body carries its mapping, minus the parameter,
    # which the lambda binds and arg now takes.  The mapping is the head's
    # own and the head goes with this step, so a closed arg joins it in
    # place; one with free names may rename binders, so the older mapping
    # is substituted first.
    if not free_vars(arg):
        older[param] = arg
        return _delay(body, older, True)
    older = {name: r for name, r in older.items() if name != param}
    return _delay(_resolve(body, older, merged) if older else body, {param: arg}, False)


# Each constructor's subterms function, which the walk calls without the
# call through subterms().  It is a plain dict, since CPython specializes a
# subscript of a dict but not of a subclass; step() turns the KeyError of
# any other type into the TypeError subterms() raises.
_SUBTERMS = {kind: shape.subterms for kind, shape in _SHAPES.items()}

# For each constructor with a head, the head constructors that make it a redex.
_REDEX_HEADS = {Apply: (Lambda,), CasesOf: (TagL, TagR), SplitOf: (Pair,)}


def _redex_with_head(node: Term, head) -> bool:
    """Whether node is a redex when head, maybe pending, is its first subterm."""
    heads = _REDEX_HEADS.get(type(node))
    if heads is None:
        return False
    return type(head.term if type(head) is _Pending else head) in heads


class _Walk:
    """A leftmost-outermost reduction in progress.

    focus is the subterm at the cursor; after a step it may be a pending
    reduct, or a redex with one as its head.  The path to it is three
    parallel stacks with one entry per ancestor, root first: nodes, the
    ancestor itself; indices, the position among its subterms of the one
    that holds the cursor; and changes, None while every subterm before
    that one is the ancestor's own, else a list of its subterms as reduced
    so far.  So an ancestor costs three list slots, 24 bytes, until the
    walk climbs out of a subterm of it that changed.  No stack holds a
    pending node.
    """

    __slots__ = ("focus", "nodes", "indices", "changes", "steps")

    def __init__(self, term: Term) -> None:
        self.focus = term
        self.nodes: list[Term] = []
        self.indices: list[int] = []
        self.changes: list[Optional[list[Term]]] = []
        self.steps = 0

    def step(self, budget: Optional[int] = None) -> bool:
        """Fire the next redex; False, with focus the whole normal form,
        when there is none.  Raises BudgetExceeded rather than fire one
        more than budget steps in all."""
        try:
            found = self._seek()
        except KeyError as exc:
            # Only a non-term's type misses _SUBTERMS in the walk.
            raise TypeError(f"not a term type: {exc.args[0].__name__}") from None
        if not found:
            return False
        if budget is not None and self.steps >= budget:
            raise BudgetExceeded(budget)
        self.steps += 1
        reduced = _contract(self.focus)
        nodes = self.nodes
        if nodes and self.indices[-1] == 0 and _redex_with_head(nodes[-1], reduced):
            # The reduct is the head of its parent and makes it a redex.
            # The cursor is in the parent's first subterm, so no subterm of
            # it has changed.
            node = nodes.pop()
            self.indices.pop()
            self.changes.pop()
            subs = list(subterms(node))
            subs[0] = reduced
            reduced = with_subterms(node, subs)
        self.focus = reduced
        return True

    def _seek(self) -> bool:
        """Move the cursor to the first redex at or after it in pre-order."""
        focus, nodes, indices, changes = self.focus, self.nodes, self.indices, self.changes
        if type(focus) is _Pending:
            focus = _readback(focus)
        while True:
            subs = _SUBTERMS[type(focus)](focus)
            if subs:
                if _redex_with_head(focus, subs[0]):
                    self.focus = focus
                    return True
                nodes.append(focus)
                indices.append(0)
                changes.append(None)
                focus = subs[0]
                continue
            # A leaf: climb to the next subterm not visited yet.
            while True:
                if not nodes:
                    self.focus = focus
                    return False
                node = nodes[-1]
                index = indices[-1]
                done = changes[-1]
                subs = _SUBTERMS[type(node)](node) if done is None else done
                if subs[index] is not focus:
                    if done is None:
                        subs = done = changes[-1] = list(subs)
                    done[index] = focus
                index += 1
                if index < len(subs):
                    indices[-1] = index
                    focus = subs[index]
                    break
                # The last subterm: rebuild the node if any of them changed.
                nodes.pop()
                indices.pop()
                changes.pop()
                focus = node if done is None else with_subterms(node, done)

    def term(self) -> Term:
        """The whole current term; the walk itself is left as it is.  After
        a step the cursor's subterm is new, so every ancestor is rebuilt."""
        current = _readback(self.focus)
        for node, index, done in zip(reversed(self.nodes), reversed(self.indices), reversed(self.changes)):
            subs = list(subterms(node) if done is None else done)
            subs[index] = current
            current = with_subterms(node, subs)
        return current


def step(term: Term) -> Optional[Term]:
    """One leftmost-outermost reduction step, or None on a normal form."""
    walk = _Walk(term)
    return walk.term() if walk.step() else None


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"step budget must be at least 0, not {budget}")


def normalize_counted(term: Term, budget: int = DEFAULT_BUDGET) -> tuple[Term, int]:
    """The normal form and the number of steps to it, keeping no
    intermediate term; BudgetExceeded if it takes more than budget steps,
    ValueError if budget is negative."""
    _check_budget(budget)
    walk = _Walk(term)
    while walk.step(budget):
        pass
    return walk.focus, walk.steps


def normalize(term: Term, budget: int = DEFAULT_BUDGET) -> Term:
    return normalize_counted(term, budget)[0]


def trace(term: Term, budget: int = DEFAULT_BUDGET) -> list[Term]:
    """The full reduction sequence [term, ..., normal form]; raises like
    normalize_counted."""
    _check_budget(budget)
    walk = _Walk(term)
    sequence = [term]
    while walk.step(budget):
        sequence.append(walk.term())
    return sequence

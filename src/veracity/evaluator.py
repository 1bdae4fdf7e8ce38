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

Every entry point runs one walk (_Walk), a zipper in the manner of Huet's
"The Zipper" (JFP 1997): a cursor at a subterm and, for each ancestor,
the frame (parent, its subterms so far, index of the one the cursor is
in).  The walk visits nodes in pre-order and keeps one invariant: no node
before the cursor in pre-order is a redex.  So the next redex is the first
one at or after the cursor, which is the leftmost-outermost one.

The resume rule.  After a contraction at the cursor, the walk resumes at
the contracted position, not at the root.  Subterms to the left of the
path from the root are untouched and stay normal.  Whether an ancestor is
a redex depends only on the constructor of its head: the function of an
application, or the scrutinee of cases or split.  The path child of every
ancestor above the parent keeps its constructor, so none of those can
become a redex.  Only the parent can, and only when the contracted
position is its head; that one cheap test decides whether the cursor
moves up to it.  Repeated, this rechecks exactly the chain of ancestors
in head position.  Parents are rebuilt once, when the walk leaves them,
so normalizing costs the nodes visited plus the substitutions done; a
whole intermediate term is built only when trace or step asks for one.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    Apply,
    CasesOf,
    Lambda,
    Pair,
    SplitOf,
    TagL,
    TagR,
    Term,
    substitute,
    substitute_many,
    subterms,
    with_subterms,
)

DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, budget: int) -> None:
        super().__init__(f"no normal form within {budget} reduction steps")
        self.budget = budget


def contract(term: Term) -> Optional[Term]:
    """Fire the redex at the root, if the root is one."""
    if isinstance(term, Apply) and isinstance(term.fn, Lambda):
        return substitute(term.fn.body, term.fn.param, term.arg)
    if isinstance(term, CasesOf):
        scrutinee = term.scrutinee
        if isinstance(scrutinee, TagL):
            return substitute(term.left_body, term.left_var, scrutinee.value)
        if isinstance(scrutinee, TagR):
            return substitute(term.right_body, term.right_var, scrutinee.value)
    if isinstance(term, SplitOf) and isinstance(term.scrutinee, Pair):
        return substitute_many(
            term.body,
            {term.fst_var: term.scrutinee.fst, term.snd_var: term.scrutinee.snd},
        )
    return None


# For each constructor with a head, the head constructors that make it a redex.
_REDEX_HEADS = {Apply: (Lambda,), CasesOf: (TagL, TagR), SplitOf: (Pair,)}


def _redex_with_head(node: Term, head: Term) -> bool:
    """Whether node is a redex when head is its first subterm."""
    heads = _REDEX_HEADS.get(type(node))
    return heads is not None and isinstance(head, heads)


class _Walk:
    """A leftmost-outermost reduction in progress.

    focus is the subterm at the cursor.  path holds one frame per ancestor,
    root first: [node, subterms, index, changed], where subterms is a list
    of the node's subterms as reduced so far, index points at the one that
    holds the cursor, and changed says whether any entry differs from the
    node's own.
    """

    __slots__ = ("focus", "path", "steps")

    def __init__(self, term: Term) -> None:
        self.focus = term
        self.path: list[list] = []
        self.steps = 0

    def step(self, budget: Optional[int] = None) -> bool:
        """Fire the next redex; False, with focus the whole normal form,
        when there is none.  Raises BudgetExceeded rather than fire one
        more than budget steps in all."""
        if not self._seek():
            return False
        if budget is not None and self.steps >= budget:
            raise BudgetExceeded(budget)
        self.steps += 1
        reduced = contract(self.focus)
        path = self.path
        if path and path[-1][2] == 0 and _redex_with_head(path[-1][0], reduced):
            # The reduct is the head of its parent and makes it a redex.
            node, subs = path.pop()[:2]
            subs[0] = reduced
            reduced = with_subterms(node, subs)
        self.focus = reduced
        return True

    def _seek(self) -> bool:
        """Move the cursor to the first redex at or after it in pre-order."""
        focus, path = self.focus, self.path
        while True:
            subs = subterms(focus)
            if subs:
                if _redex_with_head(focus, subs[0]):
                    self.focus = focus
                    return True
                path.append([focus, list(subs), 0, False])
                focus = subs[0]
                continue
            # A leaf: climb to the next subterm not visited yet.
            while True:
                if not path:
                    self.focus = focus
                    return False
                frame = path[-1]
                subs, index = frame[1], frame[2]
                if subs[index] is not focus:
                    subs[index] = focus
                    frame[3] = True
                index += 1
                if index < len(subs):
                    frame[2] = index
                    focus = subs[index]
                    break
                path.pop()
                focus = with_subterms(frame[0], subs) if frame[3] else frame[0]

    def term(self) -> Term:
        """The whole current term; the walk itself is left as it is."""
        current = self.focus
        for node, subs, index, changed in reversed(self.path):
            if changed or subs[index] is not current:
                current = with_subterms(node, subs[:index] + [current] + subs[index + 1 :])
            else:
                current = node
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

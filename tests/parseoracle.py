"""Reference parser for differential parser tests.

The recursive-descent parser of claims, witness terms, proof trees and
scripts as it stood before precedence climbing, frozen: one method per
claim precedence level, a separate application loop, a fresh leaf for
every name, and a walk of every proof tree for undeclared names.  It reads
every token of the text, trust edges included, from its own copy of the
scanner as it stood before trust edges were read straight from the text
(tokenize is checked against tokoracle.py), locates offsets through its own
index of line starts and a bisection, as the parser did before it counted
newlines instead, and builds the same values, none of them shared.  It
must not change: veracity.parser is checked against it value for value and
error for error.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Any, Callable, Iterable, Optional, TypeVar

from veracity.core import (
    ARG,
    And,
    Apply,
    AssumeArgs,
    Atom,
    Atomic,
    AndElimArgs,
    Bottom,
    BottomElimArgs,
    CasesOf,
    Claim,
    ClaimFamily,
    Const,
    ConstantFamily,
    Hypothesis,
    Implies,
    ImpIntroArgs,
    Judgement,
    Lambda,
    Min,
    Mul,
    Or,
    OrElimArgs,
    OrIntroArgs,
    Pair,
    ProofTree,
    Provenance,
    Rule,
    RuleArgs,
    Sequent,
    SplitOf,
    TagFamily,
    TagL,
    TagR,
    Term,
    TrustArgs,
    TrustEdge,
    TrustRelation,
    Var,
    Weight,
    WeightExpr,
    WeightedWitness,
    as_weight,
    atoms_of_claim,
    family_claims,
)
from veracity.parser import (
    DEFAULT_ACTOR,
    CompareDecl,
    ModelDecl,
    ParseError,
    ProofDecl,
    QueryDecl,
    Script,
    SoundDecl,
)

_ONE = Fraction(1)

_UNICODE_OPS = {
    "∧": "/\\",
    "∨": "\\/",
    "→": "->",
    "¬": "~",
    "⊥": "_|_",
    "λ": "\\",
    "⊢": "|-",
    "∈": ":",
    "·": "*",
}

# Each match skips blanks, newlines and comments, then takes a token
# (group 1), the end of the text, or a bad character (group 2).
_SCAN = re.compile(
    r"""
    [\ \t\r\n]* (?: \#[^\n]* [\ \t\r\n]* )*
    (?:
      ( \d+(?:\.\d+)?(?:/\d+)?
      | /\\ | \\/ | -> | => | \|- | _\|_
      | [()\{\}\[\],.:;^@|=*~\\∧∨→¬⊥λ⊢∈·]
      | [A-Za-z_][A-Za-z0-9_]*'*
      | "(?:[^"\\\n]|\\["\\])*"
      )
    | \Z
    | (.)
    )
    """,
    re.VERBOSE | re.DOTALL,
).finditer


def _scan(text: str) -> tuple[list[str], array]:
    """The lexemes of text, Unicode operators in their ASCII spelling, and
    their start offsets; both end with the eof entry "" at len(text)."""
    texts: list[str] = []
    starts = array("q")
    for m in _SCAN(text):
        lexeme = m[1]
        if lexeme is None:
            break
        texts.append(lexeme)
        starts.append(m.start(1))
    if m[2] is not None:
        raise ParseError(f"unexpected character {m[2]!r}", *_locate(_line_starts(text), m.start(2)))
    texts.append("")
    starts.append(len(text))
    if not text.isascii():
        texts = [_UNICODE_OPS.get(t, t) for t in texts]
    return texts, starts


def _line_starts(text: str) -> list[int]:
    """The offset at which each line of text after the first starts, and
    len(text) + 1 last."""
    return list(accumulate(map((1).__add__, map(len, text.split("\n")))))


def _locate(line_starts: list[int], offset: int) -> tuple[int, int]:
    """The line and column, both from 1, of an offset into a text."""
    line = bisect_right(line_starts, offset)
    return line + 1, offset + 1 - (line_starts[line - 1] if line else 0)


_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _is_ident(text: str) -> bool:
    return text[:1] in _IDENT_START and text != "_|_"


def _describe(text: str) -> str:
    return repr(text) if text else "end of input"


def _decode_string(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _default_actor(actors) -> str:
    return actors[0] if len(actors) == 1 else DEFAULT_ACTOR


_RULE_BY_NAME = {r.value: r for r in Rule}

# The names that build a term when "(" follows with no blank between.
_CONSTRUCTORS = frozenset(("i", "j", "cases", "split"))

# Every rule but assume is written name(arg, ...).  Its row lists the kinds
# of those arguments in order, builds the node's argument record from the
# ones that are not premises, and reads them back from the record.
#
# Kinds: "tree" a premise, "binder" a bound name, "claim", "family", "var"
# the discharged variable, "relation" a trust relation, "source" and
# "target" actors, and "weight" an optional trailing weight transformer.
# Arguments are separated by "," except after a binder, which ends in ".",
# and a source, which ends in "->"; the optional weight brings its own ",".
_RuleSyntax = tuple[tuple[str, ...], Callable[..., Optional[RuleArgs]], Callable[[Any], tuple]]

_RULE_SYNTAX: dict[Rule, _RuleSyntax] = {
    Rule.CLAIM: (("tree",), lambda: None, lambda a: ()),
    Rule.BOTTOM_ELIM: (("tree", "claim"), BottomElimArgs, lambda a: (a.target,)),
    Rule.OR_INTRO_L: (("tree", "claim"), OrIntroArgs, lambda a: (a.other,)),
    Rule.OR_INTRO_R: (("tree", "claim"), OrIntroArgs, lambda a: (a.other,)),
    Rule.OR_ELIM: (
        ("tree", "binder", "tree", "binder", "tree", "family"),
        lambda lv, rv, family: OrElimArgs(family, lv, rv),
        lambda a: (a.left_var, a.right_var, a.family),
    ),
    Rule.AND_INTRO: (("tree", "tree"), lambda: None, lambda a: ()),
    Rule.AND_ELIM: (
        ("tree", "binder", "binder", "tree", "claim"),
        lambda fv, sv, claim: AndElimArgs(ConstantFamily(claim), fv, sv),
        lambda a: (a.fst_var, a.snd_var, a.family.claim),
    ),
    Rule.IMP_INTRO: (("var", "tree", "weight"), ImpIntroArgs, lambda a: (a.var, a.weight_fn)),
    Rule.IMP_ELIM: (("tree", "tree"), lambda: None, lambda a: ()),
    Rule.TRUST: (
        ("relation", "source", "target", "tree"),
        TrustArgs,
        lambda a: (a.relation, a.source, a.target),
    ),
}

# What each name-valued kind is called in a parse error, and the token that
# ends a kind that is not followed by ",".
_NAME_KINDS = {
    "binder": "a binder",
    "var": "the discharged variable",
    "relation": "a trust relation",
    "source": "an actor",
    "target": "an actor",
}
_SELF_ENDING = {"binder": ".", "source": "->"}

# Each kind of name a script declares: what a "not declared" error calls
# it, and how a token is described that should declare one or name one.
_SCRIPT_NAMES = {
    "claim": ("claim", "a claim name", "a claim name"),
    "actor": ("actor", "an actor name", "an actor"),
    "relation": ("trust relation", "a trust relation name", "a trust relation"),
    "proof": ("proof", "a proof name", "a proof name"),
    "model": ("model", "a model name", "a model name"),
}

_T = TypeVar("_T")


def _needs_comma(kinds: tuple[str, ...], k: int) -> bool:
    return k > 0 and kinds[k] != "weight" and kinds[k - 1] not in _SELF_ENDING
class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        # The lexemes, ending with the eof entry "", and the offset in text
        # at which each starts; the cursor pos indexes both.
        self.texts, self.starts = _scan(text)
        self.pos = 0
        # Where each line of text starts, found when a location is first
        # asked for: only proof nodes, declarations and errors keep one.
        self.line_starts: Optional[list[int]] = None
        # Each weight literal converted so far, by its text.
        self.weights: dict[str, Weight] = {}
        # The names bound where the parser stands, each with the number of
        # enclosing binders that bind it.  Binders bind and unbind beside
        # the call that parses their body, not in a helper around it, so a
        # nesting level costs the same frames and "nesting too deep" is
        # reported where it always was.
        self.bound: dict[str, int] = {}
        # The actor of a judgement or hypothesis written without ^actor;
        # a script resets it where it declares actors.
        self.default_actor = DEFAULT_ACTOR
        # A script's actors so far, and every name it has declared so far
        # with its kind, a key of _SCRIPT_NAMES.
        self.actors: list[str] = []
        self.declared: dict[str, str] = {}

    def bind(self, names: Iterable[str]) -> None:
        for name in names:
            self.bound[name] = self.bound.get(name, 0) + 1

    def unbind(self, names: Iterable[str]) -> None:
        for name in names:
            left = self.bound[name] - 1
            if left:
                self.bound[name] = left
            else:
                del self.bound[name]

    # -- token plumbing

    def loc(self, at: int) -> tuple[int, int]:
        """The line and column of the token at index at."""
        if self.line_starts is None:
            self.line_starts = _line_starts(self.text)
        return _locate(self.line_starts, self.starts[at])

    # at, accept and expect take an operator or a keyword and compare texts
    # only: no operator's text is the text of an identifier, number, string
    # or eof.  A matched token is never eof, so stepping past it needs no
    # check.

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        found = self.texts[self.pos]
        if found != text:
            raise ParseError(f"expected {text!r}, found {_describe(found)}", *self.loc(self.pos))
        self.pos += 1

    def expect_ident(self, what: str = "identifier") -> str:
        found = self.texts[self.pos]
        # _is_ident inline: a call would deepen the deepest frame of each
        # binder's nesting level, and "nesting too deep" would come sooner.
        if found[:1] not in _IDENT_START or found == "_|_":
            raise ParseError(f"expected {what}, found {_describe(found)}", *self.loc(self.pos))
        self.pos += 1
        return found

    def expect_eof(self) -> None:
        found = self.texts[self.pos]
        if found:
            raise ParseError(f"unexpected {_describe(found)}", *self.loc(self.pos))

    # -- weights

    def weight(self) -> Weight:
        at = self.pos
        text = self.texts[at]
        value = self.weights.get(text)
        if value is None:
            if not text[:1].isdecimal():
                raise ParseError(f"expected a weight, found {_describe(text)}", *self.loc(at))
            try:
                value = as_weight(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad weight {text!r}: {exc}", *self.loc(at)) from None
            self.weights[text] = value
        self.pos = at + 1
        return value

    def weight_expr(self) -> WeightExpr:
        expr = self.weight_factor()
        while self.accept("*"):
            expr = Mul(expr, self.weight_factor())
        return expr

    def weight_factor(self) -> WeightExpr:
        if self.texts[self.pos][:1].isdecimal():
            return Const(self.weight())
        if self.accept("z"):
            return ARG
        if self.accept("min"):
            self.expect("(")
            left = self.weight_expr()
            self.expect(",")
            right = self.weight_expr()
            self.expect(")")
            return Min(left, right)
        if self.accept("("):
            expr = self.weight_expr()
            self.expect(")")
            return expr
        found = self.texts[self.pos]
        raise ParseError(f"expected a weight expression, found {_describe(found)}", *self.loc(self.pos))

    # -- claims

    def claim(self) -> Claim:
        left = self.claim_or()
        if self.accept("->"):
            return Implies(left, self.claim())
        return left

    def claim_or(self) -> Claim:
        left = self.claim_and()
        while self.accept("\\/"):
            left = Or(left, self.claim_and())
        return left

    def claim_and(self) -> Claim:
        left = self.claim_unary()
        while self.accept("/\\"):
            left = And(left, self.claim_unary())
        return left

    def claim_unary(self) -> Claim:
        if self.accept("~"):
            return Implies(self.claim_unary(), Bottom())
        return self.claim_atom()

    def claim_atom(self) -> Claim:
        if self.accept("_|_"):
            return Bottom()
        if self.accept("("):
            inner = self.claim()
            self.expect(")")
            return inner
        found = self.texts[self.pos]
        if not _is_ident(found):
            raise ParseError(f"expected a claim, found {_describe(found)}", *self.loc(self.pos))
        self.pos += 1
        return Atomic(found)

    # -- witness terms

    def term(self) -> Term:
        if self.at("\\"):
            return self.lambda_term()
        return self.application()

    def lambda_term(self) -> Term:
        self.expect("\\")
        param = self.expect_ident("a parameter name")
        self.expect(".")
        self.bind((param,))
        body = self.term()
        self.unbind((param,))
        if self.accept("@"):
            return Lambda(param, body, self.weight_expr())
        return Lambda(param, body)

    def application(self) -> Term:
        term = self.primary()
        while (found := self.texts[self.pos]) == "(" or _is_ident(found):
            term = Apply(term, self.primary())
        return term

    def primary(self) -> Term:
        if self.accept("("):
            first = self.term()
            if self.accept(","):
                second = self.term()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        at = self.pos
        name = self.texts[at]
        if not _is_ident(name):
            raise ParseError(f"expected a term, found {_describe(name)}", *self.loc(at))
        self.pos = at + 1
        # Constructor names bind only to an immediately adjacent "(", so an
        # identifier i applied to a parenthesized argument (written "i (x)")
        # stays an application.
        if name in _CONSTRUCTORS and self.at("(") and self.starts[at + 1] == self.starts[at] + len(name):
            self.pos += 1
            scrutinee = self.term()
            if name == "i" or name == "j":
                self.expect(")")
                return TagL(scrutinee) if name == "i" else TagR(scrutinee)
            self.expect(",")
            if name == "cases":
                lv = self.expect_ident("a binder")
                self.expect(".")
                self.bind((lv,))
                lbody = self.term()
                self.unbind((lv,))
                self.expect(",")
                rv = self.expect_ident("a binder")
                self.expect(".")
                self.bind((rv,))
                rbody = self.term()
                self.unbind((rv,))
                self.expect(")")
                return CasesOf(scrutinee, lv, lbody, rv, rbody)
            fv = self.expect_ident("a binder")
            self.expect(".")
            sv = self.expect_ident("a binder")
            if fv == sv:
                raise ParseError("split binders must be distinct", *self.loc(at))
            self.expect(".")
            self.bind((fv, sv))
            body = self.term()
            self.unbind((fv, sv))
            self.expect(")")
            return SplitOf(scrutinee, fv, sv, body)
        if name in self.bound:
            if self.at("{"):
                raise ParseError("provenance belongs on atoms, not bound variables", *self.loc(at))
            return Var(name)
        if self.at("{"):
            return Atom(name, self.provenance())
        return Atom(name)

    def provenance(self) -> Provenance:
        self.expect("{")
        fields: dict[str, str] = {}
        while not self.accept("}"):
            at = self.pos
            key = self.expect_ident("a provenance field")
            if key not in ("who", "where", "when", "how"):
                raise ParseError(f"unknown provenance field {key!r}", *self.loc(at))
            if key in fields:
                raise ParseError(f"duplicate provenance field {key!r}", *self.loc(at))
            self.expect("=")
            value = self.texts[self.pos]
            if value[:1] != '"':
                raise ParseError(
                    f"expected a quoted string, found {_describe(value)}", *self.loc(self.pos)
                )
            self.pos += 1
            fields[key] = _decode_string(value)
            if not self.at("}"):
                self.expect(",")
        return Provenance(**fields)

    # -- judgements and sequents

    def judgement(self, names: Iterable[str] = ()) -> Judgement:
        """A judgement whose witness may use names as bound variables."""
        self.bind(names)
        witness = self.term()
        self.unbind(names)
        return Judgement(witness, *self.actor_weight_claim())

    def hypothesis(self) -> Hypothesis:
        var = self.expect_ident("a hypothesis variable")
        return Hypothesis(var, *self.actor_weight_claim())

    def actor_weight_claim(self) -> tuple[str, Weight, Claim]:
        """The [^actor] [@weight] ":" claim that ends a judgement or a
        hypothesis."""
        actor = self.expect_ident("an actor") if self.accept("^") else self.default_actor
        weight = self.weight() if self.accept("@") else _ONE
        self.expect(":")
        return actor, weight, self.claim()

    def sequent(self) -> Sequent:
        hyps = [] if self.at("|-") else self.comma_list(self.hypothesis)
        self.expect("|-")
        conclusion = self.judgement([h.var for h in hyps])
        return Sequent(tuple(hyps), conclusion)

    # -- proof trees

    def tree(self) -> ProofTree:
        node = self.tree_node()
        if self.accept("stating"):
            self.expect("(")
            stated = self.sequent()
            self.expect(")")
            node = ProofTree(node.rule, node.premises, node.args, stated, node.loc)
        return node

    def tree_node(self) -> ProofTree:
        at = self.pos
        rule = _RULE_BY_NAME.get(self.texts[at])
        if rule is None:
            found = self.texts[at]
            raise ParseError(f"expected a rule name, found {_describe(found)}", *self.loc(at))
        loc = self.loc(at)
        self.pos = at + 1

        if rule is Rule.ASSUME:
            var = self.expect_ident("a hypothesis variable")
            actor = self.expect_ident("an actor") if self.accept("^") else None
            self.expect(":")
            claim = self.claim()
            context: list[Hypothesis] = []
            if self.accept("under"):
                self.expect("(")
                context = self.comma_list(self.hypothesis)
                self.expect(")")
            return ProofTree(rule, (), AssumeArgs(var, claim, actor, tuple(context)), None, loc)

        kinds, build, _ = _RULE_SYNTAX[rule]
        premises: list[ProofTree] = []
        values: list[object] = []
        self.expect("(")
        for k, kind in enumerate(kinds):
            if _needs_comma(kinds, k):
                self.expect(",")
            (premises if kind == "tree" else values).append(self.rule_arg(kind))
        self.expect(")")
        return ProofTree(rule, tuple(premises), build(*values), None, loc)

    def rule_arg(self, kind: str) -> object:
        if kind == "tree":
            return self.tree()
        if kind == "claim":
            return self.claim()
        if kind == "family":
            return self.family()
        if kind == "weight":
            return self.weight_expr() if self.accept(",") else ARG
        name = self.expect_ident(_NAME_KINDS[kind])
        if kind in _SELF_ENDING:
            self.expect(_SELF_ENDING[kind])
        return name

    def family(self) -> ClaimFamily:
        if self.at("i") and self.texts[self.pos + 1] == "=>":
            self.pos += 2
            on_left = self.claim()
            self.expect("|")
            self.expect("j")
            self.expect("=>")
            on_right = self.claim()
            return TagFamily(on_left, on_right)
        return ConstantFamily(self.claim())

    # -- script names

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """One item or more, separated by ","."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def declare(self, kind: str) -> str:
        """A new name of the kind."""
        at = self.pos
        name = self.expect_ident(_SCRIPT_NAMES[kind][1])
        if name in self.declared:
            raise ParseError(f"duplicate name {name!r}", *self.loc(at))
        self.declared[name] = kind
        return name

    def reference(self, kind: str) -> str:
        """A name declared as the kind."""
        at = self.pos
        name = self.expect_ident(_SCRIPT_NAMES[kind][2])
        self.require_at(kind, name, at)
        return name

    def require(self, kind: str, name: str, loc: tuple[int, int]) -> None:
        if self.declared.get(name) == kind:
            return
        if kind == "actor" and name == DEFAULT_ACTOR and not self.actors:
            return   # a script without actors judges as the default actor
        raise ParseError(f"{_SCRIPT_NAMES[kind][0]} {name!r} is not declared", *loc)

    def require_at(self, kind: str, name: str, at: int) -> None:
        """require, reported at the token at index at, whose location is
        worked out only if the name is not declared as the kind."""
        if self.declared.get(name) != kind:
            self.require(kind, name, self.loc(at))

    def require_claim(self, claim: Claim, loc: tuple[int, int]) -> None:
        for atom in sorted(atoms_of_claim(claim)):
            self.require("claim", atom, loc)

    def require_judged(self, judged: Judgement | Hypothesis, loc: tuple[int, int]) -> None:
        self.require_claim(judged.claim, loc)
        self.require("actor", judged.actor, loc)

    def require_tree(self, tree: ProofTree) -> None:
        """Every name in a proof tree is declared.  A node's own arguments
        are checked first, then its stated sequent, then its premises; each
        is reported at the node's rule token."""
        loc = tree.loc or (0, 0)
        args = tree.args
        if isinstance(args, AssumeArgs):
            self.require_claim(args.claim, loc)
            if args.actor is not None:
                self.require("actor", args.actor, loc)
            for h in args.context:
                self.require_judged(h, loc)
        else:
            kinds, _, read = _RULE_SYNTAX[tree.rule]
            for kind, value in zip([k for k in kinds if k != "tree"], read(args)):
                if kind == "claim":
                    self.require_claim(value, loc)
                elif kind == "family":
                    for claim in family_claims(value):
                        self.require_claim(claim, loc)
                elif kind == "relation":
                    self.require("relation", value, loc)
                elif kind in ("source", "target"):
                    self.require("actor", value, loc)
        if tree.stated is not None:
            for h in tree.stated.hypotheses:
                self.require_judged(h, loc)
            self.require_judged(tree.stated.conclusion, loc)
        for premise in tree.premises:
            self.require_tree(premise)

    # -- scripts

    def script(self) -> Script:
        claims: list[str] = []
        relations: list[TrustRelation] = []
        proofs: list[ProofDecl] = []
        models: list[ModelDecl] = []
        queries: list[QueryDecl] = []
        sounds: list[SoundDecl] = []
        compares: list[CompareDecl] = []
        while word := self.texts[self.pos]:   # "" is the eof entry
            at = self.pos
            if not _is_ident(word):
                raise ParseError(f"expected a declaration, found {word!r}", *self.loc(at))
            if self.accept("claim"):
                claims += self.comma_list(lambda: self.declare("claim"))
                self.expect(".")
            elif self.accept("actor"):
                self.actors += self.comma_list(lambda: self.declare("actor"))
                self.default_actor = _default_actor(self.actors)
                self.expect(".")
            elif self.accept("trust"):
                relations.append(self.trust_relation())
            elif self.accept("proof"):
                loc = self.loc(self.pos)
                name = self.declare("proof")
                self.expect("{")
                tree = self.tree()
                self.expect("}")
                self.require_tree(tree)
                proofs.append(ProofDecl(name, tree, loc))
            elif self.accept("model"):
                models.append(self.model_decl())
            elif self.accept("query"):
                loc = self.loc(at)
                judgement = self.judgement()
                self.require_judged(judgement, loc)
                self.expect("in")
                model = self.reference("model")
                self.expect(".")
                queries.append(QueryDecl(judgement, model, loc))
            elif self.accept("sound"):
                proof = self.reference("proof")
                self.expect("in")
                model = self.reference("model")
                self.expect(".")
                sounds.append(SoundDecl(proof, model, self.loc(at)))
            elif self.accept("compare"):
                self.expect("chain")
                chain = self.reference("relation")
                self.expect("star")
                star = self.reference("relation")
                self.expect("from")
                source = self.reference("actor")
                self.expect("to")
                target = self.reference("actor")
                self.expect(".")
                compares.append(CompareDecl(chain, star, source, target, self.loc(at)))
            else:
                raise ParseError(f"unknown declaration {word!r}", *self.loc(at))
        found = (claims, self.actors, relations, proofs, models, queries, sounds, compares)
        return Script(*map(tuple, found))

    def trust_relation(self) -> TrustRelation:
        name = self.declare("relation")
        self.expect("{")
        edges: dict[tuple[str, str], TrustEdge] = {}
        while not self.accept("}"):
            at = self.pos
            src = self.reference("actor")
            self.expect("->")
            dst = self.reference("actor")
            weight = self.weight() if self.accept("@") else _ONE
            self.expect(".")
            if (src, dst) in edges:
                raise ParseError(f"duplicate trust edge {src} -> {dst}", *self.loc(at))
            edges[src, dst] = TrustEdge(src, dst, weight)
        return TrustRelation(name, tuple(edges.values()))

    def model_decl(self) -> ModelDecl:
        loc = self.loc(self.pos)
        name = self.declare("model")
        uses = self.comma_list(lambda: self.reference("relation")) if self.accept("uses") else []
        self.expect("{")
        assignments: dict[str, tuple[WeightedWitness, ...]] = {}
        while not self.accept("}"):
            at = self.pos
            claim = self.reference("claim")
            if claim in assignments:
                raise ParseError(f"claim {claim!r} assigned twice", *self.loc(at))
            self.expect("=")
            self.expect("{")
            entries: list[WeightedWitness] = []
            while not self.accept("}"):
                entries.append(self.model_entry())
            self.expect(".")
            assignments[claim] = tuple(entries)
        return ModelDecl(name, tuple(uses), tuple(assignments.items()), loc)

    def model_entry(self) -> WeightedWitness:
        """term [^actor] [@weight] ".", whose left-out actor is the default
        one, checked once the entry is read."""
        at = self.pos
        term = self.term()
        actor = self.reference("actor") if self.accept("^") else None
        weight = self.weight() if self.accept("@") else _ONE
        self.expect(".")
        if actor is None:
            actor = self.default_actor
            self.require_at("actor", actor, at)
        return WeightedWitness(term, actor, weight)


def _run(text: str, parse, *, bound: Iterable[str] = ()):
    p = _Parser(text)
    p.bind(bound)
    try:
        value = parse(p)
    except RecursionError:
        raise ParseError("nesting too deep", *p.loc(p.pos)) from None
    p.expect_eof()
    return value


def parse_claim(text: str) -> Claim:
    return _run(text, lambda p: p.claim())


def parse_term(text: str, *, var_names: Iterable[str] = ()) -> Term:
    return _run(text, lambda p: p.term(), bound=var_names)


def parse_weight_expr(text: str) -> WeightExpr:
    return _run(text, lambda p: p.weight_expr())


def parse_judgement(
    text: str, *, default_actor: str = DEFAULT_ACTOR, var_names: Iterable[str] = ()
) -> Judgement:
    def parse(p: _Parser) -> Judgement:
        p.default_actor = default_actor
        return p.judgement()

    return _run(text, parse, bound=var_names)


def parse_sequent(text: str, *, default_actor: str = DEFAULT_ACTOR) -> Sequent:
    def parse(p: _Parser) -> Sequent:
        p.default_actor = default_actor
        return p.sequent()

    return _run(text, parse)


def parse_script(text: str) -> Script:
    return _run(text, lambda p: p.script())

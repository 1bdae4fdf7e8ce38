"""Surface syntax for the veracity logic.

One tokenizer and one recursive-descent parser cover claims, witness terms,
weight transformers, judgements, sequents, proof trees, and whole script
files.  Script files (.vlp) declare claims, actors, trust relations, proofs,
models, and the queries to run against them; `#` starts a line comment.

The tokenizer scans each line with one regex, which works because no token
spans a newline: strings exclude "\\n" and comments stop at it.  Only "\\n"
ends a line; the other line breaks str.splitlines knows (form feed and the
rest) are unexpected characters, as any character no token starts with.
Tokens are plain tuples.  No operator's text equals the text of an
identifier, number or string, so the parser's cursor tells an operator or a
keyword by its text alone.

Parsing is total: any input produces either a value or a ParseError carrying
a line and column.  The render functions are the inverse direction and keep
parentheses minimal; round-tripping a rendered value re-parses to an
alpha-equivalent one.

The surface form of each proof rule but assume is defined in exactly one row
of _RULE_SYNTAX; parsing, rendering and the declaration check of script
proofs all walk that row.  The kernel's checking rules live in
kernel._RULES.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .core import (
    ARG,
    And,
    Apply,
    Arg,
    AssumeArgs,
    Atom,
    Atomic,
    AndElimArgs,
    Bottom,
    BottomElimArgs,
    Claim,
    ClaimFamily,
    Claimhood,
    Const,
    ConstantFamily,
    CasesOf,
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
    as_weight,
    atoms_of_claim,
    family_claims,
    format_weight,
    is_neg,
)

DEFAULT_ACTOR = "default"
_ONE = Fraction(1)   # the default weight, shared rather than rebuilt


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer

_UNICODE_OPS = {
    "∧": "/\\",   # conjunction
    "∨": "\\/",   # disjunction
    "→": "->",    # implication
    "¬": "~",     # negation
    "⊥": "_|_",   # falsity
    "λ": "\\",    # lambda
    "⊢": "|-",    # turnstile
    "∈": ":",     # membership
    "·": "*",     # product
}

# One scan per line.  Leading blanks belong to the token, so they need no
# match of their own; a comment ends the line; anything else that is not
# blank is an error.  Trailing blanks match nothing, and finditer skips them.
_LINE_SCAN = re.compile(
    r"""
    [\ \t\r]*
    (?:
      (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
    | (?P<op>/\\|\\/|->|=>|\|-|_\|_
        | [()\{\}\[\],.:;^@|=*~\\])
    | (?P<unicode_op>[∧∨→¬⊥λ⊢∈·])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
    | (?P<string>"(?:[^"\\\n]|\\["\\])*")
    | (?P<comment>\#)
    | (?P<bad>[^\ \t\r])
    )
    """,
    re.VERBOSE,
).finditer


class Token(NamedTuple):
    kind: str   # ident | number | string | op | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__   # a Token without NamedTuple's Python-level __new__
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _LINE_SCAN(chars):
            kind = m.lastgroup
            if kind == "comment":
                break
            lexeme = m[kind]
            if kind == "bad":
                raise ParseError(f"unexpected character {lexeme!r}", line, m.end())
            if kind == "unicode_op":
                append(new(Token, ("op", _UNICODE_OPS[lexeme], line, m.end())))
            else:
                append(new(Token, (kind, lexeme, line, m.start(kind) + 1)))
    append(new(Token, ("eof", "", line, len(chars) + 1)))
    return tokens


def _decode_string(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _encode_string(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# Script declarations


@dataclass(frozen=True)
class ProofDecl:
    name: str
    tree: ProofTree
    loc: tuple[int, int]


@dataclass(frozen=True)
class ModelEntry:
    term: Term
    actor: str
    weight: Weight


@dataclass(frozen=True)
class ModelDecl:
    name: str
    uses: tuple[str, ...]
    assignments: tuple[tuple[str, tuple[ModelEntry, ...]], ...]
    loc: tuple[int, int]


@dataclass(frozen=True)
class QueryDecl:
    judgement: Judgement
    model: str
    loc: tuple[int, int]


@dataclass(frozen=True)
class SoundDecl:
    proof: str
    model: str
    loc: tuple[int, int]


@dataclass(frozen=True)
class CompareDecl:
    chain: str
    star: str
    source: str
    target: str
    loc: tuple[int, int]


@dataclass(frozen=True)
class Script:
    claims: tuple[str, ...] = ()
    actors: tuple[str, ...] = ()
    relations: tuple[TrustRelation, ...] = ()
    proofs: tuple[ProofDecl, ...] = ()
    models: tuple[ModelDecl, ...] = ()
    queries: tuple[QueryDecl, ...] = ()
    sounds: tuple[SoundDecl, ...] = ()
    compares: tuple[CompareDecl, ...] = ()

    @property
    def default_actor(self) -> str:
        if len(self.actors) == 1:
            return self.actors[0]
        return DEFAULT_ACTOR

    def relation(self, name: str) -> Optional[TrustRelation]:
        for rel in self.relations:
            if rel.name == name:
                return rel
        return None

    def proof(self, name: str) -> Optional[ProofDecl]:
        for p in self.proofs:
            if p.name == name:
                return p
        return None

    def model(self, name: str) -> Optional[ModelDecl]:
        for m in self.models:
            if m.name == name:
                return m
        return None


# ---------------------------------------------------------------------------
# Parser

_RULE_NAMES = {r.value for r in Rule}

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


def _needs_comma(kinds: tuple[str, ...], k: int) -> bool:
    return k > 0 and kinds[k] != "weight" and kinds[k - 1] not in _SELF_ENDING


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        # The names bound where the parser stands, each with the number of
        # enclosing binders that bind it.  Binders bind and unbind beside
        # the call that parses their body, not in a helper around it, so a
        # nesting level costs the same frames and "nesting too deep" is
        # reported where it always was.
        self.bound: dict[str, int] = {}

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

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    # at, accept and expect take an operator or a keyword and compare texts
    # only: no operator's text is the text of an identifier, number, string
    # or eof.  A matched token is never eof, so stepping past it needs no
    # check.

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text == text:
            self.pos += 1
            return tok
        raise ParseError(f"expected {text!r}, found {self._describe(tok)}", tok.line, tok.col)

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "ident":
            self.pos += 1
            return tok
        raise ParseError(f"expected {what}, found {self._describe(tok)}", tok.line, tok.col)

    def expect_eof(self) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            raise ParseError(f"unexpected {self._describe(tok)}", tok.line, tok.col)

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    # -- weights

    def weight(self) -> Weight:
        tok = self.tokens[self.pos]
        if tok.kind != "number":
            raise ParseError(f"expected a weight, found {self._describe(tok)}", tok.line, tok.col)
        self.advance()
        try:
            return as_weight(tok.text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad weight {tok.text!r}: {exc}", tok.line, tok.col) from None

    def weight_expr(self) -> WeightExpr:
        expr = self.weight_factor()
        while self.accept("*"):
            expr = Mul(expr, self.weight_factor())
        return expr

    def weight_factor(self) -> WeightExpr:
        tok = self.tokens[self.pos]
        if tok.kind == "number":
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
        raise ParseError(
            f"expected a weight expression, found {self._describe(tok)}", tok.line, tok.col
        )

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
        tok = self.tokens[self.pos]
        if self.accept("_|_"):
            return Bottom()
        if self.accept("("):
            inner = self.claim()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.advance()
            return Atomic(tok.text)
        raise ParseError(f"expected a claim, found {self._describe(tok)}", tok.line, tok.col)

    # -- witness terms

    def term(self) -> Term:
        if self.at("\\"):
            return self.lambda_term()
        return self.application()

    def lambda_term(self) -> Term:
        self.expect("\\")
        param = self.expect_ident("a parameter name").text
        self.expect(".")
        self.bind((param,))
        body = self.term()
        self.unbind((param,))
        if self.accept("@"):
            return Lambda(param, body, self.weight_expr())
        return Lambda(param, body)

    def application(self) -> Term:
        term = self.primary()
        while (tok := self.tokens[self.pos]).kind == "ident" or tok.text == "(":
            term = Apply(term, self.primary())
        return term

    def primary(self) -> Term:
        tok = self.tokens[self.pos]
        if self.accept("("):
            first = self.term()
            if self.accept(","):
                second = self.term()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        if tok.kind != "ident":
            raise ParseError(f"expected a term, found {self._describe(tok)}", tok.line, tok.col)
        name = tok.text
        # Constructor names bind only to an immediately adjacent "(", so an
        # identifier i applied to a parenthesized argument (written "i (x)")
        # stays an application.
        nxt = self.peek(1)
        fused = nxt.text == "(" and nxt.line == tok.line and nxt.col == tok.col + len(tok.text)
        if name in ("i", "j") and fused:
            self.advance()
            self.expect("(")
            inner = self.term()
            self.expect(")")
            return TagL(inner) if name == "i" else TagR(inner)
        if name == "cases" and fused:
            self.advance()
            self.expect("(")
            scrutinee = self.term()
            self.expect(",")
            lv = self.expect_ident("a binder").text
            self.expect(".")
            self.bind((lv,))
            lbody = self.term()
            self.unbind((lv,))
            self.expect(",")
            rv = self.expect_ident("a binder").text
            self.expect(".")
            self.bind((rv,))
            rbody = self.term()
            self.unbind((rv,))
            self.expect(")")
            return CasesOf(scrutinee, lv, lbody, rv, rbody)
        if name == "split" and fused:
            self.advance()
            self.expect("(")
            scrutinee = self.term()
            self.expect(",")
            fv = self.expect_ident("a binder").text
            self.expect(".")
            sv = self.expect_ident("a binder").text
            if fv == sv:
                raise ParseError("split binders must be distinct", tok.line, tok.col)
            self.expect(".")
            self.bind((fv, sv))
            body = self.term()
            self.unbind((fv, sv))
            self.expect(")")
            return SplitOf(scrutinee, fv, sv, body)
        self.advance()
        if name in self.bound:
            if self.at("{"):
                raise ParseError("provenance belongs on atoms, not bound variables", tok.line, tok.col)
            return Var(name)
        if self.at("{"):
            return Atom(name, self.provenance())
        return Atom(name)

    def provenance(self) -> Provenance:
        self.expect("{")
        fields: dict[str, str] = {}
        while not self.accept("}"):
            key_tok = self.expect_ident("a provenance field")
            if key_tok.text not in ("who", "where", "when", "how"):
                raise ParseError(
                    f"unknown provenance field {key_tok.text!r}", key_tok.line, key_tok.col
                )
            if key_tok.text in fields:
                raise ParseError(
                    f"duplicate provenance field {key_tok.text!r}", key_tok.line, key_tok.col
                )
            self.expect("=")
            val_tok = self.tokens[self.pos]
            if val_tok.kind != "string":
                raise ParseError(
                    f"expected a quoted string, found {self._describe(val_tok)}",
                    val_tok.line,
                    val_tok.col,
                )
            self.advance()
            fields[key_tok.text] = _decode_string(val_tok.text)
            if not self.at("}"):
                self.expect(",")
        return Provenance(**fields)

    # -- judgements and sequents

    def judgement(self, default_actor: str, names: Iterable[str] = ()) -> Judgement:
        """A judgement whose witness may use names as bound variables."""
        self.bind(names)
        witness = self.term()
        self.unbind(names)
        actor = default_actor
        weight = _ONE
        if self.accept("^"):
            actor = self.expect_ident("an actor").text
        if self.accept("@"):
            weight = self.weight()
        self.expect(":")
        claim = self.claim()
        return Judgement(witness, actor, weight, claim)

    def hypothesis(self, default_actor: str) -> Hypothesis:
        var = self.expect_ident("a hypothesis variable").text
        actor = default_actor
        weight = _ONE
        if self.accept("^"):
            actor = self.expect_ident("an actor").text
        if self.accept("@"):
            weight = self.weight()
        self.expect(":")
        claim = self.claim()
        return Hypothesis(var, actor, weight, claim)

    def sequent(self, default_actor: str) -> Sequent:
        hyps: list[Hypothesis] = []
        if not self.at("|-"):
            hyps.append(self.hypothesis(default_actor))
            while self.accept(","):
                hyps.append(self.hypothesis(default_actor))
        self.expect("|-")
        conclusion = self.judgement(default_actor, [h.var for h in hyps])
        return Sequent(tuple(hyps), conclusion)

    # -- proof trees

    def tree(self, default_actor: str) -> ProofTree:
        node = self.tree_node(default_actor)
        if self.accept("stating"):
            self.expect("(")
            stated = self.sequent(default_actor)
            self.expect(")")
            node = ProofTree(node.rule, node.premises, node.args, stated, node.loc)
        return node

    def tree_node(self, default_actor: str) -> ProofTree:
        tok = self.tokens[self.pos]
        if tok.kind != "ident" or tok.text not in _RULE_NAMES:
            raise ParseError(
                f"expected a rule name, found {self._describe(tok)}", tok.line, tok.col
            )
        rule = Rule(tok.text)
        loc = (tok.line, tok.col)
        self.advance()

        if rule is Rule.ASSUME:
            var = self.expect_ident("a hypothesis variable").text
            actor: Optional[str] = None
            if self.accept("^"):
                actor = self.expect_ident("an actor").text
            self.expect(":")
            claim = self.claim()
            context: tuple[Hypothesis, ...] = ()
            if self.accept("under"):
                self.expect("(")
                hyps = [self.hypothesis(default_actor)]
                while self.accept(","):
                    hyps.append(self.hypothesis(default_actor))
                self.expect(")")
                context = tuple(hyps)
            args = AssumeArgs(var, claim, actor, context)
            return ProofTree(rule, (), args, None, loc)

        kinds, build, _ = _RULE_SYNTAX[rule]
        premises: list[ProofTree] = []
        values: list[object] = []
        self.expect("(")
        for k, kind in enumerate(kinds):
            if _needs_comma(kinds, k):
                self.expect(",")
            (premises if kind == "tree" else values).append(self.rule_arg(kind, default_actor))
        self.expect(")")
        return ProofTree(rule, tuple(premises), build(*values), None, loc)

    def rule_arg(self, kind: str, default_actor: str) -> object:
        if kind == "tree":
            return self.tree(default_actor)
        if kind == "claim":
            return self.claim()
        if kind == "family":
            return self.family()
        if kind == "weight":
            return self.weight_expr() if self.accept(",") else ARG
        name = self.expect_ident(_NAME_KINDS[kind]).text
        if kind in _SELF_ENDING:
            self.expect(_SELF_ENDING[kind])
        return name

    def family(self) -> ClaimFamily:
        if self.at("i") and self.peek(1).text == "=>":
            self.advance()
            self.expect("=>")
            on_left = self.claim()
            self.expect("|")
            self.expect("j")
            self.expect("=>")
            on_right = self.claim()
            return TagFamily(on_left, on_right)
        return ConstantFamily(self.claim())

    # -- scripts

    def script(self) -> Script:
        claims: list[str] = []
        actors: list[str] = []
        relations: list[TrustRelation] = []
        proofs: list[ProofDecl] = []
        models: list[ModelDecl] = []
        queries: list[QueryDecl] = []
        sounds: list[SoundDecl] = []
        compares: list[CompareDecl] = []

        # Every name declared so far, with the kind of thing it names, so
        # each check is one lookup.
        declared: dict[str, str] = {}

        def default_actor() -> str:
            return actors[0] if len(actors) == 1 else DEFAULT_ACTOR

        def declare(tok: Token, kind: str) -> str:
            if tok.text in declared:
                raise ParseError(f"duplicate name {tok.text!r}", tok.line, tok.col)
            declared[tok.text] = kind
            return tok.text

        def check_claim_declared(claim: Claim, loc: tuple[int, int]) -> None:
            missing = sorted(a for a in atoms_of_claim(claim) if declared.get(a) != "claim")
            if missing:
                raise ParseError(f"claim {missing[0]!r} is not declared", loc[0], loc[1])

        def check_actor_declared(name: str, loc: tuple[int, int]) -> None:
            if name == DEFAULT_ACTOR and not actors:
                return
            if declared.get(name) != "actor":
                raise ParseError(f"actor {name!r} is not declared", loc[0], loc[1])

        def check_relation_declared(name: str, loc: tuple[int, int]) -> None:
            if declared.get(name) != "relation":
                raise ParseError(f"trust relation {name!r} is not declared", loc[0], loc[1])

        def check_model_declared(name: str, loc: tuple[int, int]) -> None:
            if declared.get(name) != "model":
                raise ParseError(f"model {name!r} is not declared", loc[0], loc[1])

        def check_hypothesis(h: Hypothesis, loc: tuple[int, int]) -> None:
            check_claim_declared(h.claim, loc)
            check_actor_declared(h.actor, loc)

        def check_tree(tree: ProofTree) -> None:
            loc = tree.loc or (0, 0)
            args = tree.args
            if isinstance(args, AssumeArgs):
                check_claim_declared(args.claim, loc)
                if args.actor is not None:
                    check_actor_declared(args.actor, loc)
                for h in args.context:
                    check_hypothesis(h, loc)
            else:
                kinds, _, read = _RULE_SYNTAX[tree.rule]
                for kind, value in zip([k for k in kinds if k != "tree"], read(args)):
                    if kind == "claim":
                        check_claim_declared(value, loc)
                    elif kind == "family":
                        for claim in family_claims(value):
                            check_claim_declared(claim, loc)
                    elif kind == "relation":
                        check_relation_declared(value, loc)
                    elif kind in ("source", "target"):
                        check_actor_declared(value, loc)
            if tree.stated is not None:
                for h in tree.stated.hypotheses:
                    check_hypothesis(h, loc)
                check_claim_declared(tree.stated.conclusion.claim, loc)
                check_actor_declared(tree.stated.conclusion.actor, loc)
            for premise in tree.premises:
                check_tree(premise)

        while self.tokens[self.pos].kind != "eof":
            tok = self.tokens[self.pos]
            if tok.kind != "ident":
                raise ParseError(
                    f"expected a declaration, found {self._describe(tok)}", tok.line, tok.col
                )
            word = tok.text
            if word == "claim":
                self.advance()
                claims.append(declare(self.expect_ident("a claim name"), "claim"))
                while self.accept(","):
                    claims.append(declare(self.expect_ident("a claim name"), "claim"))
                self.expect(".")
            elif word == "actor":
                self.advance()
                actors.append(declare(self.expect_ident("an actor name"), "actor"))
                while self.accept(","):
                    actors.append(declare(self.expect_ident("an actor name"), "actor"))
                self.expect(".")
            elif word == "trust":
                self.advance()
                name_tok = self.expect_ident("a trust relation name")
                name = declare(name_tok, "relation")
                self.expect("{")
                edges: list[TrustEdge] = []
                seen: set[tuple[str, str]] = set()
                while not self.accept("}"):
                    src_tok = self.expect_ident("an actor")
                    check_actor_declared(src_tok.text, (src_tok.line, src_tok.col))
                    self.expect("->")
                    dst_tok = self.expect_ident("an actor")
                    check_actor_declared(dst_tok.text, (dst_tok.line, dst_tok.col))
                    weight = _ONE
                    if self.accept("@"):
                        weight = self.weight()
                    self.expect(".")
                    key = (src_tok.text, dst_tok.text)
                    if key in seen:
                        raise ParseError(
                            f"duplicate trust edge {key[0]} -> {key[1]}",
                            src_tok.line,
                            src_tok.col,
                        )
                    seen.add(key)
                    edges.append(TrustEdge(src_tok.text, dst_tok.text, weight))
                relations.append(TrustRelation(name, tuple(edges)))
            elif word == "proof":
                self.advance()
                name_tok = self.expect_ident("a proof name")
                name = declare(name_tok, "proof")
                self.expect("{")
                tree = self.tree(default_actor())
                self.expect("}")
                check_tree(tree)
                proofs.append(ProofDecl(name, tree, (name_tok.line, name_tok.col)))
            elif word == "model":
                self.advance()
                name_tok = self.expect_ident("a model name")
                name = declare(name_tok, "model")
                uses: list[str] = []
                if self.accept("uses"):
                    rel_tok = self.expect_ident("a trust relation")
                    check_relation_declared(rel_tok.text, (rel_tok.line, rel_tok.col))
                    uses.append(rel_tok.text)
                    while self.accept(","):
                        rel_tok = self.expect_ident("a trust relation")
                        check_relation_declared(rel_tok.text, (rel_tok.line, rel_tok.col))
                        uses.append(rel_tok.text)
                self.expect("{")
                assignments: list[tuple[str, tuple[ModelEntry, ...]]] = []
                assigned: set[str] = set()
                while not self.accept("}"):
                    claim_tok = self.expect_ident("a claim name")
                    if declared.get(claim_tok.text) != "claim":
                        raise ParseError(
                            f"claim {claim_tok.text!r} is not declared",
                            claim_tok.line,
                            claim_tok.col,
                        )
                    if claim_tok.text in assigned:
                        raise ParseError(
                            f"claim {claim_tok.text!r} assigned twice",
                            claim_tok.line,
                            claim_tok.col,
                        )
                    assigned.add(claim_tok.text)
                    self.expect("=")
                    self.expect("{")
                    entries: list[ModelEntry] = []
                    while not self.accept("}"):
                        entry_tok = self.tokens[self.pos]
                        term = self.term()
                        actor = default_actor()
                        weight = _ONE
                        if self.accept("^"):
                            actor_tok = self.expect_ident("an actor")
                            check_actor_declared(actor_tok.text, (actor_tok.line, actor_tok.col))
                            actor = actor_tok.text
                        if self.accept("@"):
                            weight = self.weight()
                        self.expect(".")
                        check_actor_declared(actor, (entry_tok.line, entry_tok.col))
                        entries.append(ModelEntry(term, actor, weight))
                    self.expect(".")
                    assignments.append((claim_tok.text, tuple(entries)))
                models.append(
                    ModelDecl(name, tuple(uses), tuple(assignments), (name_tok.line, name_tok.col))
                )
            elif word == "query":
                self.advance()
                j = self.judgement(default_actor())
                check_claim_declared(j.claim, (tok.line, tok.col))
                check_actor_declared(j.actor, (tok.line, tok.col))
                self.expect("in")
                model_tok = self.expect_ident("a model name")
                check_model_declared(model_tok.text, (model_tok.line, model_tok.col))
                self.expect(".")
                queries.append(QueryDecl(j, model_tok.text, (tok.line, tok.col)))
            elif word == "sound":
                self.advance()
                proof_tok = self.expect_ident("a proof name")
                if declared.get(proof_tok.text) != "proof":
                    raise ParseError(
                        f"proof {proof_tok.text!r} is not declared", proof_tok.line, proof_tok.col
                    )
                self.expect("in")
                model_tok = self.expect_ident("a model name")
                check_model_declared(model_tok.text, (model_tok.line, model_tok.col))
                self.expect(".")
                sounds.append(SoundDecl(proof_tok.text, model_tok.text, (tok.line, tok.col)))
            elif word == "compare":
                self.advance()
                self.expect("chain")
                chain_tok = self.expect_ident("a trust relation")
                check_relation_declared(chain_tok.text, (chain_tok.line, chain_tok.col))
                self.expect("star")
                star_tok = self.expect_ident("a trust relation")
                check_relation_declared(star_tok.text, (star_tok.line, star_tok.col))
                self.expect("from")
                src_tok = self.expect_ident("an actor")
                check_actor_declared(src_tok.text, (src_tok.line, src_tok.col))
                self.expect("to")
                dst_tok = self.expect_ident("an actor")
                check_actor_declared(dst_tok.text, (dst_tok.line, dst_tok.col))
                self.expect(".")
                compares.append(
                    CompareDecl(
                        chain_tok.text, star_tok.text, src_tok.text, dst_tok.text,
                        (tok.line, tok.col),
                    )
                )
            else:
                raise ParseError(f"unknown declaration {word!r}", tok.line, tok.col)

        return Script(
            tuple(claims),
            tuple(actors),
            tuple(relations),
            tuple(proofs),
            tuple(models),
            tuple(queries),
            tuple(sounds),
            tuple(compares),
        )


# ---------------------------------------------------------------------------
# Public parse entry points


def _run(text: str, parse, *, to_eof: bool = True, bound: Iterable[str] = ()):
    p = _Parser(tokenize(text))
    p.bind(bound)
    try:
        value = parse(p)
    except RecursionError:
        tok = p.peek()
        raise ParseError("nesting too deep", tok.line, tok.col) from None
    if to_eof:
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
    return _run(text, lambda p: p.judgement(default_actor), bound=var_names)


def parse_sequent(text: str, *, default_actor: str = DEFAULT_ACTOR) -> Sequent:
    return _run(text, lambda p: p.sequent(default_actor))


def parse_script(text: str) -> Script:
    return _run(text, lambda p: p.script())


# ---------------------------------------------------------------------------
# Rendering


def render_weight_expr(expr: WeightExpr, min_prec: int = 0) -> str:
    if isinstance(expr, Arg):
        return "z"
    if isinstance(expr, Const):
        return format_weight(expr.value)
    if isinstance(expr, Min):
        return f"min({render_weight_expr(expr.left)}, {render_weight_expr(expr.right)})"
    if isinstance(expr, Mul):
        text = f"{render_weight_expr(expr.left, 1)}*{render_weight_expr(expr.right, 2)}"
        return f"({text})" if min_prec > 1 else text
    raise TypeError(f"not a weight expression: {expr!r}")


def render_claim(claim: Claim, min_prec: int = 0) -> str:
    if isinstance(claim, Bottom):
        return "_|_"
    if isinstance(claim, Atomic):
        return claim.name
    if is_neg(claim):
        text = "~" + render_claim(claim.antecedent, 4)
        return f"({text})" if min_prec > 4 else text
    if isinstance(claim, Implies):
        text = f"{render_claim(claim.antecedent, 2)} -> {render_claim(claim.consequent, 1)}"
        return f"({text})" if min_prec > 1 else text
    if isinstance(claim, Or):
        text = f"{render_claim(claim.left, 2)} \\/ {render_claim(claim.right, 3)}"
        return f"({text})" if min_prec > 2 else text
    if isinstance(claim, And):
        text = f"{render_claim(claim.left, 3)} /\\ {render_claim(claim.right, 4)}"
        return f"({text})" if min_prec > 3 else text
    raise TypeError(f"not a claim: {claim!r}")


def _render_provenance(p: Provenance) -> str:
    parts = []
    for key in ("who", "where", "when", "how"):
        value = getattr(p, key)
        if value is not None:
            parts.append(f"{key}={_encode_string(value)}")
    return "{" + ", ".join(parts) + "}"


def render_term(term: Term, min_prec: int = 0) -> str:
    if isinstance(term, Atom):
        if term.provenance is not None:
            return term.name + _render_provenance(term.provenance)
        return term.name
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Pair):
        return f"({render_term(term.fst)},{render_term(term.snd)})"
    if isinstance(term, TagL):
        return f"i({render_term(term.value)})"
    if isinstance(term, TagR):
        return f"j({render_term(term.value)})"
    if isinstance(term, CasesOf):
        return (
            f"cases({render_term(term.scrutinee)}, "
            f"{term.left_var}.{render_term(term.left_body)}, "
            f"{term.right_var}.{render_term(term.right_body)})"
        )
    if isinstance(term, SplitOf):
        return (
            f"split({render_term(term.scrutinee)}, "
            f"{term.fst_var}.{term.snd_var}.{render_term(term.body)})"
        )
    if isinstance(term, Apply):
        text = f"{render_term(term.fn, 1)} {render_term(term.arg, 2)}"
        return f"({text})" if min_prec > 1 else text
    if isinstance(term, Lambda):
        if term.weight_fn == ARG:
            text = f"\\{term.param}.{render_term(term.body)}"
        else:
            text = (
                f"\\{term.param}.({render_term(term.body)})"
                f"@{render_weight_expr(term.weight_fn)}"
            )
        return f"({text})" if min_prec > 0 else text
    raise TypeError(f"not a term: {term!r}")


def render_judgement(j: Judgement) -> str:
    text = render_term(j.witness)
    # A bare lambda witness would capture a following @weight as its own
    # annotation, so parenthesize it when the judgement weight is printed
    # with no ^actor in between.
    if isinstance(j.witness, Lambda) and j.actor == DEFAULT_ACTOR and j.weight != 1:
        text = f"({text})"
    if j.actor != DEFAULT_ACTOR:
        text += f"^{j.actor}"
    if j.weight != 1:
        text += f"@{format_weight(j.weight)}"
    return f"{text} : {render_claim(j.claim)}"


def render_hypothesis(h: Hypothesis) -> str:
    text = h.var
    if h.actor != DEFAULT_ACTOR:
        text += f"^{h.actor}"
    if h.weight != 1:
        text += f"@{format_weight(h.weight)}"
    return f"{text} : {render_claim(h.claim)}"


def render_sequent(s: Sequent) -> str:
    conclusion = render_judgement(s.conclusion)
    if not s.hypotheses:
        return f"|- {conclusion}"
    hyps = ", ".join(render_hypothesis(h) for h in s.hypotheses)
    return f"{hyps} |- {conclusion}"


def render_claimhood(c: Claimhood) -> str:
    return f"{render_claim(c.claim)} a veracity claim"


def render_family(family: ClaimFamily) -> str:
    if isinstance(family, ConstantFamily):
        return render_claim(family.claim)
    return f"i => {render_claim(family.on_left)} | j => {render_claim(family.on_right)}"


def _render_rule_arg(kind: str, value) -> str:
    if kind == "tree":
        return render_proof_tree(value)
    if kind == "claim":
        return render_claim(value)
    if kind == "family":
        return render_family(value)
    if kind == "weight":
        return "" if value == ARG else f", {render_weight_expr(value)}"
    if kind == "binder":
        return f"{value}."
    if kind == "source":
        return f"{value} -> "
    return value


def render_proof_tree(tree: ProofTree) -> str:
    args = tree.args
    if tree.rule is Rule.ASSUME:
        assert isinstance(args, AssumeArgs)
        text = f"assume {args.var}"
        if args.actor is not None and args.actor != DEFAULT_ACTOR:
            text += f"^{args.actor}"
        text += f" : {render_claim(args.claim)}"
        if args.context:
            text += " under (" + ", ".join(render_hypothesis(h) for h in args.context) + ")"
    elif tree.rule in _RULE_SYNTAX:
        kinds, _, read = _RULE_SYNTAX[tree.rule]
        premises, values = iter(tree.premises), iter(read(args))
        text = f"{Rule(tree.rule).value}("
        for k, kind in enumerate(kinds):
            if _needs_comma(kinds, k):
                text += ", "
            text += _render_rule_arg(kind, next(premises if kind == "tree" else values))
        text += ")"
    else:
        raise TypeError(f"not a proof tree rule: {tree.rule!r}")
    if tree.stated is not None:
        text += f" stating ({render_sequent(tree.stated)})"
    return text


def render(value: object) -> str:
    """Render any surface value back to its concrete syntax."""
    if isinstance(value, (Bottom, Atomic, And, Or, Implies)):
        return render_claim(value)
    if isinstance(
        value, (Atom, Var, Pair, TagL, TagR, Lambda, Apply, CasesOf, SplitOf)
    ):
        return render_term(value)
    if isinstance(value, (Arg, Const, Mul, Min)):
        return render_weight_expr(value)
    if isinstance(value, Fraction):
        return format_weight(value)
    if isinstance(value, Judgement):
        return render_judgement(value)
    if isinstance(value, Hypothesis):
        return render_hypothesis(value)
    if isinstance(value, Sequent):
        return render_sequent(value)
    if isinstance(value, Claimhood):
        return render_claimhood(value)
    if isinstance(value, ProofTree):
        return render_proof_tree(value)
    if isinstance(value, (ConstantFamily, TagFamily)):
        return render_family(value)
    raise TypeError(f"no renderer for {value!r}")

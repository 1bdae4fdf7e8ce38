"""Surface syntax for the veracity logic.

One tokenizer and one recursive-descent parser cover claims, witness terms,
weight transformers, judgements, sequents, proof trees, and whole script
files.  Script files (.vlp) declare claims, actors, trust relations, proofs,
models, and the queries to run against them; `#` starts a line comment.

The parser holds one token at a time, its current symbol (Wirth, Compiler
Construction, 1996, ch. 4): the token's lexeme and the offset in the text
at which it starts.  Each step takes the next match of one regex over the
text, which skips blanks and newlines and takes a token, a comment, which
it drops, or a Unicode operator, which it maps to its ASCII spelling there;
the regex knows nothing of trust relations.  Equal lexemes are one string,
shared through a table that belongs to the parse and is freed with it.  No
operator's text equals the text of an identifier, number or string, so the
parser tells an operator or a keyword by its text alone, and any other
token's kind by its first character.  A method that locates a token after
reading past it keeps the token's offset in the text.  Line and column are
worked out from an offset only where a location is kept or an error is
raised, by a locator that counts newlines onward from the offset it located
last.  The parser asks for offsets in increasing order except on an error,
so a parse counts each newline once and keeps no index of lines.
No token spans a newline: strings exclude "\\n" and comments stop at it.
Only "\\n" ends a line; the other line breaks str.splitlines knows (form
feed and the rest) are unexpected characters, as any character no token
starts with.  So no token is held but the current one, and parse_script and
parse_term hold little more than the values they return.  A bad character
is an error wherever it is, ahead of any other: one the scan has not
reached when the parser fails is looked for then.

Trust edges, the bulk of a large script, mostly become no tokens.  After
a trust relation's "{", the parser reads the run of plain edges that
follows, source -> target [@ weight] ".", straight from the text, one
anchored regex match per edge, with the checks the token path makes, in
its order and at the same places.  If it read any, the scan starts again
at the run's end.  Whatever the run does not cover (an edge written with
"→", a malformed edge, and the rest of the body after either) is read as
tokens, so the token path alone defines every error.  A body met as a
term, as in "query trust x { a -> b. } in M.", is read as tokens like any
other text.  A trust relation keeps, as its edge index, the dict the
parser refused duplicate edges with, keyed by the parse's own actor-name
strings.  tokenize runs the parser's scan to the end of the text and gives
every token, every edge's included, as Token tuples with their kinds and
positions.

Claims are parsed by precedence climbing (Pratt 1973): one loop reads all
three binary operators and recurses only for the right side of "->", a
parenthesis or a negation.  Input nested past the interpreter's stack is a
ParseError "nesting too deep".  Each parse shares its leaves: one Atomic
per declared claim name, one Var per bound name, one Atom per name written
without provenance.  A script parse also shares what a stated sequent or an
under context reads: each hypothesis, judgement, claim, witness term and
weight transformer read there is looked up in a table of the proof being
read, by its class and the identities of its fields, so a sequent that
restates the hypotheses, claim and witness of the one below holds that
one's values, not copies of them (hash-consing, Filliatre & Conchon 2006).
The fields are already one object per value, lexemes, leaves, weights and
values that came through the table, so the lookup needs no hash or walk of
the value.  An entry costs about 150 bytes, so the table starts afresh at
each proof and goes with the proof's end.  Nothing is shared between two
proofs or two parses, or by parse_term and the other entry points, which
build every value afresh.  A script proof or query is walked
for an undeclared name, to report the first in a fixed order, only if the
parser noted one.

Parsing is total: any input produces either a value or a ParseError carrying
a line and column.  The render functions are the inverse direction and keep
parentheses minimal; round-tripping a rendered value re-parses to an
alpha-equivalent one.  For that, a binder with an atom of its own name in
its scope is rendered renamed, since the text cannot tell the atom from the
bound variable.

The surface form of each proof rule but assume is defined in exactly one row
of _RULE_SYNTAX; parsing, rendering and the declaration check of script
proofs all walk that row.  The kernel's checking rules live in
kernel._RULES.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from struct import Struct
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar, Union

from .core import (
    _ONE,
    ARG,
    BOTTOM,
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
    TrustRelation,
    Var,
    Weight,
    WeightExpr,
    WeightedWitness,
    as_weight,
    atoms_of_claim,
    family_claims,
    format_weight,
    is_neg,
    scopes,
    subterms,
)

DEFAULT_ACTOR = "default"


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

# What a trust edge may hold between two of its tokens: blanks, newlines
# and comments.  A comment runs to the end of its line, so a pattern that
# has to go on past a gap cannot backtrack into a comment and read a token
# out of it.
_GAP = r"[\ \t\r\n]* (?: \#[^\n]* (?![^\n]) [\ \t\r\n]* )*"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*'*"

# One scan over the whole text.  Each match skips blanks and newlines, then
# takes a token (group 1), a comment (group 2), a Unicode operator (group
# 3), the end of the text, or a bad character (group 4).  Identifiers and
# the frequent one-character operators come first; "_|_" comes before
# identifiers, and each operator before the one-character prefix it
# extends.  One alternative matches wherever the skip stops, so finditer
# never steps over a character unseen and the skip is never backtracked
# into; that is why the pattern needs no possessive quantifier or atomic
# group, which Python 3.10's re lacks.
_SCAN = re.compile(
    rf"""
    [\ \t\r\n]*
    (?:
      ( _\|_ | {_IDENT} | [().,:^@*~\[\];{{}}]
      | \d+(?:\.\d+)?(?:/\d+)?
      | -> | /\\ | \\/? | =>? | \|-?
      | "(?:[^"\\\n]|\\["\\])*"
      )
    | (\#[^\n]*)
    | ([∧∨→¬⊥λ⊢∈·])
    | \Z
    | (.)
    )
    """,
    re.VERBOSE | re.DOTALL,
).finditer

# A plain trust edge, source -> target [@ weight] ".", from one gap before
# it to its ".": groups 1 and 2 are the actors, group 3 the weight.  The
# weight is read by maximal munch, as the scan reads a number: the
# lookahead takes it whole and the reference cannot give any of it back,
# so "0.5" is never read as "0" and ".".
_EDGE = re.compile(
    rf"""
    {_GAP} ({_IDENT}) {_GAP} -> {_GAP} ({_IDENT}) {_GAP}
    (?: @ {_GAP} (?=(\d+(?:\.\d+)?(?:/\d+)?))\3 {_GAP} )?
    \.
    """,
    re.VERBOSE,
)

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _unexpected(text: str, m: re.Match) -> ParseError:
    """The error of the bad character a match of _SCAN stopped at."""
    return ParseError(f"unexpected character {m[4]!r}", *_Locator(text)(m.start(4)))


def _is_ident(text: str) -> bool:
    return text[:1] in _IDENT_START and text != "_|_"


def _kind(text: str) -> str:
    """The kind of a lexeme, told by its first character."""
    if not text:
        return "eof"
    if text[0] == '"':
        return "string"
    if text[0].isdecimal():   # \d: any Unicode decimal digit
        return "number"
    return "ident" if _is_ident(text) else "op"


class _Locator:
    """The line and column, both from 1, of offsets into one text.  Each
    call counts the newlines from the offset it located last to the one
    asked for, so offsets asked in increasing order cost one pass over the
    text in all, and no per-line list or copy is kept.  An earlier offset,
    which only an error asks for, counts again from the start."""

    __slots__ = ("text", "offset", "line", "start")

    def __init__(self, text: str) -> None:
        self.text = text
        # The offset located last, its line, and where that line starts.
        self.offset = self.start = 0
        self.line = 1

    def __call__(self, offset: int) -> tuple[int, int]:
        last = self.offset
        if offset < last:
            last = self.start = 0
            self.line = 1
        newlines = self.text.count("\n", last, offset)
        if newlines:
            self.line += newlines
            self.start = self.text.rfind("\n", last, offset) + 1
        self.offset = offset
        return self.line, offset + 1 - self.start


def _describe(text: str) -> str:
    return repr(text) if text else "end of input"


class Token(NamedTuple):
    kind: str   # ident | number | string | op | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of text, each with its kind and position, ending with an
    eof token: the parser's scan, stepped to the end of the text, with the
    tokens of the trust edges the parser reads straight from the text."""
    p = _Parser(text)
    tokens = []
    while True:
        tokens.append(Token(_kind(p.token), p.token, *p.loc()))
        if not p.token:
            return tokens
        p.advance()


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
class ModelDecl:
    name: str
    uses: tuple[str, ...]
    assignments: tuple[tuple[str, tuple[WeightedWitness, ...]], ...]
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

    def __post_init__(self) -> None:
        # Each relation, proof and model by its kind and name, so a lookup
        # is one probe; kept beside the fields as TrustRelation keeps
        # _weights.
        index = {(type(d), d.name): d for d in (*self.relations, *self.proofs, *self.models)}
        object.__setattr__(self, "_by_name", index)

    @property
    def default_actor(self) -> str:
        return _default_actor(self.actors)

    def relation(self, name: str) -> Optional[TrustRelation]:
        return self._by_name.get((TrustRelation, name))

    def proof(self, name: str) -> Optional[ProofDecl]:
        return self._by_name.get((ProofDecl, name))

    def model(self, name: str) -> Optional[ModelDecl]:
        return self._by_name.get((ModelDecl, name))


def _default_actor(actors: Sequence[str]) -> str:
    """The actor a judgement without ^actor belongs to: a script's sole
    actor, or DEFAULT_ACTOR."""
    return actors[0] if len(actors) == 1 else DEFAULT_ACTOR


# ---------------------------------------------------------------------------
# Parser

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

# What each name-valued kind is called in a parse error, the kind of script
# name it must be declared as, if any, and the token that ends a kind that
# is not followed by ",".
_NAME_KINDS = {
    "binder": ("a binder", None),
    "var": ("the discharged variable", None),
    "relation": ("a trust relation", "relation"),
    "source": ("an actor", "actor"),
    "target": ("an actor", "actor"),
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

# The binary claim operators: how tightly each binds and what it builds.
# Conjunction and disjunction group to the left, implication to the right.
_CLAIM_OPS = {"->": (1, Implies), "\\/": (2, Or), "/\\": (3, And)}

_T = TypeVar("_T")

# For n fields, the pack of the ids of a class and its n fields into one
# bytes object, a key of a proof's sharing table: 8 bytes an id, where a
# tuple of boxed ids took 40.
_PACK_IDS = tuple(Struct(f"{n + 1}Q").pack for n in range(7))


# Each rule's arguments in order, as (kind, whether "," comes before it).
_ARG_LAYOUT: dict[Rule, tuple[tuple[str, bool], ...]] = {
    rule: tuple(
        (kind, k > 0 and kind != "weight" and kinds[k - 1] not in _SELF_ENDING)
        for k, kind in enumerate(kinds)
    )
    for rule, (kinds, _, _) in _RULE_SYNTAX.items()
}


class _Leaves(dict):
    """One leaf per name, built the first time the name is looked up."""

    def __init__(self, build: Callable[[str], Any]) -> None:
        self.build = build

    def __missing__(self, name: str) -> Any:
        leaf = self[name] = self.build(name)
        return leaf


class _Parser:
    """A recursive-descent parser over one text, holding its current token
    only: token, the lexeme, "" at the end of the text, and start, the
    offset in the text at which it starts.  advance() steps to the next
    token, so each method reads its tokens in order, one at a time.

    A method that locates a token it has read past keeps the token's
    offset: declarations, proof nodes, provenance fields, trust edges,
    model assignments and entries, and the split and provenance errors of
    primary.  family() looks past an "i" for "=>" by a scan of its own,
    and trust_relation() starts the scan again where a run of edges it read
    straight from the text ends.  A RecursionError is "nesting too deep"
    at the current token.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        # The matches of _SCAN past the current token, and the table equal
        # lexemes are shared through, one for the parse.
        self.matches = _SCAN(text)
        self.share = {}.setdefault
        # Only proof nodes, declarations and errors ask for a location.
        self.locate = _Locator(text)
        # Each weight literal converted so far, by its text.
        self.weights: dict[str, Weight] = {}
        # The names bound where the parser stands, each with the number of
        # enclosing binders that bind it.
        self.bound: dict[str, int] = {}
        # The leaves this parse shares.
        self.var_leaves = _Leaves(Var)
        self.atom_leaves = _Leaves(Atom)
        self.claim_leaves: dict[str, Atomic] = {}
        # The values of the script proof being read, read inside stated
        # sequents and under contexts, each by its class and the identities
        # of its fields (see make), and None outside a script proof.  shared
        # is that table while such a value is read, and None elsewhere.
        self.table: Optional[dict[tuple, Any]] = None
        self.shared: Optional[dict[tuple, Any]] = None
        # False once the proof or query being read names an undeclared name.
        self.all_declared = True
        # The actor of a judgement or hypothesis written without ^actor;
        # a script resets it where it declares actors.
        self.default_actor = DEFAULT_ACTOR
        # A script's actors so far, and every name it has declared so far
        # with its kind, a key of _SCRIPT_NAMES.
        self.actors: list[str] = []
        self.declared: dict[str, str] = {}
        # The script's actors keyed by themselves, so that an edge read
        # from the text is keyed by the parse's own name strings.
        self.actor_names: dict[str, str] = {}
        # The current token, the first of the text once advance() reads it.
        self.token = ""
        self.start = 0
        self.advance()

    # -- token plumbing

    def advance(self) -> None:
        """Step to the next token.  A bad character is a ParseError here,
        where it is met.  No caller steps past the end of the text."""
        for m in self.matches:
            lexeme = m[1]
            if lexeme is not None:
                self.token = self.share(lexeme, lexeme)
                self.start = m.start(1)
                return
            # Not a token: a comment (2), which adds nothing, a Unicode
            # operator, a bad character or the end of the text.
            kind = m.lastindex
            if kind == 3:
                lexeme = _UNICODE_OPS[m[3]]
                self.token = self.share(lexeme, lexeme)
                self.start = m.start(3)
                return
            if kind == 4:
                raise _unexpected(self.text, m)
            if kind is None:
                self.token = ""
                self.start = len(self.text)
                return

    def unexpected(self) -> Optional[ParseError]:
        """The error of the first bad character from the current token on,
        if there is one."""
        for m in _SCAN(self.text, self.start):
            if m[4] is not None:
                return _unexpected(self.text, m)
        return None

    def loc(self) -> tuple[int, int]:
        """The line and column of the current token."""
        return self.locate(self.start)

    # accept and expect take an operator or a keyword and compare texts
    # only: no operator's text is the text of an identifier, number, string
    # or eof.

    def accept(self, text: str) -> bool:
        if self.token == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> None:
        if self.token != text:
            raise ParseError(f"expected {text!r}, found {_describe(self.token)}", *self.loc())
        self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        found = self.token
        if found[:1] not in _IDENT_START or found == "_|_":
            raise ParseError(f"expected {what}, found {_describe(found)}", *self.loc())
        self.advance()
        return found

    def expect_eof(self) -> None:
        if self.token:
            raise ParseError(f"unexpected {_describe(self.token)}", *self.loc())

    def make(self, cls: Callable[..., _T], *fields: Any) -> _T:
        """cls(*fields), or, while values are shared, the value of the table
        with the class cls and these very fields.  Each field is a shared
        lexeme, leaf or weight, or a value that came through the table, so
        an equal value read again finds the one read first with no hash or
        walk of its own."""
        table = self.shared
        if table is None:
            return cls(*fields)
        key = _PACK_IDS[len(fields)](id(cls), *map(id, fields))
        value = table.get(key)
        if value is None:
            # value keeps its fields, so no id in key is reused while
            # the entry lives.
            value = table[key] = cls(*fields)
        return value

    # -- weights

    def weight(self) -> Weight:
        text = self.token
        value = self.weights.get(text)
        if value is None:
            if not text[:1].isdecimal():
                raise ParseError(f"expected a weight, found {_describe(text)}", *self.loc())
            value = self.new_weight(text, self.start)
        self.advance()
        return value

    def new_weight(self, text: str, offset: int) -> Weight:
        """The weight a number not read before stands for, its text starting
        at offset."""
        try:
            value = as_weight(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad weight {text!r}: {exc}", *self.locate(offset)) from None
        self.weights[text] = value
        return value

    def weight_expr(self) -> WeightExpr:
        expr = self.weight_factor()
        while self.accept("*"):
            expr = self.make(Mul, expr, self.weight_factor())
        return expr

    def weight_factor(self) -> WeightExpr:
        if self.token[:1].isdecimal():
            return self.make(Const, self.weight())
        if self.accept("z"):
            return ARG
        if self.accept("min"):
            self.expect("(")
            left = self.weight_expr()
            self.expect(",")
            right = self.weight_expr()
            self.expect(")")
            return self.make(Min, left, right)
        if self.accept("("):
            expr = self.weight_expr()
            self.expect(")")
            return expr
        raise ParseError(f"expected a weight expression, found {_describe(self.token)}", *self.loc())

    # -- claims

    def claim(self) -> Claim:
        # Each operand of /\ or \/ waits, with its operator, for an operator
        # that binds no tighter; ->, the loosest, takes the rest as its
        # right side.
        waiting: list[tuple[Claim, int, type]] = []
        operand = self.claim_unary()
        while True:
            op = _CLAIM_OPS.get(self.token)
            tightness = op[0] if op else 0
            while waiting and waiting[-1][1] >= tightness:
                left, _, build = waiting.pop()
                operand = self.make(build, left, operand)
            if op is None:
                return operand
            self.advance()
            if op[1] is Implies:
                return self.make(Implies, operand, self.claim())
            waiting.append((operand, *op))
            operand = self.claim_unary()

    def claim_unary(self) -> Claim:
        found = self.token
        leaf = self.claim_leaves.get(found)
        if leaf is not None:
            self.advance()
            return leaf
        if found == "~":
            self.advance()
            return self.make(Implies, self.claim_unary(), BOTTOM)
        if found == "(":
            self.advance()
            inner = self.claim()
            self.expect(")")
            return inner
        if found[:1] not in _IDENT_START:
            raise ParseError(f"expected a claim, found {_describe(found)}", *self.loc())
        self.advance()
        if found == "_|_":
            return BOTTOM
        self.all_declared = False
        return Atomic(found)

    # -- witness terms

    def term(self) -> Term:
        if self.token == "\\":
            self.advance()
            param = self.expect_ident("a parameter name")
            self.expect(".")
            body = self.scoped_term((param,))
            if self.accept("@"):
                return self.make(Lambda, param, body, self.weight_expr())
            return self.make(Lambda, param, body)
        term = self.primary()
        while True:
            found = self.token
            if found != "(" and (found[:1] not in _IDENT_START or found == "_|_"):
                return term
            term = self.make(Apply, term, self.primary())

    def scoped_term(self, names: tuple[str, ...]) -> Term:
        """A term in which names are bound."""
        bound = self.bound
        for name in names:
            bound[name] = bound.get(name, 0) + 1
        body = self.term()
        for name in names:
            left = bound[name] - 1
            if left:
                bound[name] = left
            else:
                del bound[name]
        return body

    def primary(self) -> Term:
        name = self.token
        if name == "(":
            self.advance()
            first = self.term()
            if self.accept(","):
                second = self.term()
                self.expect(")")
                return self.make(Pair, first, second)
            self.expect(")")
            return first
        if name[:1] not in _IDENT_START or name == "_|_":
            raise ParseError(f"expected a term, found {_describe(name)}", *self.loc())
        start = self.start
        self.advance()
        follow = self.token
        # Constructor names bind only to an immediately adjacent "(", so an
        # identifier i applied to a parenthesized argument (written "i (x)")
        # stays an application.
        if follow == "(" and name in _CONSTRUCTORS and self.start == start + len(name):
            self.advance()
            scrutinee = self.term()
            if name == "i" or name == "j":
                self.expect(")")
                return self.make(TagL if name == "i" else TagR, scrutinee)
            self.expect(",")
            if name == "cases":
                lv = self.expect_ident("a binder")
                self.expect(".")
                lbody = self.scoped_term((lv,))
                self.expect(",")
                rv = self.expect_ident("a binder")
                self.expect(".")
                rbody = self.scoped_term((rv,))
                self.expect(")")
                return self.make(CasesOf, scrutinee, lv, lbody, rv, rbody)
            fv = self.expect_ident("a binder")
            self.expect(".")
            sv = self.expect_ident("a binder")
            if fv == sv:
                raise ParseError("split binders must be distinct", *self.locate(start))
            self.expect(".")
            body = self.scoped_term((fv, sv))
            self.expect(")")
            return self.make(SplitOf, scrutinee, fv, sv, body)
        if follow == "{":
            if name in self.bound:
                raise ParseError("provenance belongs on atoms, not bound variables", *self.locate(start))
            return Atom(name, self.provenance())
        return self.var_leaves[name] if name in self.bound else self.atom_leaves[name]

    def provenance(self) -> Provenance:
        self.expect("{")
        fields: dict[str, str] = {}
        while not self.accept("}"):
            at = self.start
            key = self.expect_ident("a provenance field")
            if key not in ("who", "where", "when", "how"):
                raise ParseError(f"unknown provenance field {key!r}", *self.locate(at))
            if key in fields:
                raise ParseError(f"duplicate provenance field {key!r}", *self.locate(at))
            self.expect("=")
            value = self.token
            if value[:1] != '"':
                raise ParseError(f"expected a quoted string, found {_describe(value)}", *self.loc())
            self.advance()
            fields[key] = _decode_string(value)
            if self.token != "}":
                self.expect(",")
        return Provenance(**fields)

    # -- judgements and sequents

    def judgement(self, names: tuple[str, ...] = ()) -> Judgement:
        """A judgement whose witness may use names as bound variables."""
        witness = self.scoped_term(names)
        return self.make(Judgement, witness, *self.actor_weight_claim())

    def hypothesis(self) -> Hypothesis:
        var = self.expect_ident("a hypothesis variable")
        return self.make(Hypothesis, var, *self.actor_weight_claim())

    def actor_weight_claim(self) -> tuple[str, Weight, Claim]:
        """The [^actor] [@weight] ":" claim that ends a judgement or a
        hypothesis."""
        actor = self.expect_ident("an actor") if self.accept("^") else self.default_actor
        self.note("actor", actor)
        weight = self.weight() if self.accept("@") else _ONE
        self.expect(":")
        return actor, weight, self.claim()

    def sequent(self) -> Sequent:
        hyps = [] if self.token == "|-" else self.comma_list(self.hypothesis)
        self.expect("|-")
        conclusion = self.judgement(tuple(h.var for h in hyps))
        return Sequent(tuple(hyps), conclusion)

    # -- proof trees

    def tree(self) -> ProofTree:
        rule = _RULE_BY_NAME.get(self.token)
        if rule is None:
            raise ParseError(f"expected a rule name, found {_describe(self.token)}", *self.loc())
        loc = self.loc()
        self.advance()
        if rule is Rule.ASSUME:
            premises, args = (), self.assume_args()
        else:
            subtrees: list[ProofTree] = []
            values: list[object] = []
            self.expect("(")
            for kind, comma in _ARG_LAYOUT[rule]:
                if comma:
                    self.expect(",")
                if kind == "tree":
                    subtrees.append(self.tree())
                else:
                    values.append(self.rule_arg(kind))
            self.expect(")")
            premises, args = tuple(subtrees), _RULE_SYNTAX[rule][1](*values)
        stated = None
        if self.accept("stating"):
            self.expect("(")
            # Set and reset here, not through a helper, so that a stated
            # sequent nests as deep as before it was shared.
            self.shared = self.table
            stated = self.sequent()
            self.shared = None
            self.expect(")")
        return ProofTree(rule, premises, args, stated, loc)

    def assume_args(self) -> AssumeArgs:
        var = self.expect_ident("a hypothesis variable")
        actor = self.note("actor", self.expect_ident("an actor")) if self.accept("^") else None
        self.expect(":")
        claim = self.claim()
        context: list[Hypothesis] = []
        if self.accept("under"):
            self.expect("(")
            self.shared = self.table
            context = self.comma_list(self.hypothesis)
            self.shared = None
            self.expect(")")
        return AssumeArgs(var, claim, actor, tuple(context))

    def rule_arg(self, kind: str) -> object:
        """A rule argument that is not a premise."""
        if kind == "claim":
            return self.claim()
        if kind == "family":
            return self.family()
        if kind == "weight":
            return self.weight_expr() if self.accept(",") else ARG
        what, declared_as = _NAME_KINDS[kind]
        name = self.expect_ident(what)
        if declared_as:
            self.note(declared_as, name)
        if kind in _SELF_ENDING:
            self.expect(_SELF_ENDING[kind])
        return name

    def family(self) -> ClaimFamily:
        if self.token == "i":
            # A tag family if "=>" follows: the first match of the scan past
            # the "i" that is not a comment.
            follow = next(m for m in _SCAN(self.text, self.start + 1) if m.lastindex != 2)
            if follow[1] == "=>":
                self.advance()
                self.advance()
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
        at = self.start
        name = self.expect_ident(_SCRIPT_NAMES[kind][1])
        if name in self.declared:
            raise ParseError(f"duplicate name {name!r}", *self.locate(at))
        self.declared[name] = kind
        if kind == "claim":
            self.claim_leaves[name] = Atomic(name)
        return name

    def reference(self, kind: str) -> str:
        """A name declared as the kind."""
        start = self.start
        name = self.expect_ident(_SCRIPT_NAMES[kind][2])
        self.require(kind, name, start)
        return name

    def is_declared(self, kind: str, name: str) -> bool:
        # A script without actors judges as the default actor.
        return self.declared.get(name) == kind or (
            kind == "actor" and name == DEFAULT_ACTOR and not self.actors
        )

    def note(self, kind: str, name: str) -> str:
        """name, noting whether it is declared as the kind."""
        if not self.is_declared(kind, name):
            self.all_declared = False
        return name

    def require(self, kind: str, name: str, where: Union[int, tuple[int, int]]) -> None:
        """A ParseError at where, a location or the offset in the text of a
        token, located only then, unless name is declared as the kind."""
        if not self.is_declared(kind, name):
            loc = self.locate(where) if isinstance(where, int) else where
            raise ParseError(f"{_SCRIPT_NAMES[kind][0]} {name!r} is not declared", *loc)

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
                elif kind in _NAME_KINDS and _NAME_KINDS[kind][1]:
                    self.require(_NAME_KINDS[kind][1], value, loc)
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
        while word := self.token:   # "" is the end of the text
            at = self.start
            if not _is_ident(word):
                raise ParseError(f"expected a declaration, found {word!r}", *self.loc())
            if self.accept("claim"):
                claims += self.comma_list(lambda: self.declare("claim"))
                self.expect(".")
            elif self.accept("actor"):
                named = self.comma_list(lambda: self.declare("actor"))
                self.actors += named
                self.actor_names.update(zip(named, named))
                self.default_actor = _default_actor(self.actors)
                self.expect(".")
            elif self.accept("trust"):
                relations.append(self.trust_relation())
            elif self.accept("proof"):
                loc = self.loc()
                name = self.declare("proof")
                self.expect("{")
                self.all_declared = True
                self.table = {}
                tree = self.tree()
                self.table = None
                self.expect("}")
                if not self.all_declared:
                    self.require_tree(tree)
                proofs.append(ProofDecl(name, tree, loc))
            elif self.accept("model"):
                models.append(self.model_decl())
            elif self.accept("query"):
                loc = self.locate(at)
                self.all_declared = True
                judgement = self.judgement()
                if not self.all_declared:
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
                sounds.append(SoundDecl(proof, model, self.locate(at)))
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
                compares.append(CompareDecl(chain, star, source, target, self.locate(at)))
            else:
                raise ParseError(f"unknown declaration {word!r}", *self.loc())
        found = (claims, self.actors, relations, proofs, models, queries, sounds, compares)
        return Script(*map(tuple, found))

    def trust_relation(self) -> TrustRelation:
        name = self.declare("relation")
        start = self.start + 1   # past the "{"
        self.expect("{")
        # Each edge's weight by (source, target): the duplicate check here,
        # then the relation's index.
        edges: dict[tuple[str, str], Weight] = {}
        end = self.run_edges(edges, start)
        if end > start:
            self.matches = _SCAN(self.text, end)
            self.advance()
        while not self.accept("}"):
            at = self.start
            src = self.reference("actor")
            self.expect("->")
            dst = self.reference("actor")
            weight = self.weight() if self.accept("@") else _ONE
            self.expect(".")
            if (src, dst) in edges:
                raise ParseError(f"duplicate trust edge {src} -> {dst}", *self.locate(at))
            edges[src, dst] = weight
        return TrustRelation._from_index(name, edges)

    def run_edges(self, edges: dict[tuple[str, str], Weight], at: int) -> int:
        """Read into edges the run of plain edges from offset at on, straight
        from the text, with the checks of the token path above in its order,
        each error at the token it would be reported at there; return the
        offset where the run ends."""
        # A script without actors judges as the default actor.
        names = self.actor_names or {DEFAULT_ACTOR: DEFAULT_ACTOR}
        weights, text = self.weights, self.text
        while m := _EDGE.match(text, at):
            at = m.end()
            src, dst, number = m.groups()
            source, target = names.get(src), names.get(dst)
            # names holds every declared actor, so these raise.
            if source is None:
                self.require("actor", src, m.start(1))
            if target is None:
                self.require("actor", dst, m.start(2))
            if number is None:
                weight = _ONE
            elif (weight := weights.get(number)) is None:
                weight = self.new_weight(number, m.start(3))
            if (source, target) in edges:
                raise ParseError(f"duplicate trust edge {src} -> {dst}", *self.locate(m.start(1)))
            edges[source, target] = weight
        return at

    def model_decl(self) -> ModelDecl:
        loc = self.loc()
        name = self.declare("model")
        uses = self.comma_list(lambda: self.reference("relation")) if self.accept("uses") else []
        self.expect("{")
        assignments: dict[str, tuple[WeightedWitness, ...]] = {}
        while not self.accept("}"):
            at = self.start
            claim = self.reference("claim")
            if claim in assignments:
                raise ParseError(f"claim {claim!r} assigned twice", *self.locate(at))
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
        start = self.start
        term = self.term()
        actor = self.reference("actor") if self.accept("^") else None
        weight = self.weight() if self.accept("@") else _ONE
        self.expect(".")
        if actor is None:
            actor = self.default_actor
            self.require("actor", actor, start)
        return WeightedWitness(term, actor, weight)


# ---------------------------------------------------------------------------
# Public parse entry points


def _run(text: str, parse):
    p = _Parser(text)
    try:
        value = parse(p)
        p.expect_eof()
        return value
    except ParseError as exc:
        # A bad character anywhere is the error, before any the parser
        # finds ahead of it.
        raise p.unexpected() or exc from None
    except RecursionError:
        raise p.unexpected() or ParseError("nesting too deep", *p.loc()) from None


def parse_claim(text: str) -> Claim:
    return _run(text, lambda p: p.claim())


def parse_term(text: str, *, var_names: Iterable[str] = ()) -> Term:
    names = tuple(var_names)
    return _run(text, lambda p: p.scoped_term(names))


def parse_weight_expr(text: str) -> WeightExpr:
    return _run(text, lambda p: p.weight_expr())


def parse_judgement(
    text: str, *, default_actor: str = DEFAULT_ACTOR, var_names: Iterable[str] = ()
) -> Judgement:
    names = tuple(var_names)

    def parse(p: _Parser) -> Judgement:
        p.default_actor = default_actor
        return p.judgement(names)

    return _run(text, parse)


def parse_sequent(text: str, *, default_actor: str = DEFAULT_ACTOR) -> Sequent:
    def parse(p: _Parser) -> Sequent:
        p.default_actor = default_actor
        return p.sequent()

    return _run(text, parse)


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
    """term's surface text.  A binder with an atom of its own name in its
    scope would read back as binding that atom, so such a binder is shown
    renamed with primes, as substitution renames; every other binder keeps
    its name."""
    try:
        return _render_term(term, min_prec, {}, None)
    except _AtomUnderItsName:
        return _render_term(term, min_prec, {}, _Renames(term))


class _AtomUnderItsName(Exception):
    pass


def _render_term(
    term: Term, min_prec: int, shown: dict[str, Optional[str]], renames: Optional[_Renames]
) -> str:
    # shown maps each bound name in scope to the name its binder is shown
    # as.  Each binder updates it in place, not through a helper, so a level
    # of nesting costs one frame, no more than parsing it did.
    if isinstance(term, Atom):
        if shown.get(term.name) == term.name:
            raise _AtomUnderItsName
        if term.provenance is not None:
            return term.name + _render_provenance(term.provenance)
        return term.name
    if isinstance(term, Var):
        return term.name if renames is None else shown.get(term.name) or term.name
    if isinstance(term, Pair):
        fst = _render_term(term.fst, 0, shown, renames)
        return f"({fst},{_render_term(term.snd, 0, shown, renames)})"
    if isinstance(term, TagL):
        return f"i({_render_term(term.value, 0, shown, renames)})"
    if isinstance(term, TagR):
        return f"j({_render_term(term.value, 0, shown, renames)})"
    if isinstance(term, CasesOf):
        scrutinee = _render_term(term.scrutinee, 0, shown, renames)
        lv, rv = term.left_var, term.right_var
        outer = shown.get(lv)
        shown[lv] = left_as = lv if renames is None else renames.show(lv, shown)
        left = _render_term(term.left_body, 0, shown, renames)
        shown[lv] = outer
        outer = shown.get(rv)
        shown[rv] = right_as = rv if renames is None else renames.show(rv, shown)
        right = _render_term(term.right_body, 0, shown, renames)
        shown[rv] = outer
        return f"cases({scrutinee}, {left_as}.{left}, {right_as}.{right})"
    if isinstance(term, SplitOf):
        scrutinee = _render_term(term.scrutinee, 0, shown, renames)
        fv, sv = term.fst_var, term.snd_var
        outer = shown.get(fv), shown.get(sv)
        shown[fv] = fst_as = fv if renames is None else renames.show(fv, shown)
        shown[sv] = snd_as = sv if renames is None else renames.show(sv, shown)
        body = _render_term(term.body, 0, shown, renames)
        shown[fv], shown[sv] = outer
        return f"split({scrutinee}, {fst_as}.{snd_as}.{body})"
    if isinstance(term, Apply):
        fn = _render_term(term.fn, 1, shown, renames)
        text = f"{fn} {_render_term(term.arg, 2, shown, renames)}"
        return f"({text})" if min_prec > 1 else text
    if isinstance(term, Lambda):
        param = term.param
        outer = shown.get(param)
        shown[param] = param_as = param if renames is None else renames.show(param, shown)
        body = _render_term(term.body, 0, shown, renames)
        shown[param] = outer
        if isinstance(term.weight_fn, Arg):
            text = f"\\{param_as}.{body}"
        else:
            text = f"\\{param_as}.({body})@{render_weight_expr(term.weight_fn)}"
        return f"({text})" if min_prec > 0 else text
    raise TypeError(f"not a term: {term!r}")


class _Renames:
    """Which binders of a term render_term shows renamed: those with an
    atom of their own name in their scope.  Such a binder is shown with
    primes added until the name is one that no atom, variable or binder of
    the term has and no other binder in scope is shown as, so it captures
    nothing and nothing captures its variables."""

    def __init__(self, term: Term) -> None:
        self.names: set[str] = set()
        # Per binder, in the order render_term meets them: rename it?
        self.clashes: list[bool] = []
        self._mark(term, {})
        self._next = iter(self.clashes).__next__

    def _mark(self, term: Term, around: dict[str, list[int]]) -> None:
        # around: per name, the indices in clashes of its binders around term.
        if isinstance(term, (Atom, Var)):
            self.names.add(term.name)
            if isinstance(term, Atom):
                # Inner ones first; an outer one is marked when an inner one is.
                for index in reversed(around.get(term.name, ())):
                    if self.clashes[index]:
                        break
                    self.clashes[index] = True
            return
        for sub, binders in zip(subterms(term), scopes(term)):
            for b in binders:
                self.names.add(b)
                around.setdefault(b, []).append(len(self.clashes))
                self.clashes.append(False)
            self._mark(sub, around)
            for b in binders:
                around[b].pop()

    def show(self, binder: str, shown: dict[str, Optional[str]]) -> str:
        """The name to show the next binder as, binder being its own."""
        shown[binder] = None   # the binder it shadows may be shown alike
        if not self._next():
            return binder
        name = binder + "'"
        while name in self.names or name in shown.values():
            name += "'"
        return name


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
        premises, values = iter(tree.premises), iter(_RULE_SYNTAX[tree.rule][2](args))
        text = f"{Rule(tree.rule).value}("
        for kind, comma in _ARG_LAYOUT[tree.rule]:
            if comma:
                text += ", "
            text += _render_rule_arg(kind, next(premises if kind == "tree" else values))
        text += ")"
    else:
        raise TypeError(f"not a proof tree rule: {tree.rule!r}")
    if tree.stated is not None:
        text += f" stating ({render_sequent(tree.stated)})"
    return text


"""Surface syntax for the veracity logic.

One tokenizer and one recursive-descent parser cover claims, witness terms,
weight transformers, judgements, sequents, proof trees, and whole script
files.  Script files (.vlp) declare claims, actors, trust relations, proofs,
models, and the queries to run against them; `#` starts a line comment.

The scanner runs one regex over the text, a chunk of tokens at a time as
the parser reads them (the input buffer of Aho, Lam, Sethi & Ullman,
Compilers, 2nd ed., 3.2).  Each match skips blanks and newlines and takes
a token, a comment, which it drops, or a Unicode operator, which it maps
to its ASCII spelling there; the regex knows nothing of trust relations.
The scan keeps two parallel sequences: a list of each lexeme's text,
Unicode operators in their ASCII spelling, and an array of the offset at
which it starts, of 4-byte unsigned ints ("I") for a text shorter than
2**32 characters and of 8-byte ones ("q") otherwise.  Equal lexemes are
one string, shared through a table that belongs to the parse
and is freed with it, so a token costs 12 bytes, a list slot and an array
slot, plus one string per distinct lexeme; a string and a boxed int of its
own per token took 60 to 78 bytes.  The parser's cursor reads those texts
directly.  No operator's text equals the text of
an identifier, number or string, so the cursor tells an operator or a
keyword by its text alone, and any other token's kind by its first
character.  Line and column are worked out from an offset only where a
location is kept or an error is raised, by a locator that counts newlines
onward from the offset it located last.  The parser asks for offsets in
increasing order except on an error, so a parse counts each newline once
and keeps no index of lines.
No token spans a newline: strings exclude "\\n" and comments stop at it.
Only "\\n" ends a line; the other line breaks str.splitlines knows (form
feed and the rest) are unexpected characters, as any character no token
starts with.

Trust edges, the bulk of a large script, mostly become no tokens.  After
a trust relation's "{", the parser reads the run of plain edges that
follows, source -> target [@ weight] ".", straight from the text, one
anchored regex match per edge, with the checks the token path makes, in
its order and at the same places.  If it read any, it drops the window's
tokens from the cursor on and the scan goes on from the run's end.  A
refill stops a few tokens past each "{" it scans, so a run is never
scanned far as tokens before the parser skips it.  Whatever the run does
not cover (an edge written with "→", a malformed edge, and the rest of
the body after either) is read as tokens, so the token path alone defines
every error.  A body met as a term, as in "query trust x { a -> b. } in
M.", is read as tokens like any other text.  tokenize gives the whole
scan, every edge's tokens included, as Token tuples with their kinds and
positions.

The parser holds a window of the scan, not the whole of it: it scans on
whenever its cursor comes near the window's end, and drops the tokens it
has read at its release points: the start of each top-level declaration,
each proof node, each trust edge read as tokens, each witness term, each
item of a comma-separated list, hypotheses included, and each claim
operand after the first, once they are over 256 and over an eighth of
those it holds.  So a long script's or term's tokens are never all alive,
and not beside the values built from them; parse_script and parse_term
hold little more than the values they return.  A bad character is an
error wherever it is, ahead of any other: one the scan has not reached
when the parser fails is looked for then.  Dropping tokens is safe
because no token index is held across a release point; a method that
must locate a token read before a term, after it, keeps the token's
offset in the text instead, and _Parser says which.  A trust relation
keeps, as its edge index, the dict the parser refused duplicate edges
with, keyed by the parse's own actor-name strings.

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
from array import array
from dataclasses import dataclass
from itertools import islice
from struct import Struct
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar, Union

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
# takes a token (group 1), a "{" (group 2), a comment (group 3), a Unicode
# operator (group 4), the end of the text, or a bad character (group 5).
# Identifiers and the frequent one-character operators come first; "_|_"
# comes before identifiers, and each operator before the one-character
# prefix it extends.  One alternative matches wherever the skip stops, so
# finditer never steps over a character unseen and the skip is never
# backtracked into; that is why the pattern needs no possessive quantifier
# or atomic group, which Python 3.10's re lacks.
_SCAN = re.compile(
    rf"""
    [\ \t\r\n]*
    (?:
      ( _\|_ | {_IDENT} | [().,:^@*~\[\];}}]
      | \d+(?:\.\d+)?(?:/\d+)?
      | -> | /\\ | \\/? | =>? | \|-?
      | "(?:[^"\\\n]|\\["\\])*"
      )
    | (\{{)
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


def _scan(text: str) -> tuple[list[str], array]:
    """The lexemes of text, Unicode operators in their ASCII spelling, and
    their start offsets; both end with the eof entry "" at len(text).
    Equal lexemes are one string object."""
    scan = _Scan(text)
    while scan.matches is not None:
        # Each token takes a character at least, the eof entry none.
        scan.refill(len(text) + 1)
    return scan.texts, scan.starts


def _unexpected(text: str, m: re.Match) -> ParseError:
    """The error of the bad character a match of _SCAN stopped at."""
    return ParseError(f"unexpected character {m[5]!r}", *_Locator(text)(m.start(5)))


# A refill scans this many tokens past the lookahead.
_WINDOW = 256

# How many tokens past the cursor a refill check makes sure of.  It must be
# at least the most the parser reads between two checks, nine: a compare
# declaration's "." is nine past its "compare".
_LOOKAHEAD = 16

# A prefix of read tokens is dropped once it is longer than this, and than
# an eighth of the tokens held.
_RELEASE_AT = 256


class _Scan:
    """The scan of one text, held as a window: the lexemes and offsets
    scanned and not yet released, which the cursor pos indexes.

    refill() extends the window from the scan's own finditer, so the tokens
    of a long text are scanned as the cursor comes near them, not all before
    the first is read.  A refill stops _LOOKAHEAD tokens past a "{", so the
    tokens of what follows one, such as a trust relation's edges, are not
    scanned far ahead of a reader that may skip them: skip_to() drops the
    window from the cursor on and scans again from a later offset.
    release() drops the prefix before the cursor; an offset is absolute, so
    locations do not change.  No other call moves a token from its place."""

    def __init__(self, text: str) -> None:
        self.text = text
        # The lexemes of the window, ending with the eof entry "" once the
        # scan has reached it, and the offset in text at which each starts.
        self.texts: list[str] = []
        self.starts = _offsets(len(text))
        self.pos = 0
        # The table equal lexemes are shared through, one for the scan.
        self.share = {}.setdefault
        # The matches of _SCAN not read yet, None once the eof entry is in
        # the window, and the offset they go on from, as of the last chunk.
        self.matches: Optional[Iterator[re.Match]] = _SCAN(text)
        self.resume = 0
        # The cursor at which the window next needs more tokens.
        self.refill_at = 0
        self.release_at = _RELEASE_AT

    def refill(self, want: Optional[int] = None) -> None:
        """Scan on until the window holds want tokens, by default the
        _LOOKAHEAD after the cursor and _WINDOW more, or _LOOKAHEAD past a
        "{" scanned on the way, or ends with the eof entry.  A bad character
        is a ParseError here, where it is met."""
        texts, starts, share = self.texts, self.starts, self.share
        if want is None:
            want = self.pos + _LOOKAHEAD + _WINDOW
        add_text, add_start = texts.append, starts.append
        while self.matches is not None and (count := want - len(texts)) > 0:
            for m in islice(self.matches, count):
                lexeme = m[1]
                if lexeme is None:
                    break
                add_text(share(lexeme, lexeme))
                add_start(m.start(1))
            else:
                self.resume = m.end()
                continue
            # Not a token: a "{", a comment (3), which adds nothing, a
            # Unicode operator, a bad character or the end of the text.
            kind = m.lastindex
            if kind == 2:
                add_text("{")
                add_start(m.start(2))
                want = min(want, len(texts) + _LOOKAHEAD)
            elif kind == 4:
                lexeme = _UNICODE_OPS[m[4]]
                add_text(share(lexeme, lexeme))
                add_start(m.start(4))
            elif kind == 5:
                raise _unexpected(self.text, m)
            elif kind is None:
                add_text("")
                add_start(len(self.text))
                self.matches = None
        # No cursor passes the eof entry, so once it is in the window no
        # check asks for more.  A bound that stays a small int keeps the
        # checks' comparison the one CPython specializes.
        self.refill_at = len(texts) - (0 if self.matches is None else _LOOKAHEAD)

    def release(self) -> None:
        """Drop the tokens before the cursor once they are over release_at
        and over an eighth of those held.  Each drop moves the tokens left,
        and at least an eighth of them goes each time, so the moves cost
        at most eight times the tokens: linear in the text."""
        pos = self.pos
        if pos > self.release_at and pos > len(self.texts) >> 3:
            del self.texts[:pos], self.starts[:pos]
            self.refill_at -= pos
            self.pos = 0

    def skip_to(self, offset: int) -> None:
        """Drop the window from the cursor on, and scan on from offset, the
        end of text the cursor's reader has read without tokens."""
        del self.texts[self.pos:], self.starts[self.pos:]
        self.matches = _SCAN(self.text, offset)
        self.resume = offset
        self.refill()

    def unexpected(self) -> Optional[ParseError]:
        """The error of the first bad character in the part of the text the
        scan has not read, if there is one."""
        if self.matches is not None:
            for m in _SCAN(self.text, self.resume):
                if m[5] is not None:
                    return _unexpected(self.text, m)
        return None


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


def _offsets(length: int) -> array:
    """An empty array for offsets into a text of length characters: of
    4-byte unsigned ints where every offset, length included, fits one."""
    return array("I" if length < 2**32 else "q")


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
    eof token: the whole scan at once, as Token tuples, where the parser
    reads it a window at a time, and with the tokens of the trust edges the
    parser reads straight from the text."""
    texts, starts = _scan(text)
    locate = _Locator(text)
    return [Token(_kind(t), t, *locate(at)) for t, at in zip(texts, starts)]


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


class _Parser(_Scan):
    """A recursive-descent parser over one text's scan, read through the
    window of _Scan.

    Refill: a refill check, "if self.pos >= self.refill_at: self.refill()",
    scans on when the window holds fewer than _LOOKAHEAD tokens after the
    cursor, so after a check the parser may read the _LOOKAHEAD tokens past
    the cursor, and no more, before the next check.  Checks sit at each
    release point, each claim operand, weight factor, primary of a term,
    comma_list item, model assignment and provenance field, and before the
    closer that follows a nested claim, weight, rule's arguments, stated
    sequent or under context.  term(), claim() and weight_expr() return at
    most one token past their last check, and what follows one of them
    inside a judgement, hypothesis or model entry ends within nine tokens
    of it.  The longest stretch between two checks is nine tokens past the
    cursor: a compare declaration, and a query whose witness ends with a
    lambda's weight, followed by "^ P @ 1 : A in M .", whose "." is nine
    past that weight.  A refill call takes a frame of the stack, so a check
    sits just before or just after a call the parse makes anyway, at the
    same cursor.  "nesting too deep" is then
    located where a parse of the whole scan would locate it, but where a
    refill or a release falls due at the deepest frame: its own calls run
    the stack out a token earlier.

    Release: it drops the tokens it has read, in place, at its release
    points only: the start of each top-level declaration, each proof node,
    each trust edge read as tokens, each term(), each comma_list() item
    and each claim operand after the first.  A refill only appends, and
    skip_to() drops and rescans only from the cursor on, so these are the
    only places that move a token index.  So no method may hold a token
    index across a call that can reach a release point; one that does
    would read a different token, or locate an error wrongly.  tree() and
    trust_relation() take their indices after releasing.  The two methods
    that locate a token read before a term() call, after it, keep its
    offset in the text and locate that only on an error: primary, for
    "split binders must be distinct" at the split, and model_entry, for an
    undeclared default actor at the entry.  No caller of comma_list() or
    claim() holds an index across it: script() and model_decl() locate
    their declaration before the list, tree() its node before its
    arguments, and claim_unary() and actor_weight_claim() read their
    indices before the call and not after.  The methods that keep an index
    across a call (the sound and compare declarations across reference())
    call nothing that reaches a release point.
    """

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.refill()
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

    # -- token plumbing

    def loc(self, at: int) -> tuple[int, int]:
        """The line and column of the token at index at."""
        return self.locate(self.starts[at])

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
        if found[:1] not in _IDENT_START or found == "_|_":
            raise ParseError(f"expected {what}, found {_describe(found)}", *self.loc(self.pos))
        self.pos += 1
        return found

    def expect_eof(self) -> None:
        found = self.texts[self.pos]
        if found:
            raise ParseError(f"unexpected {_describe(found)}", *self.loc(self.pos))

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
        at = self.pos
        text = self.texts[at]
        value = self.weights.get(text)
        if value is None:
            if not text[:1].isdecimal():
                raise ParseError(f"expected a weight, found {_describe(text)}", *self.loc(at))
            value = self.new_weight(text, self.starts[at])
        self.pos = at + 1
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
        if self.pos >= self.refill_at:
            self.refill()
        if self.texts[self.pos][:1].isdecimal():
            return self.make(Const, self.weight())
        if self.accept("z"):
            return ARG
        if self.accept("min"):
            self.expect("(")
            left = self.weight_expr()
            self.expect(",")
            right = self.weight_expr()
            if self.pos >= self.refill_at:
                self.refill()
            self.expect(")")
            return self.make(Min, left, right)
        if self.accept("("):
            expr = self.weight_expr()
            if self.pos >= self.refill_at:
                self.refill()
            self.expect(")")
            return expr
        found = self.texts[self.pos]
        raise ParseError(f"expected a weight expression, found {_describe(found)}", *self.loc(self.pos))

    # -- claims

    def claim(self) -> Claim:
        # Each operand of /\ or \/ waits, with its operator, for an operator
        # that binds no tighter; ->, the loosest, takes the rest as its
        # right side.
        waiting: list[tuple[Claim, int, type]] = []
        if self.pos >= self.refill_at:
            self.refill()
        operand = self.claim_unary()
        while True:
            op = _CLAIM_OPS.get(self.texts[self.pos])
            tightness = op[0] if op else 0
            while waiting and waiting[-1][1] >= tightness:
                left, _, build = waiting.pop()
                operand = self.make(build, left, operand)
            if op is None:
                return operand
            self.pos += 1
            if op[1] is Implies:
                return self.make(Implies, operand, self.claim())
            waiting.append((operand, *op))
            # A release point, tested here before the call, as in term().
            if self.pos > self.release_at and self.pos > len(self.texts) >> 3:
                self.release()
            if self.pos >= self.refill_at:
                self.refill()
            operand = self.claim_unary()

    def claim_unary(self) -> Claim:
        at = self.pos
        found = self.texts[at]
        self.pos = at + 1
        leaf = self.claim_leaves.get(found)
        if leaf is not None:
            return leaf
        if found == "~":
            if self.pos >= self.refill_at:
                self.refill()
            return self.make(Implies, self.claim_unary(), BOTTOM)
        if found == "(":
            inner = self.claim()
            if self.pos >= self.refill_at:
                self.refill()
            self.expect(")")
            return inner
        if found == "_|_":
            return BOTTOM
        if found[:1] not in _IDENT_START:
            raise ParseError(f"expected a claim, found {_describe(found)}", *self.loc(at))
        self.all_declared = False
        return Atomic(found)

    # -- witness terms

    def term(self) -> Term:
        texts = self.texts
        # A release point, tested here before the call: most terms are
        # read with nothing to drop.
        if self.pos > self.release_at and self.pos > len(texts) >> 3:
            self.release()
        if texts[self.pos] == "\\":
            self.pos += 1
            param = self.expect_ident("a parameter name")
            self.expect(".")
            body = self.scoped_term((param,))
            if self.accept("@"):
                return self.make(Lambda, param, body, self.weight_expr())
            return self.make(Lambda, param, body)
        if self.pos >= self.refill_at:
            self.refill()
        term = self.primary()
        while True:
            if self.pos >= self.refill_at:
                self.refill()
            found = texts[self.pos]
            if found != "(" and (found[:1] not in _IDENT_START or found == "_|_"):
                return term
            term = self.make(Apply, term, self.primary())

    def scoped_term(self, names: tuple[str, ...]) -> Term:
        """A term in which names are bound."""
        bound = self.bound
        for name in names:
            bound[name] = bound.get(name, 0) + 1
        if self.pos >= self.refill_at:
            self.refill()
        body = self.term()
        for name in names:
            left = bound[name] - 1
            if left:
                bound[name] = left
            else:
                del bound[name]
        return body

    def primary(self) -> Term:
        texts = self.texts
        at = self.pos
        name = texts[at]
        # "(", "," and ")" are compared here; expect reads one only when it
        # is missing, for its error.
        if name == "(":
            self.pos = at + 1
            first = self.term()
            at = self.pos
            if texts[at] == ",":
                self.pos = at + 1
                second = self.term()
                if texts[self.pos] != ")":
                    self.expect(")")
                self.pos += 1
                return self.make(Pair, first, second)
            if texts[at] != ")":
                self.expect(")")
            self.pos = at + 1
            return first
        if name[:1] not in _IDENT_START or name == "_|_":
            raise ParseError(f"expected a term, found {_describe(name)}", *self.loc(at))
        self.pos = at + 1
        follow = texts[at + 1]
        # Constructor names bind only to an immediately adjacent "(", so an
        # identifier i applied to a parenthesized argument (written "i (x)")
        # stays an application.
        if follow == "(" and name in _CONSTRUCTORS and self.starts[at + 1] == self.starts[at] + len(name):
            # An offset for the split error: term() may drop the tokens
            # before it, which moves every token index.
            start = self.starts[at]
            self.pos += 1
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
                raise ParseError("provenance belongs on atoms, not bound variables", *self.loc(at))
            return Atom(name, self.provenance())
        return self.var_leaves[name] if name in self.bound else self.atom_leaves[name]

    def provenance(self) -> Provenance:
        self.expect("{")
        fields: dict[str, str] = {}
        while not self.accept("}"):
            if self.pos >= self.refill_at:
                self.refill()
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
        texts, pos = self.texts, self.pos
        # A declared actor and a declared claim name that no operator
        # follows are read here; anything else goes through the calls.
        if texts[pos] == "^" and self.declared.get(texts[pos + 1]) == "actor":
            actor = texts[pos + 1]
            pos += 2
        else:
            actor = self.expect_ident("an actor") if self.accept("^") else self.default_actor
            self.note("actor", actor)
            pos = self.pos
        if texts[pos] == "@":
            self.pos = pos + 1
            weight = self.weight()
            pos = self.pos
        else:
            weight = _ONE
        if texts[pos] == ":":
            leaf = self.claim_leaves.get(texts[pos + 1])
            if leaf is not None and texts[pos + 2] not in _CLAIM_OPS:
                self.pos = pos + 2
                return actor, weight, leaf
        self.pos = pos
        self.expect(":")
        return actor, weight, self.claim()

    def sequent(self) -> Sequent:
        hyps = [] if self.at("|-") else self.comma_list(self.hypothesis)
        self.expect("|-")
        conclusion = self.judgement(tuple(h.var for h in hyps))
        return Sequent(tuple(hyps), conclusion)

    # -- proof trees

    def tree(self) -> ProofTree:
        self.release()
        if self.pos >= self.refill_at:
            self.refill()
        at = self.pos
        rule = _RULE_BY_NAME.get(self.texts[at])
        if rule is None:
            found = self.texts[at]
            raise ParseError(f"expected a rule name, found {_describe(found)}", *self.loc(at))
        loc = self.loc(at)
        self.pos = at + 1
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
            if self.pos >= self.refill_at:
                self.refill()
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
            if self.pos >= self.refill_at:
                self.refill()
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
            if self.pos >= self.refill_at:
                self.refill()
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
        """One item or more, separated by ",", each after a release point."""
        items = []
        while True:
            self.release()
            if self.pos >= self.refill_at:
                self.refill()
            items.append(item())
            if not self.accept(","):
                return items

    def declare(self, kind: str) -> str:
        """A new name of the kind."""
        at = self.pos
        name = self.expect_ident(_SCRIPT_NAMES[kind][1])
        if name in self.declared:
            raise ParseError(f"duplicate name {name!r}", *self.loc(at))
        self.declared[name] = kind
        if kind == "claim":
            self.claim_leaves[name] = Atomic(name)
        return name

    def reference(self, kind: str) -> str:
        """A name declared as the kind."""
        start = self.starts[self.pos]
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
        while True:
            self.release()
            if self.pos >= self.refill_at:
                self.refill()
            at = self.pos
            word = self.texts[at]
            if not word:   # the eof entry
                break
            if not _is_ident(word):
                raise ParseError(f"expected a declaration, found {word!r}", *self.loc(at))
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
                loc = self.loc(self.pos)
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
                loc = self.loc(at)
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
        # Each edge's weight by (source, target): the duplicate check here,
        # then the relation's index.
        edges: dict[tuple[str, str], Weight] = {}
        start = self.starts[self.pos - 1] + 1
        end = self.run_edges(edges, start)
        if end > start:
            self.skip_to(end)
        while not self.accept("}"):
            self.release()
            if self.pos >= self.refill_at:
                self.refill()
            at = self.pos
            src = self.reference("actor")
            self.expect("->")
            dst = self.reference("actor")
            weight = self.weight() if self.accept("@") else _ONE
            self.expect(".")
            if (src, dst) in edges:
                raise ParseError(f"duplicate trust edge {src} -> {dst}", *self.loc(at))
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
        loc = self.loc(self.pos)
        name = self.declare("model")
        uses = self.comma_list(lambda: self.reference("relation")) if self.accept("uses") else []
        self.expect("{")
        assignments: dict[str, tuple[WeightedWitness, ...]] = {}
        while not self.accept("}"):
            if self.pos >= self.refill_at:
                self.refill()
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
        # An offset for the actor error: term() may drop the tokens before
        # it, which moves every token index.
        start = self.starts[self.pos]
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
        raise p.unexpected() or ParseError("nesting too deep", *p.loc(p.pos)) from None


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


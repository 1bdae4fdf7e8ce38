"""The parser against the frozen one in parseoracle.py: every input gives an
equal value, with the same proof locations, or the same ParseError at the
same line and column.  Only "nesting too deep" may differ, since the two
spend the stack differently."""

import copy
import dataclasses
import pickle
import random
import zlib
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veracity
import veracity.cli
import veracity.parser as parser
from veracity.core import (
    ARG,
    BOTTOM,
    Apply,
    AssumeArgs,
    Atom,
    Atomic,
    ConstantFamily,
    Hypothesis,
    Judgement,
    ProofTree,
    Provenance,
    Rule,
    Sequent,
    TagFamily,
    Var,
)
from veracity.parser import (
    ParseError,
    Script,
    render_claim,
    render_hypothesis,
    render_judgement,
    render_proof_tree,
    render_sequent,
    render_term,
    tokenize,
)

import parseoracle as oracle
from strategies import claims, terms, weight_exprs
from test_parser import _mutations, _tokens_or_error, _tower
from tokoracle import oracle_tokenize

FIXTURES = veracity.fixtures_path()

# Each entry point, beside the oracle's.
PARSES = {
    name: (getattr(parser, name), getattr(oracle, name))
    for name in ("parse_claim", "parse_term", "parse_weight_expr", "parse_judgement", "parse_sequent", "parse_script")
}


def _proof_locations(value):
    """The location of every proof node of a script, in pre-order: the one
    field of a parsed value that == does not compare."""
    if not isinstance(value, Script):
        return None
    found = []
    for decl in value.proofs:
        todo = [decl.tree]
        while todo:
            node = todo.pop()
            found.append(node.loc)
            todo.extend(reversed(node.premises))
    return found


def _outcome(parse, text, **options):
    try:
        value = parse(text, **options)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)
    return ("value", value, _proof_locations(value))


def assert_agrees(name, text, **options):
    new, old = (_outcome(parse, text, **options) for parse in PARSES[name])
    if ("error", "nesting too deep") in (new[:2], old[:2]):
        return
    assert new == old, text


# -- generated inputs

CLAIM_NAMES = ["A", "B", "C", "D"]
ACTOR_NAMES = ["P", "Q", "R", "default"]
RELATION_NAMES = ["T", "U"]
BINDERS = ["x", "y", "u", "v"]

actors = st.sampled_from(ACTOR_NAMES)
small_weights = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 8)])
hypotheses = st.builds(Hypothesis, st.sampled_from(BINDERS), actors, small_weights, claims(4))


def judgements(size):
    return st.builds(Judgement, terms(size), actors, small_weights, claims(size))


sequents = st.builds(Sequent, st.lists(hypotheses, max_size=2).map(tuple), judgements(4))

# The values of each kind of rule argument that is not a premise.
_ARG_VALUES = {
    "claim": claims(4),
    "family": st.one_of(
        claims(3).map(ConstantFamily), st.builds(TagFamily, claims(3), claims(3))
    ),
    "binder": st.sampled_from(BINDERS),
    "var": st.sampled_from(BINDERS),
    "relation": st.sampled_from(RELATION_NAMES),
    "source": actors,
    "target": actors,
    "weight": st.one_of(st.just(ARG), weight_exprs(2)),
}

assumptions = st.builds(
    lambda var, claim, actor, context, stated: ProofTree(
        Rule.ASSUME, (), AssumeArgs(var, claim, actor, tuple(context)), stated
    ),
    st.sampled_from(BINDERS),
    claims(4),
    st.one_of(st.none(), actors),
    st.lists(hypotheses, max_size=2),
    st.one_of(st.none(), sequents),
)


@st.composite
def _rule_node(draw, premises):
    rule = draw(st.sampled_from(sorted(parser._RULE_SYNTAX, key=lambda r: r.value)))
    kinds, build, _ = parser._RULE_SYNTAX[rule]
    subtrees, values = [], []
    for kind in kinds:
        if kind == "tree":
            subtrees.append(draw(premises))
        else:
            values.append(draw(_ARG_VALUES[kind]))
    stated = draw(st.one_of(st.none(), sequents))
    return ProofTree(rule, tuple(subtrees), build(*values), stated)


proof_trees = st.recursive(assumptions, _rule_node, max_leaves=5)


@st.composite
def scripts(draw):
    """Script text that declares some of the names its proofs, models and
    queries use, so some parse and some fail on an undeclared name."""
    lines = []

    def some_or_all(names):
        return draw(st.one_of(st.just(names), st.lists(st.sampled_from(names), unique=True)))

    declared_claims = some_or_all(CLAIM_NAMES)
    declared_actors = some_or_all(ACTOR_NAMES)
    if declared_claims:
        lines.append(f"claim {', '.join(declared_claims)}.")
    if declared_actors:
        lines.append(f"actor {', '.join(declared_actors)}.")
    for name in some_or_all(RELATION_NAMES):
        edges = draw(st.lists(st.tuples(actors, actors), unique=True, max_size=2))
        lines.append(f"trust {name} {{ {' '.join(f'{s} -> {t} @ 0.5.' for s, t in edges)} }}")
    for k in range(draw(st.integers(0, 2))):
        lines.append(f"proof D{k} {{ {render_proof_tree(draw(proof_trees))} }}")
    if draw(st.booleans()):
        held = draw(st.lists(st.tuples(terms(3), actors), max_size=2))
        entries = " ".join(f"{render_term(term)}^{actor}." for term, actor in held)
        lines.append(f"model M {{ {draw(st.sampled_from(CLAIM_NAMES))} = {{ {entries} }}. }}")
        for judgement in draw(st.lists(judgements(3), max_size=2)):
            lines.append(f"query {render_judgement(judgement)} in M.")
    return "\n".join(lines) + "\n"


# -- mutations

_TOKEN_POOL = [
    "(", ")", ",", ".", ":", "^", "@", "|-", "->", "\\/", "/\\", "~", "_|_", "\\", "{", "}",
    "A", "E", "P", "S", "T", "V", "x", "a", "i", "j", "0.5", "stating", "under", "assume",
    "trust", "andIntro", "orElim", "impIntro", "=>", "|", "claim", "actor", "proof", "in",
]


def char_mutation(text, seed):
    """text with a few characters deleted, inserted or swapped."""
    return _mutations(text, seed, 1)[0]


def token_mutation(text, seed):
    """text's tokens, a few deleted, inserted, repeated or replaced, joined
    by blanks; text itself when it does not scan."""
    try:
        words = [t.text for t in tokenize(text)][:-1]
    except ParseError:
        return text
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(words) + 1)
        how = rng.randrange(4)
        if how == 1 or not words:
            words.insert(at, rng.choice(_TOKEN_POOL))
        elif at < len(words):
            if how == 0:
                del words[at]
            elif how == 2:
                words.insert(at, words[at])
            else:
                words[at] = rng.choice(_TOKEN_POOL)
    return " ".join(words)


def with_mutations(texts):
    """The texts, and the texts after a character or a token mutation."""
    mutate = st.sampled_from([char_mutation, token_mutation])
    mutated = st.tuples(texts, mutate, st.integers(0, 2**32)).map(lambda p: p[1](p[0], p[2]))
    return st.one_of(texts, mutated)


class TestAgainstTheOracle:
    @given(with_mutations(claims(12).map(render_claim)))
    @settings(max_examples=400)
    def test_claims(self, text):
        assert_agrees("parse_claim", text)

    @given(with_mutations(terms(12).map(render_term)))
    @settings(max_examples=400)
    def test_terms(self, text):
        assert_agrees("parse_term", text)
        assert_agrees("parse_term", text, var_names=("x", "y"))

    @given(with_mutations(judgements(6).map(render_judgement)))
    @settings(max_examples=200)
    def test_judgements(self, text):
        assert_agrees("parse_judgement", text)

    @given(with_mutations(sequents.map(render_sequent)))
    @settings(max_examples=200)
    def test_sequents(self, text):
        assert_agrees("parse_sequent", text)

    @given(with_mutations(scripts()))
    @settings(max_examples=400, deadline=None)
    def test_scripts(self, text):
        assert_agrees("parse_script", text)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.vlp")))
    def test_fixtures_and_their_mutations(self, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        seed = zlib.crc32(name.encode()) + 2
        variants = [text, *_mutations(text, seed, 100)]
        variants += [token_mutation(text, seed + k) for k in range(100)]
        for variant in variants:
            assert_agrees("parse_script", variant)


class TestNameCheckOrder:
    """A proof or query with undeclared names reports the first one the
    oracle's full walk reports, at the same place: in a proof, a node's own
    arguments first, then its stated sequent, then its premises in order."""

    PRELUDE = "claim A, B. actor P, Q. trust T { P -> Q. }\nproof X {\n"

    @pytest.mark.parametrize(
        "tree, message, line, col",
        [
            # a rule argument: claim, family, relation, source, target
            ("orIntroL(assume x : A, E)", "claim 'E' is not declared", 3, 3),
            ("orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, i => A | j => E)",
             "claim 'E' is not declared", 3, 3),
            ("trust(U, P -> Q, assume a^Q : A)", "trust relation 'U' is not declared", 3, 3),
            ("trust(T, R -> Q, assume a^Q : A)", "actor 'R' is not declared", 3, 3),
            ("trust(T, P -> S, assume a^Q : A)", "actor 'S' is not declared", 3, 3),
            # the assumed claim and actor
            ("assume x : E", "claim 'E' is not declared", 3, 3),
            ("assume x^R : A", "actor 'R' is not declared", 3, 3),
            # an under hypothesis: its claim, its actor, the default actor
            ("assume x : A under (y^P : E)", "claim 'E' is not declared", 3, 3),
            ("assume x : A under (y^R : A)", "actor 'R' is not declared", 3, 3),
            ("assume x : A under (y : A)", "actor 'default' is not declared", 3, 3),
            # a stated hypothesis and a stated conclusion
            ("assume x^P : A stating (y^P : E |- x : A)", "claim 'E' is not declared", 3, 3),
            ("assume x^P : A stating (y^R : A |- x : A)", "actor 'R' is not declared", 3, 3),
            ("assume x^P : A stating (x^P : A |- x^P : E)", "claim 'E' is not declared", 3, 3),
            ("assume x^P : A stating (x^P : A |- x^R : A)", "actor 'R' is not declared", 3, 3),
            ("assume x^P : A stating (x^P : A |- x : A)", "actor 'default' is not declared", 3, 3),
            # the node's own arguments before its stated sequent and premises
            ("orIntroL(assume x^R : E, F) stating (|- i(x)^S : G)",
             "claim 'F' is not declared", 3, 3),
            ("orIntroL(assume x^R : A, B) stating (|- i(x)^S : A \\/ B)",
             "actor 'S' is not declared", 3, 3),
            ("trust(T, P -> Q, assume a^R : A) stating (|- a^P : E)",
             "claim 'E' is not declared", 3, 3),
            # a premise below another bad name, and premises in order
            ("orIntroL(bottomElim(assume y^R : _|_, E), F)", "claim 'F' is not declared", 3, 3),
            ("andIntro(assume x : A, impElim(assume f^R : A -> B, bottomElim(assume y : _|_, E)))",
             "actor 'R' is not declared", 3, 34),
            ("andIntro(bottomElim(assume y : _|_, E), assume x^R : A)",
             "claim 'E' is not declared", 3, 12),
            # claims are checked atom by atom in name order
            ("orIntroR(assume x : A, G /\\ E)", "claim 'E' is not declared", 3, 3),
        ],
    )
    def test_first_error(self, tree, message, line, col):
        text = f"{self.PRELUDE}  {tree}\n}}\n"
        assert _outcome(parser.parse_script, text) == ("error", message, line, col)
        assert _outcome(oracle.parse_script, text) == ("error", message, line, col)

    @pytest.mark.parametrize(
        "prelude, tree",
        [
            # With no actor declared, the default actor needs no declaration.
            ("claim A.", "assume x : A under (y : A) stating (y : A |- y : A)"),
            ("claim A, B. actor P, Q. trust T { P -> Q. }",
             "trust(T, P -> Q, assume a^Q : A under (h^P : B)) stating (h^P : B |- a^P : A)"),
        ],
    )
    def test_declared_names_pass(self, prelude, tree):
        text = f"{prelude}\nproof X {{ {tree} }}\n"
        assert _outcome(parser.parse_script, text) == _outcome(oracle.parse_script, text)
        assert _outcome(parser.parse_script, text)[0] == "value"

    @pytest.mark.parametrize(
        "query, message",
        [
            ("a^P : A", None),
            ("a^P : E", "claim 'E' is not declared"),
            ("a^R : A", "actor 'R' is not declared"),
            ("a : A", "actor 'default' is not declared"),
            ("a^R : G /\\ E", "claim 'E' is not declared"),
        ],
    )
    def test_query(self, query, message):
        text = f"claim A. actor P, Q.\nmodel M {{ A = {{ a^P. }}. }}\nquery {query} in M.\n"
        want = ("error", message, 3, 1) if message else "value"
        for parse in (parser.parse_script, oracle.parse_script):
            outcome = _outcome(parse, text)
            assert (outcome if message else outcome[0]) == want

    def test_a_name_declared_after_the_proof_is_not_declared_in_it(self):
        text = "actor P.\nproof X { assume x^P : A }\nclaim A.\n"
        assert _outcome(parser.parse_script, text) == ("error", "claim 'A' is not declared", 2, 11)
        assert _outcome(oracle.parse_script, text) == ("error", "claim 'A' is not declared", 2, 11)


# -- trust relation bodies

EDGE_ACTORS = ["a", "b'", "_", "c_1", "default"]
# Good weights three times as often as each bad one.
EDGE_WEIGHTS = ["0", "1", "1.0", "1/3", "0.5"] * 3 + ["0.5.5", "1.5"]
# What may stand between two tokens: nothing, blanks, CRLF, and comments
# that hold edge text.
_GAPS = st.sampled_from(
    ["", " ", "  ", "\t", "\n", "\r\n", " # a -> b @ 0.5.\n", "#}\r\n  ", "\t# {\n"]
)


@st.composite
def relation_scripts(draw):
    """A script of trust relations over EDGE_ACTORS, some or all of them
    declared, and one undeclared actor, with edges in either arrow, with and
    without weights, some repeated and some missing their ".", any gap
    between two tokens, sometimes a form feed, and sometimes a term that
    starts like a relation's head at the end."""
    declared = draw(st.one_of(
        st.just(EDGE_ACTORS), st.lists(st.sampled_from(EDGE_ACTORS), unique=True)
    ))
    names = st.sampled_from([*EDGE_ACTORS * 4, "nobody"])
    words = [f"actor {', '.join(declared)}."] if declared else []
    for relation in draw(st.lists(st.sampled_from(["T", "U", "trust"]), min_size=1, unique=True)):
        edges = draw(st.lists(
            st.tuples(names, st.sampled_from(["->", "->", "->", "→"]), names,
                      st.one_of(st.none(), st.sampled_from(EDGE_WEIGHTS)),
                      st.sampled_from([".", ".", ".", ""])),
            max_size=8,
        ))
        if edges and draw(st.booleans()):
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
        words += ["trust", relation, "{"]
        for src, arrow, dst, weight, end in edges:
            words += [src, arrow, dst, *(("@", weight) if weight else ()), *((end,) if end else ())]
        words.append("}")
    if draw(st.booleans()):
        words += ["query", "trust", "x", "{", "a", "->", "b", "@", "0.5", ".", "}", "in", "M", "."]
    text = words[0]
    for word in words[1:]:
        gap = draw(_GAPS)
        if not gap and (text[-1].isalnum() or text[-1] in "_'") and (word[0].isalnum() or word[0] == "_"):
            gap = " "   # two names or numbers in a row would be one
        text += gap + word
    text += draw(st.sampled_from(["", "\n", "\r\n", " # end"]))
    if draw(st.integers(0, 9)) == 0:
        # A form feed is no blank: the scan stops at it.
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\f" + text[at:]
    return text


def _indexes(outcome):
    """Each relation's index, in order, of a parsed script."""
    if outcome[0] != "value":
        return None
    return [list(relation._weights.items()) for relation in outcome[1].relations]


class TestRelationBodies:
    """Trust relations, whose plain edges the parser reads straight from the
    text, parse to the oracle's script, edge order, weights and index, or
    fail with its error; and their text still tokenizes as the frozen
    tokenizer does, every edge's tokens included."""

    @given(with_mutations(relation_scripts()))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_oracles(self, text):
        new, old = (_outcome(parse, text) for parse in PARSES["parse_script"])
        assert new == old, text
        assert _indexes(new) == _indexes(old), text
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(oracle_tokenize, text), text

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            # A relation's head as a term, with a run of edges after it:
            # the term's provenance reads the run's tokens and fails there.
            ("actor a, b.\nmodel M { }\nquery trust x { a -> b @ 0.5. } in M.\n",
             3, 17, "unknown provenance field 'a'"),
            ("claim A. actor a.\nmodel M { A = { trust x { a -> b. }^a. }. }\n",
             2, 27, "unknown provenance field 'a'"),
            ("claim A. actor who, b.\nmodel M { A = { trust x { who -> b. }^b. }. }\n",
             2, 31, "expected '=', found '->'"),
            ("actor a, b.\ntrust T { a -> b. }\nquery trust x { a -> b. } in M.\ntrust U { b -> a. }\n",
             3, 17, "unknown provenance field 'a'"),
        ],
    )
    def test_a_head_in_term_position(self, text, line, col, message):
        assert _outcome(parser.parse_script, text) == ("error", message, line, col)
        assert _outcome(oracle.parse_script, text) == ("error", message, line, col)

    def test_a_head_with_a_provenance_is_a_term(self):
        text = 'claim A. actor a.\nmodel M { A = { trust x{who="q"}^a. }. }\n'
        assert_agrees("parse_script", text)
        term = Apply(Atom("trust"), Atom("x", Provenance(who="q")))
        assert parser.parse_term('trust x{who="q"}') == term
        assert parser.parse_script(text).models[0].assignments[0][1][0].term == term
        assert_agrees("parse_term", "f (trust x { a -> b @ 1. })")


# Forty actors, and the first 1,500 of the edges between two of them.
_ACTORS = [f"a{k:02d}" for k in range(40)]
_EDGES = [(s, t) for s in _ACTORS for t in _ACTORS if s != t][:1500]


def _relation(edges, arrow="->"):
    """Claims A and B, the forty actors on line 2, and a relation T with an
    edge a line from line 4, each written with arrow."""
    lines = "".join(f"  {s} {arrow} {t} @ 0.{(3 * k) % 9 + 1}.\n" for k, (s, t) in enumerate(edges))
    return f"claim A, B.\nactor {', '.join(_ACTORS)}.\ntrust T {{\n{lines}"


def _run_end(text):
    """Where the run of plain edges after the "{" of relation T in text
    ends, or 0 if none follows it: where the parser's edge loop stops, one
    anchored match of _EDGE an edge from that "{" on."""
    start = end = text.index("trust T {") + len("trust T {")
    while m := parser._EDGE.match(text, end):
        end = m.end()
    return end if end > start else 0


# Each case: the relation's edges, the text that follows them, and the
# error that text gives.
_LATE = pytest.mark.parametrize(
    "edges, late, message, line, col",
    [
        (
            _EDGES, "  a00 -> a01 @ 0.5.\n}\n",
            "duplicate trust edge a00 -> a01", 1504, 3,
        ),
        (
            _EDGES, "}\nproof X {\n  andIntro(assume x^a00 : A, assume y^a00 : B)\n"
            "    stating (x^a00 : A, y^a00 : B |- (x, y)^a00 : A /\\ E)\n}\n",
            "claim 'E' is not declared", 1506, 3,
        ),
        (
            _EDGES[:1200], "  a00 -> a01 @ 1.5.\n" + "  a00 -> a02.\n" * 50 + "}\n",
            "bad weight '1.5': weight 3/2 outside [0, 1]", 1204, 16,
        ),
        (
            _EDGES, "}\nmodel M uses T {\n  A = {\n"
            + "".join(f"    w{k}^a{k % 40:02d}.\n" for k in range(800))
            + "    late.\n  }.\n}\n",
            "actor 'default' is not declared", 2307, 5,
        ),
    ],
    ids=["duplicate-edge", "stated-claim", "bad-weight", "default-actor"],
)


class TestLateErrors:
    """An error found after the parser has read many edges is the oracle's,
    with its message, line and column, whether it read them as tokens or,
    as a run of edges straight from the text, located what follows the run
    as the tokens do."""

    @_LATE
    def test_matches_the_oracle(self, edges, late, message, line, col):
        # Edges written with "→" are no run: the parser reads them as
        # tokens.
        text = _relation(edges, "→") + late
        assert _run_end(text) == 0
        assert _outcome(parser.parse_script, text) == ("error", message, line, col)
        assert _outcome(oracle.parse_script, text) == ("error", message, line, col)

    @_LATE
    def test_a_run_matches_the_oracle(self, edges, late, message, line, col):
        # Edges written with "->" are one run, which becomes no tokens.
        head = _relation(edges)
        text = head + late
        assert _run_end(text) >= len(head) - 1
        assert _outcome(parser.parse_script, text) == ("error", message, line, col)
        assert _outcome(oracle.parse_script, text) == ("error", message, line, col)


def _scanned(parse, text):
    """How many matches of _SCAN parsing text takes, and its outcome."""
    count = 0
    scan = parser._SCAN

    def counting(*args):
        nonlocal count
        for m in scan(*args):
            count += 1
            yield m

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parser, "_SCAN", counting)
        outcome = _outcome(parse, text)
    return count, outcome


# The 1,500 edges of _relation(_EDGES), one a line, and the same body met
# as a term, in a query and alone: each is an atom's provenance.
_EDGE_LINES = _relation(_EDGES).split("{\n", 1)[1]
_BODIES_AS_TERMS = [
    (parser.parse_script, f"actor a00.\nmodel M {{ }}\nquery trust x {{\n{_EDGE_LINES}}} in M.\n"),
    (parser.parse_term, f"trust x {{\n{_EDGE_LINES}}}"),
]


class TestEdgesAreNoTokens:
    """A relation's plain edges are read straight from the text, so the scan
    matches the tokens around them, the one token after the relation's "{"
    and the end of the text again where it starts past the run.  Met as a
    term, the same body is read as tokens, every edge's included, and
    agrees with the oracle."""

    def test_a_relation_scans_only_what_surrounds_its_edges(self):
        text = _relation(_EDGES) + "}\n"
        outside = len(tokenize(_relation([]) + "}\n"))
        count, outcome = _scanned(parser.parse_script, text)
        assert outcome[0] == "value" and len(outcome[1].relations[0]._weights) == 1500
        assert outcome == _outcome(oracle.parse_script, text)
        assert count <= outside + 2, (count, outside)

    @pytest.mark.parametrize("parse, text", _BODIES_AS_TERMS, ids=["query", "term"])
    def test_a_body_met_as_a_term_is_tokens(self, parse, text):
        assert_agrees(parse.__name__, text)
        assert _outcome(parse, text)[:2] == ("error", "unknown provenance field 'a00'")
        tokens = _tokens_or_error(tokenize, text)
        assert tokens == _tokens_or_error(oracle_tokenize, text)
        assert sum(token[1] == "->" for token in tokens) == 1500


# One term of about 1,500 tokens on 301 lines: f applied to 300 pairs.
_LONG_TERM = "f" + "".join(f"\n  (a{k}, b)" for k in range(300))


class TestLateErrorsInATerm:
    """An error at a token read before more than 1,024 tokens of one term is
    the oracle's, with its message, line and column: a split and a model
    entry keep the text offset of their first token across the term they
    read."""

    SPLIT = f"h\n  (c split({_LONG_TERM}, x.x.x))"
    ENTRY = f"claim A.\nactor P, Q.\nmodel M {{\n  A = {{\n    x^P.\n    {_LONG_TERM}.\n  }}.\n}}\n"

    def test_split_binders(self):
        want = ("error", "split binders must be distinct", 2, 6)
        assert _outcome(parser.parse_term, self.SPLIT) == want
        assert _outcome(oracle.parse_term, self.SPLIT) == want

    def test_split_binders_through_eval(self, capsys):
        assert veracity.cli.main(["eval", "-e", self.SPLIT]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "-e:2:6: split binders must be distinct\n")

    def test_an_entry_without_an_actor(self):
        want = ("error", "actor 'default' is not declared", 6, 5)
        assert _outcome(parser.parse_script, self.ENTRY) == want
        assert _outcome(oracle.parse_script, self.ENTRY) == want


class TestSmallestWindow:
    """Generated inputs and their mutations, the fixtures, late errors, and
    each loop and nesting construct run long: each parses to the oracle's
    value, or fails with its error at its line and column."""

    @given(with_mutations(claims(12).map(render_claim)))
    @settings(max_examples=150)
    def test_claims(self, text):
        assert_agrees("parse_claim", text)

    @given(with_mutations(terms(12).map(render_term)))
    @settings(max_examples=150)
    def test_terms(self, text):
        assert_agrees("parse_term", text)

    @given(with_mutations(judgements(6).map(render_judgement)))
    @settings(max_examples=100)
    def test_judgements(self, text):
        assert_agrees("parse_judgement", text)

    @given(with_mutations(sequents.map(render_sequent)))
    @settings(max_examples=100)
    def test_sequents(self, text):
        assert_agrees("parse_sequent", text)

    @given(with_mutations(scripts()))
    @settings(max_examples=200, deadline=None)
    def test_scripts(self, text):
        assert_agrees("parse_script", text)

    @given(with_mutations(relation_scripts()))
    @settings(max_examples=200, deadline=None)
    def test_relations(self, text):
        assert_agrees("parse_script", text)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.vlp")))
    def test_fixtures_and_their_mutations(self, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        seed = zlib.crc32(name.encode()) + 3
        variants = [text, *_mutations(text, seed, 30)]
        variants += [token_mutation(text, seed + k) for k in range(30)]
        for variant in variants:
            assert_agrees("parse_script", variant)

    @_LATE
    @pytest.mark.parametrize("arrow", ["->", "→"])
    def test_late_errors(self, edges, late, message, line, col, arrow):
        outcome = _outcome(parser.parse_script, _relation(edges, arrow) + late)
        assert outcome == ("error", message, line, col)

    def test_edges_are_no_tokens(self):
        TestEdgesAreNoTokens().test_a_relation_scans_only_what_surrounds_its_edges()
        for parse, text in _BODIES_AS_TERMS:
            TestEdgesAreNoTokens().test_a_body_met_as_a_term_is_tokens(parse, text)

    def test_late_errors_in_a_term(self):
        split = _outcome(parser.parse_term, TestLateErrorsInATerm.SPLIT)
        entry = _outcome(parser.parse_script, TestLateErrorsInATerm.ENTRY)
        assert split == ("error", "split binders must be distinct", 2, 6)
        assert entry == ("error", "actor 'default' is not declared", 6, 5)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("parse_term", "f " + "a " * 40),
            ("parse_term", "(" * 40 + "a" + ")" * 40),
            ("parse_term", "(a, " * 40 + "a" + ")" * 40),
            ("parse_term", "\\x." * 40 + "i(j(x))"),
            ("parse_term", "f " + 'a{who="w", where="h", when="n", how="o"} ' * 20),
            ("parse_term", "split(" * 20 + "p" + ", x.y.cases(x, u.u, v.v))" * 20),
            ("parse_weight_expr", "(" * 40 + "z" + ")" * 40),
            ("parse_weight_expr", "min(z, " * 40 + "0.5" + ")" * 40),
            ("parse_weight_expr", "min(" * 40 + "z" + ", 0.5)" * 40),
            ("parse_claim", "A /\\ " * 40 + "A"),
            ("parse_claim", "A -> " * 40 + "A"),
            ("parse_claim", "~" * 40 + "A"),
            ("parse_claim", "(" * 40 + "A \\/ B" + ")" * 40),
            ("parse_judgement", "(\\x.x)@0.5 @ 0.5 : " + "A /\\ " * 40 + "A"),
            ("parse_sequent", ", ".join(f"x{k}^P @ 0.5 : A" for k in range(40)) + " |- x0^P : A"),
            ("parse_script", "claim " + ", ".join(f"A{k}" for k in range(40)) + "."),
            ("parse_script", "claim A.\nactor P.\nproof D { " + "andIntro(assume y : A, " * 40 + "assume x : A" + ")" * 40 + " }"),
            ("parse_script", "claim A.\nactor P.\nproof D { " + "impIntro(x, " * 40 + "assume x : A" + ", 0.5 * z)" * 40 + " }"),
            ("parse_script", "claim A.\nactor P.\nproof D { assume x : A under ("
             + ", ".join(f"h{k} : A" for k in range(40)) + ") stating (x^P : A |- x^P : A) }"),
            ("parse_script", "claim A.\nactor P.\nproof D { " + "andElim(assume x : A stating (|- \\x.x @ 1 ^P @ 1 : A), f. s. " * 20
             + "assume y : A" + ", A)" * 20 + " }"),
            ("parse_script", "claim A.\nactor P.\nproof D { " + "andElim(assume x : A under (h ^P @ 1 : A), f. s. " * 20
             + "assume y : A" + ", A)" * 20 + " }"),
            ("parse_script", "claim A.\nactor P.\nproof D { " + "andIntro(" * 20 + "assume x : A"
             + ", assume y : A) stating (h ^P @ 1 : A |- h ^P : A)" * 20 + " }"),
            ("parse_script", "claim A, " + ", ".join(f"A{k}" for k in range(40)) + ".\nactor P.\nmodel M { A = { "
             + "a^P @ 0.5. " * 40 + "}.\n" + "".join(f"A{k} = {{ a^P @ 0.5. }}.\n" for k in range(40)) + "}"),
            ("parse_script", "claim A.\nactor P.\nmodel M { }\n" + "query \\x.x @ 1 ^P @ 1 : A in M.\n" * 40),
            ("parse_script", "actor P.\n" + "trust T { P → P @ 0.5. }\n" * 40),
        ],
    )
    def test_long_stretches(self, name, text):
        # Each loop and each nesting construct, run long.
        assert_agrees(name, text)


# Six hundred tokens, and a bad character after them.
_FILLER = "\n" + "a " * 600 + "\n"
_BAD = "$"

# Each case: an entry point, and a text with an error that the parser finds
# ahead of a bad character far on.
_PRECEDENCE = pytest.mark.parametrize(
    "parse, text",
    [
        (parser.parse_script, "claim A.\nproof P { nope }" + _FILLER + _BAD),
        (parser.parse_term, "f )" + _FILLER + _BAD),
        (parser.parse_script, "claim A.\nproof P { assume x : " + "(" * 30_000 + "A" + ")" * 30_000 + " }" + _FILLER + _BAD),
        (parser.parse_term, "(" * 30_000 + "a" + ")" * 30_000 + _FILLER + _BAD),
        (parser.parse_script, _relation(_EDGES) + "}\nproof P { nope }" + _FILLER + _BAD),
        (parser.parse_script, "actor a, b.\nmodel M { }\nquery trust x { a -> b @ 0.5. } in M." + _FILLER + _BAD),
        (parser.parse_term, "trust x { " + "a -> b. " * 300 + "}" + _FILLER + _BAD),
    ],
    ids=["syntax", "term-syntax", "too-deep", "term-too-deep", "after-a-run", "unskipped", "term-unskipped"],
)


class TestErrorPrecedence:
    """A bad character anywhere in the text is the error, ahead of any the
    parser finds before the scan reaches it: a syntax error, nesting too
    deep, an error after a run of edges the parser read straight from the
    text, and one after a relation's body read as a term, as tokens."""

    @staticmethod
    def _want(parse, text):
        want = _outcome(getattr(oracle, parse.__name__), text)
        lines = text.split("\n")
        assert want == ("error", "unexpected character '$'", len(lines), len(lines[-1]))
        return want

    @_PRECEDENCE
    def test_the_bad_character_wins(self, parse, text):
        assert _outcome(parse, text) == self._want(parse, text)

    @_PRECEDENCE
    def test_through_the_command_line(self, parse, text, tmp_path, capsys):
        _, message, line, col = self._want(parse, text)
        if parse is parser.parse_term:
            argv, where = ["eval", "-e", text], "-e"
        else:
            where = tmp_path / "late.vlp"
            where.write_text(text, encoding="utf-8")
            argv = ["check", str(where)]
        assert veracity.cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{where}:{line}:{col}: {message}\n")


class TestLocator:
    """The parser's locator, which counts newlines from the offset it
    located last, gives the line and column of the oracle's frozen index of
    line starts, at every offset, asked in order or not."""

    @given(
        st.lists(st.sampled_from(["a", "bc", " ", "\n", "\r\n", "\r", "\f", "\t", "é", "λ", "→", "😀"]))
        .map("".join),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle(self, text, rng):
        want = oracle._line_starts(text)
        offsets = list(range(len(text) + 1))
        locate = parser._Locator(text)
        assert [locate(at) for at in offsets] == [oracle._locate(want, at) for at in offsets]
        rng.shuffle(offsets)
        locate = parser._Locator(text)
        assert [locate(at) for at in offsets] == [oracle._locate(want, at) for at in offsets]


def _restating(*stated, header="claim A, B, C, D.\nactor P, Q.\n"):
    """A script whose proof states each sequent in turn, in the order given."""
    node = "assume x : A"
    for sequent in stated:
        node = f"andIntro({node}, assume x : A) stating ({sequent})"
    return f"{header}proof Stated {{\n{node}\n}}\n"


def _tower_of(height, order=1, spell=lambda level, sequent: sequent, newline="\n"):
    """_tower's script, its hypothesis lists in the given order, each
    level's sequent spelled by spell and each node on a line of its own."""
    node, claim, hyps, witness = "assume x0 : A", "A", ["x0^P : A"], "x0"
    for i in range(1, height + 1):
        extra = "ABCD"[i % 4]
        claim += f" /\\ {extra}"
        hyps.append(f"y{i}^P : {extra}")
        witness = f"(\\h{i}.({witness},h{i})) y{i}"
        stated = spell(i, f"{', '.join(hyps[::order])} |- {witness}^P : {claim}")
        node = (
            f"impElim({newline}impIntro(h{i},{newline}andIntro({newline}{node},{newline}"
            f"assume h{i} : {extra})),{newline}assume y{i} : {extra}) stating ({stated})"
        )
    return f"claim A, B, C, D.{newline}actor P.{newline}proof Tower {{{newline}{node}{newline}}}{newline}"


def _unicode_at_odd_levels(level, sequent):
    """The sequent in Unicode operators, with a comment in its hypothesis
    list, at odd levels, so that no level restates the text of the one
    below; in ASCII at even ones."""
    if level % 2 == 0:
        return sequent
    sequent = sequent.replace("|-", "⊢").replace("/\\", "∧").replace("\\", "λ")
    return sequent.replace(", ", ", # a comment\n", 1)


TOWERS = {
    "ordered": lambda height: _tower_of(height),
    "reversed": lambda height: _tower_of(height, order=-1),
    "respelled": lambda height: _tower_of(height, spell=_unicode_at_odd_levels),
    "crlf": lambda height: _tower_of(height, spell=lambda i, s: s.replace(", ", ",\r\n  "), newline="\r\n"),
    "unicode": lambda height: _tower_of(height, spell=lambda i, s: s.replace("/\\", "∧").replace("\\", "λ")),
}

_H1 = "x0^P : A, y1^P : C"
_W1 = "(\\h1.(x0,h1)) y1"

# Pairs of sequents, the second restating text of the first where reading
# it again may give another value or an error: each first the one the
# second's text would be taken from, then the second.
_NEAR_MISSES = {
    "name-runs-on": (f"{_H1} |- {_W1}^P : A /\\ C", f"{_H1}, y2^P : A |- (\\h2.({_W1}z,h2)) y2^P : A /\\ C /\\ A"),
    "name-runs-on-prime": (f"{_H1} |- {_W1}^P : A", f"{_H1} |- ({_W1}', x0)^P : A"),
    "name-runs-on-a-digit": (f"{_H1} |- {_W1}^P : A", f"{_H1} |- ({_W1}0, x0)^P : A"),
    "claim-runs-on": (f"{_H1} |- x0^P : A /\\ C", f"{_H1} |- x0^P : A /\\ CD"),
    "hypotheses-run-on": (f"{_H1} |- x0^P : A", f"{_H1}D |- x0^P : A"),
    "weight-runs-on-decimal": ("x^P : A |- \\h.(x,h) @ 0^P : A", "x^P : A |- (\\h.(x,h) @ 0.5, x)^P : A"),
    "weight-runs-on-fraction": ("x^P : A |- \\h.(x,h) @ 1^P : A", "x^P : A |- (\\h.(x,h) @ 1/2, x)^P : A"),
    "weight-takes-a-factor": ("x^P : A |- \\h.(x,h) @ 1^P : A", "x^P : A |- (\\h.(x,h) @ 1 * 0.5, x)^P : A"),
    "falsity-before-turnstile": ("x^P : A -> _|_ |- x^P : A", "x^P : A -> _|_|- x^P : A"),
    "underscore-into-falsity": ("x^P : A |- f _^P : A", "x^P : A |- (f _|_, x)^P : A"),
    "bar-into-turnstile": ("x^P : A |- f _^P : A", "x^P : A |- (f _|-, x)^P : A"),
    "atom-then-hypothesis": ("x^P : A |- f y^P : A", "x^P : A, y^P : B |- (f y, x)^P : A"),
    "atom-then-binder": ("x^P : A |- f y^P : A", "x^P : A |- \\y.(f y, x)^P : A"),
    "atom-then-split-binder": ("x^P : A |- f y^P : A", "x^P : A |- split(x, y.z.(f y, z))^P : A"),
    "hypothesis-then-atom": ("x^P : A, y^P : B |- f y^P : A", "x^P : A |- (f y, x)^P : A"),
    "hypothesis-then-shadowed": ("x^P : A, y^P : B |- f y^P : A", "x^P : A, y^P : B |- \\y.(f y, x)^P : A"),
    "lambda-then-argument": ("x^P : A |- \\h.(x,h)^P : A", "x^P : A |- (\\h.(x,h) x)^P : A"),
    "lambda-then-parenthesis": ("x^P : A |- \\h.(x,h)^P : A", "x^P : A |- (\\h.(x,h) (x))^P : A"),
    "lambda-then-weight": ("x^P : A |- \\h.(x,h)^P : A", "x^P : A |- (\\h.(x,h) @ 0.5, x)^P : A"),
    "lambda-then-judgement-weight": ("x^P : A |- \\h.(x,h)^P : A", "x^P : A |- \\h.(x,h) @ 0.5 : A"),
    "lambda-then-comma": ("x^P : A |- \\h.(x,h)^P : A", "x^P : A |- (\\h.(x,h), x)^P : A"),
    "application-then-argument": ("x^P : A |- f x^P : A", "x^P : A |- (f x x, x)^P : A"),
    "constructor-then-parenthesis": ("x^P : A |- f i^P : A", "x^P : A |- (f i(x), x)^P : A"),
    "constructor-then-spaced-parenthesis": ("x^P : A |- f i^P : A", "x^P : A |- (f i (x), x)^P : A"),
    "atom-then-provenance": ("x^P : A |- f a^P : A", 'x^P : A |- (f a{who="w"}, x)^P : A'),
    "provenance-twice": ('x^P : A |- (f a{who="w"}, x)^P : A', 'x^P : A |- ((f a{who="w"}, x), (f a{who="w"}, x))^P : A'),
    "provenance-restated": ('x^P : A |- f a{who="w"}^P : A', 'x^P : A |- (f a{who="w"}, x)^P : A'),
    "provenance-on-a-bound-name": ('x^P : A |- f a{who="w"}^P : A', 'x^P : A, a^P : A |- (f a{who="w"}, x)^P : A'),
    "disjunction-then-conjunction": ("x^P : A |- x^P : A \\/ B", "x^P : A |- x^P : A \\/ B /\\ C"),
    "disjunction-then-disjunction": ("x^P : A |- x^P : A \\/ B", "x^P : A |- x^P : A \\/ B \\/ C"),
    "implication-then-implication": ("x^P : A |- x^P : A -> B", "x^P : A |- x^P : A -> B -> C"),
    "implication-then-conjunction": ("x^P : A |- x^P : A -> B", "x^P : A |- x^P : A -> B /\\ C"),
    "negation-then-conjunction": ("x^P : A |- x^P : ~A", "x^P : A |- x^P : ~A /\\ C"),
    "falsity-then-conjunction": ("x^P : A |- x^P : A -> _|_", "x^P : A |- x^P : A -> _|_ /\\ C"),
    "conjunction-then-any": ("x^P : A |- x^P : A /\\ B", "x^P : A |- x^P : A /\\ B \\/ C -> D"),
    "hypothesis-claim-runs-on": ("x^P : A |- x^P : A", "x^P : A /\\ B, y^P : B |- x^P : A"),
    "hypothesis-claim-then-implication": ("x^P : A \\/ B |- x^P : A", "x^P : A \\/ B -> C |- x^P : A"),
    "comment-in-hypotheses": ("x^P : A, # c\n y^P : B |- x^P : A", "x^P : A, # c\n y^P : B, z^P : C |- x^P : A"),
    "comment-after-hypotheses": ("x^P : A # c\n |- x^P : A", "x^P : A # c\n, y^P : B |- x^P : A"),
    "comment-runs-on": ("x^P : A # c\n |- x^P : A", "x^P : A # c, y^P : B\n |- x^P : A"),
    "comment-runs-on-in-a-witness": ("x^P : A |- f x # c\n ^P : A", "x^P : A |- (f x # c, x)\n , x)^P : A"),
    "comment-ends-witness": ("x^P : A |- f x # c\n ^P : A", "x^P : A |- (f x # c\n, x)^P : A"),
    "crlf": ("x^P : A,\r\n y^P : B |- (f x,\r\n x)^P : A", "x^P : A,\r\n y^P : B, z^P : C |- ((f x,\r\n x), z)^P : A"),
    "unicode": ("x^P : A ∧ B ⊢ λh.(x,h)^P : A ∧ B", "x^P : A ∧ B, y^P : C ⊢ (λh.(x,h), y)^P : A ∧ B ∧ C"),
    "unicode-then-ascii": ("x^P : A ∧ B ⊢ λh.(x,h)^P : A ∧ B", "x^P : A /\\ B, y^P : C |- (\\h.(x,h), y)^P : A /\\ B /\\ C"),
    "undeclared-claim": ("x^P : Z |- x^P : A", "x^P : Z, y^P : A |- x^P : A"),
    "undeclared-actor": ("x^R : A |- x^P : A", "x^R : A, y^P : A |- x^P : A"),
    "undeclared-in-the-first-only": ("x^P : A |- x^R : Z", "x^P : A, y^P : B |- x^P : A"),
    "undeclared-after-a-restatement": (f"{_H1} |- {_W1}^P : A", f"{_H1}, y^P : Z |- ({_W1}, x)^R : A"),
    "bad-character-after-hypotheses": (f"{_H1} |- x0^P : A", f"{_H1}$ |- x0^P : A"),
    "bad-character-after-witness": (f"{_H1} |- {_W1}^P : A", f"{_H1} |- ({_W1}$, x0)^P : A"),
    "bad-character-after-claim": (f"{_H1} |- x0^P : A /\\ C", f"{_H1} |- x0^P : A /\\ C$"),
    "end-after-hypotheses": (f"{_H1} |- x0^P : A", f"{_H1}"),
    "witness-twice": (f"{_H1} |- {_W1}^P : A", f"{_H1}, y2^P : B |- (({_W1}, {_W1}), y2)^P : A"),
    "same-sequent": (f"{_H1} |- {_W1}^P : A /\\ C", f"{_H1} |- {_W1}^P : A /\\ C"),
    "no-hypotheses": (f"|- {_W1}^P : A", f"|- ({_W1}, {_W1})^P : A"),
}


@st.composite
def restating_scripts(draw):
    """Scripts whose proof states a chain of sequents, each restating the
    text of the one before: its hypothesis list, witness and claim, with
    more after them or around them."""
    hyps = [render_hypothesis(h) for h in draw(st.lists(hypotheses, max_size=2))]
    witness, claim = render_term(draw(terms(3))), render_claim(draw(claims(3)))
    stated = []
    for _ in range(draw(st.integers(2, 4))):
        stated.append(f"{', '.join(hyps)} |- {witness}^P : {claim}")
        if draw(st.booleans()):
            hyps.append(render_hypothesis(draw(hypotheses)))
        around = draw(st.sampled_from(["({}, x)", "\\x.({}, y)", "f ({})", "({}) y", "{} y", "\\u.{}", "i({})", "(x, {})"]))
        witness = around.format(witness)
        claim = draw(st.sampled_from(["{} /\\ A", "{} \\/ B", "{} -> C", "({}) /\\ D", "~{}", "{}"])).format(claim)
    return _restating(*stated, header=draw(st.sampled_from(["claim A, B, C, D.\nactor P, Q.\n", "claim A, B.\nactor P.\n"])))


def assert_restated_as_read(text):
    """The parse of text agrees with the oracle's, and with a parse that
    reuses no text: a value equal to its value, holding as many distinct
    nodes, so that a value reused is the very one the table gives back
    for the text read again.  So does a parse that reuses spans of any
    length, short ones included."""
    assert_agrees("parse_script", text)
    with mock.patch.object(parser._Parser, "span", lambda self, at: None):
        read = _outcome(parser.parse_script, text)
    for shortest in (parser._SHORTEST, 1):
        with mock.patch.object(parser, "_SHORTEST", shortest):
            reused = _outcome(parser.parse_script, text)
        assert reused == read, text
        if reused[0] == "value":
            assert len(_nodes_of(reused[1])) == len(_nodes_of(read[1])), text


class TestRestatedText:
    """A stated sequent steps over the text it restates of the one before
    it in its proof.  Towers spelled each way, chains of restating
    sequents, near misses where the text restated may not be taken as
    read, and their mutations: each parses to the oracle's value, or fails
    with its error at its line and column."""

    @pytest.mark.parametrize("height", [1, 2, 3, 12])
    @pytest.mark.parametrize("variant", sorted(TOWERS))
    def test_towers_and_their_mutations(self, variant, height):
        text = TOWERS[variant](height)
        assert_restated_as_read(text)
        seed = zlib.crc32(variant.encode()) + height
        for mutated in [*_mutations(text, seed, 8), *(token_mutation(text, seed + k) for k in range(8))]:
            assert_restated_as_read(mutated)

    @pytest.mark.parametrize("name", sorted(_NEAR_MISSES))
    def test_near_misses(self, name):
        first, second = _NEAR_MISSES[name]
        for stated in ((first, second), (first, second, second), (second, first, second)):
            assert_restated_as_read(_restating(*stated))

    @given(with_mutations(restating_scripts()))
    @settings(max_examples=70, deadline=None)
    def test_restating_chains(self, text):
        assert_restated_as_read(text)


def _nodes_of(value):
    """Every dataclass value reachable from value, by id, but the shared
    constants BOTTOM and ARG, which no parse builds."""
    found, todo = {}, [value]
    while todo:
        node = todo.pop()
        if isinstance(node, (tuple, list)):
            todo.extend(node)
        elif dataclasses.is_dataclass(node) and node is not BOTTOM and node is not ARG:
            if id(node) not in found:
                found[id(node)] = node
                todo.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return found


class TestSharedValues:
    """A script parse shares the values it reads inside stated sequents and
    under contexts: a value read again is the one read first.  To ==, hash,
    repr, copying and pickling they are the oracle's unshared values, and
    no value is shared between two parses, or in a term parsed alone."""

    def test_each_level_restates_the_one_below(self):
        levels = []
        node = parser.parse_script(_tower(40)).proofs[0].tree
        while node.stated is not None:
            levels.append(node.stated)
            node = node.premises[0].premises[0].premises[0]
        assert len(levels) == 40
        for above, below in zip(levels, levels[1:]):
            hyps = below.hypotheses
            assert len(above.hypotheses) == len(hyps) + 1
            assert all(a is b for a, b in zip(above.hypotheses, hyps))
            assert above.conclusion.claim.left is below.conclusion.claim
            assert above.conclusion.witness.fn.body.fst is below.conclusion.witness

    def test_under_contexts_share_their_hypotheses(self):
        text = "claim A. actor P.\nproof D { andIntro(assume x : A under (y : A), assume z : A under (y : A)) }\n"
        left, right = (p.args.context[0] for p in parser.parse_script(text).proofs[0].tree.premises)
        assert left is right

    def test_two_parses_share_nothing(self):
        text = _tower(6)
        one, two = parser.parse_script(text), parser.parse_script(text)
        assert one == two
        assert not _nodes_of(one).keys() & _nodes_of(two).keys()

    def test_a_term_parsed_alone_shares_nothing(self):
        text = "(\\x.((a b, c), (a b, c)) x, (\\x.((a b, c), (a b, c)) x))"
        one, two = parser.parse_term(text), parser.parse_term(text)
        assert not _nodes_of(one).keys() & _nodes_of(two).keys()
        assert one.fst == one.snd and one.fst is not one.snd
        inner = one.fst.body.fn
        assert inner.fst == inner.snd and inner.fst is not inner.snd

    @pytest.mark.parametrize("text", [_tower(12), *(f.read_text(encoding="utf-8") for f in FIXTURES.glob("*.vlp"))])
    def test_alike_to_every_reader(self, text):
        new, old = parser.parse_script(text), oracle.parse_script(text)
        assert new == old
        for shared, alone in zip(new.proofs, old.proofs):
            for value in (shared, copy.copy(shared), copy.deepcopy(shared), pickle.loads(pickle.dumps(shared))):
                assert value == alone and hash(value) == hash(alone) and repr(value) == repr(alone)


def _declared_values(value):
    """The values a parse builds through its sharing table, by id: every
    value of _nodes_of but the leaves, which the whole parse shares."""
    return {k: v for k, v in _nodes_of(value).items() if not isinstance(v, (Atomic, Atom, Var))}


class TestSharingPerProof:
    """A script parse starts a sharing table at each proof and drops it at
    the proof's end: a value restated within one proof is the one read
    first, and two proofs that state equal values hold their own."""

    def test_stated_sequents(self):
        tower = _tower(8)
        text = tower + "proof Again" + tower.split("proof Tower", 1)[1]
        one, two = (decl.tree for decl in parser.parse_script(text).proofs)
        assert one == two
        for tree in (one, two):
            above, below = tree.stated, tree.premises[0].premises[0].premises[0].stated
            assert all(a is b for a, b in zip(above.hypotheses, below.hypotheses))
        assert not _declared_values(one).keys() & _declared_values(two).keys()

    def test_under_contexts(self):
        proof = "andIntro(assume x : A under (y : A), assume z : A under (y : A))"
        text = f"claim A. actor P.\nproof D {{ {proof} }}\nproof E {{ {proof} }}\n"
        (left, right), (again, _) = (
            [p.args.context[0] for p in decl.tree.premises] for decl in parser.parse_script(text).proofs
        )
        assert left is right and left == again and left is not again

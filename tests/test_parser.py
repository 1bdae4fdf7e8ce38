"""Parser and renderer tests: frozen syntax cases plus round-trip laws."""

import random
import re
import sys
import tracemalloc
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import veracity
from veracity.core import (
    ARG,
    And,
    Apply,
    AssumeArgs,
    Atom,
    Atomic,
    Bottom,
    CasesOf,
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
    Pair,
    ProofTree,
    Provenance,
    Rule,
    Sequent,
    SplitOf,
    TagFamily,
    TagL,
    TagR,
    TrustArgs,
    TrustEdge,
    TrustRelation,
    Var,
    alpha_equal,
    format_weight,
    neg,
)
from veracity.parser import (
    ParseError,
    Script,
    parse_claim,
    parse_judgement,
    parse_script,
    parse_sequent,
    parse_term,
    parse_weight_expr,
    render_claim,
    render_judgement,
    render_proof_tree,
    render_sequent,
    render_term,
    render_weight_expr,
    tokenize,
)
from veracity.parser import _Locator, _Parser, _kind

from strategies import VAR_NAMES, claims, terms, weight_exprs
from tokoracle import oracle_tokenize

FIXTURES = veracity.fixtures_path()

A, B, C, D = Atomic("A"), Atomic("B"), Atomic("C"), Atomic("D")


class TestTokenizer:
    def test_positions(self):
        tokens = tokenize("claim A.\nactor P.")
        assert (tokens[0].text, tokens[0].line, tokens[0].col) == ("claim", 1, 1)
        assert (tokens[3].text, tokens[3].line, tokens[3].col) == ("actor", 2, 1)

    def test_comments_are_skipped(self):
        tokens = tokenize("a # everything after is ignored /\\ |-\nb")
        assert [t.text for t in tokens] == ["a", "b", ""]

    def test_unicode_operators_normalize(self):
        assert [t.text for t in tokenize("A ∧ B ∨ ¬C → ⊥")] == [
            "A", "/\\", "B", "\\/", "~", "C", "->", "_|_", "",
        ]
        assert [t.text for t in tokenize("λx. x ∈ A ⊢ ·")] == [
            "\\", "x", ".", "x", ":", "A", "|-", "*", "",
        ]

    def test_primed_identifiers(self):
        assert [t.text for t in tokenize("x x' x''")][:3] == ["x", "x'", "x''"]

    def test_number_forms(self):
        # Digits are Unicode decimal digits, as Python's \d and Fraction
        # read them: "٣" is Arabic-Indic three.
        assert [t.kind for t in tokenize("1 0.5 1/3 ٣ ٠.٥")][:5] == ["number"] * 5

    def test_unknown_character_is_located(self):
        with pytest.raises(ParseError) as exc:
            tokenize("a\nb $")
        assert exc.value.line == 2 and exc.value.col == 3

    def test_falsity_is_one_token(self):
        assert [t.text for t in tokenize("_|_")][:1] == ["_|_"]

    def test_only_newline_ends_a_line(self):
        # \f, \v and the other characters str.splitlines breaks on are
        # not blanks: each is an unexpected character on its own line.
        for ch in "\f\v\x1c\x85\u2028":
            with pytest.raises(ParseError) as exc:
                tokenize(f"a\nb {ch} c")
            assert (exc.value.message, exc.value.line, exc.value.col) == (
                f"unexpected character {ch!r}", 2, 3,
            )

    def test_tokens_are_tuples(self):
        tok = tokenize("x")[0]
        assert tok == ("ident", "x", 1, 1)
        assert (tok.kind, tok.text, tok.line, tok.col) == tuple(tok)


def _tokens_or_error(tokenize_fn, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize_fn(text)]
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


# Pieces the tokenizer must split the same way the frozen one did: every
# operator in both spellings and the prefixes of the long ones, identifiers
# with primes, the number forms and their broken ends, strings with escapes
# and unterminated ones, comments, every blank and near-blank, and
# characters no token starts with.
_TOKEN_PIECES = [
    "/\\", "\\/", "->", "=>", "|-", "_|_", "_|", "-", ">", "/", "\\",
    *"(){}[],.:;^@|=*~",
    *"∧∨→¬⊥λ⊢∈·",
    "x", "x'", "x''", "_a1'", "A", "i", "j", "z", "min", "i(", "claim",
    "1", "0.5", "1/3", "10.25/7", "1.", "1/", ".5", "0.5.1", "٣",
    '"abc"', '"a\\"b"', '"a\\\\"', '""', '"unterminated', '"a\\', '"\\x"', '"a\nb"',
    "# comment /\\ |-", "#", "#\n",
    " ", "  ", "\t", "\r", "\r\n", "\n", "\n\n", "\f", "\u00a0", "\u2028",
    "$", "?", "é",
]
_TOKEN_CHARS = "".join(sorted(set("".join(_TOKEN_PIECES))))

token_texts = st.lists(
    st.one_of(st.sampled_from(_TOKEN_PIECES), st.text(alphabet=_TOKEN_CHARS, max_size=3)),
    max_size=30,
).map("".join)


def _mutations(text: str, seed: int, count: int) -> list[str]:
    """count copies of text, each with a few characters deleted, inserted
    or swapped with the next."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 4)):
            if not chars:
                break
            at = rng.randrange(len(chars))
            how = rng.randrange(3)
            if how == 0:
                del chars[at]
            elif how == 1:
                chars.insert(at, rng.choice(_TOKEN_CHARS))
            elif at + 1 < len(chars):
                chars[at], chars[at + 1] = chars[at + 1], chars[at]
        out.append("".join(chars))
    return out


class TestTokenizerOracle:
    """tokenize agrees with the frozen tokenizer in tokoracle.py: the same
    (kind, text, line, col) tokens, or the same error at the same place."""

    @given(token_texts)
    @settings(max_examples=1500)
    def test_matches_the_oracle(self, text):
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(oracle_tokenize, text)

    @pytest.mark.parametrize("edge", ["", "\n", "a", "a\n", "a\n\n", "\n\na", "  \n\t", "a #"])
    def test_matches_the_oracle_at_the_edges(self, edge):
        assert _tokens_or_error(tokenize, edge) == _tokens_or_error(oracle_tokenize, edge)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.vlp")))
    def test_matches_the_oracle_on_fixtures_and_their_mutations(self, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        variants = [text, text.rstrip("\n"), *_mutations(text, zlib.crc32(name.encode()), 150)]
        for k, variant in enumerate(variants):
            assert _tokens_or_error(tokenize, variant) == _tokens_or_error(oracle_tokenize, variant), k


# Unicode and ASCII operators, CRLF line ends, comments holding operator
# and string text, and string literals, three times over.
_MIXED_TEXT = (
    'claim A, B.  # A /\\ B -> A, "not a string" |- ⊥\r\n'
    "actor P, Q.\r\n"
    'query a{who="P -> Q", how="said"}^P : A ∧ B → A /\\ B in M.\r\n'
    "query λx. x^Q @ 0.5 : ¬A ∨ B \\/ A -> A in M.  # ⊢ ∈ · ⊥\r\n"
) * 3


class TestSharedLexemes:
    """A parse keeps one string per distinct lexeme, in a table of its own,
    and tokenize, which runs the parser's scan, gives those strings."""

    def test_equal_lexemes_are_one_object(self):
        texts = [token.text for token in tokenize(_MIXED_TEXT)]
        first: dict[str, str] = {}
        for text in texts:
            assert first.setdefault(text, text) is text, text
        assert len(first) < len(texts) / 4

    def test_two_scans_share_no_table(self):
        one, two = ([token.text for token in tokenize(_MIXED_TEXT)] for _ in range(2))
        assert one == two
        # Identifiers, strings and numbers are shared within a scan, never
        # between two (one-character strings are the interpreter's own).
        kept = [k for k, text in enumerate(one) if len(text) > 1 and _kind(text) != "op"]
        assert kept and not any(one[k] is two[k] for k in kept)
        claims = [text for text in one if text == "claim"]
        assert len(claims) == 3 and claims[0] is claims[1] is claims[2]

    def test_tokenize_shares_them_and_agrees_with_the_oracle(self):
        tokens = tokenize(_MIXED_TEXT)
        assert _tokens_or_error(tokenize, _MIXED_TEXT) == _tokens_or_error(oracle_tokenize, _MIXED_TEXT)
        arrows = [t.text for t in tokens if t.text == "->"]
        assert len(arrows) == 6 and all(a is arrows[0] for a in arrows)

    def test_far_offsets_locate(self):
        # 100,000 characters of tokens before each error, past what two
        # bytes hold.  The scan locates its own from the match, the parser
        # the offset of its current token.
        head = "x /\\ y\r\n" * 12_500
        assert len(head) == 100_000
        with pytest.raises(ParseError) as exc:
            tokenize(head + "A ∧ $")
        assert (exc.value.message, exc.value.line, exc.value.col) == ("unexpected character '$'", 12_501, 5)
        assert _tokens_or_error(oracle_tokenize, head + "A ∧ $") == ("error", "unexpected character '$'", 12_501, 5)
        with pytest.raises(ParseError) as exc:
            parse_claim("(" * 10 + "A" + " /\\ A" * 20_000 + "\n  ∧ )")
        assert (exc.value.line, exc.value.col) == (2, 5)


# A script with a slot for each operator that has a Unicode spelling, and
# for a comment and a string, which may hold any text.
_SPELLABLE = (
    "claim A, B.  # {note}\n"
    "actor P, Q.\n"
    'model M {{ A = {{ a{{who="{who}"}}^P. }}. }}\n'
    "query {lam}x.x^Q @ 0.5 {in} A {and} B {imp} ({not}A {or} {bot}) in M.\n"
    "proof D {{ impIntro(x, assume x^P {in} A stating (x^P {in} A {turn} x^P {in} A), 0.5 {times} z) }}\n"
)
_SPELLINGS = {
    "and": ("/\\", "∧"), "or": ("\\/", "∨"), "imp": ("->", "→"), "not": ("~", "¬"), "bot": ("_|_", "⊥"),
    "lam": ("\\", "λ"), "turn": ("|-", "⊢"), "in": (":", "∈"), "times": ("*", "·"),
}


def _spelled(unicode_ops, note="plain", who="w"):
    """_SPELLABLE with the operators named in unicode_ops in their Unicode
    spelling and the others in ASCII."""
    ops = {name: pair[name in unicode_ops] for name, pair in _SPELLINGS.items()}
    return _SPELLABLE.format(note=note, who=who, **ops)


class TestSpellings:
    """The scan maps a Unicode operator to its ASCII spelling where it meets
    it, so non-ASCII text in a comment or a string maps nothing, and a script
    in any mix of spellings reads as its ASCII spelling does."""

    @pytest.mark.parametrize(
        "unicode_ops, note, who",
        [
            ((), "naïve: ∧ → ⊢ λ", "w"),
            ((), "plain", "café →"),
            (("and", "not", "lam", "in"), "plain", "w"),
            (tuple(_SPELLINGS), "é", "café"),
        ],
        ids=["comment", "string", "mixed", "unicode"],
    )
    def test_reads_as_its_ascii_spelling(self, unicode_ops, note, who):
        text = _spelled(unicode_ops, note, who)
        assert not text.isascii()
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(oracle_tokenize, text)
        assert parse_script(text) == parse_script(_spelled((), who=who))


class TestErrorLocations:
    """Errors whose location comes from a token the parser has stepped past
    or looked ahead of, with the message, line and column each had when
    every token carried its own position."""

    @pytest.mark.parametrize(
        "parse, text, message, line, col",
        [
            (parse_term, 'a{who="x", who="y"}', "duplicate provenance field 'who'", 1, 12),
            (parse_term, "split(p, x. x. x)", "split binders must be distinct", 1, 1),
            (parse_term, '\\x. x{who="y"}', "provenance belongs on atoms, not bound variables", 1, 5),
            (parse_term, 'a{why="y"}', "unknown provenance field 'why'", 1, 3),
            (parse_term, "a{who=b}", "expected a quoted string, found 'b'", 1, 7),
            (parse_weight_expr, "z * (", "expected a weight expression, found end of input", 1, 6),
            (parse_script, "claim A.\nactor P, Q.\nmodel M {\n  A = { a. }.\n}\n",
             "actor 'default' is not declared", 4, 9),
        ],
    )
    def test_error(self, parse, text, message, line, col):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)

    def test_no_location_is_worked_out_where_none_is_kept(self, monkeypatch):
        # Names, edges, weights and model entries keep no location, so a
        # script of them parses without locating a single offset.
        def refuse(locator, offset):
            raise AssertionError("a location was worked out")

        monkeypatch.setattr(_Locator, "__call__", refuse)
        edges = " ".join(f"a{k} -> a{k + 1} @ 0.5." for k in range(50))
        actors = ", ".join(f"a{k}" for k in range(51))
        parse_script(f"claim A.\nactor {actors}.\ntrust T {{ {edges} }}\n")
        parse_term("cases(i(a), x. (x, b), y. split(y, u. v. u v))")
        parse_sequent("x^P@0.5 : A |- (\\y.x)^P : B -> A")


def _token_at(text, loc, word):
    """Whether the token at (line, col) of text is word, found by slicing
    the source alone."""
    line, col = loc
    rest = text.split("\n")[line - 1][col - 1:]
    after = rest[len(word):len(word) + 1]
    return rest.startswith(word) and not (after.isalnum() or after in ("_", "'"))


class TestLocations:
    """Every location a parsed script keeps points at its token, checked by
    slicing the source text, not through the scanner: each proof node at
    its rule name, each proof and model at its name, and each query, sound
    and compare declaration at its keyword.  Covers the fixtures and every
    seeded mutation of them that still parses."""

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.vlp")))
    def test_locations_point_at_their_tokens(self, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        checked = 0
        for k, variant in enumerate([text, *_mutations(text, zlib.crc32(name.encode()) + 1, 150)]):
            try:
                script = parse_script(variant)
            except ParseError:
                continue
            for decl in script.proofs:
                assert _token_at(variant, decl.loc, decl.name), (k, decl)
                nodes = [decl.tree]
                while nodes:
                    node = nodes.pop()
                    assert _token_at(variant, node.loc, node.rule.value), (k, node.loc, node.rule)
                    nodes.extend(node.premises)
                    checked += 1
            for decl in script.models:
                assert _token_at(variant, decl.loc, decl.name), (k, decl.name, decl.loc)
            for decls, keyword in ((script.queries, "query"), (script.sounds, "sound"),
                                   (script.compares, "compare")):
                for decl in decls:
                    assert _token_at(variant, decl.loc, keyword), (k, decl)
                    checked += 1
        assert checked > 0


class TestClaimParsing:
    def test_precedence(self):
        assert parse_claim("A /\\ B \\/ C -> D") == Implies(Or(And(A, B), C), D)

    def test_implication_is_right_associative(self):
        assert parse_claim("A -> B -> C") == Implies(A, Implies(B, C))

    def test_negation_binds_tightest(self):
        assert parse_claim("~A \\/ B") == Or(neg(A), B)
        assert parse_claim("~~A") == neg(neg(A))

    def test_negation_is_implication_to_falsity(self):
        assert parse_claim("~A") == Implies(A, Bottom())

    def test_parentheses_override(self):
        assert parse_claim("A /\\ (B \\/ C)") == And(A, Or(B, C))

    def test_unicode_input(self):
        assert parse_claim("A ∧ B → ⊥") == Implies(And(A, B), Bottom())

    @pytest.mark.parametrize(
        "claim,text",
        [
            (And(Or(A, B), C), "(A \\/ B) /\\ C"),
            (Or(Or(A, B), C), "A \\/ B \\/ C"),
            (Or(A, Or(B, C)), "A \\/ (B \\/ C)"),
            (Implies(Implies(A, B), C), "(A -> B) -> C"),
            (Implies(A, Implies(B, C)), "A -> B -> C"),
            (neg(And(A, B)), "~(A /\\ B)"),
            (neg(A), "~A"),
            (And(A, neg(B)), "A /\\ ~B"),
            (And(And(A, B), C), "A /\\ B /\\ C"),
            (And(A, And(B, C)), "A /\\ (B /\\ C)"),
            (Or(neg(A), Bottom()), "~A \\/ _|_"),
            (Implies(A, Bottom()), "~A"),
        ],
    )
    def test_render_minimal_parens(self, claim, text):
        assert render_claim(claim) == text
        assert parse_claim(text) == claim

    @given(claims())
    def test_round_trip(self, claim):
        assert parse_claim(render_claim(claim)) == claim


class TestTermParsing:
    def test_pair_and_tags(self):
        assert parse_term("(a,b)") == Pair(Atom("a"), Atom("b"))
        assert parse_term("i(a)") == TagL(Atom("a"))
        assert parse_term("j(b)") == TagR(Atom("b"))

    def test_cases_binds_its_variables(self):
        t = parse_term("cases(c, x.x, y.d)")
        assert t == CasesOf(Atom("c"), "x", Var("x"), "y", Atom("d"))

    def test_split_binds_both_variables(self):
        t = parse_term("split(c, x.y.(y,x))")
        assert t == SplitOf(Atom("c"), "x", "y", Pair(Var("y"), Var("x")))

    def test_split_binders_must_differ(self):
        with pytest.raises(ParseError):
            parse_term("split(c, x.x.x)")

    def test_free_identifiers_are_atoms_bound_are_variables(self):
        assert parse_term("\\x.x") == Lambda("x", Var("x"))
        assert parse_term("\\x.a") == Lambda("x", Atom("a"))
        assert parse_term("x", var_names=["x"]) == Var("x")
        assert parse_term("x") == Atom("x")

    def test_application_is_left_associative(self):
        assert parse_term("f a b") == Apply(Apply(Atom("f"), Atom("a")), Atom("b"))

    def test_lambda_body_extends_right(self):
        assert parse_term("\\x.f x", var_names=["f"]) == Lambda(
            "x", Apply(Var("f"), Var("x"))
        )

    def test_parenthesized_lambda_applies(self):
        assert parse_term("(\\x.x) a") == Apply(Lambda("x", Var("x")), Atom("a"))

    def test_curried_witness(self):
        text = "\\z.\\y.\\x.((x,y),z)"
        t = parse_term(text)
        assert t == Lambda(
            "z",
            Lambda("y", Lambda("x", Pair(Pair(Var("x"), Var("y")), Var("z")))),
        )
        assert render_term(t) == text

    def test_annotated_lambda(self):
        t = parse_term("\\x.(x)@0.5*z")
        assert t == Lambda("x", Var("x"), Mul(Const(Fraction(1, 2)), ARG))
        assert render_term(t) == "\\x.(x)@0.5*z"
        t2 = parse_term("\\x.(a b)@min(z, 0.5)")
        assert t2.weight_fn == Min(ARG, Const(Fraction(1, 2)))

    def test_constructors_need_adjacent_paren(self):
        assert parse_term("i (a)") == Apply(Atom("i"), Atom("a"))
        assert parse_term("i(a)") == TagL(Atom("a"))
        assert parse_term("f i (a,b)") == Apply(
            Apply(Atom("f"), Atom("i")), Pair(Atom("a"), Atom("b"))
        )
        assert parse_term("cases (a,b)") == Apply(Atom("cases"), Pair(Atom("a"), Atom("b")))
        # A "(" at the start of the next line is not adjacent either.
        assert parse_term("i\n(a)") == Apply(Atom("i"), Atom("a"))
        assert parse_term("a\ni(a)") == Apply(Atom("a"), TagL(Atom("a")))
        assert parse_term("split\t(p)") == Apply(Atom("split"), Atom("p"))
        assert parse_term("i(\na)") == TagL(Atom("a"))

    def test_provenance(self):
        t = parse_term('a{who="p", when="2024"}')
        assert t == Atom("a", Provenance(who="p", when="2024"))
        assert render_term(t) == 'a{who="p", when="2024"}'

    def test_provenance_escapes(self):
        t = parse_term('a{who="quo\\"te", how="back\\\\slash"}')
        assert t.provenance.who == 'quo"te'
        assert t.provenance.how == "back\\slash"
        assert parse_term(render_term(t)) == t

    def test_provenance_rejects_unknown_fields(self):
        with pytest.raises(ParseError):
            parse_term('a{badfield="p"}')

    def test_provenance_rejected_on_bound_variables(self):
        with pytest.raises(ParseError):
            parse_term('\\x.x{who="p"}')

    def test_unicode_lambda(self):
        assert parse_term("λx.x") == Lambda("x", Var("x"))

    @given(terms())
    @settings(max_examples=300)
    def test_round_trip(self, term):
        reparsed = parse_term(render_term(term), var_names=VAR_NAMES)
        assert alpha_equal(reparsed, term)

    @pytest.mark.parametrize(
        "term, text",
        [
            (Lambda("y", Atom("y")), "\\y'.y"),
            (Lambda("y", Pair(Var("y"), Atom("y", Provenance(who="p")))), "\\y'.(y',y{who=\"p\"})"),
            # y' is taken by a binder, so the clashing y becomes y''.
            (Lambda("y", Lambda("y'", Pair(Var("y"), Atom("y")))), "\\y''.\\y'.(y'',y)"),
            # Both binders have the atom in scope; the inner one may be
            # shown as the outer one is, since it shadows it.
            (Lambda("a", Lambda("a", Pair(Var("a"), Atom("a")))), "\\a'.\\a'.(a',a)"),
            (Pair(Lambda("b", Atom("b")), Lambda("b", Var("b"))), "(\\b'.b,\\b.b)"),
            (CasesOf(Atom("x"), "x", Atom("x"), "x", Var("x")), "cases(x, x'.x, x.x)"),
            (SplitOf(Atom("p"), "u", "v", Pair(Atom("v"), Var("u"))), "split(p, u.v'.(v,u))"),
        ],
    )
    def test_binder_with_an_atom_of_its_name_in_scope_is_renamed(self, term, text):
        assert render_term(term) == text
        assert alpha_equal(parse_term(text), term)


class TestWeightExprParsing:
    def test_product_is_left_associative(self):
        assert parse_weight_expr("z*0.5*z") == Mul(Mul(ARG, Const(Fraction(1, 2))), ARG)

    def test_min_and_parens(self):
        assert parse_weight_expr("min(z, 0.5*z)") == Min(ARG, Mul(Const(Fraction(1, 2)), ARG))
        assert parse_weight_expr("z*(z*z)") == Mul(ARG, Mul(ARG, ARG))

    def test_fraction_weights(self):
        assert parse_weight_expr("1/3") == Const(Fraction(1, 3))

    def test_unicode_digit_weights(self):
        assert parse_weight_expr("٠.٥*z") == Mul(Const(Fraction(1, 2)), ARG)
        script = parse_script("actor a, b. trust T { a -> b @ ٠.٥. }")
        assert script.relations[0].edges == (TrustEdge("a", "b", Fraction(1, 2)),)

    def test_weight_above_one_is_rejected(self):
        with pytest.raises(ParseError):
            parse_weight_expr("1.5")

    @given(weight_exprs())
    def test_round_trip(self, expr):
        assert parse_weight_expr(render_weight_expr(expr)) == expr


class TestJudgementParsing:
    def test_full_form(self):
        j = parse_judgement("a^P@0.5 : A")
        assert j == Judgement(Atom("a"), "P", Fraction(1, 2), A)

    def test_defaults(self):
        j = parse_judgement("a : A")
        assert j.actor == "default" and j.weight == 1

    def test_render_omits_defaults(self):
        assert render_judgement(Judgement(Atom("a"), "default", Fraction(1), A)) == "a : A"
        assert (
            render_judgement(Judgement(Atom("a"), "P", Fraction(2, 5), A)) == "a^P@0.4 : A"
        )

    def test_lambda_annotation_is_greedy(self):
        j = parse_judgement("\\x.x@0.5 : A")
        assert j.witness == Lambda("x", Var("x"), Const(Fraction(1, 2)))
        assert j.weight == 1

    def test_lambda_witness_with_judgement_weight_renders_safely(self):
        j = Judgement(Lambda("x", Var("x")), "default", Fraction(1, 2), A)
        text = render_judgement(j)
        assert text == "(\\x.x)@0.5 : A"
        assert parse_judgement(text) == j

    def test_unicode_membership(self):
        assert parse_judgement("a ∈ A") == Judgement(Atom("a"), "default", Fraction(1), A)


class TestSequentParsing:
    def test_hypothesis_variables_bind_in_conclusion(self):
        s = parse_sequent("x : A, y^Q : B |- (x,y) : A /\\ B")
        assert s.hypotheses == (
            Hypothesis("x", "default", Fraction(1), A),
            Hypothesis("y", "Q", Fraction(1), B),
        )
        assert s.conclusion.witness == Pair(Var("x"), Var("y"))

    def test_empty_hypotheses(self):
        s = parse_sequent("|- a : A")
        assert s.hypotheses == ()
        assert render_sequent(s) == "|- a : A"

    def test_hypothesis_weights(self):
        s = parse_sequent("x@0.5 : A |- x : A")
        assert s.hypotheses[0].weight == Fraction(1, 2)

    def test_render_round_trip(self):
        text = "x^P : C1, y^P@0.5 : C2 |- (x,y)^P : C1 /\\ C2"
        s = parse_sequent(text)
        assert render_sequent(s) == text
        assert parse_sequent(render_sequent(s)) == s


class TestProofTreeParsing:
    def parse_tree(self, text, default_actor="default"):
        from veracity.parser import _Parser

        p = _Parser(text)
        p.default_actor = default_actor
        tree = p.tree()
        p.expect_eof()
        return tree

    def test_assume(self):
        t = self.parse_tree("assume x^P : A")
        assert t.rule is Rule.ASSUME
        assert t.args == AssumeArgs("x", A, "P", ())

    def test_assume_under_carries_context(self):
        t = self.parse_tree("assume x : A under (h^P : B, k@0.5 : C)")
        assert t.args.context == (
            Hypothesis("h", "P", Fraction(1), B),
            Hypothesis("k", "default", Fraction(1, 2), C),
        )

    def test_stating_attaches_a_sequent(self):
        t = self.parse_tree("assume x : A stating (x : A |- x : A)")
        assert t.stated == Sequent(
            (Hypothesis("x", "default", Fraction(1), A),),
            Judgement(Var("x"), "default", Fraction(1), A),
        )

    def test_nested_nodes(self):
        t = self.parse_tree("andIntro(assume x : A, assume y : B)")
        assert t.rule is Rule.AND_INTRO
        assert [p.rule for p in t.premises] == [Rule.ASSUME, Rule.ASSUME]

    def test_or_elim_with_tag_family(self):
        t = self.parse_tree(
            "orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, i => A | j => B)"
        )
        assert t.args == OrElimArgs(TagFamily(A, B), "u", "v")

    def test_or_elim_with_constant_family(self):
        t = self.parse_tree(
            "orElim(assume x : A \\/ A, u.assume u : A, v.assume v : A, A)"
        )
        assert t.args.family == ConstantFamily(A)

    def test_imp_intro_with_transformer(self):
        t = self.parse_tree("impIntro(x, assume x : A, 0.5*z)")
        assert t.args == ImpIntroArgs("x", Mul(Const(Fraction(1, 2)), ARG))

    def test_trust_node(self):
        t = self.parse_tree("trust(T, k -> l, assume a^l : A)")
        assert t.args == TrustArgs("T", "k", "l")

    @pytest.mark.parametrize(
        "text",
        [
            "assume x^P : A",
            "assume x : A under (h^P : B)",
            "claim(assume x : A)",
            "bottomElim(assume x : _|_, A)",
            "orIntroL(assume x : A, B)",
            "orIntroR(assume x : B, A)",
            "orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, i => A | j => B)",
            "andIntro(assume x : A, assume y : B)",
            "andElim(assume x : A /\\ B, u.v.assume u : A, A)",
            "impIntro(x, assume x : A)",
            "impIntro(x, assume x : A, 0.5*z)",
            "impElim(assume f : A -> B, assume x : A)",
            "trust(T, k -> l, assume a^l : A)",
            "assume x : A stating (x : A |- x : A)",
        ],
    )
    def test_render_round_trip(self, text):
        tree = self.parse_tree(text)
        rendered = render_proof_tree(tree)
        assert self.parse_tree(rendered) == tree


class TestScriptParsing:
    GOOD = """
    # A small end-to-end script.
    claim A, B.
    actor P, Q.
    trust T {
      P -> Q @ 0.5.
    }
    proof Both {
      andIntro(assume x^P : A, assume y^P : B)
    }
    model M uses T {
      A = { a^P@1.0. }.
      B = { }.
    }
    query a^P : A in M.
    sound Both in M.
    compare chain T star T from P to Q.
    """

    def test_full_script(self):
        script = parse_script(self.GOOD)
        assert script.claims == ("A", "B")
        assert script.actors == ("P", "Q")
        assert script.relations[0].edges == (TrustEdge("P", "Q", Fraction(1, 2)),)
        assert script.proofs[0].name == "Both"
        assert script.models[0].uses == ("T",)
        assert script.models[0].assignments[0][0] == "A"
        assert script.queries[0].model == "M"
        assert script.sounds[0] .proof == "Both"
        assert script.compares[0].source == "P"

    def test_default_actor_rules(self):
        assert parse_script("").default_actor == "default"
        assert parse_script("actor P.").default_actor == "P"
        assert parse_script("actor P, Q.").default_actor == "default"

    def test_sole_actor_becomes_default(self):
        script = parse_script("claim A. actor P. proof X { assume x : A }")
        tree = script.proofs[0].tree
        assert tree.args.actor is None

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(ParseError, match="duplicate name"):
            parse_script("claim A. claim A.")
        with pytest.raises(ParseError, match="duplicate name"):
            parse_script("claim A. actor A.")

    def test_duplicate_trust_edges_are_rejected(self):
        with pytest.raises(ParseError, match="duplicate trust edge"):
            parse_script("actor P, Q. trust T { P -> Q. P -> Q @ 0.5. }")

    def test_use_before_declaration(self):
        with pytest.raises(ParseError, match="not declared"):
            parse_script("actor P. trust T { P -> Q. }")
        with pytest.raises(ParseError, match="not declared"):
            parse_script("proof X { assume x : A }")
        with pytest.raises(ParseError, match="not declared"):
            parse_script("claim A. model M { B = { }. }")
        with pytest.raises(ParseError, match="not declared"):
            parse_script("claim A. query a : A in M.")
        with pytest.raises(ParseError, match="not declared"):
            parse_script("model M uses T { }")
        with pytest.raises(ParseError, match="not declared"):
            parse_script("claim A. model M { } sound X in M.")

    def test_trust_node_requires_declared_relation(self):
        with pytest.raises(ParseError, match="not declared"):
            parse_script("claim A. actor P. proof X { trust(T, P -> P, assume a^P : A) }")

    def test_model_entry_actor_must_exist(self):
        with pytest.raises(ParseError, match="not declared"):
            parse_script("claim A. actor P. model M { A = { a^R. }. }")

    def test_duplicate_model_assignment(self):
        with pytest.raises(ParseError, match="assigned twice"):
            parse_script("claim A. model M { A = { }. A = { }. }")

    def test_errors_carry_location(self):
        try:
            parse_script("claim A.\nclaim A.")
        except ParseError as exc:
            assert exc.line == 2
            assert exc.col == 7
        else:
            pytest.fail("expected a ParseError")


class TestScriptErrors:
    """Exact message, line and column of each script-level parse error,
    and which of two faults is reported."""

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            # a claim in a model assignment, a query or a proof
            ('claim A. model M { B = { }. }', "claim 'B' is not declared", 1, 20),
            ('claim A. model M { A = { }. b = { }. }', "claim 'b' is not declared", 1, 29),
            ('claim A. actor P. model M { P = { }. }', "claim 'P' is not declared", 1, 29),
            ('claim A. model M { } query a : B in M.', "claim 'B' is not declared", 1, 22),
            ('claim A. proof X { assume x : B }', "claim 'B' is not declared", 1, 20),
            ('claim A. actor P. proof X { assume x : A under (h : A, k : B) }',
             "claim 'B' is not declared", 1, 29),
            # an actor on a trust edge, after a model entry's ^, as a model
            # entry's default actor, in a query, in a compare and in a proof
            ('actor P. trust T { Q -> P. }', "actor 'Q' is not declared", 1, 20),
            ('actor P. trust T { P -> Q. }', "actor 'Q' is not declared", 1, 25),
            ('claim A. actor P. model M { A = { a^R. }. }', "actor 'R' is not declared", 1, 37),
            ('claim A. actor P, Q. model M { A = { a. }. }',
             "actor 'default' is not declared", 1, 38),
            ('claim A. actor P, Q. model M { A = { (a, b) @ 0.5. }. }',
             "actor 'default' is not declared", 1, 38),
            ('claim A. actor P. model M { } query a^R : A in M.',
             "actor 'R' is not declared", 1, 31),
            ('claim A. actor P, Q. model M { } query a : A in M.',
             "actor 'default' is not declared", 1, 34),
            ('actor P, Q. trust T { } compare chain T star T from R to Q.',
             "actor 'R' is not declared", 1, 53),
            ('actor P, Q. trust T { } compare chain T star T from P to R.',
             "actor 'R' is not declared", 1, 58),
            ('claim A. actor P. proof X { assume x^R : A }', "actor 'R' is not declared", 1, 29),
            ('claim A. actor P. proof X { assume x : A under (h^R : A) }',
             "actor 'R' is not declared", 1, 29),
            ('claim A. actor P. proof X { assume x : A stating (|- x^R : A) }',
             "actor 'R' is not declared", 1, 29),
            ('claim A. actor P, Q. proof X { assume x^P : A stating (|- x : A) }',
             "actor 'default' is not declared", 1, 32),
            # a trust relation in uses and in compare
            ('model M uses T { }', "trust relation 'T' is not declared", 1, 14),
            ('actor P. trust T { } model M uses T, U { }',
             "trust relation 'U' is not declared", 1, 38),
            ('actor P. trust T { } claim A. model M uses P { }',
             "trust relation 'P' is not declared", 1, 44),
            ('claim A. actor P. model M uses A { }', "trust relation 'A' is not declared", 1, 32),
            ('actor P, Q. trust T { } compare chain U star T from P to Q.',
             "trust relation 'U' is not declared", 1, 39),
            ('actor P, Q. trust T { } compare chain T star U from P to Q.',
             "trust relation 'U' is not declared", 1, 46),
            # a model in query and sound, a proof in sound
            ('claim A. query a : A in M.', "model 'M' is not declared", 1, 25),
            ('claim A. proof X { assume x : A } query a : A in X.',
             "model 'X' is not declared", 1, 50),
            ('claim A. proof X { assume x : A } sound X in M.',
             "model 'M' is not declared", 1, 46),
            ('claim A. model M { } sound X in M.', "proof 'X' is not declared", 1, 28),
            ('claim A. model M { } sound A in M.', "proof 'A' is not declared", 1, 28),
            # duplicates, unknown declarations and stray tokens
            ('claim A, A.', "duplicate name 'A'", 1, 10),
            ('claim A. actor A.', "duplicate name 'A'", 1, 16),
            ('actor P. trust P { }', "duplicate name 'P'", 1, 16),
            ('claim A. proof A { assume x : A }', "duplicate name 'A'", 1, 16),
            ('claim A. model M { } model M { }', "duplicate name 'M'", 1, 28),
            ('claim A.\nclaim A.', "duplicate name 'A'", 2, 7),
            ('actor P. trust T { P -> P. } trust T { P -> Q. }', "duplicate name 'T'", 1, 36),
            ('actor P, Q. trust T { P -> Q. P -> Q @ 0.5. }',
             'duplicate trust edge P -> Q', 1, 31),
            ('claim A. model M { A = { }. A = { }. }', "claim 'A' assigned twice", 1, 29),
            ('frob X.', "unknown declaration 'frob'", 1, 1),
            ('claim A. 1', "expected a declaration, found '1'", 1, 10),
            ('claim A. .', "expected a declaration, found '.'", 1, 10),
            ('claim A. "s"', 'expected a declaration, found \'"s"\'', 1, 10),
            # two faults: the one the parser meets first wins
            ('claim A. actor P. model M { A = { a^R@2.0. }. }',
             "actor 'R' is not declared", 1, 37),
            ('claim A. actor P. model M { A = { a^R }. }', "actor 'R' is not declared", 1, 37),
            ('claim A. actor P, Q. model M { A = { a@2.0. }. }',
             "bad weight '2.0': weight 2 outside [0, 1]", 1, 40),
            ('claim A. actor P, Q. model M { A = { a }. }', "expected '.', found '}'", 1, 40),
            ('claim A. claim A 1', "duplicate name 'A'", 1, 16),
            ('claim A, A, 1.', "duplicate name 'A'", 1, 10),
            ('model M uses U { B = { }. }', "trust relation 'U' is not declared", 1, 14),
            ('actor P. trust T { Q -> R }', "actor 'Q' is not declared", 1, 20),
            ('actor P. trust T { P -> Q @ 2.0. }', "actor 'Q' is not declared", 1, 25),
            ('actor P, Q. trust T { P -> Q. P -> Q @ 2.0. }',
             "bad weight '2.0': weight 2 outside [0, 1]", 1, 40),
            ('actor P, Q. trust T { P -> Q. P -> Q }', "expected '.', found '}'", 1, 38),
            ('claim A. actor P. model M { A = { }. A = { a^R. }. }',
             "claim 'A' assigned twice", 1, 38),
            ('claim A. actor P. model M { } query a^R : B in M.',
             "claim 'B' is not declared", 1, 31),
            ('claim A. model M { } query a : D /\\ C in M.', "claim 'C' is not declared", 1, 22),
            ("claim A. model M { } query a : " + " /\\ ".join("ZYXWVUTSRQPONMLKJIHGFEDCB") + " in M.",
             "claim 'B' is not declared", 1, 22),
            ('claim A. query a : B in M.', "claim 'B' is not declared", 1, 10),
            ('claim A. model M { } query a : B in M', "claim 'B' is not declared", 1, 22),
            ('sound X in M.', "proof 'X' is not declared", 1, 7),
            ('actor P. compare chain U star V from R to S.',
             "trust relation 'U' is not declared", 1, 24),
            ('claim A. proof X { assume x : B } frob.', "claim 'B' is not declared", 1, 20),
            ('claim A. proof X { assume x : B', "expected '}', found end of input", 1, 32),
        ],
    )
    def test_error(self, text, message, line, col):
        with pytest.raises(ParseError) as exc:
            parse_script(text)
        assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)

    @pytest.mark.parametrize(
        "text",
        [
            # until a script declares an actor, the default actor needs no
            # declaration, whatever else "default" names
            "claim A. model M { A = { a^default. }. } query a^default : A in M.",
            "claim default. model M { default = { a. }. } query a : default in M.",
            "claim A. model M { A = { a. }. } actor P. query a^P : A in M.",
            "actor default, P. claim A. model M { A = { a. }. } query a : A in M.",
        ],
    )
    def test_default_actor_needs_no_declaration_before_any_actor(self, text):
        parse_script(text)


class TestProofTreeErrors:
    """Exact messages and locations for malformed or undeclared rule arguments.

    Each tree sits on line 3 of a script, indented by two columns, so a node
    at the start of the tree is reported at line 3, col 3."""

    PRELUDE = "claim A, B. actor P, Q. trust T { P -> Q. }\nproof X {\n"

    def error(self, tree):
        with pytest.raises(ParseError) as exc:
            parse_script(f"{self.PRELUDE}  {tree}\n}}")
        return exc.value.message, exc.value.line, exc.value.col

    @pytest.mark.parametrize(
        "tree, message, line, col",
        [
            # missing "("
            ("claim assume x : A", "expected '(', found 'assume'", 3, 9),
            ("bottomElim assume x : _|_, A)", "expected '(', found 'assume'", 3, 14),
            ("orIntroL assume x : A, B)", "expected '(', found 'assume'", 3, 12),
            ("orIntroR assume x : B, A)", "expected '(', found 'assume'", 3, 12),
            ("orElim assume x : A \\/ B, u.assume u : A, v.assume v : B, A)",
             "expected '(', found 'assume'", 3, 10),
            ("andIntro assume x : A, assume y : B)", "expected '(', found 'assume'", 3, 12),
            ("andElim assume x : A /\\ B, u.v.assume u : A, A)",
             "expected '(', found 'assume'", 3, 11),
            ("impIntro x, assume x : A)", "expected '(', found 'x'", 3, 12),
            ("impElim assume f : A -> B, assume x : A)", "expected '(', found 'assume'", 3, 11),
            ("trust T, P -> Q, assume a^Q : A)", "expected '(', found 'T'", 3, 9),
            # missing ","
            ("bottomElim(assume x : _|_ A)", "expected ',', found 'A'", 3, 29),
            ("orIntroL(assume x : A B)", "expected ',', found 'B'", 3, 25),
            ("orIntroR(assume x : B A)", "expected ',', found 'A'", 3, 25),
            ("orElim(assume x : A \\/ B u.assume u : A, v.assume v : B, A)",
             "expected ',', found 'u'", 3, 28),
            ("orElim(assume x : A \\/ B, u.assume u : A v.assume v : B, A)",
             "expected ',', found 'v'", 3, 44),
            ("orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B A)",
             "expected ',', found 'A'", 3, 60),
            ("andIntro(assume x : A assume y : B)", "expected ',', found 'assume'", 3, 25),
            ("andElim(assume x : A /\\ B u.v.assume u : A, A)", "expected ',', found 'u'", 3, 29),
            ("andElim(assume x : A /\\ B, u.v.assume u : A A)", "expected ',', found 'A'", 3, 47),
            ("impIntro(x assume x : A)", "expected ',', found 'assume'", 3, 14),
            ("impElim(assume f : A -> B assume x : A)", "expected ',', found 'assume'", 3, 29),
            ("trust(T P -> Q, assume a^Q : A)", "expected ',', found 'P'", 3, 11),
            ("trust(T, P -> Q assume a^Q : A)", "expected ',', found 'assume'", 3, 19),
            # missing ")"
            ("claim(assume x : A", "expected ')', found '}'", 4, 1),
            ("bottomElim(assume x : _|_, A", "expected ')', found '}'", 4, 1),
            ("orIntroL(assume x : A, B", "expected ')', found '}'", 4, 1),
            ("orIntroR(assume x : B, A", "expected ')', found '}'", 4, 1),
            ("orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, A",
             "expected ')', found '}'", 4, 1),
            ("andIntro(assume x : A, assume y : B", "expected ')', found '}'", 4, 1),
            ("andElim(assume x : A /\\ B, u.v.assume u : A, A", "expected ')', found '}'", 4, 1),
            ("impIntro(x, assume x : A", "expected ')', found '}'", 4, 1),
            ("impIntro(x, assume x : A, z", "expected ')', found '}'", 4, 1),
            ("impElim(assume f : A -> B, assume x : A", "expected ')', found '}'", 4, 1),
            ("trust(T, P -> Q, assume a^Q : A", "expected ')', found '}'", 4, 1),
            # missing "." after a binder
            ("orElim(assume x : A \\/ B, u assume u : A, v.assume v : B, A)",
             "expected '.', found 'assume'", 3, 31),
            ("orElim(assume x : A \\/ B, u.assume u : A, v assume v : B, A)",
             "expected '.', found 'assume'", 3, 47),
            ("andElim(assume x : A /\\ B, u v.assume u : A, A)", "expected '.', found 'v'", 3, 32),
            ("andElim(assume x : A /\\ B, u.v assume u : A, A)",
             "expected '.', found 'assume'", 3, 34),
            # missing "->" in a trust step
            ("trust(T, P Q, assume a^Q : A)", "expected '->', found 'Q'", 3, 14),
            # a non-identifier where a name is expected
            ("orElim(assume x : A \\/ B, (.assume u : A, v.assume v : B, A)",
             "expected a binder, found '('", 3, 29),
            ("orElim(assume x : A \\/ B, u.assume u : A, 1.assume v : B, A)",
             "expected a binder, found '1'", 3, 45),
            ("andElim(assume x : A /\\ B, ,.v.assume u : A, A)",
             "expected a binder, found ','", 3, 30),
            ("andElim(assume x : A /\\ B, u.).assume u : A, A)",
             "expected a binder, found ')'", 3, 32),
            ("impIntro(1, assume x : A)", "expected the discharged variable, found '1'", 3, 12),
            ("trust(1, P -> Q, assume a^Q : A)", "expected a trust relation, found '1'", 3, 9),
            ("trust(T, -> Q, assume a^Q : A)", "expected an actor, found '->'", 3, 12),
            ("trust(T, P -> 1, assume a^Q : A)", "expected an actor, found '1'", 3, 17),
            # a premise that is not a rule
            ("andIntro(assume x : A, frob(assume y : B))",
             "expected a rule name, found 'frob'", 3, 26),
            ("impIntro(x, 0.5)", "expected a rule name, found '0.5'", 3, 15),
        ],
    )
    def test_syntax_error(self, tree, message, line, col):
        assert self.error(tree) == (message, line, col)

    @pytest.mark.parametrize(
        "tree, message, line, col",
        [
            ("bottomElim(assume x : _|_, C)", "claim 'C' is not declared", 3, 3),
            ("orIntroL(assume x : A, C)", "claim 'C' is not declared", 3, 3),
            ("orIntroR(assume x : B, A /\\ C)", "claim 'C' is not declared", 3, 3),
            ("orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, C)",
             "claim 'C' is not declared", 3, 3),
            ("orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, i => C | j => B)",
             "claim 'C' is not declared", 3, 3),
            ("orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, i => A | j => C)",
             "claim 'C' is not declared", 3, 3),
            ("orElim(assume x : A \\/ B, u.assume u : A, v.assume v : B, i => C | j => D)",
             "claim 'C' is not declared", 3, 3),
            ("andElim(assume x : A /\\ B, u.v.assume u : A, C)", "claim 'C' is not declared", 3, 3),
            ("trust(U, P -> Q, assume a^Q : A)", "trust relation 'U' is not declared", 3, 3),
            ("trust(U, R -> R, assume a^Q : A)", "trust relation 'U' is not declared", 3, 3),
            ("trust(T, R -> Q, assume a^Q : A)", "actor 'R' is not declared", 3, 3),
            ("trust(T, P -> S, assume a^Q : A)", "actor 'S' is not declared", 3, 3),
            ("trust(T, R -> S, assume a^Q : A)", "actor 'R' is not declared", 3, 3),
            # a node's own arguments are checked before its premises and its
            # stated sequent, and each node reports at its rule token
            ("bottomElim(assume y : D, C)", "claim 'C' is not declared", 3, 3),
            ("orIntroL(assume x : A, C) stating (|- i(x) : D)", "claim 'C' is not declared", 3, 3),
            ("andIntro(assume x : A, impElim(assume f : A -> B, bottomElim(assume y : _|_, C)))",
             "claim 'C' is not declared", 3, 53),
        ],
    )
    def test_undeclared_name(self, tree, message, line, col):
        assert self.error(tree) == (message, line, col)

    @pytest.mark.parametrize(
        "tree",
        [
            "andIntro(bottomElim(assume x : _|_, C), assume y : B",
            "andIntro(bottomElim(assume x : _|_, C), assume y : B) stating (|- y : B",
        ],
    )
    def test_syntax_error_wins_over_an_earlier_undeclared_name(self, tree):
        assert self.error(tree) == ("expected ')', found '}'", 4, 1)


class TestTotality:
    ALPHABET = "ab xyzPQ.^@:|\\/~()_{}[]->=*,#\n\"0123456789'"

    @given(st.text(alphabet=ALPHABET, max_size=60))
    @settings(max_examples=400)
    def test_script_parse_never_raises_anything_else(self, text):
        try:
            parse_script(text)
        except ParseError as exc:
            assert exc.line >= 1 and exc.col >= 1

    @given(st.text(alphabet=ALPHABET, max_size=40))
    @settings(max_examples=400)
    def test_term_parse_never_raises_anything_else(self, text):
        try:
            parse_term(text)
        except ParseError:
            pass

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_term("(" * 5000 + "a" + ")" * 5000)

    def test_unterminated_string_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_term('a{who="unterminated}')


# Each nesting construct as (parse function, text nested n deep).
NESTINGS = {
    "claim-parens": (parse_claim, lambda n: "(" * n + "A" + ")" * n),
    "claim-negation": (parse_claim, lambda n: "~" * n + "A"),
    "claim-implication": (parse_claim, lambda n: "A -> " * n + "A"),
    "claim-disjunction": (parse_claim, lambda n: "A \\/ (" * n + "A" + ")" * n),
    "term-parens": (parse_term, lambda n: "(" * n + "a" + ")" * n),
    "term-pairs": (parse_term, lambda n: "(a, " * n + "a" + ")" * n),
    "term-tags": (parse_term, lambda n: "".join("ij"[k % 2] + "(" for k in range(n)) + "a" + ")" * n),
    "term-lambdas": (parse_term, lambda n: "\\x." * n + "x"),
    "proof-trust": (
        parse_script,
        lambda n: "claim A. actor P. trust R { P -> P. }\nproof D { "
        + "trust(R, P -> P, " * n + "assume x^P : A" + ")" * n + " }\n",
    ),
    "proof-orIntroL": (
        parse_script,
        lambda n: "claim A, B.\nproof D { " + "orIntroL(" * n + "assume x : A" + ", B)" * n + " }\n",
    ),
    "proof-impIntro": (
        parse_script,
        lambda n: "claim A.\nproof D { " + "impIntro(x, " * n + "assume x : A" + ")" * n + " }\n",
    ),
}

# Around the depths where 1, 3 and 5 frames a level exhaust each limit.
NESTING_DEPTHS = (1, 10, 50, 100, 190, 200, 320, 330, 480, 500, 980, 1000,
                  1990, 2000, 3320, 3330, 4980, 5000, 9980, 10000, 20000)


class TestNestingTooDeep:
    """Every depth of every nesting construct parses or raises a located
    "nesting too deep", at the interpreter's default recursion limit and at
    the one the CLI sets; depths far below the limit always parse."""

    @pytest.mark.parametrize("limit", [1000, 10000])
    @pytest.mark.parametrize("name", sorted(NESTINGS))
    def test_parses_or_is_too_deep(self, name, limit):
        parse, build = NESTINGS[name]
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            for depth in (d for d in NESTING_DEPTHS if d <= 2 * limit):
                text = build(depth)
                try:
                    parse(text)
                except ParseError as exc:
                    assert exc.message == "nesting too deep", (depth, exc)
                    assert depth > limit // 20, depth
                    lines = text.split("\n")
                    assert 1 <= exc.line <= len(lines), (depth, exc)
                    assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, (depth, exc)
                else:
                    assert depth < 2 * limit, depth
        finally:
            sys.setrecursionlimit(saved)



def _tower(height):
    """A script whose proof is an impElim/impIntro tower of height levels,
    each stating its sequent: level i states the hypotheses, claim and
    witness of level i - 1 again, with one hypothesis, one conjunct and
    one application more."""
    node, claim, hyps, witness = "assume x0 : A", "A", ["x0^P : A"], "x0"
    for i in range(1, height + 1):
        extra = "ABCD"[i % 4]
        claim += f" /\\ {extra}"
        hyps.append(f"y{i}^P : {extra}")
        witness = f"(\\h{i}.({witness},h{i})) y{i}"
        node = (
            f"impElim(impIntro(h{i}, andIntro({node}, assume h{i} : {extra})), assume y{i} : {extra})"
            f" stating ({', '.join(hyps)} |- {witness}^P : {claim})"
        )
    return f"claim A, B, C, D.\nactor P.\nproof Tower {{\n{node}\n}}\n"


class TestTokenRelease:
    """The parser holds one token at a time, so a long script's or term's
    tokens are never all held while its last values are built."""

    def test_a_long_term_peaks_near_its_value(self):
        # f applied to 10,000 pairs: the parser holds one token at a time,
        # so the peak is little more than the term built (3.2 KB over it on
        # CPython 3.11), where the whole token stream beside it took 600 KB.
        text = "f" + " (a, b)" * 10_000
        assert len(tokenize(text)) - 1 == 50_001
        parse_term("f (a, b)")   # once untraced, so lazy caches are not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            term = parse_term(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(term, Apply) and held - base > 1_000_000
        assert peak - held <= 8 * 1024, (peak - held, held - base)

    @pytest.mark.parametrize("height", [56, 80, 120])
    def test_a_stated_tower_peaks_near_its_value(self, height, monkeypatch):
        # An impElim/impIntro tower whose every level states its sequent,
        # of 30,709 tokens at height 56 and 61,141 at 80; the top sequent at
        # 120 states 120 hypotheses and a claim of 121 conjuncts.  The
        # parser holds one token at a time, so past the proof built and the
        # sharing table it is read with, which both grow with the height,
        # the peak holds what the nesting of one sequent takes (15.5, 17.3
        # and 29.1 KB at 56, 80 and 120 on CPython 3.11), where the whole
        # token stream took 320 KB at 56 and 690 KB at 80.  tokenize still
        # gives every token.
        text = _tower(height)
        tokens = _tokens_or_error(tokenize, text)
        assert tokens == _tokens_or_error(oracle_tokenize, text) and len(tokens) > 30_000
        parse_script(_tower(2))   # once untraced, so lazy caches are not counted
        tables = []
        tree = _Parser.tree

        def recording(self):
            if not tables:
                tables.append(self.table)
            return tree(self)

        monkeypatch.setattr(_Parser, "tree", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            script = parse_script(text)
            # The table outlives the parse only in tables; what its drop
            # frees is its size.
            entries, with_table = len(tables[0]), tracemalloc.get_traced_memory()[0]
            tables.clear()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = with_table - held
        assert len(script.proofs) == 1 and held - base > 100_000 and entries > 5 * height
        assert peak - held - table <= 40 * 1024, (peak - held, table, held - base)

    @pytest.mark.parametrize("height", [56, 80, 120])
    def test_a_stated_sequent_is_read_a_window_at_a_time(self, height, monkeypatch):
        # The top sequent of a tower of height 120 states 120 hypotheses and
        # a claim of 121 conjuncts.  The window is one token now: each
        # advance() steps to the next token of the scan, which runs lazily
        # over the text, so the tokens stepped to are the oracle's, each
        # once and in order, and no step holds more than the one.
        text = _tower(height)
        steps = []
        advance = _Parser.advance
        lazy = type(re.finditer("", ""))

        def recording(self):
            advance(self)
            assert type(self.matches) is lazy
            steps.append((self.token, self.start))

        monkeypatch.setattr(_Parser, "advance", recording)
        script = parse_script(text)
        locate = _Locator(text)
        read = [(token, *locate(start)) for token, start in steps]
        expected = [(t.text, t.line, t.col) for t in oracle_tokenize(text)]
        assert len(script.proofs) == 1 and read == expected, (len(read), len(expected))


_RELATION_ACTORS = [f"p{k}" for k in range(20)]
_edge_weights = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(0)])


@st.composite
def relation_edges(draw):
    pairs = st.tuples(st.sampled_from(_RELATION_ACTORS), st.sampled_from(_RELATION_ACTORS))
    ends = draw(st.lists(pairs, unique=True, max_size=300))
    return tuple(TrustEdge(s, t, draw(_edge_weights)) for s, t in ends)


class TestParsedRelations:
    """A relation read from a script is the one TrustRelation builds from
    its edges, with the same index; the constructor still checks."""

    @given(relation_edges())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_constructed_relation(self, edges):
        lines = "".join(
            f"  {e.source} -> {e.target} @ {format_weight(e.weight)}.\n" for e in edges
        )
        text = f"actor {', '.join(_RELATION_ACTORS)}.\ntrust T {{\n{lines}}}\n"
        parsed = parse_script(text).relation("T")
        built = TrustRelation("T", edges)
        assert parsed == built and parsed.edges == edges
        for s in [*_RELATION_ACTORS, "nobody"]:
            for t in [*_RELATION_ACTORS, "nobody"]:
                assert parsed.weight_between(s, t) == built.weight_between(s, t)
        assert parsed.actors() == built.actors()

    @given(relation_edges().filter(bool), st.data())
    @settings(max_examples=30, deadline=None)
    def test_the_constructor_refuses_a_duplicate(self, edges, data):
        again = data.draw(st.sampled_from(edges))
        at = data.draw(st.integers(0, len(edges)))
        with pytest.raises(ValueError, match="duplicate trust edge"):
            TrustRelation("T", (*edges[:at], TrustEdge(again.source, again.target, Fraction(1, 3)), *edges[at:]))

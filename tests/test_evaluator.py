"""Evaluator tests: frozen reduction chains, a nameless-form step oracle, and
the recursive reducer the zipper walk replaced, as a step-for-step oracle."""

import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dbterms import db_step, to_db
from steporacle import oracle_contract, oracle_trace
from strategies import ATOM_NAMES, VAR_NAMES, _nest_pairs, _split_of, redex_terms, terms
from veracity.core import (
    Apply,
    Atom,
    CasesOf,
    Const,
    Lambda,
    Pair,
    SplitOf,
    TagL,
    TagR,
    Var,
    alpha_equal,
    free_vars,
    subterms,
)
from veracity.evaluator import (
    BudgetExceeded,
    _Pending,
    _Walk,
    normalize,
    normalize_counted,
    step,
    trace,
)
from veracity.parser import parse_term, render_term

ANY_NAMES = st.sampled_from(ATOM_NAMES + VAR_NAMES)

OMEGA = Apply(
    Lambda("x", Apply(Var("x"), Var("x"))),
    Lambda("x", Apply(Var("x"), Var("x"))),
)


class TestContractions:
    def test_beta(self):
        assert step(parse_term("(\\x.x) a")) == Atom("a")

    def test_cases_left(self):
        t = parse_term("cases(i(a), x.(x,x), y.b)")
        assert step(t) == Pair(Atom("a"), Atom("a"))

    def test_cases_right(self):
        t = parse_term("cases(j(a), x.(x,x), y.b)")
        assert step(t) == Atom("b")

    def test_split_is_simultaneous(self):
        t = SplitOf(Pair(Atom("a"), Atom("b")), "x", "y", Pair(Var("y"), Var("x")))
        assert step(t) == Pair(Atom("b"), Atom("a"))

    def test_split_avoids_capture_between_components(self):
        # The first replacement mentions the name of the second binder.
        t = SplitOf(Pair(Var("y"), Atom("b")), "x", "y", Pair(Var("x"), Var("y")))
        reduced = step(t)
        assert reduced == Pair(Var("y"), Atom("b"))

    def test_normal_forms_do_not_step(self):
        for text in ["a", "(a,b)", "i(a)", "\\x.x", "f a", "cases(a, x.x, y.y)"]:
            assert step(parse_term(text)) is None


class TestReductionOrder:
    def test_outermost_redex_discards_inner(self):
        t = parse_term("(\\x.c) ((\\y.y) b)")
        assert trace(t) == [t, Atom("c")]

    def test_function_position_before_argument(self):
        t = parse_term("((\\x.x) f) ((\\x.x) a)")
        steps = trace(t)
        assert [render_term(s) for s in steps] == [
            "(\\x.x) f ((\\x.x) a)",
            "f ((\\x.x) a)",
            "f a",
        ]

    def test_reduction_continues_under_binders(self):
        assert normalize(parse_term("\\x.(\\y.y) x")) == Lambda("x", Var("x"))

    def test_cases_scrutinee_reduces_before_branches(self):
        t = parse_term("cases((\\x.x) i(a), u.(u, (\\w.w) b), v.v)")
        steps = trace(t)
        assert render_term(steps[1]) == "cases(i(a), u.(u,(\\w.w) b), v.v)"
        assert steps[-1] == Pair(Atom("a"), Atom("b"))

    def test_weight_annotations_survive_reduction(self):
        t = parse_term("\\x.((\\y.y) a)@0.5")
        assert normalize(t) == Lambda("x", Atom("a"), Const(Fraction(1, 2)))


class TestCurriedChain:
    def test_three_steps_to_the_nested_pair(self):
        t = parse_term("(\\z.\\y.\\x.((x,y),z)) c s l")
        steps = trace(t)
        assert [render_term(s) for s in steps] == [
            "(\\z.\\y.\\x.((x,y),z)) c s l",
            "(\\y.\\x.((x,y),c)) s l",
            "(\\x.((x,s),c)) l",
            "((l,s),c)",
        ]
        assert len(steps) - 1 == 3


class TestBudgets:
    def test_divergence_raises(self):
        with pytest.raises(BudgetExceeded) as exc:
            normalize(OMEGA, budget=25)
        assert exc.value.budget == 25

    def test_trace_budget(self):
        with pytest.raises(BudgetExceeded):
            trace(OMEGA, budget=10)

    def test_exact_budget_suffices(self):
        assert normalize(parse_term("(\\x.x) a"), budget=1) == Atom("a")
        assert normalize(Atom("a"), budget=0) == Atom("a")
        with pytest.raises(BudgetExceeded):
            normalize(parse_term("(\\x.x) a"), budget=0)

    @pytest.mark.parametrize("run", [normalize_counted, normalize, trace])
    @pytest.mark.parametrize("term", [Atom("a"), OMEGA])
    def test_negative_budget_is_rejected_up_front(self, run, term):
        # Checked on entry: a term in normal form is rejected too, and a
        # divergent one raises ValueError rather than BudgetExceeded.
        with pytest.raises(ValueError, match="step budget must be at least 0, not -1"):
            run(term, -1)

    def test_zero_budget_stays_valid(self):
        assert normalize_counted(Atom("a"), 0) == (Atom("a"), 0)
        assert trace(Atom("a"), 0) == [Atom("a")]


class TestNonTerms:
    """A non-term anywhere the walk reaches is the TypeError subterms()
    raises, naming its type, from every entry point."""

    @pytest.mark.parametrize(
        "term, kind",
        [
            (1, "int"),
            (Pair(1, Var("x")), "int"),
            (Apply(Var("x"), Pair(Var("q"), None)), "NoneType"),
            (Apply(Var("x"), TagL("z")), "str"),
        ],
    )
    @pytest.mark.parametrize("run", [normalize_counted, normalize, trace, step])
    def test_a_type_error_names_the_type(self, run, term, kind):
        with pytest.raises(TypeError, match=f"^not a term type: {kind}$"):
            run(term)


class TestStepOracle:
    @given(terms())
    @settings(max_examples=400)
    def test_step_agrees_with_nameless_reduction(self, term):
        self.check_against_nameless_step(term)

    @given(redex_terms())
    @settings(max_examples=300)
    def test_step_agrees_with_nameless_reduction_on_redex_terms(self, term):
        self.check_against_nameless_step(term)

    @staticmethod
    def check_against_nameless_step(term):
        ours = step(term)
        oracle = db_step(to_db(term))
        if ours is None:
            assert oracle is None
        else:
            assert oracle is not None
            assert to_db(ours) == oracle

    @given(terms(max_leaves=6))
    @settings(max_examples=150)
    def test_normalize_is_idempotent(self, term):
        try:
            normal = normalize(term, budget=200)
        except BudgetExceeded:
            assume(False)
        assert alpha_equal(normalize(normal, budget=200), normal)

    @given(terms(max_leaves=6))
    @settings(max_examples=150)
    def test_normal_forms_have_no_redex_anywhere(self, term):
        try:
            normal = normalize(term, budget=200)
        except BudgetExceeded:
            assume(False)

        def redex_free(t):
            if oracle_contract(t) is not None:
                return False
            children = {
                Pair: lambda: [t.fst, t.snd],
                TagL: lambda: [t.value],
                TagR: lambda: [t.value],
                Lambda: lambda: [t.body],
                Apply: lambda: [t.fn, t.arg],
                CasesOf: lambda: [t.scrutinee, t.left_body, t.right_body],
                SplitOf: lambda: [t.scrutinee, t.body],
            }.get(type(t))
            return children is None or all(redex_free(c) for c in children())

        assert redex_free(normal)

    @given(st.one_of(terms(8, atom_names=ANY_NAMES), redex_terms(8, atom_names=ANY_NAMES)))
    @settings(max_examples=300)
    def test_round_trip_of_reducts(self, term):
        # Atoms may take a variable's name, so a reduct can hold an atom
        # under a binder of the same name.  A free variable and an atom of
        # one name print alike, so such a reduct is not read back.
        reduced = step(term)
        if reduced is None:
            return
        free = free_vars(reduced)
        if not free.isdisjoint(_atom_names(reduced)):
            return
        assert alpha_equal(parse_term(render_term(reduced), var_names=free), reduced)


# Seq-chain binders share three names, so they shadow one another; the
# outer lambdas' names include a primed one, so a renamed binder can need
# a second prime.
CHAIN_NAMES = ["x", "y", "z"]
OUTER_NAMES = ["x", "x'", "y"]


@st.composite
def seq_chains(draw):
    """(\\b1...\\bk.B) a1 ... am with k <= 6, where pending substitutions
    stack: arguments that are closed (atoms, closed lambdas, tags and
    pairs of atoms) or not (outer variables, pairs and lambdas over them),
    a body that applies, cases and splits on the binders, and up to two
    lambdas around it all.  A chain applied to all its arguments is
    sometimes the scrutinee of a cases or split, with a tag or pair for
    its body."""
    outer = draw(st.lists(st.sampled_from(OUTER_NAMES), max_size=2))
    binders = draw(st.lists(st.sampled_from(CHAIN_NAMES), min_size=1, max_size=6))
    names = st.sampled_from(CHAIN_NAMES + outer)
    binder = st.sampled_from(CHAIN_NAMES)
    atom = st.sampled_from(["a", "b"]).map(Atom)
    leaf = st.one_of(st.sampled_from(outer).map(Var), atom) if outer else atom
    # An argument free in every outer name: with x and x' among them, a
    # binder x it passes becomes x''.
    every = _nest_pairs([Var(n) for n in outer] or [Atom("a")])
    arg = st.one_of(
        leaf,
        st.just(every),
        st.tuples(binder, leaf).map(lambda p: Lambda(p[0], Pair(p[1], Var(p[0])))),
        st.tuples(binder, binder).map(lambda p: Lambda(p[0], Var(p[1]))),
        leaf.map(TagL),
        leaf.map(TagR),
        st.tuples(leaf, leaf).map(lambda p: Pair(*p)),
    )
    var = names.map(Var)
    body = st.recursive(
        st.one_of(var, atom),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: Pair(*p)),
            st.tuples(var, inner).map(lambda p: Apply(*p)),
            st.tuples(binder, inner).map(lambda p: Lambda(*p)),
            inner.map(TagL),
            st.tuples(var, binder, inner, binder, inner).map(lambda p: CasesOf(*p)),
            st.tuples(var, binder, binder, inner).map(_split_of),
        ),
        max_leaves=6,
    )
    wrap = draw(st.sampled_from(["none", "cases", "split"]))
    if wrap == "cases":
        term = draw(st.sampled_from([TagL, TagR]))(draw(body))
        count = len(binders)
    elif wrap == "split":
        term = Pair(draw(body), draw(body))
        count = len(binders)
    else:
        term = draw(body)
        count = draw(st.integers(0, len(binders) + 2))
    for name in reversed(binders):
        term = Lambda(name, term)
    for _ in range(count):
        term = Apply(term, draw(arg))
    if wrap == "cases":
        term = CasesOf(term, draw(binder), Pair(draw(var), draw(var)), draw(binder), draw(var))
    elif wrap == "split":
        term = _split_of((term, draw(binder), draw(binder), Pair(draw(var), draw(var))))
    for name in reversed(outer):
        term = Lambda(name, term)
    return term


# Steps the recursive oracle takes before a term counts as divergent.
ORACLE_LIMIT = 60


class TestAgainstRecursiveStep:
    """The zipper walk must reproduce the recursive reducer exactly: the
    same terms (==, bound names included), the same count, the same
    budget errors."""

    def check(self, term):
        sequence, normal = oracle_trace(term, ORACLE_LIMIT)
        steps = len(sequence) - 1
        assert step(term) == (sequence[1] if steps else None)
        if not normal:
            for before, after in zip(sequence, sequence[1:]):
                assert step(before) == after
            with pytest.raises(BudgetExceeded):
                normalize_counted(term, ORACLE_LIMIT)
            with pytest.raises(BudgetExceeded):
                trace(term, ORACLE_LIMIT)
            return
        assert trace(term) == sequence
        assert normalize_counted(term) == (sequence[-1], steps)
        assert normalize(term, budget=steps) == sequence[-1]
        for budget in range(steps):
            with pytest.raises(BudgetExceeded) as exc:
                normalize_counted(term, budget)
            assert exc.value.budget == budget
            with pytest.raises(BudgetExceeded):
                trace(term, budget)

    @given(redex_terms())
    @settings(max_examples=300)
    def test_redex_rich_terms(self, term):
        self.check(term)

    @given(terms())
    @settings(max_examples=200)
    def test_general_terms(self, term):
        self.check(term)

    @pytest.mark.parametrize(
        "text",
        [
            "(\\z.\\y.\\x.((x,y),z)) c s l",
            "(\\x.\\y.x y) y",
            "(\\f.\\x.f (f x)) (\\y.(y,y)) a",
            "split((y,x), x.y.\\x.(x,y))",
            "cases((\\x.x) i((\\y.y) a), u.(u, (\\w.w) b), v.v)",
            "((\\x.x) (\\x.x)) ((\\x.x) a)",
            "(\\x.x x) (\\x.x x)",
        ],
    )
    def test_worked_terms(self, text):
        self.check(parse_term(text))

    @given(seq_chains())
    @example(parse_term("\\x.\\x'.(\\z.\\y.\\x.((y, z), x)) a (x, x') b"))
    @settings(max_examples=200)
    def test_seq_chains_that_shadow_and_capture(self, term):
        # In the example, y := (x, x') meets z := a still pending and
        # renames the binder x to x''.
        self.check(term)

    def test_normal_form_comes_back_as_the_same_object(self):
        term = parse_term("\\x.(f x, cases(x, u.u, v.i(v)))")
        assert normalize_counted(term) == (term, 0)
        assert normalize(term) is term


def _seq_chain(n):
    """(\\x0...\\x{n-1}.(x0,(x1,...))) a0 ... a{n-1}: n steps to the pair of the atoms."""
    params = [f"x{i}" for i in range(n)]
    body = Var(params[-1])
    for p in reversed(params[:-1]):
        body = Pair(Var(p), body)
    term = body
    for p in reversed(params):
        term = Lambda(p, term)
    for i in range(n):
        term = Apply(term, Atom(f"a{i}"))
    return term


class TestLinearWork:
    """Reduction builds a number of nodes linear in the steps taken: on
    seq chains, where substituting at every step rebuilt the lambdas left,
    and on (\\x.x x x) (\\x.x x x), which grows without end.  Nodes are
    counted, not timed, so the test reads no clock."""

    NODES = (Atom, Var, Pair, TagL, TagR, Lambda, Apply, CasesOf, SplitOf, _Pending)

    def built(self, monkeypatch, run):
        count = 0

        def counted(init):
            def __init__(self, *args):
                nonlocal count
                count += 1
                init(self, *args)

            return __init__

        with monkeypatch.context() as patch:
            for kind in self.NODES:
                patch.setattr(kind, "__init__", counted(kind.__init__))
            run()
        return count

    def check_doublings(self, counts):
        for smaller, larger in zip(counts, counts[1:]):
            assert larger <= 2.5 * smaller, counts

    def test_seq_chains(self, monkeypatch):
        counts = []
        for n in (128, 256, 512):
            term = _seq_chain(n)
            counts.append(self.built(monkeypatch, lambda: normalize_counted(term)))
            normal, steps = normalize_counted(term)
            # alpha_equal, not ==: the dataclass == recurses 512 levels deep.
            assert steps == n
            assert alpha_equal(normal, _nest_pairs([Atom(f"a{i}") for i in range(n)]))
        self.check_doublings(counts)

    def test_a_growing_divergent_term(self, monkeypatch):
        w = Lambda("x", Apply(Apply(Var("x"), Var("x")), Var("x")))

        def run(budget):
            with pytest.raises(BudgetExceeded):
                normalize_counted(Apply(w, w), budget)

        self.check_doublings([self.built(monkeypatch, lambda: run(b)) for b in (1000, 2000, 4000)])


def _atom_names(term):
    names, todo = set(), [term]
    while todo:
        node = todo.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        todo += subterms(node)
    return names


@contextmanager
def _stack_for(depth):
    """Room on the interpreter stack for a recursion depth levels deep:
    the oracle, core's substitution and the dataclass == all recurse."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, 4 * depth + 1000))
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _identity(term):
    return Apply(Lambda("y", Var("y")), term)


# The unary layers a tower is built of, each wrapping the term inside it.
# A layer also reads x, u, v and the atoms a and b, so that the terms
# inside stay free in them.  "id" and "cases-id" are redexes whose reduct
# is the term inside, and "scrutinee" is one when the term inside is, or
# becomes, a tag.  So a step fires at many levels, outermost first, and
# changes a subterm of every layer above it.
_LAYERS = {
    "lambda": lambda t: Lambda("x", t),
    "i": TagL,
    "j": TagR,
    "cases-left": lambda t: CasesOf(Var("x"), "u", t, "v", Var("v")),
    "cases-right": lambda t: CasesOf(Atom("a"), "u", Var("u"), "v", t),
    "scrutinee": lambda t: CasesOf(t, "u", Var("u"), "v", Atom("b")),
    "id": _identity,
    "cases-id": lambda t: CasesOf(_identity(TagL(t)), "u", Var("u"), "v", Var("v")),
}


def _tower(pattern, height, bottom):
    """height layers over bottom, the pattern's layers repeated, innermost first."""
    term = bottom
    for level in range(height):
        term = _LAYERS[pattern[level % len(pattern)]](term)
    return term


@st.composite
def towers(draw):
    pattern = draw(st.lists(st.sampled_from(sorted(_LAYERS)), min_size=1, max_size=5))
    bottom = draw(st.one_of(terms(6), redex_terms(8)))
    return _tower(pattern, draw(st.integers(1, 250)), bottom)


class TestCompactPath:
    """The walk keeps its path as three stacks of one entry per ancestor
    (see _Walk).  On deep unary towers with redexes at many levels, and on
    the strategies' terms, step, trace stage by stage, normalize_counted
    and normalize give the recursive reducer's terms and step counts, and
    a budget stops the walk after exactly that many steps."""

    @staticmethod
    def stages(term, limit):
        """The terms one walk passes through, up to limit steps, and whether
        it stopped at a normal form; its stacks are checked after each step."""
        walk = _Walk(term)
        stages = [term]
        while len(stages) <= limit:
            if not walk.step():
                return stages, True
            assert len(walk.nodes) == len(walk.indices) == len(walk.changes)
            for node, index, done in zip(walk.nodes, walk.indices, walk.changes):
                assert type(node) is not _Pending
                assert 0 <= index < len(subterms(node))
                assert done is None or (len(done) == len(subterms(node)) and 0 < index)
            stages.append(walk.term())
            # term() leaves the walk as it is.
            assert walk.term() == stages[-1]
        # At the limit, like oracle_trace, whether the last term is normal:
        # a term may reach its normal form in exactly limit steps.
        return stages, not walk.step()

    def check(self, term):
        sequence, normal = oracle_trace(term, ORACLE_LIMIT)
        steps = len(sequence) - 1
        assert self.stages(term, ORACLE_LIMIT) == (sequence, normal)
        for before, after in zip(sequence, sequence[1:]):
            assert step(before) == after
        if normal:
            assert step(sequence[-1]) is None
            assert trace(term) == sequence
            assert normalize_counted(term) == (sequence[-1], steps)
            assert normalize(term, budget=steps) == sequence[-1]
        # Budgets too small by one step or more; a term the oracle gives up
        # on also stops at its limit.
        budgets = {b for b in (0, 1, steps // 2, steps - 1) if 0 <= b < steps}
        if not normal:
            budgets.add(steps)
        for budget in sorted(budgets):
            walk = _Walk(term)
            with pytest.raises(BudgetExceeded):
                while walk.step(budget):
                    pass
            assert walk.steps == budget and walk.term() == sequence[budget]
            with pytest.raises(BudgetExceeded) as exc:
                normalize_counted(term, budget)
            assert exc.value.budget == budget
            with pytest.raises(BudgetExceeded):
                trace(term, budget)
            with pytest.raises(BudgetExceeded):
                normalize(term, budget)

    @given(towers())
    @settings(max_examples=60, deadline=None)
    def test_towers(self, term):
        self.check(term)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_normal_form_at_the_limit(self, extra):
        # One identity redex a layer: the normal form is exactly
        # ORACLE_LIMIT + extra steps away.
        term = _tower(["id"], ORACLE_LIMIT + extra, Atom("c"))
        stages, normal = self.stages(term, ORACLE_LIMIT)
        assert len(stages) - 1 == min(ORACLE_LIMIT, ORACLE_LIMIT + extra)
        assert normal == (extra <= 0)
        self.check(term)

    @given(st.one_of(terms(), redex_terms()))
    @settings(max_examples=200, deadline=None)
    def test_strategy_terms(self, term):
        self.check(term)

    @pytest.mark.parametrize(
        "pattern",
        [["lambda"], ["i"], ["j"], ["cases-left"], ["cases-right"], ["scrutinee", "i"],
         ["lambda"] * 49 + ["id"], ["i", "cases-right", "j", "cases-id"], sorted(_LAYERS)],
        ids="-".join,
    )
    def test_deep_towers(self, pattern):
        # Each over a redex and a pair the walk must climb out of.
        height = 2000
        bottom = Pair(_identity(Atom("c")), Pair(Atom("d"), _identity(Var("x"))))
        with _stack_for(height):
            self.check(_tower(pattern, height, bottom))


class TestPathMemory:
    """The walk's path holds three list slots per ancestor, so normalizing a
    tower costs a few words per level beyond the nodes it rebuilds: 48
    bytes a level on a TagL tower, the rebuilt tag included."""

    @staticmethod
    def normalize_peak(height):
        term = _identity(Atom("a"))
        for _ in range(height):
            term = TagL(term)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            normal = normalize(term)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        expected = Atom("a")
        for _ in range(height):
            expected = TagL(expected)
        assert normal == expected
        return peak

    def test_a_tag_tower_costs_few_bytes_per_level(self):
        with _stack_for(4000):
            self.normalize_peak(10)   # once untraced, so lazy caches are not counted
            per_level = (self.normalize_peak(4000) - self.normalize_peak(2000)) / 2000
        assert per_level <= 56, per_level

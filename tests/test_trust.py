"""Trust-graph tests: best paths, chain products, star comparisons."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decayoracle
from strategies import weights
import veracity
from veracity.cli import main
from veracity.core import Atomic, Judgement, Sequent, TrustEdge, TrustRelation, Var, format_weight
from veracity.kernel import CheckEnv, check_trust
from veracity.parser import parse_script
from veracity.report import parse_structured
from veracity.trust import (
    DECAY_BUDGET,
    ChainStarComparison,
    DecayBudgetExceeded,
    TrustGraph,
    best_trust,
    best_trust_path,
    chain_weight,
    compare_chain_star,
    compare_relations,
    path_weights,
    relation_properties,
    symmetric_pairs,
)


def rel(*triples, name="T"):
    return TrustRelation(
        name, tuple(TrustEdge(s, t, Fraction(w)) for s, t, w in triples)
    )


def graph(*triples, extra=(), name="T"):
    return TrustGraph.from_relation(rel(*triples, name=name), extra)


CHAIN = graph(("k", "l", "1/2"), ("l", "m", "2/5"))


def oracle_best(relation: TrustRelation, source: str, target: str):
    """Max product over exhaustively enumerated simple paths."""
    if source == target:
        return Fraction(1)
    best = None

    def walk(node, visited, product):
        nonlocal best
        for e in relation.edges:
            if e.source != node or e.target in visited:
                continue
            extended = product * e.weight
            if e.target == target:
                if best is None or extended > best:
                    best = extended
            else:
                walk(e.target, visited | {e.target}, extended)

    walk(source, {source}, Fraction(1))
    return best


def oracle_decay(graph: TrustGraph):
    """The least (weight, path) over exhaustively enumerated maximal simple
    paths, as (path, weight); None for a graph without actors."""
    decay = None
    for start in sorted(graph.actors):
        for path, weight in _maximal_paths(graph, (start,), Fraction(1)):
            if decay is None or (weight, path) < (decay[1], decay[0]):
                decay = (path, weight)
    return decay


def _maximal_paths(graph: TrustGraph, path: tuple[str, ...], weight: Fraction):
    extensions = [
        edge
        for edge in graph.relation.edges
        if edge.source == path[-1] and edge.target not in path
    ]
    if not extensions:
        yield path, weight
        return
    for edge in extensions:
        yield from _maximal_paths(graph, path + (edge.target,), weight * edge.weight)


# Few distinct weights, so equal products and zero-weight edges are common.
TIED_WEIGHTS = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])


@st.composite
def small_graphs(draw):
    """Up to seven actors, some of them isolated, with any share of the
    possible edges (self-loops included) and weights that tie."""
    names = draw(st.permutations(["p", "q", "r", "s", "t", "u", "v"]))
    names = names[: draw(st.integers(0, 7))]
    linked = names[: draw(st.integers(0, len(names)))]
    pairs = draw(st.permutations([(a, b) for a in linked for b in linked]))
    chosen = pairs[: draw(st.integers(0, len(pairs)))]
    edges = tuple(
        TrustEdge(a, b, draw(st.one_of(TIED_WEIGHTS, weights))) for a, b in chosen
    )
    return TrustGraph.from_relation(TrustRelation("T", edges), names[len(linked):])


@st.composite
def component_graphs(draw):
    """Up to eight actors, some of them isolated and the rest split into up
    to three groups. A cycle through each group makes it one strongly
    connected component, a drawn share of its other pairs fills it in, and
    edges run from earlier groups to later ones only, so they are exits.
    Self-loops are drawn too, and weights tie often and include 0 and 1,
    inside components and on exits."""
    names = draw(st.permutations(["p", "q", "r", "s", "t", "u", "v", "w"]))
    names = names[: draw(st.integers(0, 8))]
    linked = names[: draw(st.integers(0, len(names)))]
    group = {actor: draw(st.integers(0, 2)) for actor in linked}
    pairs = set()
    for index in set(group.values()):
        members = [actor for actor in linked if group[actor] == index]
        if len(members) > 1:
            pairs.update(zip(members, members[1:] + members[:1]))
    density = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    for a in linked:
        for b in linked:
            if group[a] < group[b] or (group[a] == group[b] and a != b and (a, b) not in pairs):
                if draw(st.floats(0, 1)) < density:
                    pairs.add((a, b))
            elif a == b and draw(st.integers(0, 3)) == 0:
                pairs.add((a, a))
    edges = tuple(
        TrustEdge(a, b, draw(st.one_of(TIED_WEIGHTS, weights))) for a, b in sorted(pairs)
    )
    return TrustGraph.from_relation(TrustRelation("T", edges), names[len(linked):])


@st.composite
def ring_graphs(draw):
    """A directed ring of 13 to 20 actors, more than the decay memo takes,
    with up to four chords or reversed edges and up to two exits to actors
    outside it, weights tying often; sparse enough to backtrack quickly."""
    n = draw(st.integers(13, 20))
    actors = [f"r{i:02d}" for i in range(n)]
    pairs = set(zip(actors, actors[1:] + actors[:1]))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(actors)), draw(st.sampled_from(actors))
        pairs.add((a, b))
    for exit_actor in ("x", "y")[: draw(st.integers(0, 2))]:
        pairs.add((draw(st.sampled_from(actors)), exit_actor))
    edges = tuple(
        TrustEdge(a, b, draw(st.one_of(TIED_WEIGHTS, weights))) for a, b in sorted(pairs)
    )
    return TrustGraph.from_relation(TrustRelation("T", edges))


def chain_actors(n: int) -> list[str]:
    return [f"a{i:04d}" for i in range(n)]


@pytest.fixture
def default_recursion_limit():
    """Run at the interpreter's default recursion limit, whatever an
    in-process veracity.cli.main call raised it to."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def random_relation(rng: random.Random, max_nodes: int = 6) -> TrustRelation:
    nodes = ["p", "q", "r", "s", "t", "u"][: rng.randint(1, max_nodes)]
    pairs = [(a, b) for a in nodes for b in nodes]
    rng.shuffle(pairs)
    chosen = pairs[: rng.randint(0, len(pairs))]
    return TrustRelation(
        "T",
        tuple(TrustEdge(s, t, Fraction(rng.randint(0, 8), 8)) for s, t in chosen),
    )


class TestBestTrust:
    def test_two_step_chain(self):
        assert best_trust(CHAIN, "k", "m") == Fraction(1, 5)

    def test_self_trust_is_implicit(self):
        assert best_trust(CHAIN, "k", "k") == Fraction(1)
        assert best_trust(graph(), "x", "x") == Fraction(1)

    def test_parallel_path_beats_a_weaker_direct_edge(self):
        g = graph(("p", "a", "9/10"), ("a", "t", "9/10"), ("p", "t", "7/10"))
        assert best_trust(g, "p", "t") == Fraction(81, 100)
        path, weight = best_trust_path(g, "p", "t")
        assert path == ("p", "a", "t")
        assert weight == Fraction(81, 100)

    def test_unreachable_is_none(self):
        assert best_trust(CHAIN, "m", "k") is None

    def test_zero_weight_is_reachable_at_zero(self):
        assert best_trust(graph(("k", "l", 0)), "k", "l") == 0

    def test_full_trust_cycle_terminates(self):
        g = graph(("k", "l", 1), ("l", "k", 1))
        assert best_trust(g, "k", "l") == 1

    def test_self_path_is_a_single_node(self):
        assert best_trust_path(CHAIN, "l", "l") == (("l",), Fraction(1))

    def test_a_product_below_the_smallest_float_is_found(self):
        # 2**-1199 rounds to 0.0 as a float, which has no log.
        actors = [f"a{k}" for k in range(1200)]
        g = graph(*((a, b, Fraction(1, 2)) for a, b in zip(actors, actors[1:])))
        assert best_trust_path(g, "a0", "a1199") == (tuple(actors), Fraction(1, 2**1199))

    def test_path_weights_recover_the_edges(self):
        path, weight = best_trust_path(CHAIN, "k", "m")
        assert path_weights(CHAIN, path) == (Fraction(1, 2), Fraction(2, 5))
        assert chain_weight(path_weights(CHAIN, path)) == weight

    def test_path_weights_reject_non_edges(self):
        with pytest.raises(ValueError):
            path_weights(CHAIN, ("m", "k"))

    def test_matches_the_enumeration_oracle(self):
        rng = random.Random(90125)
        for _ in range(200):
            relation = random_relation(rng)
            g = TrustGraph.from_relation(relation)
            for source in sorted(g.actors):
                for target in sorted(g.actors):
                    assert best_trust(g, source, target) == oracle_best(
                        relation, source, target
                    ), (relation, source, target)

    def test_adding_an_edge_never_hurts(self):
        rng = random.Random(5150)
        for _ in range(100):
            relation = random_relation(rng, max_nodes=5)
            g = TrustGraph.from_relation(relation)
            nodes = sorted(g.actors | {"p", "q"})
            present = {(e.source, e.target) for e in relation.edges}
            missing = [
                (a, b) for a in nodes for b in nodes if (a, b) not in present
            ]
            if not missing:
                continue
            extra = rng.choice(missing)
            bigger = TrustRelation(
                "T",
                relation.edges
                + (TrustEdge(extra[0], extra[1], Fraction(rng.randint(0, 8), 8)),),
            )
            bg = TrustGraph.from_relation(bigger)
            for source in nodes:
                for target in nodes:
                    before = best_trust(g, source, target)
                    after = best_trust(bg, source, target)
                    if before is not None:
                        assert after is not None and after >= before

    def test_kernel_replays_the_best_path(self):
        rng = random.Random(2112)
        claim = Atomic("A")
        checked = 0
        while checked < 60:
            relation = random_relation(rng, max_nodes=5)
            g = TrustGraph.from_relation(relation)
            nodes = sorted(g.actors)
            if len(nodes) < 2:
                continue
            source, target = rng.sample(nodes, 2)
            found = best_trust_path(g, source, target)
            if found is None:
                continue
            path, weight = found
            premise_weight = Fraction(rng.randint(1, 8), 8)
            env = CheckEnv(frozenset({"A"}), {"T": relation}, source)
            seq = Sequent(
                (), Judgement(Var("a"), target, premise_weight, claim)
            )
            for step_source, step_target in reversed(list(zip(path, path[1:]))):
                seq = check_trust(seq, "T", step_source, step_target, env)
            assert seq.conclusion.actor == source
            assert seq.conclusion.weight == weight * premise_weight
            checked += 1


class TestChainWeight:
    def test_two_links(self):
        assert chain_weight([Fraction(1, 2), Fraction(2, 5)]) == Fraction(1, 5)

    def test_empty_chain_is_full_trust(self):
        assert chain_weight([]) == Fraction(1)

    def test_four_links_of_point_eight(self):
        assert chain_weight([Fraction(4, 5)] * 4) == Fraction(256, 625)

    @given(st.lists(weights, max_size=6), st.randoms(use_true_random=False))
    def test_order_invariant(self, ws, rng):
        shuffled = list(ws)
        rng.shuffle(shuffled)
        assert chain_weight(ws) == chain_weight(shuffled)

    @given(st.lists(weights, max_size=6), weights)
    def test_appending_below_full_trust_decreases(self, ws, extra):
        base = chain_weight(ws)
        extended = chain_weight(ws + [extra])
        if extra < 1:
            assert extended <= base
            if base > 0:
                assert extended < base
        else:
            assert extended == base


class TestCompareChainStar:
    def test_half_ledger_beats_a_long_chain(self):
        out = compare_chain_star([Fraction(4, 5)] * 4, Fraction(1, 2))
        assert out == ChainStarComparison(
            True, Fraction(256, 625), Fraction(1, 2)
        )

    def test_complete_trust_ties(self):
        out = compare_chain_star([Fraction(1)] * 3, Fraction(1))
        assert out.star_at_least_chain
        assert out.chain == out.star == 1

    def test_short_strong_chain_beats_a_weak_ledger(self):
        out = compare_chain_star([Fraction(9, 10)], Fraction(1, 2))
        assert not out.star_at_least_chain

    @given(st.lists(weights, max_size=5), weights)
    def test_star_equals_the_ledger_trust(self, ws, c):
        out = compare_chain_star(ws, c)
        assert out.star == c
        assert out.star_at_least_chain == (c >= out.chain)


class TestCompareRelations:
    def fixture(self):
        text = (resources.files("veracity") / "fixtures" / "star-vs-chain.vlp").read_text(
            encoding="utf-8"
        )
        return parse_script(text)

    def test_ledger_at_half_wins(self):
        script = self.fixture()
        out = compare_relations(script.relation("S"), script.relation("R"), "p", "t")
        assert out == ChainStarComparison(True, Fraction(256, 625), Fraction(1, 2))

    def test_ledger_at_two_fifths_loses(self):
        script = self.fixture()
        out = compare_relations(script.relation("S"), script.relation("R2"), "p", "t")
        assert out == ChainStarComparison(False, Fraction(256, 625), Fraction(2, 5))

    def test_unreachable_comparison_is_none(self):
        assert compare_relations(rel(("a", "b", 1)), rel(), "a", "c") is None


class TestRelationProperties:
    def test_chain_decay_is_the_full_chain(self):
        g = graph(
            ("p", "q", "4/5"),
            ("q", "r", "4/5"),
            ("r", "s", "4/5"),
            ("s", "t", "4/5"),
        )
        props = relation_properties(g)
        assert props.longest_chain_decay == (
            ("p", "q", "r", "s", "t"),
            Fraction(256, 625),
        )
        assert props.symmetric_pairs == ()

    def test_single_node_trusts_itself(self):
        props = relation_properties(graph(extra=("n",)))
        assert props.longest_chain_decay == (("n",), Fraction(1))

    def test_symmetric_edges_are_reported_not_rejected(self):
        g = graph(("k", "l", "1/2"), ("l", "k", "3/4"), ("l", "m", 1))
        assert relation_properties(g).symmetric_pairs == (("k", "l"),)

    def test_empty_graph_has_no_decay_witness(self):
        props = relation_properties(graph())
        assert props.longest_chain_decay is None

    def test_zero_weight_edge_takes_the_first_completion(self):
        g = graph(("p", "q", 0), ("q", "s", "1/4"), ("q", "r", 1), ("s", "t", 0))
        assert relation_properties(g).longest_chain_decay == (
            ("p", "q", "r"),
            Fraction(0),
        )

    def test_cycle_decay_is_the_weakest_way_round(self):
        g = graph(("k", "l", "1/2"), ("l", "m", "1/2"), ("m", "k", "1/2"), ("l", "k", 1))
        assert relation_properties(g).longest_chain_decay == (
            ("k", "l", "m"),
            Fraction(1, 4),
        )

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_matches_the_enumeration_oracle(self, g):
        assert relation_properties(g).longest_chain_decay == oracle_decay(g)

    @settings(max_examples=200, deadline=None)
    @given(component_graphs())
    def test_matches_the_backtracking_search(self, g):
        assert relation_properties(g).longest_chain_decay == decayoracle.decay(g)

    @settings(max_examples=50, deadline=None)
    @given(ring_graphs())
    def test_matches_the_backtracking_search_past_the_memo_cap(self, g):
        assert relation_properties(g).longest_chain_decay == decayoracle.decay(g)

    def test_long_chain_at_the_default_recursion_limit(self, default_recursion_limit):
        actors = chain_actors(3000)
        g = graph(*((a, b, "4/5") for a, b in zip(actors, actors[1:])))
        assert relation_properties(g).longest_chain_decay == (
            tuple(actors),
            Fraction(4, 5) ** 2999,
        )

    def test_long_chain_through_the_cli(self, tmp_path):
        actors = chain_actors(3000)
        script = tmp_path / "chain.vlp"
        script.write_text(
            f"actor {', '.join(actors)}.\n\ntrust T {{\n"
            + "".join(f"  {a} -> {b} @ 0.8.\n" for a, b in zip(actors, actors[1:]))
            + "}\n",
            encoding="utf-8",
        )
        src = str(Path(veracity.__file__).resolve().parent.parent)
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from veracity.cli import main; sys.exit(main(sys.argv[1:]))",
                "trust",
                str(script),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        decay = f"    decay: {' -> '.join(actors)} @ {format_weight(Fraction(4, 5) ** 2999)}"
        assert decay in done.stdout.splitlines()


def planted_complete(n: int) -> tuple[TrustRelation, tuple[str, ...]]:
    """A complete digraph on n actors with every edge at 1 except those of
    one Hamiltonian path, in a seeded order, at 1/2; and that path. Every
    maximal simple path of a complete digraph visits every actor, and any
    other one crosses fewer planted edges, so the planted path is the
    decay witness, at (1/2)**(n - 1)."""
    actors = [f"k{i:02d}" for i in range(n)]
    planted = actors[:]
    random.Random(n).shuffle(planted)
    halves = set(zip(planted, planted[1:]))
    edges = tuple(
        TrustEdge(a, b, Fraction(1, 2) if (a, b) in halves else Fraction(1))
        for a in actors
        for b in actors
        if a != b
    )
    return TrustRelation("T", edges), tuple(planted)


def dense_relation(n: int) -> TrustRelation:
    """A complete digraph on n actors with seeded weights in tenths."""
    rng = random.Random(n)
    actors = [f"d{i:02d}" for i in range(n)]
    return TrustRelation(
        "T",
        tuple(
            TrustEdge(a, b, Fraction(rng.randint(1, 10), 10))
            for a in actors
            for b in actors
            if a != b
        ),
    )


def relation_script(relation: TrustRelation) -> str:
    actors = sorted(relation.actors())
    return f"actor {', '.join(actors)}.\n\ntrust {relation.name} {{\n" + "".join(
        f"  {e.source} -> {e.target} @ {format_weight(e.weight)}.\n" for e in relation.edges
    ) + "}\n"


# Cases the old backtracking search could not finish: two with a known
# witness, computed exactly, and one past the work budget.
DECAY_CASES = {
    "complete-10": lambda: planted_complete(10),
    "complete-12": lambda: planted_complete(12),
    "dense-60": lambda: (dense_relation(60), None),
}

# Seconds any one of them may take, in the library or through the CLI.
WALL_BOUND = 20


def expected_decay(relation: TrustRelation, path):
    """The decay text line, the structured fields and the exit code."""
    pairs = " ".join(f"{a}<->{b}" for a, b in symmetric_pairs(relation))
    head = (("edges", str(len(relation.edges))), ("reflexive-complete", "true"), ("symmetric-pairs", pairs))
    if path is None:
        line = f"    decay: not computed within budget {DECAY_BUDGET}"
        return line, head + (("status", "budget-exceeded"), ("budget", str(DECAY_BUDGET))), 1
    shown = format_weight(Fraction(1, 2) ** (len(path) - 1))
    line = f"    decay: {' -> '.join(path)} @ {shown}"
    return line, head + (("decay-path", " -> ".join(path)), ("decay-weight", shown)), 0


class TestDecaySearchBounds:
    @pytest.mark.parametrize("case", DECAY_CASES)
    def test_library(self, case):
        relation, path = DECAY_CASES[case]()
        started = time.perf_counter()
        if path is None:
            with pytest.raises(DecayBudgetExceeded) as raised:
                relation_properties(TrustGraph.from_relation(relation))
            assert raised.value.budget == DECAY_BUDGET
        else:
            props = relation_properties(TrustGraph.from_relation(relation))
            assert props.longest_chain_decay == (path, Fraction(1, 2) ** (len(path) - 1))
        assert time.perf_counter() - started < WALL_BOUND

    def test_exits_do_not_multiply_the_work(self):
        # 13 complete actors, one past the memo cap, each with an edge to
        # each of 300 actors outside: every frame of the search would
        # cost 300 more steps if it walked the exits again.
        relation = dense_relation(13)
        sinks = [f"z{i:03d}" for i in range(300)]
        edges = relation.edges + tuple(
            TrustEdge(a, z, Fraction(1, 2)) for a in sorted(relation.actors()) for z in sinks
        )
        started = time.perf_counter()
        with pytest.raises(DecayBudgetExceeded):
            relation_properties(TrustGraph.from_relation(TrustRelation("T", edges)))
        assert time.perf_counter() - started < 5

    # Each case runs trust and report, each in text and structured form,
    # one of the two in process and the other in a subprocess.
    @pytest.mark.parametrize("case", DECAY_CASES)
    @pytest.mark.parametrize(
        ("command", "output_format", "in_process"),
        [
            ("trust", "structured", True),
            ("report", "text", True),
            ("trust", "text", False),
            ("report", "structured", False),
        ],
    )
    def test_cli(self, case, command, output_format, in_process, tmp_path, capsys):
        relation, path = DECAY_CASES[case]()
        script = tmp_path / "dense.vlp"
        script.write_text(relation_script(relation), encoding="utf-8")
        argv = [command, str(script), "--format", output_format]
        started = time.perf_counter()
        if in_process:
            code = main(argv)
            out = capsys.readouterr().out
        else:
            src = str(Path(veracity.__file__).resolve().parent.parent)
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from veracity.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
                capture_output=True,
                text=True,
                timeout=WALL_BOUND,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert done.stderr == ""
            code, out = done.returncode, done.stdout
        assert time.perf_counter() - started < WALL_BOUND
        line, fields, want = expected_decay(relation, path)
        assert code == want
        if output_format == "text":
            assert line in out.splitlines()
        else:
            section = f"trust {script} relation T"
            found = [s.fields for s in parse_structured(out).sections if s.name == section]
            assert found == [fields]

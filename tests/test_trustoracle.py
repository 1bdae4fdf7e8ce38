"""The trust layer against the frozen one in trustoracle.py.  On every drawn
relation, built through the constructor and through the parser in both
arrow spellings, relation_properties, best_trust, best_trust_path (the
path included), compare_relations and Model.reach give the oracle's
answers, the decay witness is decayoracle's, and the decay budget runs out
on the same relations.  None of these readers, and none of the subcommands
that read relations, builds a parsed relation's TrustEdges."""

from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import decayoracle
import trustoracle
from strategies import weights
from veracity import cli
from veracity.core import TrustEdge, TrustRelation, format_weight
from veracity.parser import parse_script
from veracity.semantics import Model
from veracity.trust import (
    MEMO_CAP,
    DecayBudgetExceeded,
    TrustGraph,
    best_trust,
    best_trust_path,
    compare_relations,
    relation_properties,
)

TIED = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])


@st.composite
def edge_lists(draw):
    """Edges in a drawn order and actors on no edge.  The kinds: acyclic
    (edges run forward in a drawn order of the actors, so names do not
    follow it), cyclic within the memo cap, a sparse ring past it, and a
    mix of all three joined by edges from one to the next.  Self-loops
    are drawn in each, and weights tie often and include 0 and 1."""
    kind = draw(st.sampled_from(["acyclic", "cyclic", "past-cap", "mixed"]))
    pick = lambda: draw(st.one_of(TIED, weights))
    pairs: dict[tuple[str, str], Fraction] = {}
    parts = ["acyclic", "cyclic", "past-cap"] if kind == "mixed" else [kind]
    previous: list[str] = []
    for number, part in enumerate(parts):
        if part == "past-cap":
            n = draw(st.integers(MEMO_CAP + 1, MEMO_CAP + 5))
        else:
            n = draw(st.integers(1, 9 if part == "acyclic" else MEMO_CAP))
        actors = draw(st.permutations([f"{'pqr'[number]}{i}" for i in range(n)]))
        if part == "acyclic":
            density = draw(st.sampled_from([0.2, 0.5, 1.0]))
            for i, a in enumerate(actors):
                for b in actors[i + 1:]:
                    if draw(st.floats(0, 1)) < density:
                        pairs[a, b] = pick()
        else:
            for a, b in zip(actors, actors[1:] + actors[:1]):
                pairs[a, b] = pick()
            extra = n * n // 4 if part == "cyclic" else 4
            for _ in range(draw(st.integers(0, extra))):
                pairs[draw(st.sampled_from(actors)), draw(st.sampled_from(actors))] = pick()
        if draw(st.booleans()):
            loop = draw(st.sampled_from(actors))
            pairs[loop, loop] = pick()
        if previous:
            pairs[draw(st.sampled_from(previous)), draw(st.sampled_from(actors))] = pick()
        previous = actors
    edges = draw(st.permutations(sorted(pairs.items())))
    extras = [f"z{i}" for i in range(draw(st.integers(0, 2)))]
    return edges, extras


def built(edges, name="T") -> TrustRelation:
    return TrustRelation(name, tuple(TrustEdge(s, t, w) for (s, t), w in edges))


def script_text(edges, arrow: str, name="T") -> str:
    actors = sorted({actor for pair, _ in edges for actor in pair})
    lines = "".join(f"  {s} {arrow} {t} @ {format_weight(w)}.\n" for (s, t), w in edges)
    declared = f"actor {', '.join(actors)}.\n" if actors else ""
    return f"{declared}trust {name} {{\n{lines}}}\n"


def parsed(edges, arrow: str, name="T") -> TrustRelation:
    (relation,) = parse_script(script_text(edges, arrow, name)).relations
    return relation


def readings(edges, name="T"):
    """The relation built, and parsed with each arrow; the parsed ones have
    no edges yet."""
    out = [built(edges, name), parsed(edges, "->", name), parsed(edges, "→", name)]
    assert ["edges" in vars(r) for r in out[1:]] == [False, False]
    return out


def properties(relation, extras, graph_type, analyse):
    try:
        found = analyse(graph_type.from_relation(relation, extras))
    except (DecayBudgetExceeded, trustoracle.DecayBudgetExceeded) as err:
        return ("budget", err.budget)
    return (found.symmetric_pairs, found.longest_chain_decay)


def pairs_to_ask(data, relation, extras):
    actors = sorted(relation.actors() | set(extras)) + ["nobody"]
    return [
        (data.draw(st.sampled_from(actors)), data.draw(st.sampled_from(actors)))
        for _ in range(6)
    ]


def _decay(edges, extras):
    return trustoracle.relation_properties(
        trustoracle.TrustGraph.from_relation(built(edges), extras)
    ).longest_chain_decay


OUTCOMES = {
    "zero witness": lambda edges, extras, decay: decay[1] == 0 and len(decay[0]) > 2,
    "positive witness": lambda edges, extras, decay: 0 < decay[1] < 1 and len(decay[0]) > 2,
    "witness past the memo cap": lambda edges, extras, decay: len(decay[0]) > MEMO_CAP,
    "self-loop": lambda edges, extras, decay: any(s == t for (s, t), _ in edges),
    "actor on no edge": lambda edges, extras, decay: bool(extras) and decay[1] < 1,
}


class TestAgainstTheFrozenLayer:
    @settings(max_examples=150, deadline=None)
    @given(edge_lists(), st.data())
    def test_every_reader_agrees(self, drawn, data):
        edges, extras = drawn
        reference = built(edges)
        want = properties(reference, extras, trustoracle.TrustGraph, trustoracle.relation_properties)
        asked = pairs_to_ask(data, reference, extras)
        for index, relation in enumerate(readings(edges)):
            got = properties(relation, extras, TrustGraph, relation_properties)
            assert got == want
            graph = TrustGraph.from_relation(relation, extras)
            frozen = trustoracle.TrustGraph.from_relation(reference, extras)
            for source, target in asked:
                assert best_trust(graph, source, target) == trustoracle.best_trust(
                    frozen, source, target
                )
                assert best_trust_path(graph, source, target) == trustoracle.best_trust_path(
                    frozen, source, target
                )
            assert index == 0 or "edges" not in vars(relation)
        # decayoracle backtracks with no memo: keep it to sparse relations.
        if want[0] != "budget" and len(edges) <= 2 * len(reference.actors()):
            assert want[1] == decayoracle.decay(TrustGraph.from_relation(reference, extras))

    @pytest.mark.parametrize("first", ["b", "c"])
    def test_equal_paths_go_to_the_edge_listed_first(self, first):
        """a reaches d at 1/4 through b and through c: the path through
        whichever of a's edges comes first wins, as it did."""
        second = "c" if first == "b" else "b"
        half = Fraction(1, 2)
        edges = [(("a", first), half), (("a", second), half), (("b", "d"), half), (("c", "d"), half)]
        frozen = trustoracle.TrustGraph.from_relation(built(edges))
        want = trustoracle.best_trust_path(frozen, "a", "d")
        assert want == (("a", first, "d"), Fraction(1, 4))
        for relation in readings(edges):
            assert best_trust_path(TrustGraph.from_relation(relation), "a", "d") == want

    @settings(max_examples=60, deadline=None)
    @given(edge_lists(), edge_lists(), st.data())
    def test_comparisons_and_reach_agree(self, chain, star, data):
        (chain_edges, _), (star_edges, _) = chain, star
        want_chain, want_star = built(chain_edges), built(star_edges, "S")
        asked = pairs_to_ask(data, want_chain, ())
        family = (want_chain, want_star)
        actors = sorted(want_chain.actors() | want_star.actors()) + ["nobody"]
        pairs = zip(readings(chain_edges), readings(star_edges, "S"))
        for index, (got_chain, got_star) in enumerate(pairs):
            for source, target in asked:
                got = compare_relations(got_chain, got_star, source, target)
                want = trustoracle.compare_relations(want_chain, want_star, source, target)
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.star_at_least_chain, got.chain, got.star) == (
                        want.star_at_least_chain, want.chain, want.star,
                    )
            model = Model({}, (got_chain, got_star))
            for actor in actors:
                assert model.reach(actor) == trustoracle.reach(family, actor)
            assert index == 0 or ["edges" in vars(r) for r in (got_chain, got_star)] == [False] * 2

    @settings(max_examples=4, deadline=None)
    @given(st.integers(MEMO_CAP + 1, MEMO_CAP + 3), st.sampled_from([0.8, 1.0]), st.randoms())
    def test_the_budget_runs_out_on_the_same_dense_relations(self, n, density, rng):
        actors = [f"d{i}" for i in range(n)]
        edges = [
            ((a, b), Fraction(rng.randint(1, 10), 10))
            for a in actors for b in actors if a != b and rng.random() < density
        ]
        reference = built(edges)
        want = properties(reference, (), trustoracle.TrustGraph, trustoracle.relation_properties)
        assert want == ("budget", trustoracle.DECAY_BUDGET)
        for relation in (reference, parsed(edges, "→")):
            assert properties(relation, (), TrustGraph, relation_properties) == want

    @pytest.mark.parametrize("outcome", sorted(OUTCOMES))
    def test_the_draws_reach(self, outcome):
        """Each kind of relation the tests above rest on is drawn: zero and
        positive witnesses, a witness through a component past the memo
        cap, a self-loop and an actor on no edge."""
        find(
            edge_lists(),
            lambda drawn: _decay(*drawn) is not None
            and OUTCOMES[outcome](drawn[0], drawn[1], _decay(*drawn)),
            settings=settings(
                max_examples=400, database=None, deadline=None, phases=[Phase.generate]
            ),
        )


SCRIPT = """claim A.
actor P, Q, R.
trust T {
  P -> Q @ 0.5.
  Q → R @ 0.5.
  R -> P @ 0.25.
  P -> P @ 1.
}
trust S { P -> R @ 0.125. }
proof D { trust(T, P -> Q, assume x^Q : A) }
model M uses T, S { A = { x^Q. y^R@0.5. }. }
query x^P@0.5 : A in M.
query y^P@0.0625 : A in M.
sound D in M.
compare chain T star S from P to R.
"""


class TestSubcommandsBuildNoEdges:
    @pytest.mark.parametrize("command", ["trust", "model", "report"])
    @pytest.mark.parametrize("output_format", ["text", "structured"])
    def test_no_parsed_relation_builds_its_edges(
        self, command, output_format, tmp_path, monkeypatch, capsys
    ):
        scripts = []

        def parse_and_keep(text):
            scripts.append(parse_script(text))
            return scripts[-1]

        monkeypatch.setattr(cli, "parse_script", parse_and_keep)
        path = tmp_path / "relations.vlp"
        path.write_text(SCRIPT, encoding="utf-8")
        assert cli.main([command, str(path), "--format", output_format]) == 0
        out = capsys.readouterr().out
        assert [r.name for s in scripts for r in s.relations] == ["T", "S"]
        assert ["edges" in vars(r) for s in scripts for r in s.relations] == [False, False]
        if command != "model":
            frozen = trustoracle.relation_properties(
                trustoracle.TrustGraph.from_relation(built(_EDGES_T))
            )
            decay_path, decay_weight = frozen.longest_chain_decay
            assert " -> ".join(decay_path) in out and format_weight(decay_weight) in out
        if command != "trust":
            assert "sound" in out


_EDGES_T = [
    (("P", "Q"), Fraction(1, 2)),
    (("Q", "R"), Fraction(1, 2)),
    (("R", "P"), Fraction(1, 4)),
    (("P", "P"), Fraction(1)),
]

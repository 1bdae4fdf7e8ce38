"""Proof checking, witness evaluation, finite-model semantics, and trust
analysis for a weighted veracity logic.

The pieces fit together in layers: core holds the syntax trees and exact
weights, parser reads and renders the surface syntax, kernel replays proof
trees into checked sequents, evaluator normalizes witness terms, semantics
interprets claims in finite models, trust analyzes weighted trust graphs,
and cli ties everything to the command line.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .core import (
    And,
    Atom,
    Atomic,
    Bottom,
    Claimhood,
    Hypothesis,
    Implies,
    Judgement,
    Or,
    Pair,
    ProofTree,
    Rule,
    Sequent,
    TagL,
    TagR,
    TrustEdge,
    TrustRelation,
    Var,
    WeightedWitness,
    alpha_equal,
    as_weight,
    format_weight,
    neg,
)
from .evaluator import BudgetExceeded, normalize, normalize_counted, step, trace
from .kernel import CheckEnv, CheckError, ErrorKind, check_proof, env_from_script
from .parser import (
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
)
from .report import Report, Section, parse_structured, to_structured
from .semantics import (
    DepthExceeded,
    Model,
    PreconditionError,
    build_model,
    close_under_trust,
    denote,
    member,
    model_from_script,
    soundness_check,
)
from .trust import (
    ChainStarComparison,
    DecayBudgetExceeded,
    TrustGraph,
    best_trust,
    best_trust_path,
    chain_weight,
    compare_chain_star,
    compare_relations,
    relation_properties,
)

__version__ = "0.1.0"


def fixtures_path() -> Path:
    """Directory holding the bundled example scripts (*.vlp)."""
    return Path(resources.files(__name__) / "fixtures")


__all__ = [
    "And",
    "Atom",
    "Atomic",
    "Bottom",
    "BudgetExceeded",
    "ChainStarComparison",
    "CheckEnv",
    "CheckError",
    "Claimhood",
    "DecayBudgetExceeded",
    "DepthExceeded",
    "ErrorKind",
    "Hypothesis",
    "Implies",
    "Judgement",
    "Model",
    "Or",
    "Pair",
    "ParseError",
    "PreconditionError",
    "ProofTree",
    "Report",
    "Rule",
    "Script",
    "Section",
    "Sequent",
    "TagL",
    "TagR",
    "TrustEdge",
    "TrustGraph",
    "TrustRelation",
    "Var",
    "WeightedWitness",
    "alpha_equal",
    "as_weight",
    "best_trust",
    "best_trust_path",
    "build_model",
    "chain_weight",
    "check_proof",
    "close_under_trust",
    "compare_chain_star",
    "compare_relations",
    "denote",
    "env_from_script",
    "fixtures_path",
    "format_weight",
    "member",
    "model_from_script",
    "neg",
    "normalize",
    "normalize_counted",
    "parse_claim",
    "parse_judgement",
    "parse_script",
    "parse_sequent",
    "parse_structured",
    "parse_term",
    "parse_weight_expr",
    "relation_properties",
    "render_claim",
    "render_judgement",
    "render_proof_tree",
    "render_sequent",
    "render_term",
    "soundness_check",
    "step",
    "to_structured",
    "trace",
]

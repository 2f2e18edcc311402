"""Markov Logic Network substrate used by the MLN collective matcher."""

from .database import StoreFacts
from .grounding import Grounder, GroundRule
from .inference import GreedyCollectiveInference, InferenceResult, SCORE_TOLERANCE
from .learning import LearningReport, TrainingExample, VotedPerceptronLearner
from .logic import (
    Atom,
    Constant,
    PAPER_WEIGHTS,
    QUERY_PREDICATE,
    Rule,
    RuleSet,
    Variable,
    atom,
    const,
    paper_author_rules,
    var,
)
from .model import MarkovLogicNetwork
from .network import GroundNetwork
from .state import WorldState

__all__ = [
    "Atom",
    "Constant",
    "GreedyCollectiveInference",
    "GroundNetwork",
    "GroundRule",
    "Grounder",
    "InferenceResult",
    "LearningReport",
    "MarkovLogicNetwork",
    "PAPER_WEIGHTS",
    "QUERY_PREDICATE",
    "Rule",
    "RuleSet",
    "SCORE_TOLERANCE",
    "StoreFacts",
    "TrainingExample",
    "Variable",
    "VotedPerceptronLearner",
    "WorldState",
    "atom",
    "const",
    "paper_author_rules",
    "var",
]

"""Prediction with expert advice over finite outcome spaces.

Two interchangeable forecasting strategies with identical regret
guarantees: exponential mixing of advice with posterior weights
(:mod:`expertmix.aggregating`) and defensive forecasting against a
game-theoretic supermartingale (:mod:`expertmix.defensive`), together with
second-guessing experts, heterogeneous loss evaluators, simplex-valued
outcomes, and a reproducible simulation harness that audits every proven
bound.
"""

from . import errors
from .core import (
    Game,
    Session,
    domination_gap,
    exp_mix,
    expected_loss,
    is_superprediction,
)
from .losses import (
    ProperLoss,
    builtin_game,
    check_mixability,
    check_proper,
    generalized_entropy,
    proper_loss_from_entropy,
    realizability_constant,
)
from .aggregating import (
    aa_mix,
    aa_start,
    aa_step,
    project_boundary,
    retraction_F,
)
from .defensive import (
    dfa_solve_binary,
    dfa_solve_simplex,
    dfa_start,
    dfa_step,
    supermartingale_property_check,
)
from .secondguess import SecondGuessExpert, sg_aa_step, sg_dfa_step, sg_fixed_point
from .extensions import (
    EvaluatedExpert,
    SimplexGame,
    check_relative_exp_convexity,
    ml_dfa_start,
    ml_dfa_step,
    simplex_dfa_start,
    simplex_dfa_step,
)

__version__ = "0.1.0"

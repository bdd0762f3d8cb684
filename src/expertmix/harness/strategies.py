"""Expert and reality strategies for scenario runs.

Randomized strategies draw from independent PCG64 substreams spawned from
the scenario's master seed, so trajectories replay exactly.  The built-in
experts and the Reality kinds that do not look at Learner's move also
serve a block of rounds in one call (``size=B``): the block's draws are
the ``B`` single-round draws, in the same order from the same stream.
"""

from __future__ import annotations

import numpy as np

from ..core import Game
from ..errors import ConfigError
from ..secondguess import SecondGuessExpert

#: user-registered callback strategies, keyed by name
CALLBACK_REGISTRY: dict[str, object] = {}


def register_callback(name: str, strategy) -> None:
    CALLBACK_REGISTRY[name] = strategy


def _as_decision(game: Game, value) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    want = game.decision_dim
    if arr.shape != (want,):
        raise ConfigError(f"decision of shape {arr.shape}, game wants ({want},)")
    return arr


# ``advise(step, past_outcomes)`` is the decision for round ``step``, from
# the outcomes before it; ``advise(step, past_outcomes, size=B)`` the
# decisions of rounds ``step .. step + B - 1``, shape (B, decision_dim),
# for which ``past_outcomes`` holds the outcomes before the last of them.


class ConstantExpert:
    def __init__(self, game: Game, value):
        self.decision = _as_decision(game, value)

    def advise(self, step: int, past_outcomes: list, size: int | None = None) -> np.ndarray:
        if size is None:
            return self.decision
        return np.broadcast_to(self.decision, (size, len(self.decision)))


class IidRandomExpert:
    def __init__(self, game: Game, rng: np.random.Generator):
        self.game = game
        self.rng = rng

    def advise(self, step: int, past_outcomes: list, size: int | None = None) -> np.ndarray:
        d = self.game.decision_dim
        if self.game.decision_kind == "box":
            return self.rng.random(d if size is None else (size, d))
        return self.rng.dirichlet(np.ones(d), size=size)


class TrailingAverageExpert:
    """Predicts the (Laplace-smoothed) empirical mean of past outcomes.
    Counts update incrementally, so long horizons stay linear; a block's
    counts are one cumulative sum, which adds the outcomes in the order the
    round-by-round update does."""

    def __init__(self, game: Game, smoothing: float = 1.0):
        self.game = game
        self.counts = np.full(game.m, float(smoothing))
        self._seen = 0

    def advise(self, step: int, past_outcomes: list, size: int | None = None) -> np.ndarray:
        rounds = 1 if size is None else size
        new = np.asarray(past_outcomes[self._seen:step + rounds - 1])
        rows = np.zeros((len(new) + 1, self.game.m))
        rows[0] = self.counts
        if new.ndim == 2:  # simplex outcomes
            rows[1:] = new
        else:
            rows[np.arange(1, len(rows)), new.astype(int)] = 1.0
        counts = np.cumsum(rows, axis=0)[-rounds:]
        self.counts, self._seen = counts[-1], step + rounds - 1
        freq = counts / counts.sum(axis=1, keepdims=True)
        if self.game.decision_kind == "box":
            freq = freq[:, 1:]
        return freq if size is not None else freq[0]


def build_standard_expert(game: Game, spec: dict, rng: np.random.Generator):
    kind = spec.get("kind")
    if kind == "constant":
        return ConstantExpert(game, spec["value"])
    if kind == "iid-random":
        return IidRandomExpert(game, rng)
    if kind == "trailing-average":
        return TrailingAverageExpert(game, spec.get("smoothing", 1.0))
    if kind == "callback":
        name = spec.get("name")
        if name not in CALLBACK_REGISTRY:
            raise ConfigError(f"callback strategy {name!r} is not registered")
        return CALLBACK_REGISTRY[name]
    raise ConfigError(f"{kind!r} is not a standard expert kind")


def build_sg_expert(game: Game, spec: dict) -> SecondGuessExpert:
    kind = spec.get("kind")
    if kind == "sg-contrarian":
        if game.m != 2:
            raise ConfigError("sg-contrarian is a binary strategy")
        return SecondGuessExpert.coordinate_swap()
    if kind == "sg-identity":
        return SecondGuessExpert.identity()
    if kind == "sg-constant" or kind == "constant":
        dec = _as_decision(game, spec["value"])
        return SecondGuessExpert.constant(game.loss_vector(dec),
                                          name=f"constant({spec['value']})")
    if kind == "callback":
        name = spec.get("name")
        if name not in CALLBACK_REGISTRY:
            raise ConfigError(f"callback strategy {name!r} is not registered")
        return CALLBACK_REGISTRY[name]
    raise ConfigError(f"{kind!r} is not a second-guessing expert kind")


# ---------------------------------------------------------------------------
# Reality


class Reality:
    """Outcome source; ``depends_on_prediction`` tells the runner whether
    the learner's decision must be announced before the draw."""

    depends_on_prediction = False

    def pick(self, step: int, learner_loss_vector: np.ndarray | None,
             size: int | None = None):
        """The outcome of round ``step``; one that does not depend on the
        prediction also gives those of rounds ``step .. step + size - 1``."""
        raise NotImplementedError


class IidReality(Reality):
    def __init__(self, probs, rng: np.random.Generator):
        self.probs = np.asarray(probs, dtype=float)
        self.rng = rng

    def pick(self, step, learner_loss_vector=None, size=None):
        w = self.rng.choice(len(self.probs), size=size, p=self.probs)
        return int(w) if size is None else w


class FixedReality(Reality):
    def __init__(self, sequence):
        self.sequence = np.asarray(sequence, dtype=int)

    def pick(self, step, learner_loss_vector=None, size=None):
        if size is None:
            return int(self.sequence[step % len(self.sequence)])
        return self.sequence[np.arange(step, step + size) % len(self.sequence)]


class AdversarialReality(Reality):
    """Picks the outcome on which the learner's announced prediction loses
    most (for a binary game this is the opposite of rounding the decision);
    ties break toward the lower index."""

    depends_on_prediction = True

    def pick(self, step, learner_loss_vector) -> int:
        if learner_loss_vector is None:
            raise ValueError("adversarial reality needs the learner's loss vector")
        return int(np.argmax(np.asarray(learner_loss_vector, dtype=float)))


class DirichletReality(Reality):
    """Simplex-valued outcomes drawn i.i.d. from a Dirichlet law."""

    def __init__(self, alpha, m: int, rng: np.random.Generator):
        a = np.asarray(alpha, dtype=float)
        self.alpha = np.full(m, float(a)) if a.ndim == 0 else a
        self.rng = rng

    def pick(self, step, learner_loss_vector=None, size=None) -> np.ndarray:
        return self.rng.dirichlet(self.alpha, size=size)


def build_reality(spec: dict, m: int, rng: np.random.Generator) -> Reality:
    kind = spec.get("kind")
    if kind == "iid":
        probs = spec.get("probs", [1.0 / m] * m)
        return IidReality(probs, rng)
    if kind == "fixed":
        return FixedReality(spec["sequence"])
    if kind == "adversarial":
        return AdversarialReality()
    if kind == "dirichlet":
        return DirichletReality(spec.get("alpha", 1.0), m, rng)
    raise ConfigError(f"{kind!r} is not a reality kind")

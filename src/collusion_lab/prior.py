"""Symmetric pairwise priors over binary signals, and the two-state world model.

A ``BinaryPrior`` is the exchangeable pairwise belief (marginal Pr(h),
conditionals Pr(h|h) and Pr(h|l)) under which any two agents' signals are
positively but not fully correlated: Pr(h|h) > Pr(h|l), both conditionals
interior.  Priors are always constructed from (Pr(h), Pr(h|h)) with Pr(h|l)
derived, so the exchangeability identity

    Pr(h) * Pr(l|h) = Pr(l) * Pr(h|l)

holds by construction.

A ``WorldModel`` is a two-state latent prior with conditionally iid signals.
It pins down the full n-agent joint, which a pairwise prior alone does not,
and is therefore required for sampling and for conditioning on more than one
signal.  Any valid BinaryPrior is realized by some WorldModel
(``world_model_for_prior`` gives a canonical one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPrior, ZeroLikelihood
from .scoring import HIGH, LOW, BinaryDist, is_finite_number

_EXCHANGEABILITY_TOL = 1e-12


def _check_prob(value: float, name: str, strict: bool = False) -> None:
    if not is_finite_number(value):
        raise InvalidPrior(f"{name} must be a finite number, got {value!r}")
    if strict:
        if not 0.0 < value < 1.0:
            raise InvalidPrior(f"{name} must lie strictly inside (0, 1), got {value!r}")
    elif not 0.0 <= value <= 1.0:
        raise InvalidPrior(f"{name} must lie in [0, 1], got {value!r}")


class _Complements:
    """Pr(l), Pr(l|h) and Pr(l|l) of one prior's floats, or of columns of priors."""

    @property
    def p_l(self):
        return 1.0 - self.p_h

    @property
    def p_lh(self):
        """Pr(l|h)."""
        return 1.0 - self.p_hh

    @property
    def p_ll(self):
        """Pr(l|l)."""
        return 1.0 - self.p_hl


def _derived_p_hl(p_h, p_hh):
    """Pr(h|l) = Pr(h) * Pr(l|h) / Pr(l), from exchangeability; floats or arrays."""
    return p_h * (1.0 - p_hh) / (1.0 - p_h)


def _exchangeability_sides(p_h, p_hh, p_hl):
    """Pr(h)*Pr(l|h) and Pr(l)*Pr(h|l), equal for an exchangeable prior; floats or arrays."""
    return p_h * (1.0 - p_hh), (1.0 - p_h) * p_hl


@dataclass(frozen=True)
class BinaryPrior(_Complements):
    """Pairwise symmetric common prior: marginal and the two conditionals."""

    p_h: float
    p_hh: float
    p_hl: float

    def __post_init__(self):
        _check_prob(self.p_h, "Pr(h)", strict=True)
        _check_prob(self.p_hh, "Pr(h|h)", strict=True)
        _check_prob(self.p_hl, "Pr(h|l)", strict=True)
        if not self.p_hh > self.p_hl:
            raise InvalidPrior(
                f"signals must be positively informative: Pr(h|h)={self.p_hh!r} "
                f"must exceed Pr(h|l)={self.p_hl!r}")
        lhs, rhs = _exchangeability_sides(self.p_h, self.p_hh, self.p_hl)
        if abs(lhs - rhs) > _EXCHANGEABILITY_TOL:
            raise InvalidPrior(
                f"exchangeability violated: Pr(h)*Pr(l|h)={lhs!r} != Pr(l)*Pr(h|l)={rhs!r}")

    def marginal(self, s: str) -> float:
        return self.p_h if s == HIGH else self.p_l

    def cond(self, given: str, s: str) -> float:
        """Pr(peer signal = s | own signal = given)."""
        p_h_cond = self.p_hh if given == HIGH else self.p_hl
        return p_h_cond if s == HIGH else 1.0 - p_h_cond

    def posterior(self, s: str) -> BinaryDist:
        """Belief about one peer's signal after observing own signal ``s``."""
        return BinaryDist(self.p_hh if s == HIGH else self.p_hl)

    def to_config(self) -> dict:
        return {"p_h": self.p_h, "p_h_given_h": self.p_hh}


def make_prior(p_h: float, p_hh: float) -> BinaryPrior:
    """Construct a prior from Pr(h) and Pr(h|h); Pr(h|l) is derived.

    Derivation from exchangeability: Pr(h|l) = Pr(h) * Pr(l|h) / Pr(l).
    """
    _check_prob(p_h, "Pr(h)", strict=True)
    _check_prob(p_hh, "Pr(h|h)", strict=True)
    p_hl = _derived_p_hl(p_h, p_hh)
    if not 0.0 < p_hl < 1.0:
        raise InvalidPrior(f"derived Pr(h|l)={p_hl!r} falls outside (0, 1)")
    if not p_hh > p_hl:
        raise InvalidPrior(
            f"Pr(h|h)={p_hh!r} must exceed derived Pr(h|l)={p_hl!r}; "
            "signals would be uninformative or negatively correlated")
    return BinaryPrior(p_h=p_h, p_hh=p_hh, p_hl=p_hl)


@dataclass(frozen=True)
class PriorColumns(_Complements):
    """Columns of priors: equal-length arrays of Pr(h), Pr(h|h) and Pr(h|l), unchecked."""

    p_h: np.ndarray
    p_hh: np.ndarray
    p_hl: np.ndarray


def prior_columns(p_h: np.ndarray, p_hh: np.ndarray) -> tuple[PriorColumns, np.ndarray]:
    """The priors ``make_prior`` builds from columns of Pr(h) and Pr(h|h), and where it does.

    The mask is True where ``make_prior`` and ``BinaryPrior`` raise nothing,
    their checks taken element by element on finite floats, and Pr(h|l) is
    derived by the same operations.  The rows it rejects hold the prior
    (1/2, 3/4) instead, so that every row can be scored.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_hl = _derived_p_hl(p_h, p_hh)
        lhs, rhs = _exchangeability_sides(p_h, p_hh, p_hl)
        ok = ((0.0 < p_h) & (p_h < 1.0) & (0.0 < p_hh) & (p_hh < 1.0) & (0.0 < p_hl)
              & (p_hl < 1.0) & (p_hh > p_hl) & ~(abs(lhs - rhs) > _EXCHANGEABILITY_TOL))
    return PriorColumns(*(np.where(ok, x, fill) for x, fill in
                          ((p_h, 0.5), (p_hh, 0.75), (p_hl, _derived_p_hl(0.5, 0.75))))), ok


@dataclass(frozen=True)
class WorldModel:
    """Two latent states; signals iid given the state."""

    p_state: tuple[float, float]
    p_h_given_state: tuple[float, float]

    def __post_init__(self):
        if len(self.p_state) != 2 or len(self.p_h_given_state) != 2:
            raise InvalidPrior("world model needs exactly two states")
        for i, w in enumerate(self.p_state):
            _check_prob(w, f"p_state[{i}]")
        for i, p in enumerate(self.p_h_given_state):
            _check_prob(p, f"p_h_given_state[{i}]")
        if abs(sum(self.p_state) - 1.0) > _EXCHANGEABILITY_TOL:
            raise InvalidPrior(f"state probabilities must sum to 1, got {self.p_state!r}")

    def to_config(self) -> dict:
        return {"p_state": list(self.p_state), "p_h_given_state": list(self.p_h_given_state)}


def induce_prior(wm: WorldModel) -> BinaryPrior:
    """The pairwise prior a world model induces on any two agents' signals."""
    p_h = sum(w * p for w, p in zip(wm.p_state, wm.p_h_given_state))
    if not 0.0 < p_h < 1.0:
        raise InvalidPrior(f"induced Pr(h)={p_h!r} is degenerate")
    second_moment = sum(w * p * p for w, p in zip(wm.p_state, wm.p_h_given_state))
    p_hh = second_moment / p_h
    # Pr(h|h) = Pr(h) exactly when the signal distribution is constant
    # across states, which makes the two signals independent; guard against
    # the one-ulp float excess that case produces.
    if p_hh - p_h <= _EXCHANGEABILITY_TOL:
        raise InvalidPrior(
            "the two states give (effectively) identical signal distributions; "
            "signals would be pairwise independent")
    try:
        return make_prior(p_h, p_hh)
    except InvalidPrior as exc:
        raise InvalidPrior(f"world model induces no valid pairwise prior: {exc}") from exc


def coalition_posterior(wm: WorldModel, count_h: int, count_l: int) -> BinaryDist:
    """Predictive Pr(fresh signal = h) after observing h/l signal counts.

    The state likelihoods w * p^h * (1-p)^l are taken in log space and
    shifted by their maximum, so large counts do not underflow; a zero
    factor (w = 0, or p exactly 0 or 1 against a signal it cannot emit)
    rules its state out.
    """
    if count_h < 0 or count_l < 0:
        raise ValueError(f"signal counts must be non-negative, got ({count_h}, {count_l})")
    if count_h + count_l < 1:
        raise ValueError("need at least one observed signal")

    def log_likelihood(w: float, p: float) -> float:
        total = math.log(w) if w > 0.0 else -math.inf
        if count_h:
            total += count_h * math.log(p) if p > 0.0 else -math.inf
        if count_l:
            total += count_l * math.log1p(-p) if p < 1.0 else -math.inf
        return total

    logs = [log_likelihood(w, p) for w, p in zip(wm.p_state, wm.p_h_given_state)]
    top = max(logs)
    if top == -math.inf:
        raise ZeroLikelihood(
            f"observing {count_h} h and {count_l} l signals has probability 0 in every state")
    weights = [math.exp(x - top) for x in logs]
    predictive = sum(wt * p for wt, p in zip(weights, wm.p_h_given_state)) / sum(weights)
    return BinaryDist(min(max(predictive, 0.0), 1.0))


def world_model_for_prior(prior: BinaryPrior) -> WorldModel:
    """A canonical two-state realization of a pairwise prior.

    State 1 emits h with probability Pr(h|h), state 2 never emits h, and the
    state weight w = Pr(h)/Pr(h|h) matches both the marginal and the
    conditional.  Joints beyond pairwise are not pinned down by the prior;
    this choice is immaterial wherever only pairwise marginals enter.
    """
    w = prior.p_h / prior.p_hh
    wm = WorldModel(p_state=(w, 1.0 - w), p_h_given_state=(prior.p_hh, 0.0))
    induced = induce_prior(wm)
    if abs(induced.p_h - prior.p_h) > 1e-9 or abs(induced.p_hh - prior.p_hh) > 1e-9:
        raise InvalidPrior("canonical world model failed to reproduce the prior")
    return wm


def prior_values(config: dict) -> tuple[float, float] | None:
    """The (Pr(h), Pr(h|h)) floats of a ``{"prior": {...}}`` config; None for a world model.

    ``InvalidPrior`` unless the config holds exactly one of the two, with
    exactly its keys and finite JSON numbers: the checks ``from_config``
    makes before it builds anything.
    """
    has_prior = "prior" in config
    has_wm = "world_model" in config
    if has_prior == has_wm:
        raise InvalidPrior('config needs exactly one of "prior" or "world_model"')
    key, fields = (("prior", {"p_h", "p_h_given_h"}) if has_prior
                   else ("world_model", {"p_state", "p_h_given_state"}))
    spec = config[key]
    if not isinstance(spec, dict) or set(spec) != fields:
        got = sorted(spec) if isinstance(spec, dict) else type(spec).__name__
        raise InvalidPrior(f"{key} needs exactly the keys {', '.join(sorted(fields))}; got {got}")
    if has_prior:
        values = spec["p_h"], spec["p_h_given_h"]
        if not all(map(is_finite_number, values)):
            raise InvalidPrior(f"prior values must be finite JSON numbers, got {spec!r}")
        return float(values[0]), float(values[1])
    if not all(isinstance(v, list) and len(v) == 2 and all(map(is_finite_number, v))
               for v in spec.values()):
        raise InvalidPrior(f"world_model values must be lists of two finite JSON numbers, "
                           f"got {spec!r}")
    return None


def from_config(config: dict) -> tuple[BinaryPrior, WorldModel | None]:
    """Read ``{"prior": {...}}`` or ``{"world_model": {...}}``, whose values are JSON numbers."""
    values = prior_values(config)
    if values is not None:
        return make_prior(*values), None
    spec = config["world_model"]
    wm = WorldModel(*(tuple(map(float, spec[key])) for key in ("p_state", "p_h_given_state")))
    return induce_prior(wm), wm

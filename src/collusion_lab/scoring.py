"""Proper scoring rules over the binary outcome space {l, h}.

A scoring rule assigns a real score ``PS(s, q)`` to reporting the
distribution ``q`` when the realized outcome is ``s``.  A rule is proper
when truthfully reporting one's belief maximizes the expected score, and
strictly proper when it does so uniquely.  Built-ins:

    brier   PS(s, q) = 2*q(s) - (q_h^2 + q_l^2)
    log     PS(s, q) = log_b(q(s))          (base b, default e)

Table rules score affinely in q_h per reported outcome.  Each rule is one
formula, ``score_at``, over a posterior's Pr(h) or a column of them, so a
column's elements are the floats the scalar path gives.  ``four_scores``
gives the ``ScoreTable`` of a prior's two posteriors, which every mechanism
utility and every collusion threshold downstream reads, and
``four_score_columns`` the tables of a column of priors; ``gap_report``
adds a table's pairwise gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InvalidDist, InvalidSetting, LogOfZero

if TYPE_CHECKING:
    from .prior import BinaryPrior, PriorColumns

LOW = "l"
HIGH = "h"
SIGNALS = (LOW, HIGH)

#: Absolute comparison tolerance. "Strictly greater" everywhere in this
#: package means exceeding by more than this; all scored quantities are O(1).
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BinaryDist:
    """Distribution over {l, h}, parameterized by the probability of h."""

    p_h: float

    def __post_init__(self):
        if not is_finite_number(self.p_h):
            raise InvalidDist(f"p_h must be a finite number, got {self.p_h!r}")
        if not 0.0 <= self.p_h <= 1.0:
            raise InvalidDist(f"p_h must lie in [0, 1], got {self.p_h!r}")

    @property
    def p_l(self) -> float:
        return 1.0 - self.p_h

    def prob(self, outcome: str) -> float:
        if outcome == HIGH:
            return self.p_h
        if outcome == LOW:
            return self.p_l
        raise InvalidDist(f"unknown outcome {outcome!r}, expected one of {SIGNALS}")


class ScoringRule:
    """Base class: a rule is its formula ``score_at`` of (outcome, Pr(h)).

    ``strictly_proper`` is the rule's own claim; it must agree with
    ``verify_properness`` on a grid (tested, not assumed).
    """

    strictly_proper: bool = False

    def score(self, outcome: str, dist: BinaryDist) -> float:
        """Score reporting ``dist`` when the realized outcome is ``outcome``."""
        dist.prob(outcome)  # InvalidDist on an unknown outcome
        return self.score_at(outcome, dist.p_h)

    def score_at(self, outcome: str, q_h):
        """The score of ``outcome`` (h or l) reported at Pr(h) = ``q_h``.

        ``q_h`` is a float in [0, 1], or an array of them in (0, 1), scored
        element by element with the float's operations.
        """
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class BrierRule(ScoringRule):
    """Quadratic rule: 2*q(s) minus the squared 2-norm of q."""

    strictly_proper: bool = True

    def score_at(self, outcome: str, q_h):
        p = q_h if outcome == HIGH else 1.0 - q_h
        return 2.0 * p - (q_h * q_h + (1.0 - q_h) * (1.0 - q_h))

    def to_config(self) -> dict:
        return {"rule": "brier"}


#: ``math.log`` element by element, into an object array.
_LOG = np.frompyfunc(math.log, 1, 1)


@dataclass(frozen=True)
class LogRule(ScoringRule):
    """Logarithmic rule with configurable base (default natural log)."""

    base: float = math.e
    strictly_proper: bool = True

    def __post_init__(self):
        if not (is_finite_number(self.base) and self.base > 0 and self.base != 1):
            raise InvalidDist(f"log base must be positive and != 1, got {self.base!r}")

    def score_at(self, outcome: str, q_h):
        p = q_h if outcome == HIGH else 1.0 - q_h
        if isinstance(p, np.ndarray):
            # math.log per element: numpy's log may differ from it in the last bit
            ln = _LOG(p).astype(np.float64)
        elif p == 0.0:
            raise LogOfZero(f"log score undefined: outcome {outcome!r} has probability 0")
        else:
            ln = math.log(p)
        return ln if self.base == math.e else ln / math.log(self.base)

    def to_config(self) -> dict:
        return {"rule": "log", "base": self.base}


@dataclass(frozen=True)
class TableRule(ScoringRule):
    """Score affine in the believed p_h, one (intercept, slope) pair per report.

    score(h, q) = h_intercept + h_slope * q.p_h
    score(l, q) = l_intercept + l_slope * q.p_h

    Evaluates exactly at arbitrary posteriors, so a rule pinned down by four
    values at two distributions extends to the whole simplex.
    """

    h_intercept: float = 0.0
    h_slope: float = 0.0
    l_intercept: float = 0.0
    l_slope: float = 0.0

    def score_at(self, outcome: str, q_h):
        if outcome == HIGH:
            return self.h_intercept + self.h_slope * q_h
        return self.l_intercept + self.l_slope * q_h

    def to_config(self) -> dict:
        return {
            "rule": "table",
            "h": [self.h_intercept, self.h_slope],
            "l": [self.l_intercept, self.l_slope],
        }


def is_finite_number(value) -> bool:
    """An int or float with a finite float value; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _table_pair(config: dict, key: str) -> tuple[float, float]:
    pair = config.get(key, [0.0, 0.0])
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(is_finite_number(x) for x in pair)):
        raise InvalidDist(f'table rule "{key}" must be [intercept, slope] as finite numbers, '
                          f'got {pair!r}')
    return float(pair[0]), float(pair[1])


def rule_from_config(config: dict) -> ScoringRule:
    """Build a rule from ``{"rule": "brier"}``, ``{"rule": "log", "base": b}`` or a table."""
    if not isinstance(config, dict):
        raise InvalidDist(f"scoring rule must be an object, got {type(config).__name__}")
    kind = config.get("rule")
    if kind == "brier":
        extra = set(config) - {"rule"}
        if extra:
            raise InvalidDist(f"unknown scoring-rule keys {sorted(extra)}")
        return BrierRule()
    if kind == "log":
        extra = set(config) - {"rule", "base"}
        if extra:
            raise InvalidDist(f"unknown scoring-rule keys {sorted(extra)}")
        base = config.get("base", math.e)
        if not is_finite_number(base):
            raise InvalidDist(f"log base must be a finite number, got {base!r}")
        return LogRule(base=float(base))
    if kind == "table":
        extra = set(config) - {"rule", "h", "l"}
        if extra:
            raise InvalidDist(f"unknown scoring-rule keys {sorted(extra)}")
        return TableRule(*_table_pair(config, "h"), *_table_pair(config, "l"))
    raise InvalidDist(f"unknown scoring rule {kind!r}")


def expected_score(rule: ScoringRule, p: BinaryDist, q: BinaryDist) -> float:
    """E_{s~p}[PS(s, q)], with the 0*log(0) = 0 convention on p's null outcomes."""
    total = 0.0
    for s in SIGNALS:
        w = p.prob(s)
        if w == 0.0:
            continue
        total += w * rule.score(s, q)
    return total


@dataclass(frozen=True)
class PropernessReport:
    proper: bool
    strict: bool
    worst_violation: float
    skipped_pairs: int


def verify_properness(rule: ScoringRule, grid_steps: int, tol: float = DEFAULT_TOL) -> PropernessReport:
    """Check the properness inequality on a uniform (p, q) grid.

    Proper requires E_{s~p}[PS(s,p)] >= E_{s~p}[PS(s,q)] for every grid pair;
    strict requires the inequality to exceed ``tol`` whenever p != q.  Grid
    pairs the rule cannot score (log rule on zero-probability boundary points)
    are skipped and counted.
    """
    if grid_steps < 2:
        raise ValueError(f"grid_steps must be >= 2, got {grid_steps}")
    points = [BinaryDist(i / (grid_steps - 1)) for i in range(grid_steps)]
    proper = True
    strict = True
    worst = -math.inf
    skipped = 0
    for p in points:
        try:
            own = expected_score(rule, p, p)
        except LogOfZero:
            skipped += len(points)
            continue
        for q in points:
            if q.p_h == p.p_h:
                continue
            try:
                other = expected_score(rule, p, q)
            except LogOfZero:
                skipped += 1
                continue
            violation = other - own
            worst = max(worst, violation)
            if violation > tol:
                proper = False
            if violation >= -tol:
                strict = False
    if worst == -math.inf:
        worst = 0.0
    return PropernessReport(proper=proper, strict=proper and strict, worst_violation=worst,
                            skipped_pairs=skipped)


@dataclass(frozen=True)
class GapReport:
    """The four scores at a prior's posteriors and the gaps between them.

    ``score_xy`` is the score of report x against the posterior held after
    reporting y, e.g. ``score_lh`` = PS(l, q_h).  ``gap_h``/``gap_l`` are the
    same-outcome cross-posterior gaps (positive for strictly proper rules and
    valid priors); ``spread`` is the largest spread among the four scores.
    """

    score_hh: float
    score_lh: float
    score_hl: float
    score_ll: float
    gap_h: float
    gap_l: float
    spread: float


class ScoreTable(NamedTuple):
    """The four mechanism scores: s_<peer report><own report>, e.g. s_lh = PS(l, q_h)."""

    s_hh: float
    s_lh: float
    s_hl: float
    s_ll: float

    def against(self, p_h: float) -> tuple[float, float]:
        """Expected reward of reporting h, and of reporting l, against a peer
        who reports h with probability ``p_h``."""
        return (p_h * self.s_hh + (1.0 - p_h) * self.s_lh,
                p_h * self.s_hl + (1.0 - p_h) * self.s_ll)


def _score_table(rule: ScoringRule, priors) -> ScoreTable:
    """The four scores at Pr(h|h) and Pr(h|l) of a prior, or of columns of priors."""
    q_h, q_l = priors.p_hh, priors.p_hl
    return ScoreTable(rule.score_at(HIGH, q_h), rule.score_at(LOW, q_h),
                      rule.score_at(HIGH, q_l), rule.score_at(LOW, q_l))


def four_scores(rule: ScoringRule, prior: "BinaryPrior") -> ScoreTable:
    """(PS(h,q_h), PS(l,q_h), PS(h,q_l), PS(l,q_l)) for the prior's posteriors.

    ``InvalidSetting`` unless every score and their spread (max - min) are finite.
    """
    scores = _score_table(rule, prior)
    spread = max(scores) - min(scores)  # finite when every score is, or when one is NaN
    if not math.isfinite(spread) or math.isnan(sum(scores)):
        raise InvalidSetting(f"the scoring rule gives a non-finite score or score spread at "
                             f"this prior: {list(scores)}")
    return scores


def four_score_columns(rule: ScoringRule, priors: "PriorColumns") -> tuple[ScoreTable, np.ndarray]:
    """``four_scores`` of each prior in columns: a ``ScoreTable`` of arrays, and where it holds.

    The mask is False where ``four_scores`` raises: a score or the spread is
    not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a table rule may overflow
        scores = _score_table(rule, priors)
        return scores, np.isfinite(scores).all(axis=0) & np.isfinite(spread_column(scores))


def spread_column(scores: ScoreTable) -> np.ndarray:
    """``max(scores) - min(scores)`` of a table of arrays, element by element.

    Each score replaces the running largest (smallest) only where it compares
    greater (smaller), as Python's ``max`` and ``min`` pick.
    """
    top = bottom = scores[0]
    for score in scores[1:]:
        top = np.where(score > top, score, top)
        bottom = np.where(score < bottom, score, bottom)
    return top - bottom


def gap_report(rule: ScoringRule, prior: "BinaryPrior") -> GapReport:
    table = four_scores(rule, prior)
    return GapReport(*table, gap_h=table.s_hh - table.s_hl, gap_l=table.s_ll - table.s_lh,
                     spread=max(table) - min(table))

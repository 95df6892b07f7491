"""Closed-form collusion thresholds and canonical-deviation dichotomy checks.

For the peer prediction mechanism, truthful reporting survives coalitions up
to an exactly computable size, and fails beyond it:

* ex-ante concept: deviators compare expected utilities before learning
  their signals.  The binding deviations are the corner profiles where the
  whole coalition reports h (or l); the side threshold is

      k_h = floor((n-1) * E_l / d_h) + 1      if d_h > 0 else n,

  with E_l the truthful-vs-corner score loss against outsiders,
  E_l = E_{s~q_l}[PS(s,q_l) - PS(s,q_h)], and d_h = PS(h,q_h) - PS(l,q_h)
  the per-deviator reward surplus inside the coalition; symmetrically for
  k_l; the overall threshold is min(k_h, k_l, n).

* interim (per-type) concept: the same comparison conditioned on each
  signal; the inside surplus is discounted by the chance the signal already
  matches the corner report, giving

      k_h = ceil((n-1) * E_l / (Pr(l|l) * d_h))  if d_h > 0 else n.

``n_zero`` returns the population size beyond which the interim threshold
is exact against arbitrary (asymmetric) coalition strategies, and
``liar_threshold`` the corner threshold of the always-lie profile, which
never undercuts the ex-ante threshold.

All of these come from one prior's four scores, and only the factor n - 1
depends on n.  ``ThresholdTable`` holds the rest for one (prior, rule, tol),
with the one ``four_scores`` call, and gives ``report(concept, n)``,
``liar(n)`` and ``n_zero()``; ``k_ex_ante``, ``k_bayesian``,
``liar_threshold`` and ``n_zero`` each read a new table.

``dichotomy_check`` evaluates a canonical deviation against the letter of
the equilibrium definitions via exact mechanism utilities.

This module also holds the verdict vocabulary that ``checker`` imports:
the concept names, ``deviation_succeeds`` (the definitions' success test),
``truthful_baseline``/``member_delta`` (one deviator's utility change) and
``symmetric_deltas`` (a coalition sharing one strategy), so the closed
forms and the falsifiers decide success the same way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

from .errors import InvalidSetting, NoFiniteN
from .mechanism import (
    CANONICAL_DEVIATIONS,
    TRUTHFUL_STRATEGY,
    Setting,
    Strategy,
    member_utility,
    truthful_ex_ante,
    truthful_interim,
)
from .prior import BinaryPrior
from .scoring import DEFAULT_TOL, HIGH, LOW, ScoringRule, four_scores

EX_ANTE = "ex_ante"
BAYESIAN = "bayesian"
INTERIM_D = "interim_D"
CONCEPTS = (EX_ANTE, BAYESIAN)  # the concepts the falsifiers search; INTERIM_D is checked only


def _snap(x: float, tol: float) -> float:
    """Pull values within ``tol`` of an integer onto it before floor/ceil."""
    nearest = round(x)
    return float(nearest) if abs(x - nearest) <= tol else x


@dataclass(frozen=True)
class ThresholdReport:
    """One concept's thresholds plus the raw quantities that produced them.

    ``k_h``/``k_l`` are the side thresholds; an infinite side (non-positive
    denominator: that corner deviation never profits) is flagged and carries
    the value n, so it contributes n to the min.  ``ratio_h``/``ratio_l``
    are the n-free numerator/denominator ratios (None on infinite sides).
    """

    concept: str
    n: int
    k_h: int
    k_l: int
    k: int
    k_h_infinite: bool
    k_l_infinite: bool
    numerator_h: float
    denominator_h: float
    numerator_l: float
    denominator_l: float
    ratio_h: float | None
    ratio_l: float | None

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ThresholdReport":
        return ThresholdReport(**data)


class _Side(NamedTuple):
    """One corner's n-free part: ``num / den`` once, or None when ``den <= tol``."""

    num: float
    den: float
    ratio: float | None


def _side(num: float, den: float, tol: float) -> _Side:
    return _Side(num, den, None if den <= tol else num / den)


def _step(n: int, ratio: float, interim: bool, tol: float) -> int:
    """A side's per-n half: the smallest coalition size at which its corner profits.

    ``floor((n-1) * ratio) + 1`` ex ante, ``ceil((n-1) * ratio)`` per type
    (a zero delta for one type beside a strict gain for the other already
    succeeds), never below 1.
    """
    scaled = _snap((n - 1) * ratio, tol)
    return max(1, math.ceil(scaled) if interim else math.floor(scaled) + 1)


class ThresholdTable:
    """Every threshold of one (prior, rule, tol): k_E, k_B, the liar corner and n_zero.

    ``scores`` are ``four_scores``, its one call here; ``e_l, e_h, d_h, d_l``
    the outsider losses and corner reward surpluses; ``sides`` each concept's
    (h, l) corners, the per-type surpluses discounted by Pr(l|l) and Pr(h|h).
    """

    __slots__ = ("prior", "tol", "scores", "e_l", "e_h", "d_h", "d_l", "sides")

    def __init__(self, prior: BinaryPrior, rule: ScoringRule, tol: float = DEFAULT_TOL):
        self.prior, self.tol = prior, tol
        self.scores = s_hh, s_lh, s_hl, s_ll = four_scores(rule, prior)
        p_hh, p_ll = prior.p_hh, prior.p_ll
        self.e_l = e_l = prior.p_hl * (s_hl - s_hh) + p_ll * (s_ll - s_lh)
        self.e_h = e_h = p_hh * (s_hh - s_hl) + prior.p_lh * (s_lh - s_ll)
        self.d_h = d_h = s_hh - s_lh
        self.d_l = d_l = s_ll - s_hl
        # per type, each corner's inside surplus is discounted (module docstring)
        b_h, b_l = p_ll * d_h, p_hh * d_l
        self.sides = {EX_ANTE: (_side(e_l, d_h, tol), _side(e_h, d_l, tol)),
                      BAYESIAN: (_side(e_l, b_h, tol), _side(e_h, b_l, tol))}

    def k(self, concept: str, n: int) -> tuple[int, int, int]:
        """(k_h, k_l, k) of ``concept`` at population size n; an infinite side is n."""
        interim = concept == BAYESIAN
        side_h, side_l = self.sides[concept]
        k_h = n if side_h.ratio is None else _step(n, side_h.ratio, interim, self.tol)
        k_l = n if side_l.ratio is None else _step(n, side_l.ratio, interim, self.tol)
        return k_h, k_l, min(k_h, k_l, n)

    def report(self, concept: str, n: int) -> ThresholdReport:
        """``concept``'s thresholds at population size n, with the quantities behind them."""
        side_h, side_l = self.sides[concept]
        k_h, k_l, k = self.k(concept, n)
        return ThresholdReport(
            concept=concept, n=n, k_h=k_h, k_l=k_l, k=k,
            k_h_infinite=side_h.ratio is None, k_l_infinite=side_l.ratio is None,
            numerator_h=side_h.num, denominator_h=side_h.den,
            numerator_l=side_l.num, denominator_l=side_l.den,
            ratio_h=side_h.ratio, ratio_l=side_l.ratio)

    def liar(self, n: int):
        """The always-lie corner's threshold at n; ``math.inf`` when it never profits.

        Its outsider loss mixes both sides' losses by the marginal, its inside
        surplus the corner surpluses by how informative each signal is.
        """
        prior = self.prior
        num = prior.p_h * self.e_h + prior.p_l * self.e_l
        den = (prior.p_h * (prior.p_hh - prior.p_lh) * self.d_l
               + prior.p_l * (prior.p_ll - prior.p_hl) * self.d_h)
        return math.inf if den <= self.tol else _step(n, num / den, False, self.tol)

    def n_zero(self) -> int:
        """Smallest n >= 2 at which the interim threshold covers asymmetric play.

        Six conditions bound quantities that scale as 1/(n-1):

            b_h = 4*spread*(D + PS(l,q_l) - PS(h,q_l)) / ((n-1) * D * E_h)
            b_l = 4*spread*(D + PS(h,q_h) - PS(l,q_h)) / ((n-1) * D * E_l)

        with D the sum of the two cross-posterior gaps and spread the largest
        difference among the four scores: each b below 1/4 - tol, and at most
        its side's outsider loss over (posterior * D) and its corner surplus
        over D when that is positive, both plus tol.  A side's three share c, so
        the tightest holds exactly when all do (c/x < b1 <= b2 gives c/x <= b2;
        c/x <= b2 < b1 gives c/x < b1): one ``_first_n`` solve per side.
        """
        s_hh, s_lh, s_hl, s_ll = scores = self.scores
        prior, tol, e_l, e_h = self.prior, self.tol, self.e_l, self.e_h
        big_d = (s_hh - s_hl) + (s_ll - s_lh)
        spread = max(scores) - min(scores)
        if big_d <= tol or e_h <= tol or e_l <= tol:
            raise NoFiniteN("a required positive quantity is non-positive; "
                            "the rule is not strictly proper on this prior")
        quarter, firsts = 0.25 - tol, []
        for c, surplus, loss, post in (
                (4.0 * spread * (big_d + s_ll - s_hl) / (big_d * e_h), self.d_h, e_h, prior.p_hh),
                (4.0 * spread * (big_d + s_hh - s_lh) / (big_d * e_l), self.d_l, e_l, prior.p_ll)):
            # min(a, b) + tol is min(a + tol, b + tol): float addition is monotone
            bound = min(loss / (post * big_d), surplus / big_d if surplus > tol else math.inf) + tol
            firsts.append(_first_n(c, min(quarter, bound), quarter <= bound))
        if None in firsts:
            raise NoFiniteN("no finite n satisfies the interim conditions")
        return max(firsts)


def k_ex_ante(setting: Setting, tol: float = DEFAULT_TOL) -> ThresholdReport:
    """Largest coalition size for which truthful reporting survives ex ante."""
    return ThresholdTable(setting.prior, setting.rule, tol).report(EX_ANTE, setting.n)


def k_bayesian(setting: Setting, tol: float = DEFAULT_TOL) -> ThresholdReport:
    """Largest coalition size for which truthful reporting survives per type."""
    return ThresholdTable(setting.prior, setting.rule, tol).report(BAYESIAN, setting.n)


def _first_n(c: float, bound: float, strict: bool) -> int | None:
    """Smallest n <= 2**62 from which ``c/(n-1) < bound`` (or ``<=``) holds on, else None.

    For c > 0 that is n - 1 = c/bound up to rounding: the float is nudged to
    the smallest x = n - 1 at which the comparison holds, then n - 1 is the
    smallest integer whose float is >= x.  For c <= 0 it holds at all n or none.
    """
    def holds(x) -> bool:
        return c / x < bound if strict else c / x <= bound

    if not holds(2 ** 62 - 1):
        return None
    if holds(1):
        return 2
    x = c / bound
    while not holds(x):  # a few ulps at most
        x = math.nextafter(x, math.inf)
    while holds(math.nextafter(x, 0.0)):
        x = math.nextafter(x, 0.0)
    m = math.ceil(x)
    if x > 2.0 ** 53:  # neighbouring integers share x: the lowest one that rounds to it
        m = (int(math.nextafter(x, 0.0)) + m) // 2
        if float(m) < x:
            m += 1
    return m + 1


def n_zero(prior: BinaryPrior, rule: ScoringRule, tol: float = DEFAULT_TOL) -> int:
    """Smallest n >= 2 from which k_B covers asymmetric play (``ThresholdTable.n_zero``)."""
    return ThresholdTable(prior, rule, tol).n_zero()


def liar_threshold(setting: Setting, tol: float = DEFAULT_TOL):
    """Corner threshold of the always-lie profile (``ThresholdTable.liar``)."""
    return ThresholdTable(setting.prior, setting.rule, tol).liar(setting.n)


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of testing one canonical deviation against one concept.

    ``deltas`` holds per-member utility changes: floats for the ex-ante
    concept, (low, high) per-type pairs for the interim concept.  Success
    means every delta is at least -tol and at least one exceeds +tol.
    """

    concept: str
    k: int
    deviation_tested: str
    succeeded: bool
    deltas: tuple

    def to_dict(self) -> dict:
        return {
            "concept": self.concept,
            "k": self.k,
            "deviation_tested": self.deviation_tested,
            "succeeded": self.succeeded,
            "deltas": [list(d) if isinstance(d, tuple) else d for d in self.deltas],
        }

    @staticmethod
    def from_dict(data: dict) -> "DichotomyVerdict":
        deltas = tuple(tuple(d) if isinstance(d, list) else d for d in data["deltas"])
        return DichotomyVerdict(
            concept=data["concept"], k=data["k"],
            deviation_tested=data["deviation_tested"],
            succeeded=data["succeeded"], deltas=deltas)


def deviation_succeeds(concept: str, deltas: Sequence, tol: float) -> bool:
    """The definitions' success test for one coalition's per-member deltas.

    Ex ante and per type: no member (type) loses, someone strictly gains;
    per-type deltas are tuples.  interim_D: every member strictly gains.
    """
    if concept == INTERIM_D:
        return all(d > tol for d in deltas)
    flat: list[float] = []
    for d in deltas:
        if isinstance(d, tuple):
            flat.extend(d)
        else:
            flat.append(d)
    return all(x >= -tol for x in flat) and any(x > tol for x in flat)


def truthful_baseline(setting: Setting, concept: str):
    """The truthful utility a deviator's delta is measured against.

    A float ex ante; the (low, high) pair of interim utilities per type.
    """
    if concept == EX_ANTE:
        return truthful_ex_ante(setting)
    return truthful_interim(setting, LOW), truthful_interim(setting, HIGH)


def member_delta(setting: Setting, own: Strategy, peers: Sequence[tuple[int, Strategy]],
                 concept: str, base):
    """Utility change of a deviator playing ``own`` over ``base = truthful_baseline(...)``.

    ``peers`` are its n-1 peers as (count, strategy) groups, in the order of
    ``mechanism.member_utility``.  A float ex ante; a (low, high) pair per type.
    """
    if concept == EX_ANTE:
        return member_utility(setting, own, peers) - base
    base_l, base_h = base
    return (member_utility(setting, own, peers, LOW) - base_l,
            member_utility(setting, own, peers, HIGH) - base_h)


def symmetric_deltas(setting: Setting, strategy: Strategy, k: int, concept: str,
                     base) -> tuple:
    """Per-member deltas of a size-k coalition whose members all play ``strategy``.

    Members are exchangeable, so one member's delta is every member's: its
    peers are k-1 fellow members and n-k truthful agents, O(1) at any k.
    ``base`` is ``truthful_baseline(setting, concept)``, computed once by the
    caller across the sizes and strategies it tries.
    """
    peers = ((k - 1, strategy), (setting.n - k, TRUTHFUL_STRATEGY))
    return (member_delta(setting, strategy, peers, concept, base),) * k


def dichotomy_check(setting: Setting, k: int, deviation: str, concept: str,
                    tol: float = DEFAULT_TOL) -> DichotomyVerdict:
    """Test whether k coalition members playing a named corner profile succeed."""
    if deviation not in CANONICAL_DEVIATIONS:
        raise InvalidSetting(
            f"unknown deviation {deviation!r}, expected one of {sorted(CANONICAL_DEVIATIONS)}")
    if concept not in CONCEPTS:
        raise InvalidSetting(f"unknown concept {concept!r}, expected one of {CONCEPTS}")
    if not 1 <= k <= setting.n:
        raise InvalidSetting(f"k must lie in [1, n], got {k}")
    deltas = symmetric_deltas(setting, CANONICAL_DEVIATIONS[deviation], k, concept,
                              truthful_baseline(setting, concept))
    return DichotomyVerdict(
        concept=concept, k=k, deviation_tested=deviation,
        succeeded=deviation_succeeds(concept, deltas, tol), deltas=deltas)

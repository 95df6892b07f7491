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
``liar_threshold`` and ``n_zero`` each read a new table.  Every threshold
is one array step (``_steps``: snap, then floor or ceiling), so
``threshold_columns`` prices the four sides of a whole column of n, or of
priors' ratios, in one step.
``price_priors`` gives the n_zero and side ratios of a column of priors,
and ``scan`` prices every row it prints from it: an n-sweep's one prior is
a one-row column.  The table's arithmetic is written once, over floats or
arrays (``PairForm.of``, ``_corners``, the side rule ``_sides``,
``_n_zeros``; the rules' ``score_at``), so each entry is its own
table's float or int; a row where the table would raise is only marked,
and the scalar table writes that row's error cell.

One success rule decides coalitions sharing one strategy (``winning_sizes``).
A member's delta at size s is ((s-1)*A + (n-1)*B) / (n-1) per component
(one ex ante, one per signal per type), A and B from ``PairForm.gaps``:
A is the coalition's gain, B a lone deviator's.  The tolerance is one test,
``_negligible``: |A| <= tol counts as 0.  ``ThresholdTable`` reads it on each
corner's gain (Pr(l) * d_h and Pr(h) * d_l ex ante, the discounted
denominators per type), a side being infinite where that gain is not
positive, and per type on the other type's gain, which decides the side's
step (``_steps``); B, like a corner's numerator, stays exact; and the root
(n-1)*(-B/A) is snapped before its floor or ceiling.
Success: (s-1)*A + (n-1)*B >= 0 in every component and > 0 in some.
``dichotomy_check`` reads it for a canonical deviation at one size.
``deviation_succeeds`` (every delta >= -tol, some > tol; ``succeeding_rows``
over a chunk of candidates) decides the rest:
explicit games, coalitions mixing strategies and known-type (interim_D)
coalitions.  ``coalition_deltas`` is the one place a coalition's member
deltas are computed, one per distinct strategy.  With the concept names,
these are the verdict vocabulary ``checker`` imports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSetting, NoFiniteN
from .mechanism import (
    CANONICAL_DEVIATIONS,
    TRUTHFUL_STRATEGY,
    PairForm,
    Setting,
    member_utility,
)
from .prior import BinaryPrior, prior_columns
from .scoring import (
    DEFAULT_TOL,
    SIGNALS,
    ScoreTable,
    ScoringRule,
    four_score_columns,
    four_scores,
    spread_column,
)

EX_ANTE = "ex_ante"
BAYESIAN = "bayesian"
INTERIM_D = "interim_D"
CONCEPTS = (EX_ANTE, BAYESIAN)  # the concepts the falsifiers search; INTERIM_D is checked only


def _snap(x: np.ndarray, tol: float) -> np.ndarray:
    """Pull values within ``tol`` of an integer onto it before floor/ceil, elementwise."""
    nearest = np.round(x)
    return np.where(abs(x - nearest) <= tol, nearest, x)


@dataclass(frozen=True)
class ThresholdReport:
    """One concept's thresholds plus the raw quantities that produced them.

    ``k_h``/``k_l`` are the side thresholds; an infinite side (the corner's
    gain negligible or negative: that deviation never profits) is flagged and carries
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


#: The four corners, in ``_corners`` order, as their overflow errors name them.
_CORNERS = ("ex_ante h", "ex_ante l", "bayesian h", "bayesian l")


def _negligible(gain, tol: float):
    """Whether a coalition's gain A counts as 0: ``|A| <= tol``, elementwise.

    The one tolerance test of the success rule, on a corner's gain in
    ``_sides`` and on each lane's A in ``winning_sizes``.
    """
    return abs(gain) <= tol


def _sides(num, den, gain, other, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corners' n-free ratios ``num / den``, their steps and where each side is valid,
    elementwise.

    A side whose corner's gain is negligible or negative is infinite (that
    corner never profits), ratio NaN; a finite side whose ratio passes the
    float range is invalid.  A side takes the ceiling step (``_steps``) where
    ``other``, the gain of the corner's other type (0 ex ante), is positive
    and not negligible.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        infinite = _negligible(gain, tol) | (gain <= 0.0)
        ratio = np.where(infinite, np.nan, np.divide(num, den))
        ceil = ~_negligible(other, tol) & (other > 0.0)
    return ratio, ceil, infinite | np.isfinite(ratio)


def _checked_sides(num: np.ndarray, den: np.ndarray, gain: np.ndarray, other, tol: float,
                   names) -> tuple[list[tuple], np.ndarray]:
    """The named corners' (num, den, ratio) floats and steps; ``InvalidSetting`` names
    the first invalid."""
    ratio, ceil, valid = _sides(num, den, gain, other, tol)
    sides = list(zip(num.tolist(), den.tolist(), ratio.tolist()))
    for name, (x, y, _), ok in zip(names, sides, valid.tolist()):
        if not ok:
            raise InvalidSetting(f"the {name} side's ratio {x!r} / {y!r} overflows the float range")
    return sides, ceil


def _ints(whole: np.ndarray, wide: bool) -> np.ndarray:
    """Integral floats as int64, or as Python ints (dtype object) when ``wide``."""
    return np.frompyfunc(int, 1, 1)(whole) if wide else whole.astype(np.int64)


def _steps(n, ratio, ceil, tol: float) -> np.ndarray:
    """Each side's per-n half: the largest coalition size at which its corner does not profit.

    ``floor(x) + 1``, or ``ceil(x)`` where ``ceil`` holds (per type, where the
    corner's other type gains: at size x + 1 the binding type's zero delta
    beside that strict gain already succeeds), never below 1, with
    x the snapped ``(n-1) * ratio``; n where the ratio is NaN (an infinite
    side).  n (int64) and ``ceil`` (a bool, or bools per side) broadcast
    against ratio (float), at least 1-d.  The sizes are int64, or Python ints
    (dtype object) once some |x| reaches 2^62; where ``(n-1) * ratio``
    passes the float range, x is the exact product.
    """
    n = np.asarray(n, dtype=np.int64)
    infinite = np.isnan(ratio)
    ratio = np.where(infinite, 0.0, ratio)
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the float range is inf
        x = np.atleast_1d(_snap((n - 1) * ratio, tol))
    whole = np.where(ceil, np.ceil(x), np.floor(x))
    if (abs(x) < 2.0 ** 62).all():
        whole = _ints(whole, False)
    else:  # where x is inf, |ratio| is past 2^53, so a whole number
        finite = np.isfinite(x)
        exact = np.frompyfunc(lambda m, r: (int(m) - 1) * int(r), 2, 1)(n, ratio)
        whole = np.where(finite, _ints(np.where(finite, whole, 0.0), True), exact)
    return np.where(infinite, n, np.maximum(np.where(ceil, whole, whole + 1), 1))


def threshold_columns(n, ratios, ceil, tol: float) -> tuple:
    """(k_E_h, k_E_l, k_E, k_B_h, k_B_l, k_B) at n from the four corners' ratio rows.

    ``ratios`` has one row per corner in ``_CORNERS`` order, NaN on an
    infinite side, ``ceil`` each side's step (``_sides``), and every side
    takes one ``_steps`` call.  n broadcasts against each row, so one call
    prices a column of population sizes against one prior's ratios (rows of
    one), or of priors at one n.
    """
    e_h, e_l, b_h, b_l = _steps(n, ratios, ceil, tol)
    return (e_h, e_l, np.minimum(np.minimum(e_h, e_l), n),
            b_h, b_l, np.minimum(np.minimum(b_h, b_l), n))


class ThresholdTable:
    """Every threshold of one (prior, rule, tol): k_E, k_B, the liar corner and n_zero.

    ``scores`` are ``four_scores``, its one call here; ``e_l, e_h, d_h, d_l``
    the outsider losses and corner reward surpluses; ``sides`` each concept's
    (h, l) corners as (num, den, ratio), the ratio NaN on an infinite side,
    the per-type surpluses discounted by Pr(l|l) and Pr(h|h).
    The four are ``mechanism.PairForm``'s corner slopes, the same floats
    ``winning_sizes`` reads.  ``ratios`` and ``ceil`` hold the four sides'
    ratios and steps as ``threshold_columns``' rows.
    """

    __slots__ = ("prior", "tol", "scores", "e_l", "e_h", "d_h", "d_l", "sides", "ratios",
                 "ceil")

    def __init__(self, prior: BinaryPrior, rule: ScoringRule, tol: float = DEFAULT_TOL):
        self.prior, self.tol = prior, tol
        self.scores = four_scores(rule, prior)
        self.e_l, self.e_h, self.d_h, self.d_l = slopes = PairForm.of(prior, self.scores)[-4:]
        sides, ceil = _checked_sides(*_corners(prior, *slopes), tol, _CORNERS)
        self.sides = {EX_ANTE: sides[:2], BAYESIAN: sides[2:]}
        self.ratios, self.ceil = np.array([[ratio] for *_, ratio in sides]), ceil[:, None]

    def k(self, concept: str, n):
        """(k_h, k_l, k) of ``concept`` at population size n; an infinite side is n.

        n is an int, giving ints, or an int64 array, giving arrays
        (``threshold_columns``).
        """
        ks = threshold_columns(n, self.ratios, self.ceil, self.tol)
        ks = ks[:3] if concept == EX_ANTE else ks[3:]
        return tuple(k.item() for k in ks) if np.ndim(n) == 0 else ks

    def report(self, concept: str, n: int) -> ThresholdReport:
        """``concept``'s thresholds at population size n, with the quantities behind them."""
        (num_h, den_h, ratio_h), (num_l, den_l, ratio_l) = self.sides[concept]
        k_h, k_l, k = self.k(concept, n)
        return ThresholdReport(
            concept=concept, n=n, k_h=k_h, k_l=k_l, k=k,
            k_h_infinite=math.isnan(ratio_h), k_l_infinite=math.isnan(ratio_l),
            numerator_h=num_h, denominator_h=den_h, numerator_l=num_l, denominator_l=den_l,
            ratio_h=None if math.isnan(ratio_h) else ratio_h,
            ratio_l=None if math.isnan(ratio_l) else ratio_l)

    def liar(self, n: int):
        """The always-lie corner's threshold at n; ``math.inf`` when it never profits.

        Its outsider loss mixes both sides' losses by the marginal, its inside
        surplus the corner surpluses by how informative each signal is.
        """
        prior = self.prior
        num = prior.p_h * self.e_h + prior.p_l * self.e_l
        den = (prior.p_h * (prior.p_hh - prior.p_lh) * self.d_l
               + prior.p_l * (prior.p_ll - prior.p_hl) * self.d_h)
        num, den = np.array([num]), np.array([den])  # den is the corner's gain
        [(*_, ratio)], _ = _checked_sides(num, den, den, 0.0, self.tol, ("always-lie",))
        return math.inf if math.isnan(ratio) else _steps(n, ratio, False, self.tol).item()

    def n_zero(self) -> int:
        """Smallest n >= 2 at which the interim threshold covers asymmetric play (``_n_zeros``)."""
        prior = self.prior
        column = np.array([[*self.scores, self.e_l, self.e_h, self.d_h, self.d_l,
                            prior.p_hh, prior.p_ll]]).T
        nz, proper = _n_zeros(ScoreTable(*column[:4]), *column[4:], self.tol)
        if not proper[0]:
            raise NoFiniteN("a required positive quantity is non-positive; "
                            "the rule is not strictly proper on this prior")
        if not nz[0]:
            raise NoFiniteN("no finite n satisfies the interim conditions")
        return int(nz[0])


def _corners(prior, e_l, e_h, d_h, d_l) -> tuple[np.ndarray, ...]:
    """The four corners' numerators, denominators, gains and other gains, arrays of four
    (rows) in ``_CORNERS`` order; per type, each inside surplus is discounted (module
    docstring).

    A corner's gain is the A of ``winning_sizes`` for its coalition: Pr(l) * d_h and
    Pr(h) * d_l ex ante, the denominator itself per type, the type the corner
    misreports.  Its other gain is the other type's A per type, Pr(l|h) * d_h and
    Pr(h|l) * d_l, and 0 ex ante, which has one component.
    """
    den = np.array([d_h, d_l, prior.p_ll * d_h, prior.p_hh * d_l])
    return (np.array([e_l, e_h, e_l, e_h]), den,
            np.array([prior.p_l * d_h, prior.p_h * d_l, den[2], den[3]]),
            np.array([0.0 * d_h, 0.0 * d_l, prior.p_lh * d_h, prior.p_hl * d_l]))


def _min(a, b) -> np.ndarray:
    """Python's ``min(a, b)`` element by element: a, unless b < a."""
    return np.where(b < a, b, a)


def _n_zeros(scores: ScoreTable, e_l, e_h, d_h, d_l, p_hh, p_ll,
             tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``ThresholdTable.n_zero`` of columns of priors: int64 (0 where none), and where proper.

    Six conditions bound quantities that scale as 1/(n-1):

        b_h = 4*spread*(D + PS(l,q_l) - PS(h,q_l)) / ((n-1) * D * E_h)
        b_l = 4*spread*(D + PS(h,q_h) - PS(l,q_h)) / ((n-1) * D * E_l)

    with D the sum of the two cross-posterior gaps and spread the largest
    difference among the four scores: each b below 1/4 - tol, and at most
    its side's outsider loss over (posterior * D) and its corner surplus
    over D when that is positive, both plus tol.  A side's three share c, so
    the tightest holds exactly when all do (c/x < b1 <= b2 gives c/x <= b2;
    c/x <= b2 < b1 gives c/x < b1): one ``_first_n`` solve per side.  The
    mask holds where D, E_h and E_l exceed tol, as the conditions need.
    """
    quarter = 0.25 - tol
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rows not proper
        s_hh, s_lh, s_hl, s_ll = scores
        big_d = (s_hh - s_hl) + (s_ll - s_lh)
        proper = ~((big_d <= tol) | (e_h <= tol) | (e_l <= tol))
        gain_h, gain_l = d_h > tol, d_l > tol
        # c and the bounds are ratios of like powers of the scores, so scores and slopes
        # scaled by 2^-e (e the binary exponent of the largest |score|) give the same
        # bits, and tiny or huge scores no longer under- or overflow their products
        grid = np.array([*scores, big_d, e_l, e_h, d_h, d_l])
        e = -np.frexp(abs(grid[:4]).max(axis=0))[1]
        s_hh, s_lh, s_hl, s_ll, big_d, e_l, e_h, d_h, d_l = np.ldexp(grid, e)
        spread = spread_column((s_hh, s_lh, s_hl, s_ll))
        c = np.array([4.0 * spread * (big_d + s_ll - s_hl) / (big_d * e_h),
                      4.0 * spread * (big_d + s_hh - s_lh) / (big_d * e_l)])
        # min(a, b) + tol is min(a + tol, b + tol): float addition is monotone
        bound = np.array([
            _min(loss / (post * big_d), np.where(gain, surplus / big_d, np.inf)) + tol
            for surplus, gain, loss, post in ((d_h, gain_h, e_h, p_hh), (d_l, gain_l, e_l, p_ll))])
        firsts = _first_n(c, _min(quarter, bound), quarter <= bound)
    return np.where(proper & firsts.all(axis=0), firsts.max(axis=0), 0), proper


def k_ex_ante(setting: Setting, tol: float = DEFAULT_TOL) -> ThresholdReport:
    """Largest coalition size for which truthful reporting survives ex ante."""
    return ThresholdTable(setting.prior, setting.rule, tol).report(EX_ANTE, setting.n)


def k_bayesian(setting: Setting, tol: float = DEFAULT_TOL) -> ThresholdReport:
    """Largest coalition size for which truthful reporting survives per type."""
    return ThresholdTable(setting.prior, setting.rule, tol).report(BAYESIAN, setting.n)


def _first_n(c: np.ndarray, bound: np.ndarray, strict: np.ndarray) -> np.ndarray:
    """Smallest n <= 2**62 from which ``c/(n-1) < bound`` (or ``<=``) holds on, per element.

    Float arrays give an int64 array, 0 where no such n.
    bound is below +inf, so ``<= bound`` is ``< nextafter(bound, inf)``.
    For c > 0 that is n - 1 = c/bound up to rounding: the float is nudged to
    the smallest x = n - 1 at which the comparison holds, then n - 1 is the
    smallest integer whose float is >= x.  For c <= 0 it holds at all n or none.
    """
    # c/x <= bound is c/x < the next float above bound: one strict test per lane
    upper = np.where(strict, bound, np.nextafter(bound, np.inf))

    def holds(x) -> np.ndarray:
        return c / x < upper

    found, at_once = holds(float(2 ** 62 - 1)), holds(1.0)
    search = found & ~at_once
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # lanes not searched
        x = np.where(search, c / bound, 1.0)
    while (step := search & ~holds(x)).any():  # a few ulps at most
        x = np.where(step, np.nextafter(x, np.inf), x)
    while (step := search & holds(below := np.nextafter(x, 0.0))).any():
        x = np.where(step, below, x)
    m = np.ceil(x).astype(np.int64)
    wide = x > 2.0 ** 53  # neighbouring integers share x: the lowest one that rounds to it
    if wide.any():
        mid = (np.nextafter(x, 0.0).astype(np.int64) + m) // 2
        m = np.where(wide, mid + (mid.astype(np.float64) < x), m)
    return np.where(found, np.where(at_once, 2, m + 1), 0)


def n_zero(prior: BinaryPrior, rule: ScoringRule, tol: float = DEFAULT_TOL) -> int:
    """Smallest n >= 2 from which k_B covers asymmetric play (``ThresholdTable.n_zero``)."""
    return ThresholdTable(prior, rule, tol).n_zero()


def price_priors(p_h: Sequence[float], p_hh: Sequence[float], rule: ScoringRule,
                 tol: float = DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """The n_zero and side ratios of each prior's ``ThresholdTable``, for columns of priors.

    The priors are ``make_prior(p_h[i], p_hh[i])``; ``rule`` scores columns
    (``ScoringRule.score_at``).  Returns (priced, n_zero, ratios, ceil),
    ``ratios`` and ``ceil`` the four corners' ratio and step rows
    (``threshold_columns``), the ratio NaN on an infinite side.
    ``priced`` is False where the scalar path raises (``make_prior``,
    ``four_scores``, a side's overflow or ``n_zero``), and such rows hold 0
    and NaN; every other row holds the int and floats its table gives, made
    by the same operations in the same order.
    """
    priors, ok = prior_columns(np.asarray(p_h, dtype=float), np.asarray(p_hh, dtype=float))
    scores, finite = four_score_columns(rule, priors)
    with np.errstate(over="ignore", invalid="ignore"):  # rows not priced
        slopes = PairForm.of(priors, scores)[-4:]
        corners = _corners(priors, *slopes)
    ratios, ceil, valid = _sides(*corners, tol)
    n_zero, _ = _n_zeros(scores, *slopes, priors.p_hh, priors.p_ll, tol)
    ok &= finite & valid.all(axis=0) & n_zero.astype(bool)
    return ok, np.where(ok, n_zero, 0), np.where(ok, ratios, np.nan), ceil


def liar_threshold(setting: Setting, tol: float = DEFAULT_TOL):
    """Corner threshold of the always-lie profile (``ThresholdTable.liar``)."""
    return ThresholdTable(setting.prior, setting.rule, tol).liar(setting.n)


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of testing one canonical deviation against one concept.

    ``deltas`` holds per-member utility changes: floats for the ex-ante
    concept, (low, high) per-type pairs for the interim concept.
    ``succeeded`` is the module's success rule at size k (``winning_sizes``).
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


def succeeding_rows(deltas: Sequence[np.ndarray], tol: float) -> np.ndarray:
    """Per row, whether the coalition succeeds ex ante or per type, each delta within ``tol``.

    ``deltas`` holds one (rows,) or (rows, types) array per member: no entry
    of a row may fall below -tol, and some entry must exceed tol.
    """
    rows = len(deltas[0])
    no_loss, gain = np.ones(rows, dtype=bool), np.zeros(rows, dtype=bool)
    for d in deltas:
        d = np.reshape(d, (rows, -1))
        no_loss &= (d >= -tol).all(axis=1)
        gain |= (d > tol).any(axis=1)
    return no_loss & gain


def deviation_succeeds(concept: str, deltas: Sequence, tol: float) -> bool:
    """The definitions' success test on one coalition's per-member deltas, each within ``tol``.

    Ex ante and per type: ``succeeding_rows`` on one row holding every
    entry, per-type deltas tuples.  interim_D: every member strictly gains.
    For coalitions sharing one strategy ``winning_sizes`` decides instead.
    """
    if concept == INTERIM_D:
        return all(d > tol for d in deltas)
    entries = [x for d in deltas for x in (d if isinstance(d, tuple) else (d,))]
    return bool(succeeding_rows([np.array([entries], dtype=float)], tol)[0])


def coalition_deltas(setting: Setting, concept: str, counts: dict) -> dict:
    """Each strategy's member delta in a coalition that plays ``counts``, the rest truthful.

    ``counts`` maps each strategy played to its member count, in first-appearance
    order.  A member's delta is its utility change over truthful reporting: a
    float ex ante, a (low, high) pair per type.  Its peers are the groups in
    that order, its own less one, then the n - k truthful agents
    (``mechanism.member_utility``), so a coalition costs one member's utilities
    per distinct strategy, whatever its size.
    """
    signals = (None,) if concept == EX_ANTE else SIGNALS
    truthful = [setting.pair_form.reward(TRUTHFUL_STRATEGY.betas, TRUTHFUL_STRATEGY.betas, s)
                for s in signals]
    outsiders = (setting.n - sum(counts.values()), TRUTHFUL_STRATEGY)
    deltas = {}
    for own in counts:
        peers = [(c - 1 if strat is own else c, strat) for strat, c in counts.items()]
        peers.append(outsiders)
        delta = tuple(member_utility(setting, own, peers, s) - base
                      for s, base in zip(signals, truthful))
        deltas[own] = delta[0] if concept == EX_ANTE else delta
    return deltas


def winning_sizes(setting: Setting, concept: str, own, lo: int, hi: int,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """Per lane, the smallest size in [lo, hi] at which a coalition sharing its strategy succeeds.

    ``own`` holds the lanes' (beta_l, beta_h) arrays; hi + 1 where no size in
    [lo, hi] succeeds.  In t = s - 1, each component's weak and strict
    conditions hold on intervals that end at the floor or ceiling of the
    snapped root, clipped to [-1, cap] (cap a power of two above hi, which
    changes no answer); the ends are int64, or Python ints from cap 2^63 on.
    """
    signals = (None,) if concept == EX_ANTE else SIGNALS
    a, b = (np.array(x) for x in zip(*(setting.pair_form.gaps(own, s) for s in signals)))
    a = np.where(_negligible(a, tol), 0.0, a)  # the gain test of ``_sides``; B stays exact
    cap = math.ldexp(1.0, min(int(hi).bit_length(), 1023))
    up, down = a > 0.0, a < 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = _snap(float(setting.n - 1) * (-b / a), tol)
    root = np.clip(np.where(up | down, root, 0.0), -1.0, cap)
    floor, ceil = (_ints(x, cap > 2.0 ** 62) for x in (np.floor(root), np.ceil(root)))
    beyond = np.array(int(cap), floor.dtype)
    # a > 0: t >= root (weak), t > root (strict); a < 0: t <= root, t < root; a == 0: b's sign
    weak_lo = np.where(up, ceil, np.where(down | (b >= 0.0), 0, beyond))
    weak_hi = np.where(down, floor, np.where(up | (b >= 0.0), beyond, -1))
    strict_lo = np.where(up, floor + 1, np.where(down | (b > 0.0), 0, beyond))
    strict_hi = np.where(down, ceil - 1, np.where(up | (b > 0.0), beyond, -1))
    start = np.maximum(np.maximum(weak_lo.max(axis=0), lo - 1), strict_lo)
    wins = start <= np.minimum(np.minimum(weak_hi.min(axis=0), hi - 1), strict_hi)
    return np.minimum(np.where(wins, start, beyond).min(axis=0), hi) + 1


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
    strategy = CANONICAL_DEVIATIONS[deviation]
    [delta] = coalition_deltas(setting, concept, {strategy: k}).values()
    size = winning_sizes(setting, concept, np.array(strategy.betas)[:, None], k, k, tol)[0]
    return DichotomyVerdict(concept=concept, k=k, deviation_tested=deviation,
                            succeeded=bool(size == k), deltas=(delta,) * k)

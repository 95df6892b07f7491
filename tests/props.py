"""Shared samplers, brute-force oracles, and property-check helpers.

The property checks are reused by the module tests and by the acceptance
suite.  All randomness comes from caller-supplied seeded generators, so
every test is deterministic.

The utility oracles here enumerate peer by peer over the full
(signal, report) lattice using only scoring primitives, independent of the
role-grouped closed forms they validate.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import string
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

import collusion_lab as cl

SIGNALS = (cl.LOW, cl.HIGH)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def random_prior(rng: np.random.Generator, margin: float = 0.02) -> cl.BinaryPrior:
    """A valid pairwise prior with interior conditionals and a real margin."""
    while True:
        p_h = float(rng.uniform(0.05, 0.95))
        p_hh = float(rng.uniform(0.05, 0.98))
        try:
            pr = cl.make_prior(p_h, p_hh)
        except cl.InvalidPrior:
            continue
        if pr.p_hh - pr.p_hl < margin or pr.p_hl < 0.01 or pr.p_hh > 0.99:
            continue
        return pr


def informative_prior(rng: np.random.Generator) -> cl.BinaryPrior:
    """Priors with strongly separated posteriors (small interim n floor)."""
    while True:
        p_h = float(rng.uniform(0.3, 0.7))
        p_hh = float(rng.uniform(min(0.98, p_h + 0.25), 0.98))
        try:
            pr = cl.make_prior(p_h, p_hh)
        except cl.InvalidPrior:
            continue
        if pr.p_hl < 0.02:
            continue
        return pr


def random_rule(rng: np.random.Generator) -> cl.ScoringRule:
    return cl.BrierRule() if rng.random() < 0.5 else cl.LogRule()


def random_table_rule(rng: np.random.Generator) -> cl.TableRule:
    """An affine table rule with intercepts and slopes in [-2, 2] (not necessarily proper)."""
    return cl.TableRule(*(float(x) for x in rng.uniform(-2.0, 2.0, size=4)))


def tiny_loss_table_rule(rng: np.random.Generator, prior: cl.BinaryPrior,
                         tol: float = cl.DEFAULT_TOL) -> cl.TableRule:
    """A table rule whose single deviator at one corner loses a drawn amount in (0, tol].

    That loss is ``ThresholdTable``'s e_l = (q_l - q_h) * (Pr(h|l)*h_slope +
    Pr(l|l)*l_slope) or e_h = (q_h - q_l) * (Pr(h|h)*h_slope + Pr(l|h)*l_slope),
    q_s = Pr(h|s): one slope is drawn and the other solves for the loss, and the
    intercepts put that corner's surplus (d_h or d_l) log-uniform in [1e-4, 1].
    The other corner's loss has the drawn slope's sign, positive here.
    """
    loss = float(rng.uniform(0.05, 1.0)) * tol
    return _corner_table_rule(rng, prior, loss, float(10.0 ** rng.uniform(-4.0, 0.0)))


def tiny_surplus_table_rule(rng: np.random.Generator, prior: cl.BinaryPrior,
                            tol: float = cl.DEFAULT_TOL) -> cl.TableRule:
    """A table rule whose corner surplus (d_h or d_l) is drawn in (tol, 3*tol].

    So that corner coalition's ex-ante gain, Pr(l) * d_h or Pr(h) * d_l,
    falls on either side of tol, and its per-type gain, the discounted
    surplus, too.  The single deviator's loss at that corner is the surplus
    times a ratio log-uniform in [1e-4, 1], so that the side binds.
    """
    surplus = (3.0 - float(rng.uniform(0.0, 2.0))) * tol
    return _corner_table_rule(rng, prior, surplus * float(10.0 ** rng.uniform(-4.0, 0.0)),
                              surplus)


def _corner_table_rule(rng: np.random.Generator, prior: cl.BinaryPrior, loss: float,
                       surplus: float) -> cl.TableRule:
    """A table rule whose single deviator at a drawn corner loses ``loss`` and whose
    surplus at that corner is ``surplus``, built as ``tiny_loss_table_rule`` says."""
    q_h, q_l = prior.p_hh, prior.p_hl
    free = float(rng.uniform(0.5, 2.0))
    intercept = float(rng.uniform(-1.0, 1.0))
    if rng.random() < 0.5:  # e_l = loss, d_h = surplus
        l_slope = (loss / (q_l - q_h) - prior.p_hl * free) / prior.p_ll
        return cl.TableRule(intercept, free, intercept + (free - l_slope) * q_h - surplus, l_slope)
    h_slope = (loss / (q_h - q_l) + prior.p_lh * free) / prior.p_hh  # e_h = loss, d_l = surplus
    return cl.TableRule(intercept - (h_slope + free) * q_l - surplus, h_slope, intercept, -free)


def random_strategy(rng: np.random.Generator) -> cl.Strategy:
    return cl.Strategy(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))


def random_world_model(rng: np.random.Generator) -> cl.WorldModel:
    while True:
        w = float(rng.uniform(0.05, 0.95))
        p0 = float(rng.uniform(0.0, 1.0))
        p1 = float(rng.uniform(0.0, 1.0))
        if abs(p0 - p1) < 0.05:
            continue
        wm = cl.WorldModel((w, 1.0 - w), (p0, p1))
        try:
            cl.induce_prior(wm)
        except cl.InvalidPrior:
            continue
        return wm


def exact_coalition_posterior(wm: cl.WorldModel, count_h: int,
                              count_l: int) -> float | None:
    """The predictive Pr(h | counts) in exact integer arithmetic, correctly rounded.

    Every float is an integer over a power of two, so one common power-of-two
    denominator turns both sums into integers; None when every state has
    likelihood 0.
    """
    terms = []
    for w, p in zip(wm.p_state, wm.p_h_given_state):
        (wn, wd), (pn, pd) = w.as_integer_ratio(), p.as_integer_ratio()
        terms.append((wn * pn ** count_h * (pd - pn) ** count_l,
                      wd * pd ** (count_h + count_l + 1), pn, pd))
    common = max(d for _, d, _, _ in terms)
    num = sum(like * pn * (common // d) for like, d, pn, _ in terms)
    den = sum(like * pd * (common // d) for like, d, _, pd in terms)
    return None if den == 0 else num / den


def reference_setting(rule: cl.ScoringRule | None = None, n: int = 100) -> cl.Setting:
    """The reference worked-example setting: Pr(h)=2/3, Pr(h|h)=0.8."""
    return cl.make_setting(n, rule or cl.BrierRule(), prior=cl.make_prior(2.0 / 3.0, 0.8))


# ---------------------------------------------------------------------------
# brute-force utility oracles
# ---------------------------------------------------------------------------

def _full_strategies(setting: cl.Setting, profile: cl.DeviationProfile) -> list[cl.Strategy]:
    return list(profile.deviators) + [cl.TRUTHFUL_STRATEGY] * (setting.n - profile.k)


def oracle_interim(setting: cl.Setting, strategies: list[cl.Strategy], i: int,
                   s_i: str) -> float:
    """Peer-by-peer enumeration of the interim expected utility."""
    pr, rule = setting.prior, setting.rule
    own = strategies[i]
    total = 0.0
    for j, peer in enumerate(strategies):
        if j == i:
            continue
        for r_i in SIGNALS:
            p_ri = own.report_prob(s_i) if r_i == cl.HIGH else 1.0 - own.report_prob(s_i)
            for s_j in SIGNALS:
                w_j = pr.cond(s_i, s_j)
                for r_j in SIGNALS:
                    p_rj = peer.report_prob(s_j) if r_j == cl.HIGH else 1.0 - peer.report_prob(s_j)
                    total += p_ri * w_j * p_rj * rule.score(r_j, pr.posterior(r_i))
    return total / (setting.n - 1)


def oracle_ex_ante(setting: cl.Setting, strategies: list[cl.Strategy], i: int) -> float:
    pr = setting.prior
    return sum(pr.marginal(s) * oracle_interim(setting, strategies, i, s) for s in SIGNALS)


def oracle_profile_utilities(setting: cl.Setting, profile: cl.DeviationProfile,
                             i, s: str | None = None) -> float:
    strategies = _full_strategies(setting, profile)
    index = profile.k if i == cl.TRUTHFUL else i
    if s is None:
        return oracle_ex_ante(setting, strategies, index)
    return oracle_interim(setting, strategies, index, s)


# ---------------------------------------------------------------------------
# shared property checks (asserting helpers)
# ---------------------------------------------------------------------------

def check_properness_grids() -> None:
    """log and Brier strictly proper at every resolution >= 11 (sampled)."""
    for steps in (11, 12, 21, 33):
        for rule in (cl.BrierRule(), cl.LogRule(), cl.LogRule(base=2.0)):
            report = cl.verify_properness(rule, steps)
            assert report.proper and report.strict, (rule, steps, report)
            assert rule.strictly_proper == report.strict
    constant = cl.TableRule()
    report = cl.verify_properness(constant, 21)
    assert report.proper and not report.strict
    assert constant.strictly_proper == report.strict


def check_score_gap_positivity(seed: int = 1234, samples: int = 1000) -> None:
    """Both cross-posterior gaps positive for strictly proper rules."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        pr = random_prior(rng)
        for rule in (cl.BrierRule(), cl.LogRule()):
            rep = cl.gap_report(rule, pr)
            assert rep.gap_h > 0.0 and rep.gap_l > 0.0, (pr, rule)
            assert rep.spread >= max(rep.gap_h, rep.gap_l) >= 0.0
            # at least one same-posterior reward surplus is positive
            assert rep.score_hh > rep.score_lh or rep.score_ll > rep.score_hl


def fd_hessian(fn, x: float, y: float, h: float = 1e-4) -> np.ndarray:
    """Central second differences; exact for quadratics up to rounding."""
    fxx = (fn(x + h, y) - 2.0 * fn(x, y) + fn(x - h, y)) / (h * h)
    fyy = (fn(x, y + h) - 2.0 * fn(x, y) + fn(x, y - h)) / (h * h)
    fxy = (fn(x + h, y + h) - fn(x + h, y - h)
           - fn(x - h, y + h) + fn(x - h, y - h)) / (4.0 * h * h)
    return np.array([[fxx, fxy], [fxy, fyy]])


def check_pair_reward_convexity(seed: int = 77, samples: int = 50) -> None:
    """Analytic Hessian PSD and within 1e-6 of finite differences."""
    rng = np.random.default_rng(seed)
    settings = [reference_setting()]
    for _ in range(samples):
        settings.append(cl.make_setting(int(rng.integers(2, 50)), random_rule(rng),
                                        prior=random_prior(rng)))
    for setting in settings:
        report = cl.pair_reward_hessian(setting)
        assert report.psd, setting

        def f(bl, bh, _s=setting):
            return cl.pair_self_reward(_s, cl.Strategy(bl, bh))

        numeric = fd_hessian(f, 0.3, 0.6, h=0.05)
        assert np.max(np.abs(numeric - report.matrix)) <= 1e-6, setting


def check_g_side_identities(seed: int = 501, samples: int = 25) -> None:
    """Second-derivative and directional-derivative identities for g.

    g is quadratic along each axis, so central differences with a wide step
    are exact to rounding.  The diagonal-line window must be nondegenerate,
    so sampled priors keep the posterior ratio moderate.
    """
    rng = np.random.default_rng(seed)
    settings = [reference_setting()]
    for _ in range(samples):
        settings.append(cl.make_setting(10, random_rule(rng),
                                        prior=random_prior(rng, margin=0.1)))
    for setting in settings:
        pr = setting.prior
        rep = cl.gap_report(setting.rule, pr)
        d_sum = rep.gap_h + rep.gap_l
        h = 0.2

        def g_h(bl, bh, _s=setting):
            return cl.g_side(cl.HIGH, cl.Strategy(bl, bh), _s)

        def g_l(bl, bh, _s=setting):
            return cl.g_side(cl.LOW, cl.Strategy(bl, bh), _s)

        # own-coordinate curvature
        second_h = (g_h(0.5, 0.5 + h) - 2 * g_h(0.5, 0.5) + g_h(0.5, 0.5 - h)) / (h * h)
        assert abs(second_h - 2.0 * pr.p_hh * d_sum) <= 1e-8
        assert second_h > 0.0
        second_l = (g_l(0.5 + h, 0.5) - 2 * g_l(0.5, 0.5) + g_l(0.5 - h, 0.5)) / (h * h)
        assert abs(second_l - 2.0 * pr.p_ll * d_sum) <= 1e-8
        assert second_l > 0.0
        # cross-coordinate flatness
        flat_h = (g_h(0.5 + h, 0.5) - 2 * g_h(0.5, 0.5) + g_h(0.5 - h, 0.5)) / (h * h)
        assert abs(flat_h) <= 1e-8
        flat_l = (g_l(0.5, 0.5 + h) - 2 * g_l(0.5, 0.5) + g_l(0.5, 0.5 - h)) / (h * h)
        assert abs(flat_l) <= 1e-8

        # directional derivative along beta_l = (p_hh/p_lh) * (1 - beta_h)
        alpha = pr.p_hh / pr.p_lh
        lo = max(0.0, 1.0 - 1.0 / alpha)
        if 1.0 - lo < 0.1:
            continue  # degenerate window, identity checked on other settings
        t0 = (lo + 1.0) / 2.0
        dt = (1.0 - lo) / 4.0
        slope = (g_h(alpha * (1 - (t0 + dt)), t0 + dt)
                 - g_h(alpha * (1 - (t0 - dt)), t0 - dt)) / (2 * dt)
        e_h = pr.p_hh * rep.gap_h - pr.p_lh * rep.gap_l
        assert abs(slope - e_h) <= 1e-8
        assert slope > 0.0


def check_truthfulness_grid(setting: cl.Setting, steps: int = 21,
                            tol: float = 1e-9) -> None:
    """Lone deviators never beat truth-telling; equality only at (0, 1)."""
    base = cl.truthful_ex_ante(setting)
    grid = [i / (steps - 1) for i in range(steps)]
    for bl in grid:
        for bh in grid:
            u = cl.ex_ante_utility(setting, cl.DeviationProfile((cl.Strategy(bl, bh),)), 0)
            if bl == 0.0 and bh == 1.0:
                assert abs(u - base) <= 1e-12
            else:
                assert u < base - tol, (bl, bh, u, base)


def check_average_utility_bound(seed: int = 99, profiles: int = 500) -> None:
    """Coalitions within the ex-ante threshold cannot raise their mean payoff."""
    rng = np.random.default_rng(seed)
    setting = reference_setting()
    k_cap = cl.k_ex_ante(setting).k
    base = cl.truthful_ex_ante(setting)
    for _ in range(profiles):
        k = int(rng.integers(1, k_cap + 1))
        profile = cl.DeviationProfile(tuple(random_strategy(rng) for _ in range(k)))
        mean = sum(cl.ex_ante_utility(setting, profile, i) for i in range(k)) / k
        assert mean <= base + 1e-9, (k, mean, base)


def check_subspace_dominance(setting: cl.Setting, ks: tuple[int, ...],
                             steps: int = 21) -> None:
    """Symmetric-coalition interim dominance on the two covering triangles."""
    pr = setting.prior
    base_h = cl.truthful_interim(setting, cl.HIGH)
    base_l = cl.truthful_interim(setting, cl.LOW)
    grid = [i / (steps - 1) for i in range(steps)]
    slope_h = pr.p_lh / pr.p_hh
    slope_l = pr.p_ll / pr.p_hl
    for k in ks:
        for bl in grid:
            for bh in grid:
                profile = cl.DeviationProfile((cl.Strategy(bl, bh),) * k)
                at_corner = bl == 0.0 and bh == 1.0
                if bh + slope_h * bl <= 1.0 + 1e-12:
                    u = cl.interim_utility(setting, profile, 0, cl.HIGH)
                    if at_corner:
                        assert abs(u - base_h) <= 1e-12
                    else:
                        assert u < base_h - 1e-9, ("h", k, bl, bh, u, base_h)
                if bh + slope_l * bl >= 1.0 - 1e-12:
                    u = cl.interim_utility(setting, profile, 0, cl.LOW)
                    if at_corner:
                        assert abs(u - base_l) <= 1e-12
                    else:
                        assert u < base_l - 1e-9, ("l", k, bl, bh, u, base_l)


def check_liar_threshold_bound(seed: int = 314, samples: int = 1000) -> None:
    """The always-lie corner threshold never undercuts the ex-ante one."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        setting = cl.make_setting(int(rng.integers(3, 201)), random_rule(rng),
                                  prior=random_prior(rng))
        assert cl.liar_threshold(setting) >= cl.k_ex_ante(setting).k


def check_threshold_ordering(seed: int = 2718, samples: int = 1000) -> None:
    """Interim thresholds dominate ex-ante thresholds on random settings."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        setting = cl.make_setting(int(rng.integers(3, 201)), random_rule(rng),
                                  prior=random_prior(rng))
        ex = cl.k_ex_ante(setting)
        ba = cl.k_bayesian(setting)
        assert ba.k_h >= ex.k_h - 1
        assert ba.k >= ex.k, (setting.n, ex.k, ba.k)


# ---------------------------------------------------------------------------
# thresholds: the per-setting recomputation as an oracle
# ---------------------------------------------------------------------------
# Scores, gaps and sides rebuilt from scratch for every setting, as the
# thresholds were computed before ``ThresholdTable``; float operations in
# the same order, so results must match exactly.  Snap and step are the
# scalar forms the array ``thresholds._steps`` replaced: Python floats, and
# Python ints from floor and ceiling at any magnitude.

def snap_scalar(x: float, tol: float) -> float:
    """Pull a value within ``tol`` of an integer onto it before floor/ceil."""
    nearest = round(x)
    return float(nearest) if abs(x - nearest) <= tol else x


def step_scalar(n: int, ratio: float, ceil: bool, tol: float) -> int:
    """A side's size at n: max(1, floor(x) + 1), or max(1, ceil(x)) where ``ceil``."""
    scaled = snap_scalar((n - 1) * ratio, tol)
    return max(1, math.ceil(scaled) if ceil else math.floor(scaled) + 1)


def gains(x: float, tol: float) -> bool:
    """Whether a coalition's gain A is a strict gain once the success rule's one
    tolerance test (``thresholds._negligible``) has read it."""
    from collusion_lab.thresholds import _negligible

    return not _negligible(x, tol) and x > 0


def _gaps_per_setting(prior: cl.BinaryPrior, scores: tuple) -> tuple:
    s_hh, s_lh, s_hl, s_ll = scores
    e_l = prior.p_hl * (s_hl - s_hh) + prior.p_ll * (s_ll - s_lh)
    e_h = prior.p_hh * (s_hh - s_hl) + prior.p_lh * (s_lh - s_ll)
    return e_l, e_h, s_hh - s_lh, s_ll - s_hl


def _side_per_setting(n: int, num: float, den: float, gain: float, other: float,
                      tol: float):
    """A side's (size, ratio), or None where its corner's ``gain`` is not one; the
    ceiling step where the corner's ``other`` type gains (``gains``)."""
    if not gains(gain, tol):
        return None
    ratio = num / den
    return step_scalar(n, ratio, gains(other, tol), tol), ratio


def report_per_setting(setting: cl.Setting, concept: str,
                       tol: float = cl.DEFAULT_TOL) -> cl.ThresholdReport:
    """One concept's report recomputed from ``four_scores`` for this setting alone."""
    e_l, e_h, d_h, d_l = _gaps_per_setting(setting.prior,
                                           cl.four_scores(setting.rule, setting.prior))
    prior = setting.prior
    if concept == cl.BAYESIAN:
        # each side's gain is the discounted surplus of the type the corner misreports;
        # the other type gains the surplus against a fellow member who misreports
        other_h, other_l = prior.p_lh * d_h, prior.p_hl * d_l
        d_h, d_l = prior.p_ll * d_h, prior.p_hh * d_l
        gain_h, gain_l = d_h, d_l
    else:  # the corner coalition's gain: the surplus against a peer who reports the other way
        gain_h, gain_l, other_h, other_l = prior.p_l * d_h, prior.p_h * d_l, 0.0, 0.0
    n = setting.n
    side_h = _side_per_setting(n, e_l, d_h, gain_h, other_h, tol)
    side_l = _side_per_setting(n, e_h, d_l, gain_l, other_l, tol)
    k_h, ratio_h = side_h or (n, None)
    k_l, ratio_l = side_l or (n, None)
    return cl.ThresholdReport(
        concept=concept, n=n, k_h=k_h, k_l=k_l, k=min(k_h, k_l, n),
        k_h_infinite=side_h is None, k_l_infinite=side_l is None,
        numerator_h=e_l, denominator_h=d_h, numerator_l=e_h, denominator_l=d_l,
        ratio_h=ratio_h, ratio_l=ratio_l)


def liar_threshold_per_setting(setting: cl.Setting, tol: float = cl.DEFAULT_TOL):
    prior = setting.prior
    e_l, e_h, d_h, d_l = _gaps_per_setting(prior, cl.four_scores(setting.rule, prior))
    num = prior.p_h * e_h + prior.p_l * e_l
    den = (prior.p_h * (prior.p_hh - prior.p_lh) * d_l
           + prior.p_l * (prior.p_ll - prior.p_hl) * d_h)
    side = _side_per_setting(setting.n, num, den, den, 0.0, tol)
    return math.inf if side is None else side[0]


def scan_row_per_setting(n: int, rule: cl.ScoringRule, prior: cl.BinaryPrior,
                         tol: float = cl.DEFAULT_TOL) -> str | None:
    """The ``scan`` CSV row of one setting; None where n_zero has no finite value."""
    nz = _n_zero_outcome(n_zero_by_search, prior, rule, tol)
    if nz is None:
        return None
    setting = cl.make_setting(n, rule, prior=prior)
    ex = report_per_setting(setting, cl.EX_ANTE, tol)
    ba = report_per_setting(setting, cl.BAYESIAN, tol)
    return f"{n},{ex.k_h},{ex.k_l},{ex.k},{ba.k_h},{ba.k_l},{ba.k},{nz},"


def prior_sweep_row(n: int, rule: cl.ScoringRule, p_h: float, p_hh: float,
                    tol: float = cl.DEFAULT_TOL) -> str | None:
    """A prior-sweep point's ``scan`` row: the error cell the scalar functions raise, if any,
    else ``scan_row_per_setting`` (None where its searched n_zero has no finite value)."""
    try:
        prior = cl.make_prior(p_h, p_hh)
        cl.n_zero(prior, rule, tol)
    except cl.CollusionLabError as exc:
        cell = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        return f"{n},,,,,,,,{cell}"
    return scan_row_per_setting(n, rule, prior, tol)


#: Sweep points ``make_prior`` rejects, or accepts only at an edge of the float range;
#: at Pr(h) = 5e-324 and Pr(h|h) > 1/2 the derived Pr(h|l) rounds to 0.
PRIOR_EDGE_POINTS = (0.0, 1.0, -0.25, 1.1, 1e-300, 1.0 - 1e-16, 5e-324)


def scan_stdout(raw: dict, tol: float) -> str:
    """``scan``'s stdout for a config dict at any tolerance, 0 included (no config file)."""
    from collusion_lab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cmd_scan(cli.RunConfig(raw=raw, tolerance=tol)) == 0
    return out.getvalue()


# ``scan`` as it ran when it made its rows one point at a time, kept as the
# oracle of the chunked path: each range point made alone by Python's
# ``start + i*step`` and ``round``, each n checked by ``_valid_n``, each row
# priced by the scalar threshold table and printed by its own f-string.

def sweep_points_per_point(sweep: dict) -> list:
    """A valid sweep's points in order, each range point made alone as Python computes it."""
    if "values" in sweep:
        return list(sweep["values"])
    start, stop, step = sweep["start"], sweep["stop"], sweep["step"]
    span = (stop - start) / step
    count = math.floor(span + 1e-9) + 1 if span > -1 else 0
    points = (start + i * step for i in range(count))
    return [int(round(x)) if sweep["param"] == "n" else round(x, 12) for x in points]


def _error_cell_or(fn, *args):
    """``fn(*args)``, or the ``scan`` error cell of the package error it raises."""
    try:
        return fn(*args)
    except cl.CollusionLabError as exc:
        return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _priced_per_point(rule, parsed, tol: float):
    """The scalar table of a parsed prior and its n_zero, or the first error cell of
    rule, prior, table and n_zero."""
    for part in (rule, parsed):
        if isinstance(part, str):
            return part
    from collusion_lab.thresholds import ThresholdTable

    table = _error_cell_or(ThresholdTable, parsed[0], rule, tol)
    nz = table if isinstance(table, str) else _error_cell_or(table.n_zero)
    return nz if isinstance(nz, str) else (table, nz)


def scan_stdout_per_point(raw: dict, tol: float = cl.DEFAULT_TOL) -> str:
    """``scan``'s stdout for a config whose sweep is valid, made one point at a time.

    An n-sweep parses and prices its prior once; a prior sweep each point's.
    A row's error cell is the first failure of n, rule, prior, table, n_zero.
    """
    from collusion_lab import cli, prior as prior_config

    param = raw["sweep"]["param"]
    rule = _error_cell_or(cl.rule_from_config, raw.get("rule", {"rule": "brier"}))
    if param == "n":
        shared = _priced_per_point(rule, _error_cell_or(prior_config.from_config, raw), tol)
    lines = [cli.SCAN_HEADER]
    for v in sweep_points_per_point(raw["sweep"]):
        if param == "n":
            label, n, priced = v, _error_cell_or(cli._valid_n, v), shared
        else:
            label, n = raw.get("n", ""), _error_cell_or(cli._checked_n, raw)
            point = {**raw, "prior": {**raw["prior"], param: v}}
            priced = n if isinstance(n, str) else _priced_per_point(
                rule, _error_cell_or(prior_config.from_config, point), tol)
        cell = n if isinstance(n, str) else priced
        if isinstance(cell, str):
            lines.append(f"{label},,,,,,,,{cell}")
            continue
        table, nz = cell
        (e_h, e_l, e), (b_h, b_l, b) = table.k(cl.EX_ANTE, n), table.k(cl.BAYESIAN, n)
        lines.append(f"{label},{e_h},{e_l},{e},{b_h},{b_l},{b},{nz},")
    return "\n".join(lines) + "\n"


def scan_oracle_configs(seed: int = 2424, count: int = 36) -> list[dict]:
    """Seeded ``scan`` configs for ``scan_stdout_per_point``, fixed cases first.

    Int and float n ranges with .5 ties (2.5..6 by 0.5 gives n = 2, 3, 4,
    4, 4, 5, 6, 6), a float start of 2^53 and an int one of 2^53 + 1 with a
    float step, a range crossing 2^62, negative
    starts, empty ranges, int ranges past int64 and a float start with an
    int step past it; n lists holding 9.0, 2**70 and -1 on both sides of
    each chunk edge; p_h and p_h_given_h ranges, int ones included, and
    lists; a rule, a prior and an n that fail.  Then ``count`` seeded ones:
    a random rule, prior, tolerance and form, of up to 2100 n points or 250 prior ones.
    """
    from collusion_lab import cli

    edge = cli._CHUNK_ROWS
    base = {"rule": {"rule": "brier"}, "prior": {"p_h": 0.4, "p_h_given_h": 0.7}, "n": 300}

    def n_range(start, stop, step, **extra):
        return dict(base, **extra, sweep={"param": "n", "start": start, "stop": stop,
                                          "step": step})

    marks = (9.0, 2 ** 70, -1)
    spots = [edge - 2, edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge]
    listed = [marks[j % 3] if j in spots else 2 + (j * 7919) % 10 ** 6
              for j in range(2 * edge + 3)]
    p_hhs = [marks[j % 3] if j in spots else round(0.45 + 0.5 * j / edge, 9)
             for j in range(edge + 3)]
    cases = [
        n_range(2.5, 6, 0.5), n_range(2.5, 6.0, 0.5, rule={"rule": "log"}),
        n_range(9007199254740992.0, 9007199254741010.0, 1.0),
        n_range(9007199254740992.0, 9007199254741010.0, 1),
        n_range(9007199254740992.0, 9007199254741000.0, 0.5),
        n_range(9007199254740993, 9007199254741000, 0.5),
        n_range(4611686018427387900, 4611686018427387910, 3),
        n_range(4611686018427387900.0, 4611686018427387910, 3),
        n_range(-5, 10, 2), n_range(-3.5, 9, 1.25), n_range(-2 ** 62, -2 ** 62 + 40, 4),
        n_range(50, 40, 10), n_range(1.5, 1.4, 1), n_range(0.5, 0.5, 1),
        n_range(5, 2 ** 72, 2 ** 70), n_range(-10 ** 30, 10 ** 30, 10 ** 29),
        n_range(0.5, 10 ** 21, 10 ** 20), n_range(2, 2 ** 63 + 7, 2 ** 61),
        n_range(2, 2100, 1), n_range(10, 3 * edge, 3),
        dict(base, sweep={"param": "n", "values": listed}),
        dict(base, rule={"rule": "log"}, sweep={"param": "n", "values": listed[::-1]}),
        dict(base, sweep={"param": "p_h_given_h", "values": p_hhs}),
        dict(base, sweep={"param": "p_h", "start": 0.1, "stop": 0.7, "step": 0.00058}),
        dict(base, sweep={"param": "p_h_given_h", "start": 0, "stop": 1, "step": 0.125}),
        dict(base, sweep={"param": "p_h_given_h", "start": 0, "stop": 2, "step": 1}),
        dict(base, sweep={"param": "p_h", "start": 0.3, "stop": 1.3, "step": 1}),
        dict(base, sweep={"param": "p_h", "start": 1e-13, "stop": 0.9, "step": 1 / 3}),
        dict(base, rule={"rule": "bogus"}, sweep={"param": "n", "values": [1, 5, 2.5]}),
        dict(base, prior={"p_h": 0.9, "p_h_given_h": 0.5},
             sweep={"param": "n", "start": 0, "stop": 5, "step": 1}),
        dict(base, n=1, sweep={"param": "p_h", "values": [0.3, 0.5]}),
        {k: v for k, v in base.items() if k != "n"}
        | {"sweep": {"param": "p_h", "start": 0.2, "stop": 0.4, "step": 0.1}},
        {"rule": {"rule": "brier"}, "sweep": {"param": "n", "values": [1, 10, 100]},
         "world_model": {"p_state": [0.3, 0.7], "p_h_given_state": [0.2, 0.9]}},
    ]
    rng = np.random.default_rng(seed)
    rules = [{"rule": "brier"}, {"rule": "log"}, {"rule": "log", "base": 2.0},
             {"rule": "table", "h": [-0.3, 1.7], "l": [0.9, -1.2]}]
    for _ in range(count):
        pr = random_prior(rng)
        cfg = {"rule": rules[int(rng.integers(len(rules)))],
               "prior": {"p_h": pr.p_h, "p_h_given_h": pr.p_hh},
               "n": int(2.0 ** rng.uniform(1.0, 62.0)),
               "tolerance": float(rng.choice([1e-12, 1e-9, 1e-3]))}
        param = str(rng.choice(["n", "p_h", "p_h_given_h"]))
        rows = int(rng.choice([0, 1, 7, 250, edge, edge + 1, 2100] if param == "n" else
                              [0, 1, 7, 60, 250]))
        if param == "n":
            start = int(rng.integers(-20, 10 ** 6)) if rng.random() < 0.5 else \
                round(float(rng.uniform(-20.0, 1e6)) * 2) / 2
            step = int(rng.integers(1, 50)) if rng.random() < 0.5 else \
                float(rng.choice([0.5, 0.25, 1.5, 2.5, 1 / 3]))
        else:
            start = float(rng.uniform(-0.1, 0.9))
            step = float(rng.uniform(0.0, 0.9 - start + 0.2) / max(rows, 1)) or 0.001
        if rng.random() < 0.7:
            sweep = {"start": start, "stop": start + step * (rows - 1), "step": step}
        else:
            values = [start + step * j for j in range(rows)]
            if param == "n":
                values = [int(v) if rng.random() < 0.9 else v for v in values]
            for at in rng.integers(0, max(rows, 1), size=min(rows, 5)):
                values[at] = marks[int(rng.integers(3))]
            sweep = {"values": values}
        cases.append(dict(cfg, sweep={"param": param, **sweep}))
    return cases


def check_prior_sweep_columns(seed: int = 2626, points: int = 40) -> dict:
    """``scan`` prices prior sweeps as the scalar path does, row by row (``prior_sweep_row``).

    Brier, log base e, 2 and 10, two random table rules and two
    ``tiny_loss_table_rule``s (loss up to 1e-8 at their base prior), at tol
    0, 1e-9 and 1e-3; both parameters, each sweep over the base value,
    ``points`` seeded values in (0, 1) and ``PRIOR_EDGE_POINTS`` in seeded
    order at a log-uniform n; then one 1025-point sweep, across a chunk
    edge.  Returns how many rows were priced, were error cells, and had an
    n_zero past 2^53; each kind must occur.
    """
    from collusion_lab import cli

    rng = np.random.default_rng(seed)
    seen = {"priced": 0, "error": 0, "n_zero_past_2^53": 0}

    def check(rule, base, param, values, n, tol):
        raw = {"n": n, "rule": rule.to_config(), "sweep": {"param": param, "values": values},
               "prior": {"p_h": base.p_h, "p_h_given_h": base.p_hh}}
        lines = scan_stdout(raw, tol).split("\n")
        assert lines[0] == cli.SCAN_HEADER and lines[-1] == "" and len(lines) == len(values) + 2
        for line, v in zip(lines[1:], values):
            p_h, p_hh = (v, base.p_hh) if param == "p_h" else (base.p_h, v)
            want = prior_sweep_row(n, rule, p_h, p_hh, tol)
            assert line == want, (rule, tol, param, v, n, line, want)
            cells = line.split(",")
            seen["error" if cells[8] else "priced"] += 1
            seen["n_zero_past_2^53"] += not cells[8] and int(cells[7]) > 2 ** 53

    makers = [lambda pr: cl.BrierRule(), lambda pr: cl.LogRule(),
              lambda pr: cl.LogRule(base=2.0), lambda pr: cl.LogRule(base=10.0),
              lambda pr: random_table_rule(rng), lambda pr: random_table_rule(rng),
              lambda pr: tiny_loss_table_rule(rng, pr, 1e-8),
              lambda pr: tiny_loss_table_rule(rng, pr, 1e-8)]
    for tol in (0.0, 1e-9, 1e-3):
        for make in makers:
            base = random_prior(rng)
            rule = make(base)
            for param in ("p_h", "p_h_given_h"):
                values = ([base.p_h if param == "p_h" else base.p_hh, *PRIOR_EDGE_POINTS]
                          + [float(x) for x in rng.uniform(0.0, 1.0, size=points)])
                values = [values[i] for i in rng.permutation(len(values))]
                check(rule, base, param, values, int(2.0 ** rng.uniform(1.0, 62.0)), tol)
    base = cl.make_prior(0.4, 0.7)
    values = [round(0.45 + 0.5 * j / 1024, 9) for j in range(1025)]
    for at, v in zip((0, 1022, 1023, 1024), (0.4, 1.0, 1e-300, -0.25)):
        values[at] = v
    check(cl.LogRule(), base, "p_h_given_h", values, 5000, 1e-9)
    assert min(seen.values()) > 0, seen
    return seen


def log_spaced_n(points: int = 48) -> list[int]:
    """Population sizes from 2 to 2**62, evenly spaced in log n."""
    return sorted({max(2, round(2.0 ** (62 * j / (points - 1)))) for j in range(points)}
                  | {2, 3, 2 ** 62 - 1, 2 ** 62})


def check_thresholds_match_per_setting(seed: int = 5151, priors: int = 12,
                                       tables: int = 8) -> None:
    """k_ex_ante, k_bayesian and liar_threshold equal the per-setting oracle exactly.

    Brier, log base e and 2, a rule with an infinite h side and ``tables``
    random table rules, each on ``priors`` seeded priors, at every n of
    ``log_spaced_n`` and tol 1e-9 and 1e-3.  Infinite sides, finite liar
    thresholds and an infinite one must all occur.
    """
    rng = np.random.default_rng(seed)
    rules = ([cl.BrierRule(), cl.LogRule(), cl.LogRule(base=2.0),
              cl.TableRule(h_intercept=0.0, h_slope=0.0, l_intercept=1.0, l_slope=0.0)]
             + [cl.TableRule(*(float(x) for x in rng.uniform(-2.0, 2.0, size=4)))
                for _ in range(tables)])
    seen = {"infinite_side": 0, "finite_liar": 0, "infinite_liar": 0}
    ns = log_spaced_n()
    for rule in rules:
        for _ in range(priors):
            prior = random_prior(rng)
            for tol in (1e-9, 1e-3):
                for n in ns:
                    setting = cl.make_setting(n, rule, prior=prior)
                    for concept, fn in ((cl.EX_ANTE, cl.k_ex_ante),
                                        (cl.BAYESIAN, cl.k_bayesian)):
                        got = fn(setting, tol).to_dict()
                        want = report_per_setting(setting, concept, tol).to_dict()
                        assert got == want, (rule, prior, tol, n, got, want)
                        seen["infinite_side"] += got["k_h_infinite"] or got["k_l_infinite"]
                    liar = cl.liar_threshold(setting, tol)
                    assert liar == liar_threshold_per_setting(setting, tol), (rule, prior, n)
                    seen["finite_liar" if liar < math.inf else "infinite_liar"] += 1
    assert min(seen.values()) > 0, seen


def check_steps_match_scalar(seed: int = 6161, priors: int = 10, tables: int = 6) -> dict:
    """Array ``_steps`` and ``ThresholdTable.k`` equal ``step_scalar`` at every n.

    Brier, log, an infinite-side table rule and ``tables`` random table rules
    on ``priors`` seeded priors, at tol 1e-9 and 1e-3, each table's ratios
    against the ``log_spaced_n`` column in one call and each n alone; then
    seeded negative ratios (every size 1) and ratios up to 2^40, which push
    (n-1)*ratio past 2^62 (Python ints).  Returns how often each case came up.
    """
    from collusion_lab.thresholds import ThresholdTable, _steps

    rng = np.random.default_rng(seed)
    rules = ([cl.BrierRule(), cl.LogRule(),
              cl.TableRule(h_intercept=0.0, h_slope=0.0, l_intercept=1.0, l_slope=0.0)]
             + [random_table_rule(rng) for _ in range(tables)])
    ns = log_spaced_n()
    column = np.array(ns, dtype=np.int64)
    seen = {"infinite_side": 0, "int64": 0, "negative": 0, "python_ints": 0, "snapped": 0}
    for tol in (1e-9, 1e-3):
        for rule in rules:
            for _ in range(priors):
                table = ThresholdTable(random_prior(rng), rule, tol)
                for concept in cl.CONCEPTS:
                    report = table.report(concept, 2)
                    ratios = [math.nan if r is None else r
                              for r in (report.ratio_h, report.ratio_l)]
                    ceils = (table.ceil[2:] if concept == cl.BAYESIAN else table.ceil[:2]).ravel()
                    want = [[n if math.isnan(r) else step_scalar(n, r, ceil, tol) for n in ns]
                            for r, ceil in zip(ratios, ceils.tolist())]
                    want.append([min(h, l, n) for h, l, n in zip(*want, ns)])
                    ks = table.k(concept, column)
                    assert [k.tolist() for k in ks] == want, (rule, table.prior, tol, concept)
                    seen["int64"] += int(ks[0].dtype == np.int64)
                    assert [list(table.k(concept, n)) for n in ns] == [list(x) for x in zip(*want)]
                    seen["infinite_side"] += any(map(math.isnan, ratios))
        for scale in (1e-6, 1.0, 2.0 ** 40):
            ratios = np.concatenate([-rng.uniform(0.0, scale, 8), rng.uniform(0.0, scale, 24),
                                     np.round(rng.uniform(0.0, 50.0, 8)) / 7.0])
            for interim in (False, True):
                got = _steps(column[:, None], ratios[None, :], interim, tol)
                for n, row in zip(ns, got.tolist()):
                    assert row == [step_scalar(n, r, interim, tol) for r in ratios], (n, tol)
                seen["python_ints"] += int(got.dtype == object)
                assert (got[:, :8] == 1).all()  # a negative ratio: one deviator already wins
                seen["negative"] += 1
                x = (column[:, None] - 1) * ratios[None, :]
                seen["snapped"] += int(((abs(x - np.round(x)) <= tol) & (x != np.round(x))).sum())
    assert min(seen.values()) > 0, seen
    return seen


def check_stacked_steps(seed: int = 6262, priors: int = 8, tables: int = 4) -> dict:
    """``threshold_columns``' one ``_steps`` call over the four stacked sides equals
    four per-side calls bit for bit, each side's step (``ceil``) its own.

    Brier, log, an infinite-side table rule and ``tables`` random table rules on
    ``priors`` seeded priors, each table's ratio rows against the
    ``log_spaced_n`` column; ``price_priors``' ratio rows of a column of seeded
    priors (unpriced ones NaN) at n = 2, 1000 and 2^62; and seeded ratio rows up to
    2^40 with NaN sides against a column of n, whose (n-1)*ratio passes 2^62 (Python
    ints).  Returns how often infinite sides, int64 and Python-int columns came up.
    """
    from collusion_lab.thresholds import ThresholdTable, _steps, price_priors, threshold_columns

    def per_side(n, ratios, ceils, tol):
        e_h, e_l, b_h, b_l = (_steps(n, ratio, ceil, tol) for ratio, ceil in zip(ratios, ceils))
        return (e_h, e_l, np.minimum(np.minimum(e_h, e_l), n),
                b_h, b_l, np.minimum(np.minimum(b_h, b_l), n))

    seen = {"infinite_side": 0, "int64": 0, "python_ints": 0}

    def check(n, ratios, ceils, tol):
        stacked = threshold_columns(n, ratios, ceils, tol)
        want = per_side(n, ratios, ceils, tol)
        assert [k.tolist() for k in stacked] == [k.tolist() for k in want], (n, ratios, tol)
        seen["infinite_side"] += int(np.isnan(ratios).any())
        seen["python_ints" if stacked[0].dtype == object else "int64"] += 1

    rng = np.random.default_rng(seed)
    rules = ([cl.BrierRule(), cl.LogRule(),
              cl.TableRule(h_intercept=0.0, h_slope=0.0, l_intercept=1.0, l_slope=0.0)]
             + [random_table_rule(rng) for _ in range(tables)])
    column = np.array(log_spaced_n(), dtype=np.int64)
    for tol in (1e-9, 1e-3):
        for rule in rules:
            for _ in range(priors):
                table = ThresholdTable(random_prior(rng), rule, tol)
                check(column, table.ratios, table.ceil, tol)
            p_h, p_hh = rng.uniform(0.0, 1.0, size=(2, 200))
            _, _, ratios, ceils = price_priors(p_h, p_hh, rule, tol)
            for n in (2, 1000, 2 ** 62):
                check(n, ratios, ceils, tol)
        for scale in (1.0, 2.0 ** 20, 2.0 ** 40):
            ratios = rng.uniform(-0.1, 1.0, size=(4, len(column))) * scale
            ratios[rng.random(ratios.shape) < 0.2] = np.nan
            # ex-ante rows floor + 1, per-type rows the ceiling
            check(column, ratios, np.array([[False], [False], [True], [True]]), tol)
    assert min(seen.values()) > 0, seen
    return seen


# ---------------------------------------------------------------------------
# random finite games
# ---------------------------------------------------------------------------

def random_game(rng: np.random.Generator, n: int | None = None) -> cl.FiniteBayesianGame:
    """Small random game with positive joint prior and uniform [-1, 1] payoffs."""
    n = n or int(rng.integers(2, 4))
    type_counts = [int(rng.integers(1, 3)) for _ in range(n)]
    action_counts = [2] * n
    prior = rng.uniform(0.1, 1.0, size=tuple(type_counts))
    prior = prior / prior.sum()
    utilities = tuple(
        rng.uniform(-1.0, 1.0, size=(type_counts[i],) + tuple(action_counts))
        for i in range(n))
    return cl.FiniteBayesianGame(
        n=n,
        type_sets=tuple(tuple(f"t{j}" for j in range(c)) for c in type_counts),
        action_sets=tuple(tuple(f"a{j}" for j in range(c)) for c in action_counts),
        prior=prior,
        utilities=utilities,
    )


def random_pure_profile(rng: np.random.Generator,
                        game: cl.FiniteBayesianGame) -> cl.MixedProfile:
    mats = []
    for i in range(game.n):
        m = np.zeros((len(game.type_sets[i]), len(game.action_sets[i])))
        for v in range(m.shape[0]):
            m[v, int(rng.integers(0, m.shape[1]))] = 1.0
        mats.append(m)
    return cl.MixedProfile(tuple(mats))


def random_mixed_profile(rng: np.random.Generator,
                         game: cl.FiniteBayesianGame) -> cl.MixedProfile:
    """Every row a random distribution: off every strategy grid almost surely."""
    return cl.MixedProfile(tuple(
        rng.dirichlet(np.ones(len(game.action_sets[i])), size=len(game.type_sets[i]))
        for i in range(game.n)))


def bne_check_by_actions(game: cl.FiniteBayesianGame, profile: cl.MixedProfile,
                         tol: float = cl.DEFAULT_TOL) -> tuple[bool, float]:
    """bne_check as a plain loop: replace each (agent, type) row by each pure action.

    Every utility is a full-lattice einsum (``game_interim_utility``).
    """
    worst = -np.inf
    for i in range(game.n):
        for v in range(len(game.type_sets[i])):
            current = cl.game_interim_utility(game, profile, i, v)
            for action in range(len(game.action_sets[i])):
                m = profile.strategies[i].copy()
                m[v] = 0.0
                m[v, action] = 1.0
                gain = cl.game_interim_utility(game, profile.replace({i: m}), i, v) - current
                worst = max(worst, gain)
    return worst <= tol, float(worst)


def check_bne_matches_action_loop(seed: int = 4343, games: int = 150) -> None:
    """bne_check agrees with the per-action loop on pure and mixed profiles."""
    rng = np.random.default_rng(seed)
    verdicts = {True: 0, False: 0}
    for g in range(games):
        game = random_game(rng, n=int(rng.integers(1, 5)))
        sample = random_mixed_profile if g % 2 else random_pure_profile
        profile = sample(rng, game)
        holds, worst = cl.bne_check(game, profile)
        want_holds, want_worst = bne_check_by_actions(game, profile)
        assert holds == want_holds and abs(worst - want_worst) <= 1e-12, (g, worst, want_worst)
        verdicts[holds] += 1
    assert min(verdicts.values()) >= games // 20, verdicts


def check_bne_equivalence(seed: int = 424242, games: int = 200) -> None:
    """bne_check fails iff the size-1 falsifier finds, under either concept."""
    rng = np.random.default_rng(seed)
    for _ in range(games):
        game = random_game(rng)
        profile = random_pure_profile(rng, game)
        holds, worst = cl.bne_check(game, profile)
        found_ex = cl.find_deviation(game, profile, 1, "ex_ante", grid_steps=5) is not None
        found_ba = cl.find_deviation(game, profile, 1, "bayesian", grid_steps=5) is not None
        assert (not holds) == found_ex, (worst, found_ex)
        assert (not holds) == found_ba, (worst, found_ba)


def check_bayesian_implies_ex_ante_certificate(seed: int = 515, games: int = 60) -> None:
    """A per-type certificate, prior-reweighted, certifies the ex-ante concept."""
    rng = np.random.default_rng(seed)
    found = 0
    for _ in range(games):
        game = random_game(rng, n=2)
        profile = random_pure_profile(rng, game)
        cert = cl.find_deviation(game, profile, 2, "bayesian", grid_steps=3)
        if cert is None:
            continue
        found += 1
        deviated = profile.replace({
            agent: np.array(cert.strategies[pos], dtype=float)
            for pos, agent in enumerate(cert.coalition)})
        deltas = tuple(
            cl.game_ex_ante_utility(game, deviated, agent)
            - cl.game_ex_ante_utility(game, profile, agent)
            for agent in cert.coalition)
        as_ex_ante = cl.DeviationCertificate(
            concept="ex_ante", coalition=cert.coalition, strategies=cert.strategies,
            deltas=deltas, tolerance=cert.tolerance)
        assert cl.verify_certificate(game, profile, as_ex_ante), cert
    assert found >= 10, f"sampler produced too few certificates ({found})"


def interim_d_oracle(wm: cl.WorldModel, rule: cl.ScoringRule, n: int,
                     s_d: tuple[str, ...], reports: list[str]) -> list[float]:
    """Per-member conditional utilities by enumerating the latent state.

    Conditions on the coalition's type vector, then treats outsider signals
    as iid given each state and truthful; coalition reports are fixed.
    """
    prior = cl.induce_prior(wm)
    q = {cl.LOW: prior.posterior(cl.LOW), cl.HIGH: prior.posterior(cl.HIGH)}
    d = len(s_d)
    weighted = []
    for w, p in zip(wm.p_state, wm.p_h_given_state):
        like = w
        for s in s_d:
            like *= p if s == cl.HIGH else (1.0 - p)
        weighted.append((like, p))
    z = sum(like for like, _ in weighted)
    out = []
    for i in range(d):
        own = reports[i]
        total = 0.0
        for like, p in weighted:
            inner = sum(rule.score(r, q[own]) for j, r in enumerate(reports) if j != i)
            outsider = (p * rule.score(cl.HIGH, q[own])
                        + (1.0 - p) * rule.score(cl.LOW, q[own]))
            total += (like / z) * (inner + (n - d) * outsider)
        out.append(total / (n - 1))
    return out


def check_checker_mechanism_exactness(seed: int = 606, samples: int = 30) -> None:
    """Generic game utilities match the mechanism closed forms to 1e-12."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        setting = cl.make_setting(n, random_rule(rng), prior=random_prior(rng))
        game = cl.peer_prediction_game(setting)
        k = int(rng.integers(1, n + 1))
        profile = cl.DeviationProfile(tuple(random_strategy(rng) for _ in range(k)))
        mixed = cl.mixed_profile_for(setting, profile)
        members = list(range(k)) + ([cl.TRUTHFUL] if k < n else [])
        for member in members:
            agent = profile.k if member == cl.TRUTHFUL else member
            a = cl.game_ex_ante_utility(game, mixed, agent)
            b = cl.ex_ante_utility(setting, profile, member)
            assert abs(a - b) <= 1e-12
            for sig, ix in ((cl.LOW, 0), (cl.HIGH, 1)):
                a = cl.game_interim_utility(game, mixed, agent, ix)
                b = cl.interim_utility(setting, profile, member, sig)
                assert abs(a - b) <= 1e-12


def is_symmetric_game_by_pairs(game: cl.FiniteBayesianGame, atol: float = 1e-12) -> bool:
    """``is_symmetric_game`` as a loop: one ``np.allclose`` per pair, stopping at the first miss."""
    if game.n == 1:
        return True
    if len(set(game.type_sets)) != 1 or len(set(game.action_sets)) != 1:
        return False
    for j in range(game.n - 1):
        if not np.allclose(game.prior, np.swapaxes(game.prior, j, j + 1), atol=atol):
            return False
        for i in range(game.n):
            v = game.utilities[i]
            if i == j:
                if not np.allclose(v, np.swapaxes(game.utilities[j + 1], 1 + j, 2 + j), atol=atol):
                    return False
            elif i != j + 1:
                if not np.allclose(v, np.swapaxes(v, 1 + j, 2 + j), atol=atol):
                    return False
    return True


def random_exchangeable_game(rng: np.random.Generator, n: int, types: int,
                             actions: int) -> cl.FiniteBayesianGame:
    """A random game that every permutation of the agents leaves unchanged.

    The prior is averaged over all axis permutations.  Agent 0's utility is
    averaged over the permutations of the other agents' action axes, and
    agent i's is agent 0's with the action axes of agents 0 and i swapped.
    """
    perms = list(itertools.permutations(range(n)))
    prior = rng.uniform(0.1, 1.0, size=(types,) * n)
    prior = sum(prior.transpose(p) for p in perms) / len(perms)
    u0 = rng.uniform(-1.0, 1.0, size=(types,) + (actions,) * n)
    others = list(itertools.permutations(range(2, n + 1)))
    u0 = sum(u0.transpose((0, 1) + p) for p in others) / len(others)
    return cl.FiniteBayesianGame(
        n=n, type_sets=(tuple(f"t{j}" for j in range(types)),) * n,
        action_sets=(tuple(f"a{j}" for j in range(actions)),) * n,
        prior=prior / prior.sum(),
        utilities=tuple(np.swapaxes(u0, 1, 1 + i).copy() for i in range(n)))


def check_symmetric_game_matches_pairs(seed: int = 3737, games: int = 40) -> dict:
    """``is_symmetric_game`` gives the pair loop's verdict on perturbed exchangeable games.

    Exchangeable games (n 2..4, 1-3 types, 2-3 actions) and peer prediction
    games (n 2..6), each as drawn and with one entry moved: a utility entry,
    or a pair of prior entries in opposite directions so the prior still
    sums to 1.  The move is half of ``atol`` (inside every pair's bound) or
    twice the largest bound ``atol + 1e-5 * |entry|`` (outside), at two
    values of ``atol``.  Returns how often each verdict was seen.
    """
    rng = np.random.default_rng(seed)
    seen = {True: 0, False: 0}
    for g in range(games):
        if g % 2:
            setting = cl.make_setting(2 + g % 5, random_rule(rng), prior=random_prior(rng))
            game = cl.peer_prediction_game(setting)
        else:
            game = random_exchangeable_game(rng, 2 + g % 3, int(rng.integers(1, 4)),
                                            int(rng.integers(2, 4)))
        for atol in (1e-12, 1e-6):
            largest = max(float(np.abs(v).max()) for v in (game.prior,) + game.utilities)
            for move in (0.0, 0.5 * atol, 2.0 * (atol + 1e-5 * largest)):
                prior, utilities = game.prior.copy(), [v.copy() for v in game.utilities]
                if g % 3 == 0 and prior.size > 1:
                    flat = prior.reshape(-1)
                    a, b = rng.choice(prior.size, size=2, replace=False)
                    flat[a] += move
                    flat[b] -= move
                else:
                    v = utilities[int(rng.integers(0, game.n))].reshape(-1)
                    v[int(rng.integers(0, v.size))] += move
                moved = cl.FiniteBayesianGame(
                    n=game.n, type_sets=game.type_sets, action_sets=game.action_sets,
                    prior=prior, utilities=tuple(utilities))
                verdict = cl.is_symmetric_game(moved, atol=atol)
                assert verdict == is_symmetric_game_by_pairs(moved, atol=atol), (g, atol, move)
                seen[verdict] += 1
    return seen


# ---------------------------------------------------------------------------
# finite-game search: seeded cases for the golden file
# ---------------------------------------------------------------------------

def game_search_cases(seed: int = 919, count: int = 60) -> list[dict]:
    """Seeded ``find_deviation`` inputs: random and peer prediction games.

    Random games (asymmetric, n 2..3) and peer prediction games (n 3..5;
    exchangeable, or with per-agent utility scales that break it) under
    pure on-grid and mixed off-grid base profiles, both concepts, budgets
    from the default down to a few hundred nodes.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for c in range(count):
        kind = c % 4
        if kind < 2:
            game = random_game(rng)
            sample = random_pure_profile if kind == 0 else random_mixed_profile
            profile = sample(rng, game)
            grid_steps = int(rng.choice([2, 3, 5]))
        else:
            n = int(rng.integers(3, 6))
            setting = cl.make_setting(n, random_rule(rng), prior=random_prior(rng))
            game = cl.peer_prediction_game(setting)
            if kind == 3:
                scales = rng.uniform(0.5, 2.0, size=n)
                game = cl.FiniteBayesianGame(
                    n=n, type_sets=game.type_sets, action_sets=game.action_sets,
                    prior=game.prior,
                    utilities=tuple(s * v for s, v in zip(scales, game.utilities)))
            profile = cl.truthful_profile(game)
            if rng.random() < 0.3:  # everyone plays the same noisy report: off grid
                eps = float(rng.uniform(0.05, 0.3))
                noisy = np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])
                profile = cl.MixedProfile((noisy,) * n)
            grid_steps = int(rng.choice([3, 5]))
        budget = cl.DEFAULT_BUDGET if rng.random() < 0.6 else int(rng.integers(20, 2000))
        cases.append({
            "game": game.to_dict(), "profile": profile.to_dict(),
            "k": int(rng.integers(1, game.n + 1)),
            "concept": cl.EX_ANTE if rng.random() < 0.5 else cl.BAYESIAN,
            "grid_steps": grid_steps, "budget": budget})
    return cases


def game_search_case_args(case: dict) -> tuple:
    """A ``game_search_cases`` record as (game, profile, k, concept, options)."""
    return (cl.FiniteBayesianGame.from_dict(case["game"]),
            cl.MixedProfile.from_dict(case["profile"]), case["k"], case["concept"],
            {"grid_steps": case["grid_steps"], "budget": case["budget"]})


def game_search_outcome(case: dict) -> dict:
    """What ``find_deviation`` returns on one case, as a JSON-ready record."""
    game, profile, k, concept, options = game_search_case_args(case)
    try:
        cert = cl.find_deviation(game, profile, k, concept, **options)
    except cl.BudgetExceeded as exc:
        return {"budget_exceeded": True, "nodes_searched": exc.nodes_searched}
    return {"budget_exceeded": False,
            "certificate": None if cert is None else cert.to_dict()}


# ---------------------------------------------------------------------------
# finite-game search: the per-candidate loop as an oracle
# ---------------------------------------------------------------------------

def einsum_reduced_tensors(game: cl.FiniteBayesianGame, profile: cl.MixedProfile,
                           coalition: tuple[int, ...]) -> list[np.ndarray]:
    """Each member's reduced tensor as one full-lattice einsum.

    The build the coalition evaluator used before it folded the outsiders
    into the prior: prior, outsider strategies and the member's utility in
    one expression, with a path planned per build (``optimize=True``).
    """
    n = game.n
    t = string.ascii_letters[:n]
    a = string.ascii_letters[n:2 * n]
    out = "".join(t[c] + a[c] for c in coalition)
    tensors = []
    for i in coalition:
        operands = [game.prior]
        subs = [t[:n]]
        for j in range(n):
            if j in coalition:
                continue
            operands.append(profile.strategies[j])
            subs.append(t[j] + a[j])
        operands.append(game.utilities[i])
        subs.append(t[i] + a)
        expr = ",".join(subs) + "->" + out
        tensors.append(np.einsum(expr, *operands, optimize=True))
    return tensors


class CandidateEvaluator:
    """Reduced coalition tensors contracted one candidate at a time.

    The coalition evaluator as it was before it contracted candidates in
    chunks.  The tensors come from ``build``: by default the package's
    builder, so a chunked contraction and this loop read the same tensors
    and agree bit for bit; ``einsum_reduced_tensors`` gives an evaluator
    that shares no build code with the package.
    """

    def __init__(self, game: cl.FiniteBayesianGame, profile: cl.MixedProfile,
                 coalition: tuple[int, ...], build=None):
        from collusion_lab.checker import _reduced_tensors

        self.tensors = (build or _reduced_tensors)(game, profile, coalition)
        self.marginals = [game.type_marginal(i) for i in coalition]

    def ex_ante(self, assignment) -> list[float]:
        w = reduce(np.multiply.outer, assignment)
        return [float((tensor * w).sum()) for tensor in self.tensors]

    def interim(self, assignment) -> list[tuple[float, ...]]:
        w = reduce(np.multiply.outer, assignment)
        out = []
        for pos, tensor in enumerate(self.tensors):
            marginal = self.marginals[pos]
            by_type = np.moveaxis(tensor * w, 2 * pos, 0).reshape(len(marginal), -1).sum(axis=1)
            out.append(tuple(float(x) / float(m) for x, m in zip(by_type, marginal)))
        return out


def dist_grid_list(n_actions: int, grid_steps: int) -> list[tuple[float, ...]]:
    """Pure action distributions first, then the uniform simplex grid, ascending.

    Every count combination is turned into a point and kept unless an
    earlier one equals it: the plain quadratic construction.
    """
    pures = []
    for j in range(n_actions):
        v = [0.0] * n_actions
        v[j] = 1.0
        pures.append(tuple(v))
    denom = grid_steps - 1
    grid = []
    for combo in itertools.combinations_with_replacement(range(n_actions), denom):
        counts = [0] * n_actions
        for c in combo:
            counts[c] += 1
        point = tuple(c / denom for c in counts)
        if point not in pures and point not in grid:
            grid.append(point)
    return pures + sorted(grid)


def member_strategies(game: cl.FiniteBayesianGame, j: int, grid_steps: int) -> list[np.ndarray]:
    """Every per-type grid strategy of agent j as its own array, in product order."""
    per_type = dist_grid_list(len(game.action_sets[j]), grid_steps)
    return [np.array(rows)
            for rows in itertools.product(per_type, repeat=len(game.type_sets[j]))]


def grid_index(strategies, m: np.ndarray):
    """Position of ``m`` among the grid strategies, None when it is off the grid."""
    return next((ix for ix, s in enumerate(strategies) if np.allclose(s, m, atol=1e-12)), None)


def find_deviation_by_candidates(game: cl.FiniteBayesianGame, profile: cl.MixedProfile,
                                 k: int, concept: str, grid_steps: int = 11,
                                 budget: int = cl.DEFAULT_BUDGET, tol: float = cl.DEFAULT_TOL,
                                 build=None):
    """``find_deviation`` as a plain loop: one contraction and one budget check per candidate.

    Every member's whole strategy pool is built up front as arrays
    (``member_strategies``), so it shares no grid or pool code with the
    index arithmetic it checks.  ``build`` makes the reduced tensors, as in
    ``CandidateEvaluator``.
    """
    from collusion_lab.checker import _check_profile, _profile_symmetric
    from collusion_lab.thresholds import deviation_succeeds

    _check_profile(game, profile)
    symmetric = cl.is_symmetric_game(game) and _profile_symmetric(profile)
    strategy_lists = [member_strategies(game, j, grid_steps) for j in range(game.n)]
    own = [grid_index(strategy_lists[j], profile.strategies[j]) for j in range(game.n)]
    nodes = 0

    for size in range(1, k + 1):
        if symmetric:
            coalitions = [tuple(range(size))]
        else:
            coalitions = list(itertools.combinations(range(game.n), size))
        for coalition in coalitions:
            ev = CandidateEvaluator(game, profile, coalition, build)
            nodes += len(coalition)  # tensor-build pass, roughly one eval per member
            if concept == cl.EX_ANTE:
                contract, cost = ev.ex_ante, len(coalition)
            else:
                contract, cost = ev.interim, sum(len(game.type_sets[c]) for c in coalition)
            base = contract(tuple(profile.strategies[c] for c in coalition))
            current = tuple(own[c] for c in coalition)

            pools = [range(len(strategy_lists[c])) for c in coalition]
            first = coalition[0]
            if all(game.type_sets[c] == game.type_sets[first]
                   and game.action_sets[c] == game.action_sets[first] for c in coalition):
                # symmetric assignments first: members share one grid strategy
                rest = (itertools.combinations_with_replacement(pools[0], size) if symmetric
                        else itertools.product(*pools))
                combos = itertools.chain(((ix,) * size for ix in pools[0]),
                                         (c for c in rest if len(set(c)) > 1))
            else:
                combos = itertools.product(*pools)

            for combo in combos:
                if combo == current:
                    continue
                nodes += cost
                if nodes > budget:
                    raise cl.BudgetExceeded(nodes)
                assignment = tuple(strategy_lists[c][ix] for c, ix in zip(coalition, combo))
                new = contract(assignment)
                if concept == cl.EX_ANTE:
                    deltas: tuple = tuple(x - b for x, b in zip(new, base))
                else:
                    deltas = tuple(tuple(x - b for x, b in zip(xs, bs))
                                   for xs, bs in zip(new, base))
                if deviation_succeeds(concept, deltas, tol):
                    return cl.DeviationCertificate(
                        concept=concept, coalition=coalition,
                        strategies=tuple(tuple(tuple(float(x) for x in row) for row in m)
                                         for m in assignment),
                        deltas=deltas, tolerance=tol)
    return None


def bne_check_by_tensors(game: cl.FiniteBayesianGame, profile: cl.MixedProfile,
                         tol: float = cl.DEFAULT_TOL, build=None) -> tuple[bool, float]:
    """``bne_check`` on one ``CandidateEvaluator`` per agent (tensors from ``build``)."""
    worst = -np.inf
    for i in range(game.n):
        ev = CandidateEvaluator(game, profile, (i,), build)
        current = np.array(ev.interim((profile.strategies[i],))[0])
        pure = ev.tensors[0] / ev.marginals[0][:, None]
        worst = max(worst, float((pure - current[:, None]).max()))
    return worst <= tol, float(worst)


def check_chunk_contraction_matches_candidates(seed: int = 3131, games: int = 40) -> None:
    """A chunk of B assignments contracts to exactly the B single-candidate values.

    Random games (n 2..4, one or two types per agent) and random mixed
    assignments, so the members' weight products are inexact and their
    fold order shows in the last bit.  Compared with ``==``.
    """
    from collusion_lab.checker import _CoalitionEvaluator

    rng = np.random.default_rng(seed)
    for g in range(games):
        game = random_game(rng, n=int(rng.integers(2, 5)))
        profile = random_mixed_profile(rng, game)
        size = int(rng.integers(1, game.n + 1))
        coalition = tuple(sorted(rng.choice(game.n, size=size, replace=False).tolist()))
        rows = int(rng.integers(1, 6))
        stacks = [rng.dirichlet(np.ones(len(game.action_sets[c])),
                                size=(rows, len(game.type_sets[c]))) for c in coalition]
        chunked = _CoalitionEvaluator(game, profile, coalition)
        single = CandidateEvaluator(game, profile, coalition)
        ex_ante = chunked.ex_ante(stacks)
        interim = chunked.interim(stacks)
        for b in range(rows):
            assignment = tuple(m[b] for m in stacks)
            assert [float(x[b]) for x in ex_ante] == single.ex_ante(assignment), (g, b)
            assert ([tuple(float(v) for v in x[b]) for x in interim]
                    == single.interim(assignment)), (g, b)


def random_wide_game(rng: np.random.Generator, n: int) -> cl.FiniteBayesianGame:
    """Random game with 1-5 types and 2-6 actions per agent, action counts not all equal."""
    type_counts = [int(rng.integers(1, 6)) for _ in range(n)]
    action_counts = [int(rng.integers(2, 7)) for _ in range(n)]
    if len(set(action_counts)) == 1:
        action_counts[-1] = 2 + (action_counts[-1] - 1) % 5  # a different count in 2..6
    prior = rng.uniform(0.1, 1.0, size=tuple(type_counts))
    return cl.FiniteBayesianGame(
        n=n,
        type_sets=tuple(tuple(f"t{j}" for j in range(c)) for c in type_counts),
        action_sets=tuple(tuple(f"a{j}" for j in range(c)) for c in action_counts),
        prior=prior / prior.sum(),
        utilities=tuple(rng.uniform(-1.0, 1.0, size=(type_counts[i],) + tuple(action_counts))
                        for i in range(n)))


def reduced_tensor_error(game: cl.FiniteBayesianGame, profile: cl.MixedProfile,
                         coalition: tuple[int, ...]) -> float:
    """Largest |fold - einsum| over every member's reduced tensor, relative to its max |entry|.

    The shapes must agree, axes interleaved per member in coalition order.
    """
    from collusion_lab.checker import _reduced_tensors

    worst = 0.0
    for got, want in zip(_reduced_tensors(game, profile, coalition),
                         einsum_reduced_tensors(game, profile, coalition), strict=True):
        assert got.shape == want.shape, (coalition, got.shape, want.shape)
        scale = float(np.abs(want).max())
        if scale:
            worst = max(worst, float(np.abs(got - want).max()) / scale)
        else:
            assert not got.any(), coalition
    return worst


def check_reduced_tensors_match_einsum(seed: int = 2424, games: int = 24) -> float:
    """The folded build against the one-expression einsum on random games, every coalition.

    n 2..4, 1-5 types and 2-6 actions per agent, mixed profiles (off every
    grid, so no product is exact); every coalition in ascending order, and
    each one reversed.  Returns the largest relative error.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g in range(games):
        game = random_wide_game(rng, n=2 + g % 3)
        profile = random_mixed_profile(rng, game)
        for size in range(1, game.n + 1):
            for coalition in itertools.combinations(range(game.n), size):
                for members in (coalition, coalition[::-1]):
                    worst = max(worst, reduced_tensor_error(game, profile, members))
    return worst


def check_peer_tensors_match_einsum(seed: int = 2525, max_n: int = 10) -> float:
    """The folded build against the einsum on peer prediction games, n 2..max_n, every size.

    Per n, utilities scaled per agent (members differ) and one agent on a
    noisy report; per size, one coalition drawn at random and the leading
    one, range(size).  Returns the largest relative error.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(2, max_n + 1):
        setting = cl.make_setting(n, random_rule(rng), prior=random_prior(rng))
        game = cl.peer_prediction_game(setting)
        scales = rng.uniform(0.5, 2.0, size=n)
        game = cl.FiniteBayesianGame(
            n=n, type_sets=game.type_sets, action_sets=game.action_sets, prior=game.prior,
            utilities=tuple(c * v for c, v in zip(scales, game.utilities)))
        eps = float(rng.uniform(0.1, 0.3))
        noisy = int(rng.integers(0, n))
        profile = cl.truthful_profile(game).replace(
            {noisy: np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])})
        for size in range(1, n + 1):
            drawn = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            for coalition in {drawn, tuple(range(size))}:
                worst = max(worst, reduced_tensor_error(game, profile, coalition))
    return worst


def check_find_deviation_matches_einsum_loop(cases, delta_tol: float = 1e-12) -> dict:
    """``find_deviation`` against the per-candidate loop on einsum-built tensors.

    The two share no tensor build, so their floats may differ in the last
    bits: verdict, ``nodes_searched``, coalition and strategies must match
    with ``==``, deltas within ``delta_tol``.  Also ``bne_check`` against
    ``bne_check_by_tensors`` on the same tensors: the same verdict and the
    worst violation within ``delta_tol``.  Returns the count of each kind
    of outcome.
    """
    kinds = {"found": 0, "none": 0, "budget": 0}
    for i, (game, profile, k, concept, kwargs) in enumerate(cases):
        fast = search_outcome(cl.find_deviation, game, profile, k, concept, **kwargs)
        slow = search_outcome(find_deviation_by_candidates, game, profile, k, concept,
                              build=einsum_reduced_tensors, **kwargs)
        assert fast[0] == slow[0], (i, fast, slow)
        if fast[0] == "budget" or fast[1] is None or slow[1] is None:
            assert fast == slow, (i, fast, slow)
        else:
            got, want = dict(fast[1]), dict(slow[1])
            got_deltas, want_deltas = got.pop("deltas"), want.pop("deltas")
            assert got == want, (i, got, want)
            assert np.allclose(got_deltas, want_deltas, rtol=0, atol=delta_tol), (
                i, got_deltas, want_deltas)
        holds, worst = cl.bne_check(game, profile)
        want_holds, want_worst = bne_check_by_tensors(game, profile, build=einsum_reduced_tensors)
        assert holds == want_holds and abs(worst - want_worst) <= delta_tol, (i, worst, want_worst)
        kinds["budget" if fast[0] == "budget" else
              ("none" if fast[1] is None else "found")] += 1
    return kinds


def search_outcome(search, *args, **kwargs):
    """("budget", nodes_searched) or ("found", the certificate as a dict, or None)."""
    try:
        cert = search(*args, **kwargs)
    except cl.BudgetExceeded as exc:
        return "budget", exc.nodes_searched
    return "found", None if cert is None else cert.to_dict()


def peer_prediction_search_cases(seed: int = 7171, count: int = 36) -> list[tuple]:
    """Seeded (game, profile, k, concept, options) on peer prediction games, n 3..8.

    Exchangeable games under the truthful profile (multiset search), games
    with per-agent utility scales (every coalition, product of strategies)
    and one agent on a noisy report (off the grid), both concepts.  k and
    the grid are kept small where the search would run for seconds.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for c in range(count):
        n = 3 + c % 6
        kind = (c // 6) % 3
        concept = cl.EX_ANTE if (c // 18) % 2 == 0 else cl.BAYESIAN
        setting = cl.make_setting(n, random_rule(rng), prior=random_prior(rng))
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        # grid 4 (thirds) puts weights that are not dyadic into the chunks
        if kind == 0:
            k = int(rng.integers(1, n + 1))
            grid_steps = int(rng.choice([3, 4, 5])) if n <= 5 else 3
        else:
            k = int(rng.integers(1, (3 if n <= 6 else 2) + 1))
            grid_steps = 4 if n <= 4 else 3
        if kind == 1:
            scales = rng.uniform(0.5, 2.0, size=n)
            game = cl.FiniteBayesianGame(
                n=n, type_sets=game.type_sets, action_sets=game.action_sets,
                prior=game.prior,
                utilities=tuple(s * v for s, v in zip(scales, game.utilities)))
        elif kind == 2:
            eps = float(rng.uniform(0.1, 0.3))
            profile = profile.replace({n - 1: np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])})
        cases.append((game, profile, k, concept, {"grid_steps": grid_steps}))
    return cases


def check_find_deviation_matches_candidate_loop(cases) -> dict:
    """``find_deviation`` returns exactly what the per-candidate loop returns.

    Same verdict, same ``nodes_searched``, and the same certificate compared
    with ``==``: coalition, strategies and every delta bit for bit.  Also
    ``bne_check``'s (holds, worst) against ``bne_check_by_tensors``.
    Returns how many cases found a certificate, found none, or ran out.
    """
    kinds = {"found": 0, "none": 0, "budget": 0}
    for i, (game, profile, k, concept, kwargs) in enumerate(cases):
        fast = search_outcome(cl.find_deviation, game, profile, k, concept, **kwargs)
        slow = search_outcome(find_deviation_by_candidates, game, profile, k, concept, **kwargs)
        assert fast == slow, (i, k, concept, kwargs, fast, slow)
        assert cl.bne_check(game, profile) == bne_check_by_tensors(game, profile), i
        kinds["budget" if fast[0] == "budget" else
              ("none" if fast[1] is None else "found")] += 1
    return kinds


def check_budget_sweep_matches_candidate_loop(game: cl.FiniteBayesianGame,
                                              profile: cl.MixedProfile, k: int, concept: str,
                                              grid_steps: int) -> int:
    """Every budget from 1 up to the first that lets the search finish.

    At each budget ``find_deviation`` and the per-candidate loop must raise
    with the same ``nodes_searched`` or return the same result.  Returns
    the budget at which the search first finishes.
    """
    budget = 1
    while True:
        kwargs = {"grid_steps": grid_steps, "budget": budget}
        fast = search_outcome(cl.find_deviation, game, profile, k, concept, **kwargs)
        slow = search_outcome(find_deviation_by_candidates, game, profile, k, concept, **kwargs)
        assert fast == slow, (budget, fast, slow)
        if fast[0] == "found":
            return budget
        budget += 1


# ---------------------------------------------------------------------------
# setting falsifier: the size-by-size search as an oracle
# ---------------------------------------------------------------------------

def pair_term_interim_scalar(prior: cl.BinaryPrior, table, own: cl.Strategy,
                             peer: cl.Strategy, s_own: str) -> float:
    """E[reward] against one peer given own signal, one ``Strategy`` pair at a time."""
    p_own_h = own.report_prob(s_own)
    total = 0.0
    for s_j in SIGNALS:
        w_j = prior.cond(s_own, s_j)
        high_part, low_part = table.against(peer.report_prob(s_j))
        total += w_j * (p_own_h * high_part + (1.0 - p_own_h) * low_part)
    return total


def pair_term_ex_ante_scalar(prior: cl.BinaryPrior, table, own: cl.Strategy,
                             peer: cl.Strategy) -> float:
    """E[reward] against one peer over the 2x2x2x2 lattice, skipping reports of probability 0."""
    score = {(cl.HIGH, cl.HIGH): table.s_hh, (cl.LOW, cl.HIGH): table.s_lh,
             (cl.HIGH, cl.LOW): table.s_hl, (cl.LOW, cl.LOW): table.s_ll}  # (peer, own) report
    total = 0.0
    for s_i in SIGNALS:
        w_i = prior.marginal(s_i)
        p_own_h = own.report_prob(s_i)
        for r_i, p_ri in ((cl.HIGH, p_own_h), (cl.LOW, 1.0 - p_own_h)):
            if p_ri == 0.0:
                continue
            for s_j in SIGNALS:
                w_j = prior.cond(s_i, s_j)
                p_peer_h = peer.report_prob(s_j)
                for r_j, p_rj in ((cl.HIGH, p_peer_h), (cl.LOW, 1.0 - p_peer_h)):
                    total += w_i * p_ri * w_j * p_rj * score[r_j, r_i]
    return total


def peer_average_scalar(n: int, roles) -> float:
    """``count * reward`` added role by role, roles with count 0 skipped, over n - 1."""
    total = 0.0
    for count, term in roles:
        if count:
            total += count * term
    return total / (n - 1)


@lru_cache(maxsize=16)
def setting_strategy_grid(grid_steps: int) -> tuple[cl.Strategy, ...]:
    """The setting falsifier's grid as ``Strategy`` objects: corners first, then the rest."""
    corners = [cl.Strategy(1.0, 1.0), cl.Strategy(0.0, 0.0), cl.Strategy(1.0, 0.0)]
    points = [i / (grid_steps - 1) for i in range(grid_steps)]
    rest = []
    for bl in points:
        for bh in points:
            s = cl.Strategy(bl, bh)
            if s not in corners and s != cl.Strategy(0.0, 1.0):
                rest.append(s)
    return tuple(corners + rest)


def sizes_where(holds, k: int) -> tuple[int, int] | None:
    """The sizes in [1, k] where a half-line condition holds, as (first, last), by bisection."""
    at_1, at_k = holds(1), holds(k)
    if at_1 and at_k:
        return 1, k
    if not (at_1 or at_k):
        return None
    lo, hi = 1, k  # holds(lo) == at_1 != holds(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid) == at_1:
            lo = mid
        else:
            hi = mid
    return (1, lo) if at_1 else (hi, k)


def smallest_winning_size(k: int, components) -> int | None:
    """The smallest size in [1, k] where every weak test holds and some strict test does.

    ``components`` holds one (weak, strict) pair of tests on the size per
    delta component, each holding on a half-line: every weak half-line,
    stopping at the first empty one, then every strict half-line.
    """
    first, last = 1, k
    for weak, _ in components:
        span = sizes_where(weak, k)
        if span is None:
            return None
        first, last = max(first, span[0]), min(last, span[1])
    best = None
    for _, strict in components:
        span = sizes_where(strict, k)
        if span is not None and max(first, span[0]) <= min(last, span[1]):
            size = max(first, span[0])
            best = size if best is None else min(best, size)
    return best


def truthful_base(setting: cl.Setting, concept: str):
    """The truthful utility a delta is measured against: a float ex ante, (low, high) per type."""
    if concept == cl.EX_ANTE:
        return cl.truthful_ex_ante(setting)
    return cl.truthful_interim(setting, cl.LOW), cl.truthful_interim(setting, cl.HIGH)


def symmetric_delta(setting: cl.Setting, strat: cl.Strategy, size: int, concept: str, base):
    """One member's delta in a size-``size`` coalition sharing ``strat``, by ``member_utility``:
    its peers are size - 1 fellow members, then n - size truthful agents."""
    peers = ((size - 1, strat), (setting.n - size, cl.TRUTHFUL_STRATEGY))
    if concept == cl.EX_ANTE:
        return cl.member_utility(setting, strat, peers) - base
    return tuple(cl.member_utility(setting, strat, peers, s) - b for s, b in zip(SIGNALS, base))


def delta_tests(n: int, term, tol: float) -> tuple:
    """A component's (delta >= -tol, delta > tol) tests on the size, from (member, truthful, base)."""
    p_member, p_truthful, base = term

    def delta(s: int) -> float:
        return peer_average_scalar(n, ((s - 1, p_member), (n - s, p_truthful))) - base
    return (lambda s: delta(s) >= -tol), (lambda s: delta(s) > tol)


def setting_falsifier_by_bisection(setting: cl.Setting, k: int, concept: str,
                                   grid_steps: int = 11, tol: float = cl.DEFAULT_TOL):
    """The setting falsifier one ``Strategy`` at a time, in grid order.

    Per strategy the scalar pair terms and a scalar bisection on the deltas
    (``deviation_succeeds``'s +-tol).  The smallest winning size, first
    strategy among ties.
    """
    base = truthful_base(setting, concept)
    prior, table, n = setting.prior, setting.scores, setting.n
    winner = None  # (size, strategy)
    for strat in setting_strategy_grid(grid_steps):
        if concept == cl.EX_ANTE:
            terms = [(pair_term_ex_ante_scalar(prior, table, strat, strat),
                      pair_term_ex_ante_scalar(prior, table, strat, cl.TRUTHFUL_STRATEGY), base)]
        else:
            terms = [(pair_term_interim_scalar(prior, table, strat, strat, s),
                      pair_term_interim_scalar(prior, table, strat, cl.TRUTHFUL_STRATEGY, s), b)
                     for s, b in zip(SIGNALS, base)]
        size = smallest_winning_size(k, [delta_tests(n, term, tol) for term in terms])
        if size is not None and (winner is None or size < winner[0]):
            winner = (size, strat)
    if winner is None:
        return None
    size, strat = winner
    return cl.DeviationCertificate(
        concept=concept, coalition=tuple(range(size)),
        strategies=(strat.rows,) * size,
        deltas=(symmetric_delta(setting, strat, size, concept, base),) * size, tolerance=tol)


def kernel_rules(rng: np.random.Generator, tables: int = 4) -> list[cl.ScoringRule]:
    """Brier, log bases e, 2 and 0.5, and ``tables`` random table rules."""
    return ([cl.BrierRule(), cl.LogRule(), cl.LogRule(base=2.0), cl.LogRule(base=0.5)]
            + [random_table_rule(rng) for _ in range(tables)])


def check_pair_kernel_matches_scalar(seed: int = 6262, priors: int = 3) -> int:
    """The pair form prices array lanes as scalar calls, and matches the lattice.

    For each rule of ``kernel_rules`` and grid_steps 2..11, the grid lanes
    are the ``Strategy`` grid, and each lane's ``PairForm.reward`` (ex ante
    and per signal) against itself, the truthful strategy and one random
    strategy equals, with ==, the scalar call on that lane's strategies, and
    lies within 1e-14 * max|score| of ``pair_term_*_scalar``, the 16-term
    lattice summed in its own order; so does the ex-ante reward of every
    (own, peer) pair of grid strategies, lanes broadcast against lanes, for
    grids up to 5 x 5.  ``peer_average`` on per-lane count arrays (zero
    counts among them, n up to 2^62) equals ``peer_average_scalar``.
    Scalar calls of the form for (other, ALL_LIE) and (ALL_H, truthful),
    ex ante and per signal, return Python floats within the same distance
    of the lattice.  Returns the number of values compared.
    """
    from collusion_lab.checker import _grid_lanes
    from collusion_lab.mechanism import peer_average

    rng = np.random.default_rng(seed)
    compared = 0
    for rule in kernel_rules(rng):
        for _ in range(priors):
            setting = cl.make_setting(10, rule, prior=random_prior(rng))
            prior, table, form = setting.prior, setting.scores, setting.pair_form
            close = 1e-14 * max(map(abs, table))

            def check(got, pairs, s, *where):
                assert got == [form.reward(a.betas, b.betas, s) for a, b in pairs], where
                lattice = [pair_term_ex_ante_scalar(prior, table, a, b) if s is None
                           else pair_term_interim_scalar(prior, table, a, b, s) for a, b in pairs]
                assert max(abs(x - y) for x, y in zip(got, lattice)) <= close, where

            other = random_strategy(rng)
            for grid_steps in range(2, 12):
                grid = setting_strategy_grid(grid_steps)
                lanes = _grid_lanes(grid_steps, 0, len(grid))
                assert [cl.Strategy(float(a), float(b)) for a, b in zip(*lanes)] == list(grid)
                for peer in (None, cl.TRUTHFUL_STRATEGY, other):
                    peer_lanes = lanes if peer is None else peer.betas
                    pairs = [(s, s if peer is None else peer) for s in grid]
                    for sig in (None,) + SIGNALS:
                        check(form.reward(lanes, peer_lanes, sig).tolist(), pairs, sig,
                              rule, prior, grid_steps, peer, sig)
                    compared += 3 * len(grid)
                if grid_steps <= 5:  # every (own, peer) pair of grid strategies in one call
                    rows = tuple(b[:, None] for b in lanes)
                    cols = tuple(b[None, :] for b in lanes)
                    check(form.reward(rows, cols).ravel().tolist(),
                          [(a, b) for a in grid for b in grid], None, rule, prior, grid_steps)
                    compared += len(grid) ** 2
            for a, b in ((other, cl.ALL_LIE), (cl.ALL_H, cl.TRUTHFUL_STRATEGY)):
                for sig in (None,) + SIGNALS:
                    value = form.reward(a.betas, b.betas, sig)
                    assert type(value) is float, (a, b, sig)
                    check([value], [(a, b)], sig, rule, prior, a, b, sig)
            n = int(rng.choice([2, 3, 1000, 10 ** 6, 2 ** 62]))
            sizes = rng.integers(1, min(n, 2 ** 40), size=64, endpoint=True)
            sizes[:3] = (1, n, min(2, n))
            terms = rng.uniform(-3.0, 3.0, size=(2, 64))
            got = peer_average(n, ((sizes - 1, terms[0]), (n - sizes, terms[1])))
            want = [peer_average_scalar(n, ((int(s) - 1, float(a)), (n - int(s), float(b))))
                    for s, a, b in zip(sizes, *terms)]
            assert got.tolist() == want, (n, rule)
            compared += 64
    return compared


def setting_search_case(rng: np.random.Generator) -> tuple:
    """One seeded (setting, k, concept, grid_steps) for the setting falsifier.

    n log-uniform in 2..10^4, Brier, log (base e) or table rules, k within 3
    of the concept's threshold and grid 2/3/5/11.  Small grids are drawn
    more often: the lane order of every grid 2..11 is checked by
    ``check_pair_kernel_matches_scalar``.
    """
    n = int(round(math.exp(rng.uniform(math.log(2), math.log(10 ** 4)))))
    rule = random_table_rule(rng) if rng.random() < 0.2 else random_rule(rng)
    setting = cl.make_setting(n, rule, prior=random_prior(rng))
    concept = cl.EX_ANTE if rng.random() < 0.5 else cl.BAYESIAN
    grid_steps = int(rng.choice([2, 3, 5, 11], p=[0.3, 0.3, 0.25, 0.15]))
    k_star = (cl.k_ex_ante if concept == cl.EX_ANTE else cl.k_bayesian)(setting).k
    k = int(np.clip(k_star + rng.integers(-3, 4), 1, n))
    return setting, k, concept, grid_steps


def search_matches_oracle(oracle, setting: cl.Setting, k: int, concept: str, grid_steps: int,
                          label=None) -> str:
    """``find_setting_deviation`` against ``oracle``.

    The search returns what the oracle returns: an equal certificate
    (dataclass equality: every field, deltas as floats) or the same None.
    Returns "none" or "found".
    """
    fast = cl.find_setting_deviation(setting, k, concept, grid_steps=grid_steps)
    label = label or (setting, k, concept, grid_steps)
    assert fast == oracle(setting, k, concept, grid_steps=grid_steps), label
    return "none" if fast is None else "found"


def check_setting_falsifier_matches_bisection(seed: int = 9090, cases: int = 10_000) -> dict:
    """The closed-form search returns what the one-strategy bisection returns.

    On seeded searches (``setting_search_case``), by ``search_matches_oracle``.
    Returns how many ended each way.
    """
    rng = np.random.default_rng(seed)
    kinds = {"found": 0, "none": 0}
    for case in range(cases):
        setting, k, concept, grid_steps = setting_search_case(rng)
        kinds[search_matches_oracle(setting_falsifier_by_bisection, setting, k, concept,
                                    grid_steps, label=case)] += 1
    return kinds


def setting_falsifier_by_size(setting: cl.Setting, k: int, concept: str,
                              grid_steps: int = 11, tol: float = cl.DEFAULT_TOL):
    """The setting falsifier as a plain loop: every grid strategy at size 1, then 2, ...

    Returns the first certificate that succeeds (``deviation_succeeds``).  The
    members share one strategy, so one member's delta decides for all of them.
    """
    from collusion_lab.thresholds import deviation_succeeds

    strategies = setting_strategy_grid(grid_steps)
    base = truthful_base(setting, concept)
    for size in range(1, k + 1):
        for strat in strategies:
            delta = symmetric_delta(setting, strat, size, concept, base)
            if deviation_succeeds(concept, (delta,), tol):
                return cl.DeviationCertificate(
                    concept=concept, coalition=tuple(range(size)),
                    strategies=(strat.rows,) * size,
                    deltas=(delta,) * size, tolerance=tol)
    return None


def utility_by_profile_roles(setting: cl.Setting, profile: cl.DeviationProfile, i,
                             s: str | None = None) -> float:
    """A profile member's utility summed as the role loop before ``member_utility``.

    Peers grouped with a ``Counter`` over the deviators (first-appearance
    order, own group less one), zero counts dropped, truthful peers last,
    then ``total += count * setting.pair_form.reward(...)`` and one division
    by n - 1: the summation order, checked against ``member_utility`` with ==.
    """
    from collections import Counter

    k, n = profile.k, setting.n
    counts = Counter(profile.deviators)
    if i == cl.TRUTHFUL:
        own, truthful_peers = cl.TRUTHFUL_STRATEGY, n - k - 1
    else:
        own, truthful_peers = profile.deviators[i], n - k
        counts[own] -= 1
    roles = [(c, strat) for strat, c in counts.items() if c > 0]
    if truthful_peers > 0:
        roles.append((truthful_peers, cl.TRUTHFUL_STRATEGY))
    total = 0.0
    for count, strat in roles:
        total += count * setting.pair_form.reward(own.betas, strat.betas, s)
    return total / (n - 1)


def profile_deltas(setting: cl.Setting, profile: cl.DeviationProfile, concept: str,
                   utility) -> list:
    """Every deviator's delta through ``utility(setting, profile, i[, s])``."""
    base = truthful_base(setting, concept)
    if concept == cl.EX_ANTE:
        return [utility(setting, profile, i) - base for i in range(profile.k)]
    return [(utility(setting, profile, i, cl.LOW) - base[0],
             utility(setting, profile, i, cl.HIGH) - base[1]) for i in range(profile.k)]


def check_grouped_deltas_match_profile_path(seed: int = 2121, samples: int = 120) -> None:
    """Grouped deltas are the floats of the profile path, compared with ==.

    ``coalition_deltas`` of a coalition sharing one strategy (k-1 fellow
    members and n-k truthful peers) and the deltas
    ``verify_setting_certificate`` recomputes for mixed certificates against
    ``ex_ante_utility``/``interim_utility`` on an explicit
    ``DeviationProfile`` and against ``utility_by_profile_roles``.  Sizes
    include k = 1 and k = n; strategy pools include the truthful strategy,
    the corners and two rows that read as one strategy.
    """
    from collusion_lab.checker import _setting_certificate_deltas
    from collusion_lab.thresholds import coalition_deltas

    rng = np.random.default_rng(seed)
    for sample in range(samples):
        n = int(rng.integers(2, 41))
        setting = cl.make_setting(n, random_rule(rng), prior=random_prior(rng))
        concept = (cl.EX_ANTE, cl.BAYESIAN)[sample % 2]
        k = (1, n, int(rng.integers(1, n + 1)))[sample % 3]
        pool = [cl.TRUTHFUL_STRATEGY, cl.ALL_H, cl.ALL_L, cl.ALL_LIE] + [
            random_strategy(rng) for _ in range(3)]
        label = (n, k, concept, setting.prior, setting.rule)

        strat = pool[int(rng.integers(len(pool)))]
        profile = cl.DeviationProfile((strat,) * k)
        want = profile_deltas(setting, profile, concept, cl.ex_ante_utility
                              if concept == cl.EX_ANTE else cl.interim_utility)
        assert want == profile_deltas(setting, profile, concept, utility_by_profile_roles)
        got = coalition_deltas(setting, concept, {strat: k})
        assert [got[strat]] * k == want and list(got) == [strat], label

        picks = [pool[int(j)] for j in rng.integers(0, len(pool), size=k)]
        rows = [p.rows for p in picks]
        # the same strategy written with another l-row, still a distribution
        # within the 1e-12 row-sum tolerance, groups with it
        rows = [((r[0][0] + 1e-13, r[0][1]), r[1]) if j % 3 == 1 else r
                for j, r in enumerate(rows)]
        profile = cl.DeviationProfile(tuple(picks))
        want = profile_deltas(setting, profile, concept, cl.ex_ante_utility
                              if concept == cl.EX_ANTE else cl.interim_utility)
        assert want == profile_deltas(setting, profile, concept, utility_by_profile_roles)
        cert = cl.DeviationCertificate(concept=concept, coalition=tuple(range(k)),
                                       strategies=tuple(rows), deltas=tuple(want),
                                       tolerance=cl.DEFAULT_TOL)
        assert _setting_certificate_deltas(setting, cert) == want, label


def check_setting_falsifier_matches_loop(seed: int = 808, cases: int = 300) -> None:
    """The closed-form setting falsifier returns exactly what the size loop returns.

    For n <= 200, both concepts and several grid resolutions, by
    ``search_matches_oracle``.
    """
    rng = np.random.default_rng(seed)
    kinds = {"found": 0, "none": 0}
    for case in range(cases):
        n = int(round(math.exp(rng.uniform(math.log(2), math.log(200)))))  # the loop is O(n^2)
        setting = cl.make_setting(n, random_rule(rng), prior=random_prior(rng))
        concept = cl.EX_ANTE if rng.random() < 0.5 else cl.BAYESIAN
        grid_steps = int(rng.choice([2, 3, 5, 11]))
        # k around the concept's threshold, where the first success sits
        k_star = (cl.k_ex_ante if concept == cl.EX_ANTE else cl.k_bayesian)(setting).k
        k = int(np.clip(k_star + rng.integers(-3, 4), 1, n))
        label = (n, setting.prior, setting.rule, concept, k, grid_steps)
        kinds[search_matches_oracle(setting_falsifier_by_size, setting, k, concept, grid_steps,
                                    label)] += 1
    assert min(kinds.values()) >= cases // 20, kinds


def exact_pair_rewards(setting: cl.Setting):
    """``PairForm.reward`` in ``Fraction``s, exact for the floats of the prior and rule.

    Brier and table rules only: their scores are rational in the posterior.
    """
    prior, rule = setting.prior, setting.rule
    p_h, p_hh, p_hl = (Fraction(x) for x in (prior.p_h, prior.p_hh, prior.p_hl))

    def score(outcome: str, q_h: Fraction) -> Fraction:
        if isinstance(rule, cl.BrierRule):
            return 2 * (q_h if outcome == cl.HIGH else 1 - q_h) - (q_h ** 2 + (1 - q_h) ** 2)
        assert isinstance(rule, cl.TableRule), rule
        if outcome == cl.HIGH:
            return Fraction(rule.h_intercept) + Fraction(rule.h_slope) * q_h
        return Fraction(rule.l_intercept) + Fraction(rule.l_slope) * q_h

    s_hh, s_lh, s_hl, s_ll = score(cl.HIGH, p_hh), score(cl.LOW, p_hh), score(cl.HIGH, p_hl), \
        score(cl.LOW, p_hl)
    c, alpha, beta, d = s_ll, s_lh - s_ll, s_hl - s_ll, s_hh + s_ll - s_hl - s_lh

    def reward(own, peer, s: str | None) -> Fraction:
        if s is None:
            return (1 - p_h) * reward(own, peer, cl.LOW) + p_h * reward(own, peer, cl.HIGH)
        x = own[1] if s == cl.HIGH else own[0]
        q = p_hh if s == cl.HIGH else p_hl  # Pr(h | s)
        p = (1 - q) * peer[0] + q * peer[1]
        return c + alpha * x + (beta + d * x) * p
    return reward


def exact_gaps(reward, concept: str, betas) -> list[tuple[Fraction, Fraction]]:
    """Each delta component's exact (A, B) for a coalition sharing ``betas``.

    ``reward`` is ``exact_pair_rewards``; the betas are read as ``Fraction``s.
    """
    own, truthful = tuple(map(Fraction, betas)), (Fraction(0), Fraction(1))
    gaps = []
    for s in (None,) if concept == cl.EX_ANTE else SIGNALS:
        outside = reward(own, truthful, s)
        gaps.append((reward(own, own, s) - outside, outside - reward(truthful, truthful, s)))
    return gaps


def exact_winning_size(gaps, n: int, k: int, tol: float = cl.DEFAULT_TOL) -> int | None:
    """The smallest winning size in [1, k] from ``exact_gaps``, exactly.

    At each size the bisection reads, the exact sign of (s-1)*A + (n-1)*B:
    >= 0 weak, > 0 strict, in integers, with A read as 0 where the success
    rule's one gain test (``thresholds._negligible``) reads it so.
    """
    from collusion_lab.thresholds import _negligible

    components = []
    for a, b in gaps:
        a = Fraction(0) if _negligible(a, tol) else a
        # the sign of (s-1)*a + (n-1)*b, both denominators positive
        x, y = a.numerator * b.denominator, (n - 1) * b.numerator * a.denominator
        components.append(((lambda t, x=x, y=y: (t - 1) * x + y >= 0),
                           (lambda t, x=x, y=y: (t - 1) * x + y > 0)))
    return smallest_winning_size(k, components)


def check_rule_matches_exact_oracle(seed: int = 1717, settings: int = 18) -> int:
    """``winning_sizes`` gives each grid strategy's exact smallest winning size.

    Brier, table and tiny-loss table rules (``tiny_loss_table_rule``) at
    seeded priors, both concepts, grid_steps 3, 5 and 11, n = 10^1..10^11,
    every size in [1, n]: each lane's size (n + 1 for none) equals
    ``exact_winning_size``.  Returns the lanes compared.
    """
    from collusion_lab.checker import _grid_lanes
    from collusion_lab.thresholds import winning_sizes

    rng = np.random.default_rng(seed)
    compared = 0
    for case in range(settings):
        prior = random_prior(rng)
        rule = (cl.BrierRule, lambda: random_table_rule(rng),
                lambda: tiny_loss_table_rule(rng, prior))[case % 3]()
        reward = exact_pair_rewards(cl.make_setting(10, rule, prior=prior))
        for concept, grid_steps in itertools.product(cl.CONCEPTS, (3, 5, 11)):
            lanes = _grid_lanes(grid_steps, 0, grid_steps ** 2 - 1)
            gaps = [exact_gaps(reward, concept, betas) for betas in zip(*lanes)]
            for e in range(1, 12):
                setting = cl.make_setting(10 ** e, rule, prior=prior)
                n = setting.n
                got = winning_sizes(setting, concept, lanes, 1, n).tolist()
                want = [exact_winning_size(g, n, n) for g in gaps]
                assert got == [n + 1 if w is None else w for w in want], (rule, prior, concept, n)
                compared += len(got)
    return compared


def check_rule_ladder(seed: int = 3131, priors: int = 440, grid_steps: int = 11,
                      surplus_priors: int = 40) -> dict:
    """The rule agrees with ``ThresholdTable`` at every n = 10^1..10^11.

    Brier, log, table and tiny-loss table rules (``tiny_loss_table_rule``)
    at seeded priors, then ``surplus_priors`` tiny-surplus table rules
    (``tiny_surplus_table_rule``) at each of tol 1e-9 and 1e-3, both
    concepts: over the grid, no strategy wins at a size <= ``ThresholdTable``'s
    k, and when k < n the smallest winning size within k + 1 is k + 1, sizes
    only, no certificate built.  Settings where a single deviator already
    wins (table rules that are not proper) are skipped.  Returns how many
    (setting, n) were checked and skipped, how many of the checked ones had
    a tiny-surplus rule, and how many tiny-surplus tables have an ex-ante
    side that is infinite although its surplus exceeds tol (its gain does not).
    """
    from collusion_lab.checker import _grid_lanes
    from collusion_lab.thresholds import ThresholdTable, winning_sizes

    rng = np.random.default_rng(seed)
    lanes = _grid_lanes(grid_steps, 0, grid_steps ** 2 - 1)
    seen = {"checked": 0, "skipped": 0, "tiny_surplus": 0, "gain_within_tol": 0}

    def ladder(prior: cl.BinaryPrior, rule: cl.ScoringRule, tol: float) -> ThresholdTable:
        table = ThresholdTable(prior, rule, tol)
        for concept, e in itertools.product(cl.CONCEPTS, range(1, 12)):
            setting = cl.make_setting(10 ** e, rule, prior=prior)
            n, k = setting.n, table.k(concept, setting.n)[2]
            smallest = int(winning_sizes(setting, concept, lanes, 1, min(k + 1, n), tol).min())
            if smallest == 1:
                seen["skipped"] += 1
                continue
            assert smallest == (k + 1 if k < n else n + 1), (
                rule, prior, tol, concept, n, k, smallest)
            seen["checked"] += 1
        return table

    for case in range(priors):
        prior = random_prior(rng)
        rule = (cl.BrierRule, cl.LogRule, lambda: random_table_rule(rng),
                lambda: tiny_loss_table_rule(rng, prior))[case % 4]()
        ladder(prior, rule, cl.DEFAULT_TOL)
    for tol in (1e-9, 1e-3):
        for _ in range(surplus_priors):
            prior = random_prior(rng)
            checked = seen["checked"]
            table = ladder(prior, tiny_surplus_table_rule(rng, prior, tol), tol)
            seen["tiny_surplus"] += seen["checked"] - checked
            (_, _, ratio_h), (_, _, ratio_l) = table.sides[cl.EX_ANTE]
            seen["gain_within_tol"] += ((math.isnan(ratio_h) and table.d_h > tol)
                                        or (math.isnan(ratio_l) and table.d_l > tol))
    return seen


# ---------------------------------------------------------------------------
# n_zero: the doubling-plus-bisection search as an oracle
# ---------------------------------------------------------------------------

def n_zero_by_search(prior: cl.BinaryPrior, rule: cl.ScoringRule,
                     tol: float = cl.DEFAULT_TOL) -> int:
    """n_zero as a search over n: double until the six conditions hold, then bisect.

    Evaluates every condition as ``c/(n-1)`` against its bound, with the
    strict 1/4 comparisons and the non-strict others; NoFiniteN when no
    power of two up to 2**62 satisfies them.
    """
    s_hh, s_lh, s_hl, s_ll = cl.four_scores(rule, prior)
    e_l = prior.p_hl * (s_hl - s_hh) + prior.p_ll * (s_ll - s_lh)
    e_h = prior.p_hh * (s_hh - s_hl) + prior.p_lh * (s_lh - s_ll)
    d_h = s_hh - s_lh
    d_l = s_ll - s_hl
    big_d = (s_hh - s_hl) + (s_ll - s_lh)
    spread = max(s_hh, s_lh, s_hl, s_ll) - min(s_hh, s_lh, s_hl, s_ll)
    if big_d <= tol or e_h <= tol or e_l <= tol:
        raise cl.NoFiniteN("a required positive quantity is non-positive")
    c_h = 4.0 * spread * (big_d + s_ll - s_hl) / (big_d * e_h)
    c_l = 4.0 * spread * (big_d + s_hh - s_lh) / (big_d * e_l)

    def conditions(n: int) -> bool:
        b_h = c_h / (n - 1)
        b_l = c_l / (n - 1)
        if not (b_h < 0.25 - tol and b_l < 0.25 - tol):
            return False
        if d_h > tol and not b_h <= d_h / big_d + tol:
            return False
        if not b_h <= e_h / (prior.p_hh * big_d) + tol:
            return False
        if d_l > tol and not b_l <= d_l / big_d + tol:
            return False
        return b_l <= e_l / (prior.p_ll * big_d) + tol

    lo, hi = 2, 2
    while not conditions(hi):
        hi *= 2
        if hi > 2 ** 62:
            raise cl.NoFiniteN("no finite n satisfies the interim conditions")
    while lo < hi:
        mid = (lo + hi) // 2
        if conditions(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _n_zero_outcome(search, prior, rule, tol):
    try:
        return search(prior, rule, tol)
    except cl.NoFiniteN:
        return None


def check_n_zero_matches_search(seed: int = 4040, cases: int = 2000) -> None:
    """The closed-form n_zero returns exactly what the doubling-plus-bisection search returns.

    Brier, log rules of several bases and random affine table rules; priors
    from well separated to nearly uninformative (n_zero up to ~1e15);
    tolerances log-uniform in [1e-12, 1e-3].  Both finite values and
    NoFiniteN verdicts must occur.
    """
    rng = np.random.default_rng(seed)
    kinds = {"none": 0, "small": 0, "large": 0}
    for _ in range(cases):
        kind = rng.integers(0, 3)
        if kind == 0:
            rule = cl.BrierRule()
        elif kind == 1:
            rule = cl.LogRule(base=float(rng.choice([math.e, 2.0, 10.0, 0.5, 1.5])))
        else:
            rule = cl.TableRule(*(float(x) for x in rng.uniform(-2.0, 2.0, size=4)))
        if rng.random() < 0.5:
            prior = random_prior(rng)
        else:  # nearly uninformative: Pr(h|h) just above Pr(h)
            p_h = float(rng.uniform(0.1, 0.9))
            prior = cl.make_prior(p_h, p_h + float(10 ** rng.uniform(-6, -1)) * (1 - p_h))
        tol = float(10 ** rng.uniform(-12, -3))
        fast = _n_zero_outcome(cl.n_zero, prior, rule, tol)
        slow = _n_zero_outcome(n_zero_by_search, prior, rule, tol)
        assert fast == slow, (prior, rule, tol, fast, slow)
        kinds["none" if fast is None else ("small" if fast < 10 ** 6 else "large")] += 1
    assert min(kinds.values()) >= cases // 50, kinds


# ---------------------------------------------------------------------------
# n_zero: one solve per condition as an oracle
# ---------------------------------------------------------------------------

def n_zero_by_six_solves(prior: cl.BinaryPrior, rule: cl.ScoringRule,
                         tol: float = cl.DEFAULT_TOL) -> int:
    """n_zero as the largest of six ``_first_n`` solves, one per condition.

    The form ``ThresholdTable.n_zero`` had before it solved only each side's
    tightest condition: each b below 1/4 (strict), below its side's corner
    surplus over D when that surplus is positive, and below its side's
    outsider loss over (posterior * D).
    """
    from collusion_lab.thresholds import _first_n

    s_hh, s_lh, s_hl, s_ll = scores = cl.four_scores(rule, prior)
    e_l, e_h, d_h, d_l = _gaps_per_setting(prior, scores)
    big_d = (s_hh - s_hl) + (s_ll - s_lh)
    spread = max(scores) - min(scores)
    if big_d <= tol or e_h <= tol or e_l <= tol:
        raise cl.NoFiniteN("a required positive quantity is non-positive")
    c_h = 4.0 * spread * (big_d + s_ll - s_hl) / (big_d * e_h)
    c_l = 4.0 * spread * (big_d + s_hh - s_lh) / (big_d * e_l)
    firsts = [_first_n(c, bound, strict) for c, bound, strict, applies in (
        (c_h, 0.25 - tol, True, True), (c_l, 0.25 - tol, True, True),
        (c_h, d_h / big_d + tol, False, d_h > tol),
        (c_h, e_h / (prior.p_hh * big_d) + tol, False, True),
        (c_l, d_l / big_d + tol, False, d_l > tol),
        (c_l, e_l / (prior.p_ll * big_d) + tol, False, True)) if applies]
    if None in firsts:
        raise cl.NoFiniteN("no finite n satisfies the interim conditions")
    return max(firsts)


def _quarter_tie_tol(prior: cl.BinaryPrior, rule: cl.ScoringRule) -> float | None:
    """A tol at which 1/4 - tol equals the h side's smallest other bound, if a float gives one."""
    s_hh, s_lh, s_hl, s_ll = scores = cl.four_scores(rule, prior)
    e_l, e_h, d_h, _ = _gaps_per_setting(prior, scores)
    big_d = (s_hh - s_hl) + (s_ll - s_lh)
    if big_d <= 0.0 or e_h <= 0.0:
        return None
    x = min(e_h / (prior.p_hh * big_d), d_h / big_d if d_h > 0.0 else math.inf)
    tol = (0.25 - x) / 2.0
    for _ in range(64):
        if not 0.0 < tol < 0.125:
            return None
        if 0.25 - tol == x + tol:
            return tol if d_h <= 0.0 or d_h > tol else None
        tol = math.nextafter(tol, math.inf if 0.25 - tol > x + tol else 0.0)
    return None


def check_n_zero_matches_six_solves(seed: int = 1414, cases: int = 6000) -> dict:
    """``cl.n_zero`` (two solves) equals the six-solve oracle on every outcome.

    Brier, log rules of bases e, 2, 10 and 0.5 and random table rules; priors
    from well separated to nearly uninformative; tolerances log-uniform in
    [1e-9, 0.05], and, where a float gives one, a tol at which 1/4 - tol ties
    the h side's other bound.  Finite values, NoFiniteN verdicts and ties
    must all occur; returns the counts.
    """
    rng = np.random.default_rng(seed)
    kinds = {"finite": 0, "none": 0, "tie": 0}
    for case in range(cases):
        kind = case % 3
        if kind == 0:
            rule = cl.BrierRule()
        elif kind == 1:
            rule = cl.LogRule(base=float(rng.choice([math.e, 2.0, 10.0, 0.5])))
        else:
            rule = cl.TableRule(*(float(x) for x in rng.uniform(-2.0, 2.0, size=4)))
        if rng.random() < 0.5:
            prior = random_prior(rng)
        else:  # nearly uninformative: Pr(h|h) just above Pr(h)
            p_h = float(rng.uniform(0.1, 0.9))
            prior = cl.make_prior(p_h, p_h + float(10 ** rng.uniform(-6, -1)) * (1 - p_h))
        tols = [float(10 ** rng.uniform(-9, math.log10(0.05)))]
        tie = _quarter_tie_tol(prior, rule)
        if tie is not None:
            tols.append(tie)
            kinds["tie"] += 1
        for tol in tols:
            got = _n_zero_outcome(cl.n_zero, prior, rule, tol)
            want = _n_zero_outcome(n_zero_by_six_solves, prior, rule, tol)
            assert got == want, (prior, rule, tol, got, want)
            kinds["none" if got is None else "finite"] += 1
    assert min(kinds.values()) >= cases // 100, kinds
    return kinds


# ---------------------------------------------------------------------------
# simulate: the per-cell block as an oracle
# ---------------------------------------------------------------------------

# ``simulate`` as it ran when each block made a report probability for every
# (trial, deviator) cell and picked each deviator's payoff with ``np.where``,
# kept as the oracle of the per-strategy columns and the in-place payoffs.
# The block size (4096 trials, about 2^20 cells) is written out here, so a
# change to it fails the comparison too.

def simulate_per_cell(setting: cl.Setting, profile: cl.DeviationProfile, trials: int,
                      seed: int) -> dict:
    """``simulate``'s result for a valid call, with every report probability its own cell."""
    k, n = profile.k, setting.n
    e = math.frexp(max(map(abs, setting.scores)))[1]
    s_hh, s_lh, s_hl, s_ll = (math.ldexp(x, -e) for x in setting.scores)
    wm = setting.world_model
    free = n - k
    beta_l = np.array([s.beta_l for s in profile.deviators])
    beta_h = np.array([s.beta_h for s in profile.deviators])

    roles = k + (free > 0)
    rows = min(max(2 ** 20 // roles, 1), 4096)
    done = 0
    mean = np.zeros(roles)
    m2 = np.zeros(roles)
    lo = np.full(roles, np.inf)
    hi = np.full(roles, -np.inf)
    for block in range(-(-trials // rows)):
        size = min(rows, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        p_h = np.where(rng.random(size) >= wm.p_state[0],
                       wm.p_h_given_state[1], wm.p_h_given_state[0])
        reports_h = rng.random((size, k)) < (p_h[:, None] * beta_h
                                             + (1.0 - p_h)[:, None] * beta_l)
        truthful_h = rng.binomial(free, p_h) if free else 0
        total_h = reports_h.sum(axis=1) + truthful_h
        pay_h = ((total_h - 1) * s_hh + (n - total_h) * s_lh) / (n - 1)
        pay_l = (total_h * s_hl + (n - 1 - total_h) * s_ll) / (n - 1)

        payoffs = np.empty((size, roles))
        payoffs[:, :k] = np.where(reports_h, pay_h[:, None], pay_l[:, None])
        if free:
            payoffs[:, k] = (truthful_h * pay_h + (free - truthful_h) * pay_l) / free
        np.minimum(lo, payoffs.min(axis=0), out=lo)
        np.maximum(hi, payoffs.max(axis=0), out=hi)
        block_mean = payoffs.mean(axis=0)
        payoffs -= block_mean
        block_m2 = np.einsum("ij,ij->j", payoffs, payoffs)
        delta = block_mean - mean
        total = done + size
        mean += delta * (size / total)
        m2 += block_m2 + delta * delta * (done * size / total)
        done = total

    def _stats(j: int) -> dict:
        if lo[j] == hi[j]:
            return {"mean": math.ldexp(lo[j], e), "stderr": 0.0, "trials": trials, "seed": seed}
        stderr = math.sqrt(m2[j] / (trials - 1) / trials)
        return {"mean": math.ldexp(mean[j], e), "stderr": math.ldexp(stderr, e),
                "trials": trials, "seed": seed}

    out = {f"deviator_{idx}": _stats(idx) for idx in range(k)}
    if free:
        out["truthful"] = _stats(k)
    return out


def simulate_oracle_cases(seed: int = 2626, count: int = 60) -> list[tuple]:
    """Seeded (setting, profile, trials, seed) calls of ``simulate``.

    Profiles cycle through one shared strategy, all strategies distinct and
    a mix of four with 0.0, -0.0 and 1.0 among their betas, two of which
    differ only in a zero's sign (a strategy ``simulate`` groups); every
    fifth case has k = n, so no truthful role.  Rules cycle through Brier,
    log and a table rule at 1e200.  Trials are 1, a few hundred, or enough
    for several blocks: 9000 at few roles, or 1500 at 2000 roles (524-trial
    blocks).
    """
    rng = np.random.default_rng(seed)
    rules = (cl.BrierRule(), cl.LogRule(), cl.TableRule(1e200, 0.0, -1e200, 0.0))
    cases = []
    for case in range(count):
        wide = case % 10 == 9
        n = 2000 if wide else int(rng.integers(2, 40))
        k = n if case % 5 == 0 or wide else int(rng.integers(1, n + 1))
        mix = (cl.Strategy(0.0, float(rng.uniform())), cl.Strategy(-0.0, 1.0),
               cl.Strategy(0.0, 1.0), cl.Strategy(float(rng.uniform()), -0.0))
        kind = case % 3
        if kind == 0:
            deviators = (mix[int(rng.integers(0, len(mix)))],) * k
        elif kind == 1:
            deviators = tuple(random_strategy(rng) for _ in range(k))
        else:
            deviators = tuple(mix[int(i)] for i in rng.integers(0, len(mix), size=k))
        trials = 1500 if wide else int(rng.choice([1, 300, 9000]))
        setting = cl.make_setting(n, rules[case % len(rules)],
                                  world_model=random_world_model(rng))
        cases.append((setting, cl.DeviationProfile(deviators), trials,
                      int(rng.integers(0, 2 ** 63))))
    return cases

"""Peer prediction payoffs under coalition deviations.

Each of n agents holds a private binary signal drawn from a symmetric common
prior and reports one.  Agent i's reward against peer j is the proper score
of j's report evaluated under the posterior that i's *report* induces,

    reward_i(r_j) = PS(r_j, q_{r_i}),

and i's utility is the average reward over all n-1 peers (the derandomized
mechanism; expected utilities match the randomized-peer original).

A reporting strategy is a pair (beta_l, beta_h): the probability of
reporting h on a low / high signal.  Truthful reporting is (0, 1).
A deviation profile fixes strategies for a coalition; everyone else reports
truthfully.  Expected utilities are exact closed forms grouped by peer role,
so cost scales with the number of distinct strategies rather than n.

A setting scores its prior once, into ``Setting.scores``, and writes the
reward against one peer once, as ``Setting.pair_form`` (``PairForm``).
Every utility of a deviation profile reads it (the known-type utilities of
``checker.interim_D_deviation`` sum their own terms), and ``peer_average``
sums count times pair reward, role by role, divided by n - 1.
``member_utility`` takes an agent's strategy and its peers as (count,
strategy) groups; ``ex_ante_utility`` and ``interim_utility`` group a
``DeviationProfile`` (``_peer_roles``) and call it, ``thresholds`` passes
its groups directly, and ``thresholds.winning_sizes`` prices a whole
chunk of grid strategies in one array call of the form.

The module also exposes the one-sided expected rewards f/g used in the
interim analysis (rows of the form), the constant Hessian of the self-play
pair reward (whose positive semidefiniteness drives the ex-ante threshold),
and a seeded Monte Carlo simulator for cross-checking the closed forms.
The simulator uses the same grouping: given the latent state, the truthful
agents' reports are one binomial count, so a trial costs O(k+1) draws, and
per-role statistics are streamed block by block in bounded memory.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidSetting,
    InvalidStrategy,
    MissingWorldModel,
)
from .prior import BinaryPrior, WorldModel, induce_prior
from .scoring import HIGH, LOW, ScoreTable, ScoringRule, four_scores, is_finite_number

#: Role marker for evaluating a non-deviator's utility.
TRUTHFUL = "truthful"


@dataclass(frozen=True)
class Strategy:
    """Probability of reporting h conditioned on a low / high signal."""

    beta_l: float
    beta_h: float

    def __post_init__(self):
        for name, value in (("beta_l", self.beta_l), ("beta_h", self.beta_h)):
            if not (is_finite_number(value) and 0.0 <= value <= 1.0):
                raise InvalidStrategy(f"{name} must lie in [0, 1], got {value!r}")

    def report_prob(self, signal: str) -> float:
        """Probability of reporting h given the signal."""
        return self.beta_h if signal == HIGH else self.beta_l

    @property
    def betas(self) -> tuple[float, float]:
        """(beta_l, beta_h): the report probabilities ``PairForm.reward`` reads."""
        return self.beta_l, self.beta_h

    @property
    def rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The (l, h) report distributions on a low and on a high signal."""
        return (1.0 - self.beta_l, self.beta_l), (1.0 - self.beta_h, self.beta_h)


TRUTHFUL_STRATEGY = Strategy(0.0, 1.0)
ALL_H = Strategy(1.0, 1.0)
ALL_L = Strategy(0.0, 0.0)
ALL_LIE = Strategy(1.0, 0.0)

#: The corner profiles that bind in the threshold analysis.
CANONICAL_DEVIATIONS = {"all_h": ALL_H, "all_l": ALL_L, "all_lie": ALL_LIE}

#: Largest (n - 1) * |score| a utility sum may reach: a factor 2^24 below the
#: float maximum, so sums over the n - 1 peers, and their differences, stay finite.
_MAX_SCORE_SUM = 2.0 ** 1000


class PairForm(NamedTuple):
    """One prior's expected reward against one peer, as a bilinear-affine form.

    An agent with signal s reports h with probability x_s, and its peer
    reports h with probability p_s = Pr(l|s)*y_l + Pr(h|s)*y_h, averaged over
    the peer's signal.  The agent's expected reward is then

        c + alpha*x_s + (beta + d*x_s)*p_s

    with c = PS(l,q_l), alpha = PS(l,q_h) - c, beta = PS(h,q_l) - c and d
    the cross-posterior surplus PS(h,q_h) + PS(l,q_l) - PS(h,q_l) - PS(l,q_h).
    Its corner slopes, the thresholds' quantities, are summed from the scores:
    the lone deviators' losses e_l = -(alpha + d*Pr(h|l)), e_h = alpha +
    d*Pr(h|h) and the corner surpluses d_h = beta + d, d_l = -beta.
    """

    prior: BinaryPrior
    c: float
    alpha: float
    beta: float
    d: float
    e_l: float
    e_h: float
    d_h: float
    d_l: float

    @classmethod
    def of(cls, prior: BinaryPrior, table: ScoreTable) -> "PairForm":
        s_hh, s_lh, s_hl, s_ll = table
        return cls(prior, s_ll, s_lh - s_ll, s_hl - s_ll, s_hh + s_ll - s_hl - s_lh,
                   prior.p_hl * (s_hl - s_hh) + prior.p_ll * (s_ll - s_lh),
                   prior.p_hh * (s_hh - s_hl) + prior.p_lh * (s_lh - s_ll),
                   s_hh - s_lh, s_ll - s_hl)

    def reward(self, own, peer, s: str | None = None):
        """Expected reward of playing ``own`` against ``peer``, given own signal ``s``.

        ``own`` and ``peer`` are (beta_l, beta_h) report-h probabilities:
        floats, or equal-shape arrays priced lane by lane with the same
        operations in the same order, so a lane's float is the scalar float.
        ``s`` None gives the ex-ante reward p_l*R_l + p_h*R_h.
        """
        prior = self.prior
        if s is None:
            return (prior.p_l * self.reward(own, peer, LOW)
                    + prior.p_h * self.reward(own, peer, HIGH))
        x = own[1] if s == HIGH else own[0]
        p = prior.cond(s, LOW) * peer[0] + prior.cond(s, HIGH) * peer[1]
        return self.c + self.alpha * x + (self.beta + self.d * x) * p

    def gaps(self, own, s: str | None = None):
        """(A, B) given own signal ``s`` (None: ex ante): ``own``'s reward against itself
        minus that against a truthful peer, and the latter minus the truthful reward, each
        one product of corner slopes, not a difference of rewards, so a small gap keeps its
        digits: A = (x*d_h - (1-x)*d_l)*(p - Pr(h|s)), B = -e_l*x or -e_h*(1-x)."""
        prior = self.prior
        if s is None:
            (a_l, b_l), (a_h, b_h) = self.gaps(own, LOW), self.gaps(own, HIGH)
            return prior.p_l * a_l + prior.p_h * a_h, prior.p_l * b_l + prior.p_h * b_h
        x, truthful_p = own[1] if s == HIGH else own[0], prior.cond(s, HIGH)
        p = prior.cond(s, LOW) * own[0] + truthful_p * own[1]
        loss = self.e_h * (1.0 - x) if s == HIGH else self.e_l * x
        return (x * self.d_h - (1.0 - x) * self.d_l) * (p - truthful_p), -loss


@dataclass(frozen=True)
class Setting:
    """Mechanism parameters: population size, prior, scoring rule.

    ``world_model`` is optional and only needed for simulation and for
    conditioning on more than one signal; when present it must induce the
    pairwise prior.
    """

    n: int
    prior: BinaryPrior
    rule: ScoringRule
    world_model: WorldModel | None = None

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 2):
            raise InvalidSetting(f"n must be an integer >= 2, got {self.n!r}")
        if self.world_model is not None:
            induced = induce_prior(self.world_model)
            if (abs(induced.p_h - self.prior.p_h) > 1e-9
                    or abs(induced.p_hh - self.prior.p_hh) > 1e-9):
                raise InvalidSetting("world model does not induce the given pairwise prior")

    @functools.cached_property
    def scores(self) -> ScoreTable:
        """The ``four_scores`` table every utility reads, made on first use.

        ``InvalidSetting``, at each use, when a score is not finite or when
        (n - 1) times the largest |score| passes ``_MAX_SCORE_SUM``, so a sum
        over the peers could overflow.
        """
        scores = four_scores(self.rule, self.prior)
        largest = max(map(abs, scores))
        peers = self.n - 1
        # the int-float comparison is exact at any n, and below it float(peers) is finite
        if largest and (peers > _MAX_SCORE_SUM or largest > _MAX_SCORE_SUM / peers):
            raise InvalidSetting(f"scores up to {largest:g} in magnitude overflow a utility sum "
                                 f"over n - 1 = {peers} peers")
        return scores

    @functools.cached_property
    def pair_form(self) -> PairForm:
        """The ``PairForm`` of ``scores`` that every utility reads; raises as ``scores``."""
        return PairForm.of(self.prior, self.scores)


def make_setting(n: int, rule: ScoringRule, prior: BinaryPrior | None = None,
                 world_model: WorldModel | None = None) -> Setting:
    if prior is None:
        if world_model is None:
            raise InvalidSetting("need a prior or a world model")
        prior = induce_prior(world_model)
    return Setting(n=n, prior=prior, rule=rule, world_model=world_model)


@dataclass(frozen=True)
class DeviationProfile:
    """Strategies of the deviating coalition; all other agents are truthful."""

    deviators: tuple[Strategy, ...]

    def __post_init__(self):
        if len(self.deviators) < 1:
            raise InvalidSetting("a deviation profile needs at least one deviator")

    @property
    def k(self) -> int:
        return len(self.deviators)


def average_strategy(profile: DeviationProfile) -> Strategy:
    """Component-wise mean of the coalition's strategies."""
    k = profile.k
    return Strategy(
        beta_l=sum(s.beta_l for s in profile.deviators) / k,
        beta_h=sum(s.beta_h for s in profile.deviators) / k,
    )


def profile_to_dict(profile: DeviationProfile, n: int) -> dict:
    return {"n": n, "deviators": [{"bl": s.beta_l, "bh": s.beta_h} for s in profile.deviators]}


def strategy_from_dict(data) -> Strategy:
    """A strategy from its JSON form ``{"bl": beta_l, "bh": beta_h}``.

    Exactly those two keys; each value a JSON number (not a string or a
    bool) in [0, 1].  Anything else raises ``InvalidStrategy``.
    """
    if not isinstance(data, dict) or set(data) != {"bl", "bh"}:
        raise InvalidStrategy(f'a strategy must be an object with exactly the keys "bl" and '
                              f'"bh", got {data!r}')
    for key in ("bl", "bh"):
        if not is_finite_number(data[key]):
            raise InvalidStrategy(f'"{key}" must be a number in [0, 1], got {data[key]!r}')
    return Strategy(float(data["bl"]), float(data["bh"]))


def profile_from_dict(data: dict) -> tuple[int, DeviationProfile]:
    """``n`` and the profile from ``profile_to_dict``'s form.

    ``n`` must be a JSON integer >= 2 (not a float, a string or a bool),
    else ``InvalidSetting``.
    """
    extra = set(data) - {"n", "deviators"}
    if extra:
        raise InvalidSetting(f"unknown profile keys {sorted(extra)}")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise InvalidSetting(f'profile "n" must be an integer >= 2, got {n!r}')
    deviators = tuple(strategy_from_dict(d) for d in data["deviators"])
    return n, DeviationProfile(deviators)


def reward(setting: Setting, report_i: str, report_j: str) -> float:
    """Agent i's reward from comparison with peer j, given both reports."""
    return setting.rule.score(report_j, setting.prior.posterior(report_i))


def _peer_roles(setting: Setting, profile: DeviationProfile,
                i: Union[int, str]) -> tuple[Strategy, list[tuple[int, Strategy]]]:
    """Own strategy and the (count, strategy) groups among the n-1 peers.

    Deviator groups come in first-appearance order, truthful peers last; a
    deviator who plays the truthful strategy stays in its deviator group.
    A group may have count 0; it adds nothing to ``peer_average``.
    """
    k = profile.k
    if k > setting.n:
        raise InvalidSetting(f"profile has {k} deviators but the setting has n={setting.n}")
    if i == TRUTHFUL:
        if k >= setting.n:
            raise IndexOutOfRange("no truthful agents exist when every agent deviates")
        own = TRUTHFUL_STRATEGY
        peer_counts = Counter(profile.deviators)
        truthful_peers = setting.n - k - 1
    elif isinstance(i, int) and 0 <= i < k:
        own = profile.deviators[i]
        peer_counts = Counter(profile.deviators)
        peer_counts[own] -= 1
        truthful_peers = setting.n - k
    else:
        raise IndexOutOfRange(f"agent index {i!r} not in profile of {k} deviators")
    roles = [(count, strat) for strat, count in peer_counts.items()]
    roles.append((truthful_peers, TRUTHFUL_STRATEGY))
    return own, roles


def peer_average(n: int, roles: Iterable[tuple]):
    """Average pair reward over the n-1 peers from (count, pair reward) roles.

    The one summation order of every utility of a deviation profile (not
    the known-type ones): ``count * reward`` added role by role in the
    given order, the total divided by n - 1.  Counts and rewards may be
    per-lane arrays; a count of 0 adds 0.
    """
    total = 0.0
    for count, term in roles:
        total += count * term
    return total / (n - 1)


def member_utility(setting: Setting, own: Strategy, peers: Sequence[tuple[int, Strategy]],
                   s: str | None = None) -> float:
    """Utility of an agent playing ``own`` whose n-1 peers play as grouped.

    ``peers`` lists (count, strategy) groups whose counts sum to n - 1, in
    the order they are summed.  ``s`` None gives the ex-ante utility, a
    signal the interim utility conditioned on it.  O(groups), whatever n.
    """
    if any(count < 0 for count, _ in peers) or sum(c for c, _ in peers) != setting.n - 1:
        raise InvalidSetting(f"peer counts must be >= 0 and sum to n-1={setting.n - 1}")
    form = setting.pair_form
    return peer_average(setting.n, ((count, form.reward(own.betas, peer.betas, s))
                                    for count, peer in peers))


def ex_ante_utility(setting: Setting, profile: DeviationProfile, i: Union[int, str]) -> float:
    """Expected utility before the agent learns their signal.

    ``i`` is a deviator index, or ``TRUTHFUL`` for a non-deviator.
    """
    return member_utility(setting, *_peer_roles(setting, profile, i))


def interim_utility(setting: Setting, profile: DeviationProfile, i: Union[int, str],
                    s: str) -> float:
    """Expected utility conditioned on the agent's signal being ``s``."""
    return member_utility(setting, *_peer_roles(setting, profile, i), s)


def truthful_ex_ante(setting: Setting) -> float:
    """Everyone truthful: the common ex-ante expected utility."""
    return setting.pair_form.reward(TRUTHFUL_STRATEGY.betas, TRUTHFUL_STRATEGY.betas)


def truthful_interim(setting: Setting, s: str) -> float:
    """Everyone truthful: expected utility conditioned on own signal ``s``."""
    return setting.pair_form.reward(TRUTHFUL_STRATEGY.betas, TRUTHFUL_STRATEGY.betas, s)


def f_side(side: str, beta_own: float, peer: Strategy, setting: Setting) -> float:
    """Expected reward of an agent with signal ``side`` reporting h w.p. ``beta_own``.

    The peer plays ``peer``; the form is affine in ``beta_own`` and in each
    peer coordinate.
    """
    if not 0.0 <= beta_own <= 1.0:
        raise InvalidStrategy(f"beta_own must lie in [0, 1], got {beta_own!r}")
    return setting.pair_form.reward((beta_own, beta_own), peer.betas, side)


def g_side(side: str, sigma: Strategy, setting: Setting) -> float:
    """Diagonal of f: both agents play ``sigma`` and share the signal side."""
    return setting.pair_form.reward(sigma.betas, sigma.betas, side)


def pair_self_reward(setting: Setting, sigma: Strategy) -> float:
    """Expected reward between two agents both playing ``sigma`` (ex ante).

    This is the quadratic form whose convexity bounds coalition averages.
    """
    return setting.pair_form.reward(sigma.betas, sigma.betas)


@dataclass(frozen=True)
class PairRewardHessian:
    """Constant Hessian of the self-play pair reward in (beta_l, beta_h)."""

    matrix: np.ndarray
    psd: bool

    def to_dict(self) -> dict:
        return {"matrix": self.matrix.tolist(), "psd": self.psd}


def pair_reward_hessian(setting: Setting, tol: float = 1e-9) -> PairRewardHessian:
    """Closed-form Hessian of ``pair_self_reward`` and its PSD verdict.

    The Hessian factors as d * (J + J^T), with d the pair form's
    cross-posterior surplus and J the prior's joint signal matrix
    [[p_l*Pr(l|l), p_l*Pr(h|l)], [p_h*Pr(l|h), p_h*Pr(h|h)]].  PSD is decided
    by checking every principal minor (both diagonal entries and the
    determinant) against ``-tol``.
    """
    prior = setting.prior
    off = prior.p_l * prior.p_hl + prior.p_h * prior.p_lh
    base = np.array([
        [2.0 * prior.p_l * prior.p_ll, off],
        [off, 2.0 * prior.p_h * prior.p_hh],
    ])
    matrix = setting.pair_form.d * base
    minors = (matrix[0, 0], matrix[1, 1], float(np.linalg.det(matrix)))
    psd = all(m >= -tol for m in minors)
    return PairRewardHessian(matrix=matrix, psd=psd)


#: Trials per block, and the most (trial, role) cells one block may hold.
_SIM_BLOCK = 4096
_SIM_CELLS = 2 ** 20


def simulate(setting: Setting, profile: DeviationProfile, trials: int, seed: int) -> dict:
    """Monte Carlo cross-check of the closed-form utilities.

    Each trial draws the latent state from the setting's world model.  Given
    the state, signals are iid, so a deviator reports h with probability
    p*beta_h + (1-p)*beta_l (p = Pr(h | state)) and the n-k truthful agents
    collapse to one binomial count of h reports.  Every agent is paid the
    average score against all n-1 peers, which depends only on its own
    report and the total h count; the truthful role's per-trial value is
    the mean payoff over the truthful agents.  Cost is O(trials * (k+1)),
    not O(trials * n).  A coalition sharing one strategy compares all its
    draws against one report-probability column; otherwise a block makes
    one column per deviator.  Each deviator's payoff is written in place:
    the l payoff, then the h payoff where it reported h.

    Returns ``{role: {"mean", "stderr", "trials", "seed"}}`` with one role
    per deviator index plus ``"truthful"`` (when any non-deviator exists).
    Per-role count, mean and sum of squared deviations are merged block by
    block (Chan, Golub & LeVeque 1979), so memory stays bounded: a block
    holds at most 4096 trials and about 2^20 (trial, role) cells.  A role
    whose every value is equal reports that value with stderr 0.0.  The
    scores are scaled by a power of two so the largest is below 1 in
    magnitude, and the results scaled back: no square overflows, and the
    scale changes no bit unless it pushes a value into the subnormal range.
    Deterministic for a fixed seed: each block draws from its own spawned
    random stream, so results do not depend on execution order, and no
    memory grows with ``trials``.  Same seed, same bytes: the shared
    column and the in-place payoffs change no draw and no float of the
    result.
    """
    if setting.world_model is None:
        raise MissingWorldModel(
            "simulation needs a world model; a pairwise prior does not determine "
            "an n-agent sampler")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    k = profile.k
    n = setting.n
    if k > n:
        raise InvalidSetting(f"profile has {k} deviators but the setting has n={n}")
    e = math.frexp(max(map(abs, setting.scores)))[1]
    table = ScoreTable(*(math.ldexp(x, -e) for x in setting.scores))
    wm = setting.world_model
    free = n - k
    # A coalition sharing one strategy gets one report-probability column, which
    # every draw is compared against by broadcasting; otherwise one column per
    # deviator.  Strategies equal up to the sign of a zero count as shared: a
    # zero's sign cannot change `u < q` for a uniform u >= 0.
    devs = profile.deviators[:1] if len(set(profile.deviators)) == 1 else profile.deviators
    beta_l = np.array([s.beta_l for s in devs])
    beta_h = np.array([s.beta_h for s in devs])

    roles = k + (free > 0)
    rows = min(max(_SIM_CELLS // roles, 1), _SIM_BLOCK)
    done = 0
    mean = np.zeros(roles)
    m2 = np.zeros(roles)
    lo = np.full(roles, np.inf)
    hi = np.full(roles, -np.inf)
    for block in range(-(-trials // rows)):
        size = min(rows, trials - done)
        # The block-th child of SeedSequence(seed).spawn(), made when needed.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        p_h = np.where(rng.random(size) >= wm.p_state[0],
                       wm.p_h_given_state[1], wm.p_h_given_state[0])
        p_report = p_h[:, None] * beta_h + (1.0 - p_h)[:, None] * beta_l
        reports_h = rng.random((size, k)) < p_report
        del p_report  # not held while this block's payoffs and the next block's columns exist
        truthful_h = rng.binomial(free, p_h) if free else 0
        total_h = reports_h.sum(axis=1) + truthful_h
        pay_h = ((total_h - 1) * table.s_hh + (n - total_h) * table.s_lh) / (n - 1)
        pay_l = (total_h * table.s_hl + (n - 1 - total_h) * table.s_ll) / (n - 1)

        payoffs = np.empty((size, roles))
        payoffs[:, :k] = pay_l[:, None]
        np.copyto(payoffs[:, :k], pay_h[:, None], where=reports_h)
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

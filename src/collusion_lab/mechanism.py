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
truthfully.  Expected utilities are exact closed-form sums over the
(signal, report) lattice of each (i, peer) pair, grouped by peer role, so
cost scales with the number of distinct strategies rather than n.

Every utility goes through one kernel.  The pair rewards
``_pair_term_ex_ante``/``_pair_term_interim`` read report probabilities,
and ``peer_average`` sums count times pair reward, role by role, divided by
n - 1.  The kernel has no branches: it takes Python floats, or equal-shape
numpy arrays that it prices lane by lane with the same operations in the
same order, so a lane's float is the scalar float.  ``member_utility``
takes an agent's strategy and its peers as (count, strategy) groups;
``ex_ante_utility`` and ``interim_utility`` group a ``DeviationProfile``
(``_peer_roles``) and call it, ``thresholds`` passes its groups directly,
and ``checker.find_setting_deviation`` prices a whole chunk of grid
strategies in one array call.  Zero terms need no skipping because
``four_scores`` admits only finite scores: 0 times a finite reward adds
nothing to a sum.

The module also exposes the one-sided expected-reward forms f/g used in the
interim analysis, the constant Hessian of the self-play pair reward (whose
positive semidefiniteness drives the ex-ante threshold), and a seeded Monte
Carlo simulator for cross-checking the closed forms.  The simulator uses the
same grouping: given the latent state, the truthful agents' reports are one
binomial count, so a trial costs O(k+1) draws, and per-role statistics are
streamed block by block in bounded memory.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidSetting,
    InvalidStrategy,
    MissingWorldModel,
)
from .prior import BinaryPrior, WorldModel, induce_prior
from .scoring import HIGH, LOW, SIGNALS, ScoringRule, four_scores, is_finite_number

#: Role marker for evaluating a non-deviator's utility.
TRUTHFUL = "truthful"


@dataclass(frozen=True)
class Strategy:
    """Probability of reporting h conditioned on a low / high signal."""

    beta_l: float
    beta_h: float

    def __post_init__(self):
        for name, value in (("beta_l", self.beta_l), ("beta_h", self.beta_h)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and 0.0 <= value <= 1.0):
                raise InvalidStrategy(f"{name} must lie in [0, 1], got {value!r}")

    def report_prob(self, signal: str) -> float:
        """Probability of reporting h given the signal."""
        return self.beta_h if signal == HIGH else self.beta_l

    @property
    def betas(self) -> tuple[float, float]:
        """(beta_l, beta_h): the report probabilities the pair-reward kernel reads."""
        return self.beta_l, self.beta_h


TRUTHFUL_STRATEGY = Strategy(0.0, 1.0)
ALL_H = Strategy(1.0, 1.0)
ALL_L = Strategy(0.0, 0.0)
ALL_LIE = Strategy(1.0, 0.0)

#: The corner profiles that bind in the threshold analysis.
CANONICAL_DEVIATIONS = {"all_h": ALL_H, "all_l": ALL_L, "all_lie": ALL_LIE}


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


@dataclass(frozen=True)
class _ScoreTable:
    """The four mechanism scores: s_<peer report><own report>."""

    s_hh: float
    s_lh: float
    s_hl: float
    s_ll: float

    def of(self, report_j: str, report_i: str) -> float:
        if report_i == HIGH:
            return self.s_hh if report_j == HIGH else self.s_lh
        return self.s_hl if report_j == HIGH else self.s_ll

    def against(self, p_h: float) -> tuple[float, float]:
        """Expected reward of reporting h, and of reporting l, against a peer
        who reports h with probability ``p_h``."""
        return (p_h * self.s_hh + (1.0 - p_h) * self.s_lh,
                p_h * self.s_hl + (1.0 - p_h) * self.s_ll)


#: Largest (n - 1) * |score| a utility sum may reach: a factor 2^24 below the
#: float maximum, so sums over the n - 1 peers, and their differences, stay finite.
_MAX_SCORE_SUM = 2.0 ** 1000


def _score_table(setting: Setting) -> _ScoreTable:
    """The setting's four scores; ``four_scores`` rejects non-finite ones.

    ``InvalidSetting`` too when (n - 1) times the largest |score| passes
    ``_MAX_SCORE_SUM``, a sum over the peers could overflow, or when a
    score is non-zero and n - 1 alone passes it.
    """
    scores = four_scores(setting.rule, setting.prior)
    largest = max(map(abs, scores))
    peers = setting.n - 1
    # the int-float comparison is exact at any n, and below it float(peers) is finite
    if largest and (peers > _MAX_SCORE_SUM or largest > _MAX_SCORE_SUM / peers):
        raise InvalidSetting(f"scores up to {largest:g} in magnitude overflow a utility sum "
                             f"over n - 1 = {peers} peers")
    return _ScoreTable(*scores)


def reward(setting: Setting, report_i: str, report_j: str) -> float:
    """Agent i's reward from comparison with peer j, given both reports."""
    return setting.rule.score(report_j, setting.prior.posterior(report_i))


def _pair_term_interim(prior: BinaryPrior, table: _ScoreTable, own, peer, s_own: str):
    """E[reward] against one peer, conditioned on own signal.

    ``own`` and ``peer`` are (beta_l, beta_h) report-h probabilities: floats,
    or equal-shape arrays priced lane by lane.
    """
    p_own_h = own[1] if s_own == HIGH else own[0]
    total = 0.0
    for s_j, p_peer_h in zip(SIGNALS, peer):
        w_j = prior.cond(s_own, s_j)
        high_part, low_part = table.against(p_peer_h)
        total += w_j * (p_own_h * high_part + (1.0 - p_own_h) * low_part)
    return total


def _pair_term_ex_ante(prior: BinaryPrior, table: _ScoreTable, own, peer):
    """E[reward] against one peer over the full 2x2x2x2 outcome lattice.

    ``own`` and ``peer`` as in ``_pair_term_interim``.  Each of the 16 terms
    is the product w_i * p_ri * w_j * p_rj * score, formed left to right;
    the leading factors it shares with other terms are formed once.  A
    report of probability 0 adds terms of 0, which leave the sum unchanged.
    """
    peer_reports = [((HIGH, p_peer_h), (LOW, 1.0 - p_peer_h)) for p_peer_h in peer]
    total = 0.0
    for s_i, p_own_h in zip(SIGNALS, own):
        w_i = prior.marginal(s_i)
        for r_i, p_ri in ((HIGH, p_own_h), (LOW, 1.0 - p_own_h)):
            own_weight = w_i * p_ri
            for s_j, reports_j in zip(SIGNALS, peer_reports):
                weight = own_weight * prior.cond(s_i, s_j)
                for r_j, p_rj in reports_j:
                    total += weight * p_rj * table.of(r_j, r_i)
    return total


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

    The one summation order of every mechanism utility: ``count * reward``
    added role by role in the given order, the total divided by n - 1.
    Counts and rewards may be per-lane arrays; a count of 0 adds 0.
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
    table = _score_table(setting)
    prior = setting.prior
    if s is None:
        terms = ((count, _pair_term_ex_ante(prior, table, own.betas, peer.betas))
                 for count, peer in peers)
    else:
        terms = ((count, _pair_term_interim(prior, table, own.betas, peer.betas, s))
                 for count, peer in peers)
    return peer_average(setting.n, terms)


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
    table = _score_table(setting)
    return _pair_term_ex_ante(setting.prior, table, TRUTHFUL_STRATEGY.betas,
                              TRUTHFUL_STRATEGY.betas)


def truthful_interim(setting: Setting, s: str) -> float:
    """Everyone truthful: expected utility conditioned on own signal ``s``."""
    table = _score_table(setting)
    return _pair_term_interim(setting.prior, table, TRUTHFUL_STRATEGY.betas,
                              TRUTHFUL_STRATEGY.betas, s)


def f_side(side: str, beta_own: float, peer: Strategy, setting: Setting) -> float:
    """Expected reward of an agent with signal ``side`` reporting h w.p. ``beta_own``.

    The peer plays ``peer``; the form is affine in ``beta_own`` and in each
    peer coordinate.
    """
    if not 0.0 <= beta_own <= 1.0:
        raise InvalidStrategy(f"beta_own must lie in [0, 1], got {beta_own!r}")
    table = _score_table(setting)
    prior = setting.prior
    p_peer_h = prior.cond(side, HIGH) * peer.beta_h + prior.cond(side, LOW) * peer.beta_l
    high_part, low_part = table.against(p_peer_h)
    return beta_own * high_part + (1.0 - beta_own) * low_part


def g_side(side: str, sigma: Strategy, setting: Setting) -> float:
    """Diagonal of f: both agents play ``sigma`` and share the signal side."""
    return f_side(side, sigma.report_prob(side), sigma, setting)


def pair_self_reward(setting: Setting, sigma: Strategy) -> float:
    """Expected reward between two agents both playing ``sigma`` (ex ante).

    This is the quadratic form whose convexity bounds coalition averages;
    evaluated directly over the outcome lattice.
    """
    table = _score_table(setting)
    return _pair_term_ex_ante(setting.prior, table, sigma.betas, sigma.betas)


@dataclass(frozen=True)
class PairRewardHessian:
    """Constant Hessian of the self-play pair reward in (beta_l, beta_h)."""

    matrix: np.ndarray
    psd: bool

    def to_dict(self) -> dict:
        return {"matrix": self.matrix.tolist(), "psd": self.psd}


def pair_reward_hessian(setting: Setting, tol: float = 1e-9) -> PairRewardHessian:
    """Closed-form Hessian of ``pair_self_reward`` and its PSD verdict.

    The Hessian factors as c * H0 with c the cross-posterior score surplus
    PS(h,q_h)+PS(l,q_l)-PS(h,q_l)-PS(l,q_h) and H0 built from the prior alone.
    PSD is decided by checking every principal minor (both diagonal entries
    and the determinant) against ``-tol``.
    """
    table = _score_table(setting)
    prior = setting.prior
    c = table.s_hh + table.s_ll - table.s_hl - table.s_lh
    off = prior.p_l * prior.p_hl + prior.p_h * prior.p_lh
    base = np.array([
        [2.0 * prior.p_l * prior.p_ll, off],
        [off, 2.0 * prior.p_h * prior.p_hh],
    ])
    matrix = c * base
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
    not O(trials * n).

    Returns ``{role: {"mean", "stderr", "trials", "seed"}}`` with one role
    per deviator index plus ``"truthful"`` (when any non-deviator exists).
    Per-role count, mean and sum of squared deviations are merged block by
    block (Chan, Golub & LeVeque 1979), so memory stays bounded: a block
    holds at most 4096 trials and about 2^20 (trial, role) cells.  A role
    whose every value is equal reports that value with stderr 0.0.
    Deterministic for a fixed seed: each block draws from its own spawned
    random stream, so results do not depend on execution order, and no
    memory grows with ``trials``.
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
    table = _score_table(setting)
    wm = setting.world_model
    free = n - k
    beta_l = np.array([s.beta_l for s in profile.deviators])
    beta_h = np.array([s.beta_h for s in profile.deviators])

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
        reports_h = rng.random((size, k)) < (p_h[:, None] * beta_h
                                             + (1.0 - p_h)[:, None] * beta_l)
        truthful_h = rng.binomial(free, p_h) if free else 0
        total_h = reports_h.sum(axis=1) + truthful_h
        pay_h = ((total_h - 1) * table.s_hh + (n - total_h) * table.s_lh) / (n - 1)
        pay_l = (total_h * table.s_hl + (n - 1 - total_h) * table.s_ll) / (n - 1)

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
            return {"mean": float(lo[j]), "stderr": 0.0, "trials": trials, "seed": seed}
        stderr = math.sqrt(m2[j] / (trials - 1) / trials)
        return {"mean": float(mean[j]), "stderr": stderr, "trials": trials, "seed": seed}

    out = {f"deviator_{idx}": _stats(idx) for idx in range(k)}
    if free:
        out["truthful"] = _stats(k)
    return out

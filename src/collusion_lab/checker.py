"""Finite Bayesian games and coalition-deviation falsifiers.

A ``FiniteBayesianGame`` stores the full joint prior over type vectors and
one utility table per agent, so ex-ante, per-type (interim), and
coalition-conditioned expected utilities are exact finite sums.  On top of
that sit:

* ``find_deviation``: searches coalitions of bounded size and replacement
  strategies drawn from a per-type probability grid (plus all pure
  strategies) for a profile that makes every member weakly better off and
  someone strictly better off, either ex ante or type by type.  Strategies
  are pool indices, built only once the budget has paid for them.  A
  ``None`` result is a falsification failure at the stated resolution, NOT
  a proof of equilibrium.
* ``verify_certificate``: recomputes every delta of a certificate from
  scratch, requires them to match the stored deltas in number, shape and
  value, and re-checks the concept's conditions, independent of how the
  certificate was found.
* ``bne_check``: single-agent best-response check; interim utility is
  affine in the agent's own per-type mixture, so comparing against pure
  action replacements is sufficient, and one reduced tensor per agent
  gives every pure action's value.
* ``interim_D_deviation``: the known-types coalition deviation against
  truthful peer prediction, where members pool their signals, condition on
  the full coalition type vector, and coordinate on a single report.

Peer prediction settings bridge into this module two ways: small instances
encode exactly as ``FiniteBayesianGame`` (``peer_prediction_game``), and
``find_setting_deviation`` runs the same falsifier semantics at any n using
the mechanism's closed forms, searching symmetric coalition strategies
(the corner profiles that drive the thresholds are symmetric).

Utilities are evaluated two independent ways.  The searches
(``find_deviation``, ``bne_check``) read only per-coalition reduced tensors
(``_CoalitionEvaluator``).  A coalition's build folds each outsider's
strategy into the prior once, then gives each member one batched matmul of
the fold with its utility table (``_reduced_tensors``); candidates are
contracted in chunks of bounded size.  ``_utility``, the full-lattice
einsum behind the ``game_*_utility`` functions, is the independent oracle
that ``verify_certificate`` recomputes every delta with.

Concept names, the success test and the deltas of a coalition sharing one
strategy come from ``thresholds``, the same code its dichotomy checks use.
"""

from __future__ import annotations

import itertools
import math
import operator
import string
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidGame,
    InvalidSetting,
    ZeroLikelihood,
)
from .mechanism import (
    TRUTHFUL_STRATEGY,
    DeviationProfile,
    Setting,
    Strategy,
    _MAX_SCORE_SUM,
    _ScoreTable,
    _pair_term_ex_ante,
    _pair_term_interim,
    _score_table,
    make_setting,
    peer_average,
)
from .prior import WorldModel, coalition_posterior, world_model_for_prior
from .scoring import DEFAULT_TOL, HIGH, LOW, ScoringRule, is_finite_number
from .thresholds import (
    BAYESIAN,
    CONCEPTS,
    EX_ANTE,
    INTERIM_D,
    deviation_succeeds,
    member_delta,
    symmetric_deltas,
    truthful_baseline,
)

_PROB_TOL = 1e-12
DEFAULT_BUDGET = 10_000_000


def _number(value) -> float:
    """A finite JSON number as a float; strings and bools are not numbers."""
    if not is_finite_number(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _index(value) -> int:
    """A JSON integer; bools, floats and strings are not integers."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _number_array(value) -> np.ndarray:
    """A nested list of JSON numbers as a float array (see ``_number``)."""
    cells = np.asarray(value, dtype=object)
    if set(map(type, cells.flat)) <= {int, float}:  # the usual case, checked in bulk
        try:
            array = cells.astype(float)
        except OverflowError:  # an int beyond the float range: _number names it
            array = None
        if array is not None and np.isfinite(array).all():
            return array
    return np.array([_number(x) for x in cells.flat], dtype=float).reshape(cells.shape)


@dataclass(frozen=True)
class FiniteBayesianGame:
    """n agents, enumerated type/action sets, joint prior, utility tables.

    ``prior`` has one axis per agent (types); ``utilities[i]`` has shape
    (|S_i|, |A_1|, ..., |A_n|): agent i's payoff given own type and the
    full action vector.
    """

    n: int
    type_sets: tuple[tuple[str, ...], ...]
    action_sets: tuple[tuple[str, ...], ...]
    prior: np.ndarray
    utilities: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.type_sets) != self.n or len(self.action_sets) != self.n:
            raise InvalidGame("type/action sets must list one set per agent")
        t_shape = tuple(len(ts) for ts in self.type_sets)
        a_shape = tuple(len(a) for a in self.action_sets)
        if any(s == 0 for s in t_shape) or any(s == 0 for s in a_shape):
            raise InvalidGame("empty type or action set")
        if self.prior.shape != t_shape:
            raise InvalidGame(f"prior shape {self.prior.shape} != type shape {t_shape}")
        # written so that NaN entries fail too
        total = float(self.prior.sum())
        if not (np.all(self.prior >= -_PROB_TOL) and abs(total - 1.0) <= _PROB_TOL):
            raise InvalidGame("prior must be a probability table summing to 1")
        if len(self.utilities) != self.n:
            raise InvalidGame("need one utility table per agent")
        for i, v in enumerate(self.utilities):
            if v.shape != (t_shape[i],) + a_shape:
                raise InvalidGame(
                    f"utility table {i} has shape {v.shape}, expected {(t_shape[i],) + a_shape}")
            # NaN fails too, as min and max return it; the bound keeps every delta finite
            if not (-_MAX_SCORE_SUM <= v.min() and v.max() <= _MAX_SCORE_SUM):
                raise InvalidGame(f"utility table {i} must hold numbers within +-2^1000")
        for i in range(self.n):
            if np.any(self.type_marginal(i) <= 0.0):
                raise InvalidGame(f"every type of agent {i} must have positive prior probability")

    def type_marginal(self, i: int) -> np.ndarray:
        axes = tuple(j for j in range(self.n) if j != i)
        return self.prior.sum(axis=axes)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "types": [list(ts) for ts in self.type_sets],
            "actions": [list(a) for a in self.action_sets],
            "prior": self.prior.tolist(),
            "utilities": [v.tolist() for v in self.utilities],
        }

    @staticmethod
    def from_dict(data: dict) -> "FiniteBayesianGame":
        if not isinstance(data, dict):
            raise InvalidGame(f"game must be an object, got {type(data).__name__}")
        keys = {"n", "types", "actions", "prior", "utilities"}
        if set(data) != keys:
            raise InvalidGame(f"game needs exactly the keys {sorted(keys)}, got {sorted(data)}")
        try:
            fields = dict(
                n=_index(data["n"]),
                type_sets=tuple(tuple(ts) for ts in data["types"]),
                action_sets=tuple(tuple(a) for a in data["actions"]),
                prior=_number_array(data["prior"]),
                utilities=tuple(_number_array(v) for v in data["utilities"]),
            )
            hash((fields["type_sets"], fields["action_sets"]))  # labels go into sets
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidGame(f"malformed game field: {exc}") from exc
        return FiniteBayesianGame(**fields)


@dataclass(frozen=True)
class MixedProfile:
    """Per agent, per type: a distribution over that agent's actions."""

    strategies: tuple[np.ndarray, ...]

    def __post_init__(self):
        for i, m in enumerate(self.strategies):
            if m.ndim != 2:
                raise DimensionMismatch(f"strategy {i} must be a (types x actions) matrix")
            # written so that NaN entries fail too
            if not (np.all(m >= -_PROB_TOL) and np.all(np.abs(m.sum(axis=1) - 1.0) <= _PROB_TOL)):
                raise DimensionMismatch(f"strategy rows of agent {i} must sum to 1")

    def replace(self, assignments: dict[int, np.ndarray]) -> "MixedProfile":
        new = list(self.strategies)
        for j, m in assignments.items():
            new[j] = m
        return MixedProfile(tuple(new))

    def to_dict(self) -> dict:
        return {"strategies": [m.tolist() for m in self.strategies]}

    @staticmethod
    def from_dict(data: dict) -> "MixedProfile":
        if not isinstance(data, dict) or set(data) != {"strategies"}:
            got = sorted(data) if isinstance(data, dict) else type(data).__name__
            raise DimensionMismatch(f'profile needs exactly the key "strategies", got {got}')
        try:
            mats = tuple(_number_array(m) for m in data["strategies"])
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch(f"malformed profile strategies: {exc}") from exc
        return MixedProfile(mats)


def _check_profile(game: FiniteBayesianGame, profile: MixedProfile) -> None:
    if len(profile.strategies) != game.n:
        raise DimensionMismatch(
            f"profile has {len(profile.strategies)} strategies for an {game.n}-agent game")
    for i, m in enumerate(profile.strategies):
        expected = (len(game.type_sets[i]), len(game.action_sets[i]))
        if m.shape != expected:
            raise DimensionMismatch(f"strategy {i} has shape {m.shape}, expected {expected}")


def truthful_profile(game: FiniteBayesianGame) -> MixedProfile:
    """Identity reporting; requires each agent's action set to mirror its type set."""
    mats = []
    for i in range(game.n):
        if game.type_sets[i] != game.action_sets[i]:
            raise InvalidGame(f"agent {i} cannot report types: action set differs from type set")
        mats.append(np.eye(len(game.type_sets[i])))
    return MixedProfile(tuple(mats))


def _utility(game: FiniteBayesianGame, profile: MixedProfile, i: int,
             condition: dict[int, int] | None = None) -> float:
    """Exact expected utility of agent i, optionally conditioned on some types.

    ``condition`` maps agent index to a fixed type index; ex-ante when empty.
    When conditioning, agent i must be among the conditioned agents or not;
    both are supported (i's own expectation integrates its type if free).
    """
    _check_profile(game, profile)
    if not 0 <= i < game.n:
        raise DimensionMismatch(f"agent index {i} out of range for n={game.n}")
    condition = condition or {}
    n = game.n
    letters = string.ascii_letters
    t = letters[:n]
    a = letters[n:2 * n]

    idx = tuple(condition.get(j, slice(None)) for j in range(n))
    prior_c = game.prior[idx]
    denom = float(prior_c.sum())
    if denom <= 0.0:
        raise ZeroLikelihood("conditioning event has probability 0")

    operands: list[np.ndarray] = [prior_c]
    subs: list[str] = ["".join(t[j] for j in range(n) if j not in condition)]
    for j in range(n):
        m = profile.strategies[j]
        if j in condition:
            operands.append(m[condition[j]])
            subs.append(a[j])
        else:
            operands.append(m)
            subs.append(t[j] + a[j])
    v = game.utilities[i]
    if i in condition:
        operands.append(v[condition[i]])
        subs.append("".join(a))
    else:
        operands.append(v)
        subs.append(t[i] + "".join(a))
    expr = ",".join(subs) + "->"
    return float(np.einsum(expr, *operands, optimize=True)) / denom


def game_ex_ante_utility(game: FiniteBayesianGame, profile: MixedProfile, i: int) -> float:
    """E over types and actions of agent i's utility."""
    return _utility(game, profile, i)


def game_interim_utility(game: FiniteBayesianGame, profile: MixedProfile, i: int,
                         s_i: int) -> float:
    """Expected utility of agent i conditioned on own type index ``s_i``."""
    if not 0 <= s_i < len(game.type_sets[i]):
        raise DimensionMismatch(f"type index {s_i} out of range for agent {i}")
    return _utility(game, profile, i, {i: s_i})


def game_interim_D_utility(game: FiniteBayesianGame, profile: MixedProfile, i: int,
                           s_D: dict[int, int]) -> float:
    """Expected utility of member i conditioned on the whole coalition's types."""
    if i not in s_D:
        raise DimensionMismatch("member must be part of the conditioned coalition")
    return _utility(game, profile, i, dict(s_D))


def is_symmetric_game(game: FiniteBayesianGame, atol: float = 1e-12) -> bool:
    """Exchangeability under adjacent agent transpositions (hence all of S_n).

    Swapping agents j and j + 1 must leave the prior unchanged (their type
    axes swapped), turn agent j + 1's utility into agent j's, and leave
    every other agent's utility unchanged (their action axes swapped).  Each
    transposition is one ``np.allclose`` of those left sides against their
    right sides, so memory stays at one transposition's tables.
    """
    if game.n == 1:
        return True
    if len(set(game.type_sets)) != 1 or len(set(game.action_sets)) != 1:
        return False
    for j in range(game.n - 1):
        lefts, rights = [game.prior], [np.swapaxes(game.prior, j, j + 1)]
        for i in range(game.n):
            if i != j + 1:
                lefts.append(game.utilities[i])
                rights.append(np.swapaxes(game.utilities[j + 1 if i == j else i], 1 + j, 2 + j))
        flat = [np.concatenate([side.ravel() for side in sides]) for sides in (lefts, rights)]
        if not np.allclose(*flat, atol=atol):
            return False
    return True


def _profile_symmetric(profile: MixedProfile, atol: float = 1e-12) -> bool:
    first = profile.strategies[0]
    return all(m.shape == first.shape and np.allclose(m, first, atol=atol)
               for m in profile.strategies[1:])


def _dist_grid(n_actions: int, grid_steps: int) -> np.ndarray:
    """Pure action distributions first, then the other simplex grid points ascending, as rows.

    Stars and bars: the bar placements list the counts, summing to grid_steps - 1, ascending.
    """
    denom = grid_steps - 1
    slots = denom + n_actions - 1
    bars = np.array(list(itertools.combinations(range(slots), n_actions - 1)), dtype=np.int64)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, slots)))
    counts = np.diff(edges, axis=1) - 1
    return np.vstack([np.eye(n_actions), counts[counts.max(axis=1) < denom] / denom])


@dataclass(frozen=True)
class DeviationCertificate:
    """A coalition, replacement strategies, and verified utility deltas.

    ``strategies`` holds one (per-type action distribution) tuple per member.
    ``deltas``: floats per member (ex_ante, interim_D) or per-type tuples per
    member (bayesian).  ``conditioning_types`` is the type vector the
    interim_D concept conditions on, None otherwise.
    """

    concept: str
    coalition: tuple[int, ...]
    strategies: tuple[tuple[tuple[float, ...], ...], ...]
    deltas: tuple
    tolerance: float
    conditioning_types: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "concept": self.concept,
            "coalition": list(self.coalition),
            "strategies": [[list(row) for row in member] for member in self.strategies],
            "deltas": [list(d) if isinstance(d, tuple) else d for d in self.deltas],
            "tolerance": self.tolerance,
            "conditioning_types": (None if self.conditioning_types is None
                                   else list(self.conditioning_types)),
        }

    @staticmethod
    def from_dict(data: dict) -> "DeviationCertificate":
        if not isinstance(data, dict):
            raise DimensionMismatch(f"certificate must be an object, got {type(data).__name__}")
        required = {"concept", "coalition", "strategies", "deltas", "tolerance"}
        if not required <= set(data) <= required | {"conditioning_types"}:
            raise DimensionMismatch(
                f"certificate needs the keys {sorted(required)} and optionally "
                f"\"conditioning_types\", got {sorted(data)}")
        if not isinstance(data["concept"], str):
            raise DimensionMismatch(f"certificate concept must be a string, got {data['concept']!r}")
        try:
            cond = data.get("conditioning_types")
            return DeviationCertificate(
                concept=data["concept"],
                coalition=tuple(_index(x) for x in data["coalition"]),
                strategies=tuple(tuple(tuple(_number(x) for x in row) for row in member)
                                 for member in data["strategies"]),
                deltas=tuple(tuple(_number(x) for x in d) if isinstance(d, list) else _number(d)
                             for d in data["deltas"]),
                tolerance=_number(data["tolerance"]),
                conditioning_types=(None if cond is None
                                    else tuple(_index(x) for x in cond)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise DimensionMismatch(f"malformed certificate field: {exc}") from exc


def _check_coalition(cert: DeviationCertificate, n: int) -> None:
    """One strategy per member; members distinct agents of an n-agent game."""
    members = cert.coalition
    if not members or len(cert.strategies) != len(members):
        raise DimensionMismatch("certificate coalition and strategies must align")
    if len(set(members)) != len(members) or not all(0 <= c < n for c in members):
        raise DimensionMismatch(
            f"certificate coalition {list(members)} must list distinct agents in [0, {n})")


def _certificate_holds(cert: DeviationCertificate, recomputed: Sequence, tol: float) -> bool:
    """Stored deltas match the recomputed ones and the recomputed ones succeed.

    The match requires one delta per member, the same per-type tuple length,
    and agreement within 1e-9, so a tampered or truncated certificate fails.
    """
    if not len(cert.deltas) == len(recomputed) == len(cert.coalition):
        return False
    for stored, fresh in zip(cert.deltas, recomputed):
        if isinstance(stored, tuple) != isinstance(fresh, tuple):
            return False
        if not isinstance(stored, tuple):
            stored, fresh = (stored,), (fresh,)
        # written so that a NaN fails
        if len(stored) != len(fresh) or not all(abs(s - f) <= 1e-9 for s, f in zip(stored, fresh)):
            return False
    return deviation_succeeds(cert.concept, recomputed, tol)


# Cells (candidates x reduced-tensor entries) one chunk contraction holds at
# once.  Each of the chunk's few temporaries is this many floats (256 KB).
_CHUNK_CELLS = 2 ** 15


def _reduced_tensors(game: FiniteBayesianGame, profile: MixedProfile,
                     coalition: tuple[int, ...]) -> list[np.ndarray]:
    """Each member's T_i[t_D..., a_D...], axes interleaved per member in coalition order.

    The outsiders are folded into the prior once, each by one two-operand
    einsum over a (before, t_j, after) view that puts a_j in t_j's place.
    The result, x[t_D..., a_out...], is shared by every member: member i's
    tensor is one batched matmul of x with u_i[t_i, a_D, a_out] over a_out,
    t_i the batch axis, returned as an interleaving view.  No einsum here
    has more than two operands, so none plans or re-parses a path.
    """
    n, size = game.n, len(coalition)
    outsiders = [j for j in range(n) if j not in coalition]
    x = game.prior
    for j in outsiders:
        shape, m = x.shape, profile.strategies[j]
        x3 = x.reshape(math.prod(shape[:j]), shape[j], math.prod(shape[j + 1:]))
        x = np.einsum(x3, [0, 1, 2], m, [1, 3], [0, 3, 2])
        x = x.reshape(shape[:j] + m.shape[1:] + shape[j + 1:])
    # one copy into (t_D, a_out) order, which every member's reshape then views
    x = np.ascontiguousarray(x.transpose(list(coalition) + outsiders))
    t_shape = x.shape[:size]
    a_shape = tuple(len(game.action_sets[c]) for c in coalition)
    a_out = math.prod(x.shape[size:])
    interleave = [ax for pos in range(size) for ax in (pos, size + pos)]
    tensors = []
    for pos, i in enumerate(coalition):
        u = game.utilities[i].transpose([0] + [1 + c for c in coalition]
                                        + [1 + j for j in outsiders])
        u = u.reshape(len(u), math.prod(a_shape), a_out)
        batched = x.reshape(math.prod(t_shape[:pos]), t_shape[pos],
                            math.prod(t_shape[pos + 1:]), a_out)
        t_i = np.matmul(batched, u.swapaxes(1, 2))
        tensors.append(t_i.reshape(t_shape + a_shape).transpose(interleave))
    return tensors


class _CoalitionEvaluator:
    """Per-coalition reduced tensors: one build, then cheap chunks.

    For member i, T_i[t_D..., a_D...] (axes interleaved per member in
    coalition order) sums the prior times non-member play times utility over
    everything outside the coalition (``_reduced_tensors``).  ``ex_ante``
    and ``interim`` then contract T_i with a chunk of B candidate
    assignments at once: one (B, types, actions) stack of strategy matrices
    per member.  These tensors are the only way ``find_deviation`` and
    ``bne_check`` evaluate utilities; the full-lattice ``_utility`` stays
    the independent oracle that ``verify_certificate`` recomputes deltas
    with.
    """

    def __init__(self, game: FiniteBayesianGame, profile: MixedProfile,
                 coalition: tuple[int, ...]):
        self.game = game
        self.coalition = coalition
        self.tensors = _reduced_tensors(game, profile, coalition)
        self.marginals = [game.type_marginal(i) for i in coalition]

    @staticmethod
    def _weight(assignment: Sequence[np.ndarray]) -> np.ndarray:
        """W[b] = reduce(np.multiply.outer, (m[b] for m in assignment)), same fold order."""
        w = assignment[0]
        for m in assignment[1:]:
            w = w[..., None, None] * m.reshape((len(m),) + (1,) * (w.ndim - 1) + m.shape[1:])
        return w

    def ex_ante(self, assignment: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Each member's ex-ante utility, one (B,) array per member."""
        w = self._weight(assignment)
        return [(tensor * w).reshape(len(w), -1).sum(axis=1) for tensor in self.tensors]

    def interim(self, assignment: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Each member's per-type utility, one (B, member types) array per member."""
        w = self._weight(assignment)
        out = []
        for pos, (tensor, marginal) in enumerate(zip(self.tensors, self.marginals)):
            by_type = np.moveaxis(tensor * w, 1 + 2 * pos, 1).reshape(len(w), len(marginal), -1)
            out.append(by_type.sum(axis=2) / marginal)
        return out


def _pool_index(grid: np.ndarray, m: np.ndarray) -> Optional[int]:
    """Pool index of ``m``, each row the first grid row ``np.isclose`` to it; None off the grid."""
    close = np.isclose(grid, m[:, None], atol=1e-12).all(axis=2)  # (types, grid rows)
    if not close.any(axis=1).all():
        return None
    return reduce(lambda ix, row: ix * len(grid) + int(row), close.argmax(axis=1), 0)


def _pool_stack(grid: np.ndarray, n_types: int, indices: Sequence[int]) -> np.ndarray:
    """The (B, types, actions) strategies at ``indices`` in the pool ``range(len(grid) ** n_types)``.

    An index's base-len(grid) digits pick each type's row, last type fastest (product order).
    """
    base = len(grid)
    ix = np.array(indices, dtype=np.int64 if base ** n_types < 2 ** 63 else object)
    digits = np.empty((len(ix), n_types), dtype=np.int64)
    for t in reversed(range(n_types)):
        ix, digits[:, t] = ix // base, ix % base  # np.divmod has no object loop
    return grid[digits]


def _search_order(pools: Sequence[range], shared: bool, multiset: bool):
    """A coalition's candidate pool-index tuples; from a shared pool, the symmetric ones first.

    A generator: the iterators after those copy the pools, so they start only once reached.
    """
    if shared:
        yield from ((ix,) * len(pools) for ix in pools[0])
    rest = (itertools.combinations_with_replacement(pools[0], len(pools)) if multiset
            else itertools.product(*pools))
    yield from (c for c in rest if not shared or len(set(c)) > 1)


def _first_success(deltas: Sequence[np.ndarray], tol: float) -> Optional[int]:
    """First row of a chunk that passes ``deviation_succeeds`` (ex ante or per type).

    ``deltas`` holds one (B,) or (B, types) array per member: no entry of
    a row may fall below -tol and some entry must exceed tol.
    """
    rows = len(deltas[0])
    no_loss, gain = np.ones(rows, dtype=bool), np.zeros(rows, dtype=bool)
    for d in deltas:
        d = d.reshape(rows, -1)
        no_loss &= (d >= -tol).all(axis=1)
        gain |= (d > tol).any(axis=1)
    hits = np.flatnonzero(no_loss & gain)
    return int(hits[0]) if hits.size else None


def find_deviation(game: FiniteBayesianGame, profile: MixedProfile, k: int, concept: str,
                   grid_steps: int = 11, budget: int = DEFAULT_BUDGET,
                   tol: float = DEFAULT_TOL) -> Optional[DeviationCertificate]:
    """Search coalitions of size <= k for a successful deviation from ``profile``.

    Enumerates coalition sizes in ascending order.  For exchangeable games
    with a symmetric base profile, coalitions collapse to sizes and member
    assignments to strategy multisets; symmetric assignments (everyone plays
    the same grid strategy) are tried before asymmetric ones.  The first
    success in that order is returned.

    Each coalition's baseline and candidates are contractions of the same
    reduced tensors (``_CoalitionEvaluator``), built once per coalition by
    folding the outsiders into the prior.  Strategies are indices
    into one per-type grid (``_pool_stack``), the current play skipped by
    index.  Candidates are contracted in chunks of at most ``_CHUNK_CELLS``
    cells, so memory stays bounded at any k.

    The budget counts utility evaluations: each coalition's build charges
    one per member, each candidate one per member (ex ante) or one per
    member type (bayesian), in enumeration order.  Only charged candidates
    are built, so past the per-type grids the work is O(budget) at any
    ``grid_steps``.  BudgetExceeded is raised at the first candidate whose
    charge would pass the budget, with ``nodes_searched`` counting it.
    """
    _check_profile(game, profile)
    if not 1 <= k <= game.n:
        raise DimensionMismatch(f"k must lie in [1, n], got {k}")
    if grid_steps < 2:
        raise InvalidSetting(f"grid_steps must be >= 2, got {grid_steps}")
    if concept not in CONCEPTS:
        raise InvalidSetting(f"unknown concept {concept!r}")
    symmetric = is_symmetric_game(game) and _profile_symmetric(profile)
    grids = {m: _dist_grid(m, grid_steps) for m in set(map(len, game.action_sets))}
    grid_of = [grids[len(a)] for a in game.action_sets]
    own = [_pool_index(grid_of[j], profile.strategies[j]) for j in range(game.n)]
    nodes = 0

    for size in range(1, k + 1):
        if symmetric:
            coalitions = [tuple(range(size))]
        else:
            coalitions = list(itertools.combinations(range(game.n), size))
        for coalition in coalitions:
            ev = _CoalitionEvaluator(game, profile, coalition)
            nodes += len(coalition)  # tensor-build pass, roughly one eval per member
            types = [len(game.type_sets[c]) for c in coalition]
            if concept == EX_ANTE:
                contract, cost = ev.ex_ante, len(coalition)
            else:
                contract, cost = ev.interim, sum(types)
            base = contract(tuple(profile.strategies[c][None] for c in coalition))
            current = tuple(own[c] for c in coalition)
            pools = [range(len(grid_of[c]) ** t) for c, t in zip(coalition, types)]
            shared = len({(game.type_sets[c], game.action_sets[c]) for c in coalition}) == 1
            candidates = (combo for combo in _search_order(pools, shared, symmetric)
                          if combo != current)

            rows = max(1, _CHUNK_CELLS // ev.tensors[0].size)
            while True:
                room = (budget - nodes) // cost  # candidates chargeable within budget
                if room <= 0:
                    if next(candidates, None) is not None:
                        raise BudgetExceeded(nodes + cost)
                    break
                chunk = list(itertools.islice(candidates, min(rows, room)))
                if not chunk:
                    break
                stacks = [_pool_stack(grid_of[c], t, ixs)
                          for c, t, ixs in zip(coalition, types, zip(*chunk))]
                deltas = [x - b for x, b in zip(contract(stacks), base)]
                hit = _first_success(deltas, tol)
                if hit is not None:
                    return DeviationCertificate(
                        concept=concept, coalition=coalition,
                        strategies=tuple(tuple(map(tuple, s[hit].tolist())) for s in stacks),
                        deltas=tuple(d[hit].item() if d.ndim == 1 else tuple(d[hit].tolist())
                                     for d in deltas), tolerance=tol)
                nodes += len(chunk) * cost
    return None


def verify_certificate(game: FiniteBayesianGame, profile: MixedProfile,
                       cert: DeviationCertificate) -> bool:
    """Recompute every delta from scratch and re-check the concept's conditions.

    Also requires the recomputed deltas to match the certificate's stored
    deltas (see ``_certificate_holds``), so a tampered certificate fails.
    The conditions use the certificate's own ``tolerance``.
    """
    _check_profile(game, profile)
    _check_coalition(cert, game.n)
    k = len(cert.coalition)
    assignments = {}
    for pos, agent in enumerate(cert.coalition):
        m = np.array(cert.strategies[pos], dtype=float)
        expected = (len(game.type_sets[agent]), len(game.action_sets[agent]))
        if m.shape != expected:
            raise DimensionMismatch(
                f"certificate strategy for agent {agent} has shape {m.shape}, expected {expected}")
        assignments[agent] = m
    deviated = profile.replace(assignments)

    def delta(agent: int, condition: dict[int, int] | None = None) -> float:
        return (_utility(game, deviated, agent, condition)
                - _utility(game, profile, agent, condition))

    if cert.concept == EX_ANTE:
        recomputed: list = [delta(agent) for agent in cert.coalition]
    elif cert.concept == BAYESIAN:
        recomputed = [tuple(delta(agent, {agent: v}) for v in range(len(game.type_sets[agent])))
                      for agent in cert.coalition]
    elif cert.concept == INTERIM_D:
        if cert.conditioning_types is None or len(cert.conditioning_types) != k:
            raise DimensionMismatch("interim_D certificate needs one conditioning type per member")
        for agent, v in zip(cert.coalition, cert.conditioning_types):
            if not 0 <= v < len(game.type_sets[agent]):
                raise DimensionMismatch(f"conditioning type {v} out of range for agent {agent}")
        s_d = dict(zip(cert.coalition, cert.conditioning_types))
        recomputed = [delta(agent, s_d) for agent in cert.coalition]
    else:
        raise DimensionMismatch(f"unknown certificate concept {cert.concept!r}")
    return _certificate_holds(cert, recomputed, cert.tolerance)


def bne_check(game: FiniteBayesianGame, profile: MixedProfile,
              tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """No agent improves any type's interim utility by any pure action switch.

    Returns (holds, worst_violation): the largest interim gain available to
    any (agent, type) through a pure replacement at that type.  Interim
    utility is affine in the agent's own row, so the agent's reduced tensor
    T_i[t_i, a_i] over its type marginal is every pure action's value.
    """
    _check_profile(game, profile)
    worst = -np.inf
    for i in range(game.n):
        ev = _CoalitionEvaluator(game, profile, (i,))
        current = ev.interim((profile.strategies[i][None],))[0][0]
        pure = ev.tensors[0] / ev.marginals[0][:, None]
        worst = max(worst, float((pure - current[:, None]).max()))
    return worst <= tol, float(worst)


# ---------------------------------------------------------------------------
# Peer prediction bridges
# ---------------------------------------------------------------------------

_SIGNAL_INDEX = {LOW: 0, HIGH: 1}


def peer_prediction_game(setting: Setting) -> FiniteBayesianGame:
    """Encode a peer prediction setting as an explicit finite Bayesian game.

    Uses the setting's world model for the joint prior (the canonical
    realization of the pairwise prior when absent; utilities depend only on
    pairwise marginals, so the choice is immaterial).  Exponential in n:
    intended for small instances.
    """
    n = setting.n
    if n > 12:
        raise InvalidSetting("explicit game encoding is exponential in n; use n <= 12")
    wm = setting.world_model or world_model_for_prior(setting.prior)
    vecs = [np.array([1.0 - p, p]) for p in wm.p_h_given_state]
    prior = np.zeros((2,) * n)
    for w, vec in zip(wm.p_state, vecs):
        prior = prior + w * reduce(np.multiply.outer, [vec] * n)

    table = _score_table(setting)
    grids = np.indices((2,) * n)
    high_count = grids.sum(axis=0)
    utilities = []
    for i in range(n):
        own_h = grids[i].astype(bool)
        s_high_peer = np.where(own_h, table.s_hh, table.s_hl)
        s_low_peer = np.where(own_h, table.s_lh, table.s_ll)
        peers_high = high_count - grids[i]
        peers_low = (n - high_count) - (1 - grids[i])
        lattice = (peers_high * s_high_peer + peers_low * s_low_peer) / (n - 1)
        utilities.append(np.broadcast_to(lattice, (2,) + (2,) * n).copy())
    return FiniteBayesianGame(
        n=n,
        type_sets=((LOW, HIGH),) * n,
        action_sets=((LOW, HIGH),) * n,
        prior=prior,
        utilities=tuple(utilities),
    )


def mixed_profile_for(setting: Setting, profile: DeviationProfile) -> MixedProfile:
    """The n-agent mixed profile of a deviation profile (rest truthful)."""
    mats = []
    for s in profile.deviators:
        mats.append(np.array([[1.0 - s.beta_l, s.beta_l], [1.0 - s.beta_h, s.beta_h]]))
    for _ in range(setting.n - profile.k):
        mats.append(np.eye(2))
    return MixedProfile(tuple(mats))


def _strategy_dists(strategy: Strategy) -> tuple[tuple[float, ...], ...]:
    return ((1.0 - strategy.beta_l, strategy.beta_l),
            (1.0 - strategy.beta_h, strategy.beta_h))


def _strategy_from_dists(dists: Sequence[Sequence[float]]) -> Strategy:
    if not (len(dists) == 2 and all(len(row) == 2 and min(row) >= -_PROB_TOL
                                    and abs(sum(row) - 1.0) <= _PROB_TOL for row in dists)):
        raise DimensionMismatch(f"certificate strategy rows {dists} "
                                "must be two distributions over (l, h)")
    return Strategy(beta_l=float(dists[0][1]), beta_h=float(dists[1][1]))


#: Grid strategies (lanes) priced per chunk by ``find_setting_deviation``.
_CHUNK_LANES = 2 ** 12
#: (beta_l, beta_h) of the corner lanes: all-h, all-l, all-lie.
_CORNER_BETAS = (np.array([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))


def _grid_lanes(grid_steps: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(beta_l, beta_h) of the grid strategies ``start..stop-1`` in search order.

    The corner profiles come first, then every point (i, j) / (grid_steps - 1)
    row by row, i the l-coordinate, except the four corners (the truthful
    (0, 1) among them): grid_steps^2 - 1 strategies in all.  Lane t >= 3 is
    the (t - 3)-th non-corner cell of the row-major grid.
    """
    g = grid_steps
    r = np.arange(start - 3, stop - 3, dtype=np.int64)
    cell = r + 1 + (r >= g - 2) + (r >= (g - 2) * (g + 1))
    i, j = np.divmod(cell, g)
    beta_l, beta_h = i / (g - 1), j / (g - 1)
    corners = max(0, min(3, stop) - start)
    beta_l[:corners] = _CORNER_BETAS[0][start:start + corners]
    beta_h[:corners] = _CORNER_BETAS[1][start:start + corners]
    return beta_l, beta_h


def _half_lines(holds, k: int, shape: tuple, dtype) -> tuple[np.ndarray, ...]:
    """Per lane, the sizes in [1, k] where a condition monotone in the size holds.

    ``holds(sizes)`` tests every lane at its own size.  The condition is a
    comparison of a delta affine in the size, so it holds on a half-line:
    every lane reads it at 1 and k, and the lanes where the two differ
    bisect in lockstep for the switch, each reading the sizes a one-lane
    bisection would.  Returns (found, first, last, reads): whether it holds
    anywhere, the first and last such size, and each lane's reads (2 plus
    one per bisection step).
    """
    lo = np.ones(shape, dtype)
    hi = np.full(shape, k, dtype)
    at_1, at_k = holds(lo), holds(hi)
    reads = np.full(shape, 2, np.int64)
    hi = np.where(at_1 != at_k, hi, lo)  # only these bisect: holds(lo) == at_1 != holds(hi)
    while True:
        gap = hi - lo
        bisecting = gap > 1
        if not bisecting.any():
            break
        mid = lo + gap // 2
        reads += bisecting
        move_lo = holds(mid) == at_1
        lo = np.where(bisecting & move_lo, mid, lo)
        hi = np.where(bisecting & ~move_lo, mid, hi)
    return at_1 | at_k, np.where(at_1, 1, hi), np.where(at_k, k, lo), reads


def _smallest_winning_sizes(n: int, k: int, p_member: np.ndarray, p_truthful: np.ndarray,
                            base: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per lane, the smallest size in [1, k] at which a coalition sharing its strategy succeeds.

    ``p_member``, ``p_truthful`` (components x lanes) hold the pair reward
    against a fellow member and against a truthful peer, ``base`` the
    truthful baseline, per delta component (one ex ante, one per signal per
    type).  A member's utility at size s is ``mechanism.peer_average`` over
    s-1 fellow members and n-s truthful peers.  Success is
    ``deviation_succeeds``: every component >= -tol and some component >
    tol, each a half-line in s.

    Returns (sizes, evaluations): k + 1 where no size wins, and the
    evaluations (one per component read at one size) the sequential search
    makes.  It searches each component's >= -tol half-line, stopping at the
    first that is empty, then, if none was, each component's > tol
    half-line.  Every half-line is searched here; only those reads count.
    """
    dtype = np.int64 if n <= np.iinfo(np.int64).max else object
    # d > tol exactly when d >= the next float above tol: one comparison for both tests
    bounds = np.array([-tol, np.nextafter(tol, np.inf)])[:, None, None]

    def holds(sizes: np.ndarray) -> np.ndarray:  # sizes: (weak, strict) x components x lanes
        delta = peer_average(n, ((sizes - 1, p_member), (n - sizes, p_truthful))) - base
        return delta >= bounds

    found, first, last, reads = _half_lines(holds, k, (2,) + p_member.shape, dtype)
    alive = np.logical_and.accumulate(found[0], axis=0)  # weak half-lines 0..c all found
    live = alive[-1]
    evals = (reads[0, 0] + (reads[0, 1:] * alive[:-1]).sum(axis=0)
             + live * reads[1].sum(axis=0))
    start = np.maximum(first[0].max(axis=0), first[1])
    wins = live & found[1] & (start <= np.minimum(last[0].min(axis=0), last[1]))
    return np.where(wins, start, k + 1).min(axis=0), evals


def find_setting_deviation(setting: Setting, k: int, concept: str, grid_steps: int = 11,
                           budget: int = DEFAULT_BUDGET,
                           tol: float = DEFAULT_TOL) -> Optional[DeviationCertificate]:
    """Falsifier against truthful reporting at mechanism scale.

    Searches coalition sizes 1..k with all members sharing one grid strategy
    (agents are exchangeable and the binding deviations are symmetric corner
    profiles); utilities come from the exact closed forms, so any n is fine.
    Returns the smallest successful size, first grid strategy in grid order
    among those that succeed at it.  Same certificate/verdict semantics as
    ``find_deviation``.

    A member's delta is affine in the coalition size, so each grid strategy's
    smallest successful size is found by bisection: O(grid * log k) work.
    The grid is priced in one array pass, chunk by chunk of at most
    ``_CHUNK_LANES`` strategies generated from their indices: the mechanism
    kernel gives every lane's pair rewards in one call and the lanes bisect
    in lockstep, with the floats and reads of a one-strategy search.  A
    ``Strategy`` is built only for a chunk's winner.

    ``budget`` counts the evaluations a strategy-by-strategy search makes,
    one per delta component (one ex ante, two per type) read at one size;
    as in ``find_deviation``, a search that needs more raises
    ``BudgetExceeded`` with ``nodes_searched`` budget + 1, the count at the
    first evaluation past it.  The count is checked after every chunk, so
    the work done stays within one chunk of the budget at any
    ``grid_steps``.  A search that finishes makes at most
    grid * components * 2 * (2 + ceil(log2 k)) evaluations.
    """
    if not 1 <= k <= setting.n:
        raise InvalidSetting(f"k must lie in [1, n], got {k}")
    if grid_steps < 2:
        raise InvalidSetting(f"grid_steps must be >= 2, got {grid_steps}")
    if concept not in CONCEPTS:
        raise InvalidSetting(f"unknown concept {concept!r}")
    base = truthful_baseline(setting, concept)
    prior, table, n = setting.prior, _score_table(setting), setting.n
    truthful = TRUTHFUL_STRATEGY.betas
    if concept == EX_ANTE:
        def pair_terms(own, peer):
            return [_pair_term_ex_ante(prior, table, own, peer)]
    else:
        def pair_terms(own, peer):
            return [_pair_term_interim(prior, table, own, peer, s) for s in (LOW, HIGH)]
    bases = np.array(base, ndmin=1)[:, None]  # one row per delta component

    nodes = 0
    winner = None  # (size, strategy)
    lanes = grid_steps ** 2 - 1
    for start in range(0, lanes, _CHUNK_LANES):
        own = _grid_lanes(grid_steps, start, min(start + _CHUNK_LANES, lanes))
        sizes, evals = _smallest_winning_sizes(
            n, k, np.array(pair_terms(own, own)), np.array(pair_terms(own, truthful)),
            bases, tol)
        nodes += int(evals.sum())
        if nodes > budget:
            raise BudgetExceeded(budget + 1)
        best = int(np.argmin(sizes))
        if sizes[best] <= k and (winner is None or sizes[best] < winner[0]):
            winner = (int(sizes[best]), Strategy(float(own[0][best]), float(own[1][best])))
    if winner is None:
        return None
    size, strat = winner
    return DeviationCertificate(
        concept=concept, coalition=tuple(range(size)),
        strategies=(_strategy_dists(strat),) * size,
        deltas=symmetric_deltas(setting, strat, size, concept, base), tolerance=tol)


def _setting_certificate_deltas(setting: Setting, cert: DeviationCertificate) -> list:
    """Each member's delta, recomputed from the closed forms.

    The strategy rows are grouped before any ``Strategy`` is built, and
    rows that give the same strategy share a group, in first-appearance
    order as ``mechanism._peer_roles`` groups a profile.  A member's delta
    depends only on its own strategy and the group counts, so it is
    computed once per distinct strategy: a symmetric certificate costs the
    utilities of one member whatever its size.
    """
    k = len(cert.coalition)
    row_counts = Counter(cert.strategies)
    strategy_of = {row: _strategy_from_dists(row) for row in row_counts}
    if cert.concept in CONCEPTS:
        counts: Counter = Counter()
        for row, count in row_counts.items():
            counts[strategy_of[row]] += count
        base = truthful_baseline(setting, cert.concept)
        delta_of = {}
        for own in counts:
            peers = [(c - 1 if s is own else c, s) for s, c in counts.items()]
            peers.append((setting.n - k, TRUTHFUL_STRATEGY))
            delta_of[own] = member_delta(setting, own, peers, cert.concept, base)
        by_row = {row: delta_of[strat] for row, strat in strategy_of.items()}
        return [by_row[row] for row in cert.strategies]
    if cert.concept == INTERIM_D:
        if (setting.world_model is None or cert.conditioning_types is None
                or len(cert.conditioning_types) != k):
            raise DimensionMismatch(
                "interim_D verification needs a world model and one type per member")
        signals = {ix: s for s, ix in _SIGNAL_INDEX.items()}
        if any(ix not in signals for ix in cert.conditioning_types):
            raise DimensionMismatch(
                f"conditioning types {list(cert.conditioning_types)} must be 0 (l) or 1 (h)")
        s_d = tuple(signals[ix] for ix in cert.conditioning_types)
        table = _score_table(setting)
        outsider = _outsider_rewards(setting, table, s_d)
        base = _interim_d_utilities(table, setting.n, outsider,
                                    [TRUTHFUL_REPORTS[s] for s in s_d])
        dev = _interim_d_utilities(table, setting.n, outsider,
                                   [strategy_of[row].report_prob(s)
                                    for row, s in zip(cert.strategies, s_d)])
        return [d - b for d, b in zip(dev, base)]
    raise DimensionMismatch(f"unknown certificate concept {cert.concept!r}")


def verify_setting_certificate(setting: Setting, cert: DeviationCertificate) -> bool:
    """Re-verify a mechanism-scale certificate from the closed forms.

    Deltas are recomputed once per distinct strategy
    (``_setting_certificate_deltas``), then compared member by member with
    the stored ones, under the certificate's own ``tolerance``.
    """
    _check_coalition(cert, setting.n)
    return _certificate_holds(cert, _setting_certificate_deltas(setting, cert), cert.tolerance)


TRUTHFUL_REPORTS = {LOW: 0.0, HIGH: 1.0}


def _outsider_rewards(setting: Setting, table: _ScoreTable,
                      s_d: tuple[str, ...]) -> tuple[float, float]:
    """Expected reward of reporting h and of reporting l against one truthful
    outsider, given the coalition's signals ``s_d``.

    Outsider signals enter only through the predictive Pr(h | s_D), because
    the utility is linear in each peer's report.
    """
    d = len(s_d)
    if not 1 <= d < setting.n:
        raise InvalidSetting("coalition must leave at least one outsider")
    d1 = sum(1 for s in s_d if s == HIGH)
    return table.against(coalition_posterior(setting.world_model, d1, d - d1).p_h)


def _interim_d_utilities(table: _ScoreTable, n: int, outsider: tuple[float, float],
                         report_h_probs: Sequence[float]) -> list[float]:
    """Each member's expected utility given the full coalition type vector.

    Members report h with the given probabilities (independently); outsiders
    report truthfully, and ``outsider`` is ``_outsider_rewards``.  A member's
    inside sum is the coalition total minus its own term, so this is O(d).
    """
    inside = [table.against(p) for p in report_h_probs]
    total_high = math.fsum(high for high, _ in inside)
    total_low = math.fsum(low for _, low in inside)
    outside = n - len(report_h_probs)
    out = []
    for p, (own_high, own_low) in zip(report_h_probs, inside):
        u_high = (total_high - own_high + outside * outsider[0]) / (n - 1)
        u_low = (total_low - own_low + outside * outsider[1]) / (n - 1)
        out.append(p * u_high + (1.0 - p) * u_low)
    return out


def interim_D_deviation(wm: WorldModel, rule: ScoringRule, n: int,
                        s_d: tuple[str, ...],
                        tol: float = DEFAULT_TOL) -> Optional[DeviationCertificate]:
    """Known-types coalition deviation against truthful peer prediction.

    The coalition pools its signals, conditions on the full type vector, and
    coordinates on the single report with the larger expected outsider
    reward (ties broken toward h when PS(h, q_h) >= PS(l, q_l)).  Returns a
    certificate only when every member's conditional utility strictly rises;
    singleton coalitions reduce to the Bayesian Nash property and yield None.
    """
    d = len(s_d)
    if not 1 <= d < n:
        raise InvalidSetting("need 1 <= |s_D| < n")
    for s in s_d:
        if s not in (LOW, HIGH):
            raise InvalidSetting(f"unknown signal {s!r}")
    setting = make_setting(n, rule, world_model=wm)
    table = _score_table(setting)
    outsider = _outsider_rewards(setting, table, s_d)
    u_report_h, u_report_l = outsider
    if u_report_h > u_report_l + tol:
        target = HIGH
    elif u_report_l > u_report_h + tol:
        target = LOW
    else:
        target = HIGH if table.s_hh >= table.s_ll else LOW

    truthful = [TRUTHFUL_REPORTS[s] for s in s_d]
    coordinated = [TRUTHFUL_REPORTS[target]] * d
    base = _interim_d_utilities(table, n, outsider, truthful)
    dev = _interim_d_utilities(table, n, outsider, coordinated)
    deltas = tuple(x - b for x, b in zip(dev, base))
    if not deviation_succeeds(INTERIM_D, deltas, tol):
        return None
    strategy = Strategy(1.0, 1.0) if target == HIGH else Strategy(0.0, 0.0)
    return DeviationCertificate(
        concept=INTERIM_D,
        coalition=tuple(range(d)),
        strategies=(_strategy_dists(strategy),) * d,
        deltas=deltas,
        tolerance=tol,
        conditioning_types=tuple(_SIGNAL_INDEX[s] for s in s_d),
    )

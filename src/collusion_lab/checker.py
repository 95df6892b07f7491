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
import json
import math
import operator
import re
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
    ALL_H,
    ALL_L,
    CANONICAL_DEVIATIONS,
    TRUTHFUL_STRATEGY,
    DeviationProfile,
    Setting,
    Strategy,
    _MAX_SCORE_SUM,
    make_setting,
)
from .prior import WorldModel, coalition_posterior, world_model_for_prior
from .scoring import DEFAULT_TOL, HIGH, SIGNALS, ScoreTable, ScoringRule, is_finite_number
from .thresholds import (
    BAYESIAN,
    CONCEPTS,
    EX_ANTE,
    INTERIM_D,
    coalition_deltas,
    deviation_succeeds,
    succeeding_rows,
    winning_sizes,
)

_PROB_TOL = 1e-12
DEFAULT_BUDGET = 10_000_000


#: Characters of an offending value's repr that an error message keeps.
_SHOWN_CHARS = 200


def _shown(value) -> str:
    """``repr(value)``, cut to ``_SHOWN_CHARS`` characters: the value may be a whole table."""
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def _number(value) -> float:
    """A finite JSON number as a float; strings and bools are not numbers."""
    if not is_finite_number(value):
        raise TypeError(f"expected a finite number, got {_shown(value)}")
    return float(value)


def _index(value) -> int:
    """A JSON integer; bools, floats and strings are not integers."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {_shown(value)}")
    return operator.index(value)


def _number_array(value) -> np.ndarray:
    """A nested list of JSON numbers as a float array (see ``_number``).

    A finite float array, as ``game_from_text`` decodes, is taken as it is.
    """
    if isinstance(value, np.ndarray) and value.dtype == float and np.isfinite(value).all():
        return value
    cells = np.asarray(value, dtype=object)
    flat = cells.ravel()  # not ``cells.flat``: numpy's iterators stop at 32 axes, arrays at 64
    if set(map(type, flat)) <= {int, float}:  # the usual case, checked in bulk
        try:
            array = flat.astype(float)
        except OverflowError:  # an int beyond the float range: _number names it
            array = None
        if array is not None and np.isfinite(array).all():
            return array.reshape(cells.shape)
    return np.array([_number(x) for x in flat], dtype=float).reshape(cells.shape)


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


#: A JSON string literal, matched from its opening quote.
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
#: A key's colon and the opening bracket of its array value.
_ARRAY_VALUE = re.compile(r"[ \t\n\r]*:[ \t\n\r]*\[")
#: ``str.translate`` tables: one drops the number characters and JSON
#: whitespace, leaving a literal's skeleton; one blanks its brackets.
_NUMBER_CHARS = dict.fromkeys(map(ord, "0123456789+-.eE \t\n\r"))
_BLANK_BRACKETS = str.maketrans("[]", "  ")
#: The number token that stands in for a table in the rest of the text, and
#: what parsing that token gives.
_TABLE_TOKEN = "1E-999999"
_TABLE = object()


def _skeleton(shape: Sequence[int]) -> str:
    """The brackets and commas of a nested list of ``shape``: ``[[,],[,]]`` for (2, 2)."""
    skeleton = ""
    for size in reversed(shape):
        skeleton = "[" + ",".join([skeleton] * size) + "]"
    return skeleton


def _flat_numbers(literal: str, skeleton: str) -> Optional[np.ndarray]:
    """The numbers of an array literal with this skeleton, in order, or None.

    Blanking the brackets leaves one comma-separated list, which one
    ``json.loads`` reads with the scanner and grammar of a nested parse.
    """
    if literal.translate(_NUMBER_CHARS) != skeleton:
        return None
    try:
        numbers = np.array(json.loads("[" + literal.translate(_BLANK_BRACKETS) + "]"), float)
    except (ValueError, OverflowError):  # not JSON numbers, or an int beyond the float range
        return None
    return numbers if np.isfinite(numbers).all() else None


def game_from_text(text: str) -> Optional[FiniteBayesianGame]:
    """The game a JSON text holds, its ``prior`` and ``utilities`` read as flat number lists.

    The two tables are the bulk of a game file.  Each top-level table must
    be an array literal with the skeleton that the ``types``/``actions``
    shape implies; its numbers then take one flat ``json.loads``, the same
    floats a nested parse gives.  The rest of the text, each table replaced
    by a placeholder, is parsed as JSON, and ``from_dict`` checks the game as
    it checks any other.  None when the text is not in that form (a parse or
    skeleton mismatch, a non-finite number, a repeated or nested table key):
    the caller then parses it as general JSON, whose acceptance and messages
    this reader never changes.
    """
    spans, pos = {}, 0
    while (start := text.find('"', pos)) >= 0:
        quoted = _JSON_STRING.match(text, start)
        if quoted is None:
            return None
        pos = quoted.end()
        key = quoted.group()[1:-1]
        if key in ("prior", "utilities") and (value := _ARRAY_VALUE.match(text, pos)):
            if key in spans:
                return None
            opening = value.end() - 1
            bound = text.find('"', opening)
            # a literal that holds no string ends at the last bracket before the next one
            spans[key] = (opening, text.rfind("]", opening, bound if bound >= 0 else len(text)) + 1)
    if len(spans) != 2 or any(stop <= start for start, stop in spans.values()):
        return None
    (a0, a1), (b0, b1) = sorted(spans.values())
    rest = text[:a0] + _TABLE_TOKEN + text[a1:b0] + _TABLE_TOKEN + text[b1:]
    if rest.count(_TABLE_TOKEN) != 2:
        return None
    try:
        data = json.loads(rest, parse_float=lambda s: _TABLE if s == _TABLE_TOKEN else float(s))
        if data["prior"] is not _TABLE or data["utilities"] is not _TABLE:
            return None
        t_shape = [len(tuple(ts)) for ts in data["types"]]
        a_shape = [len(tuple(a)) for a in data["actions"]]
    except (ValueError, RecursionError, TypeError, KeyError):
        return None
    if not all(t_shape + a_shape):
        return None
    shapes = [tuple(t_shape)] + [(t, *a_shape) for t in t_shape]
    sizes = [math.prod(shape) for shape in shapes]
    (p0, p1), (u0, u1) = spans["prior"], spans["utilities"]
    if 2 * sizes[0] > p1 - p0 or 2 * sum(sizes[1:]) > u1 - u0:  # too short for the shape
        return None
    prior = _flat_numbers(text[p0:p1], _skeleton(shapes[0]))
    tables = _flat_numbers(text[u0:u1], "[" + ",".join(map(_skeleton, shapes[1:])) + "]")
    if prior is None or tables is None:
        return None
    parts = np.split(tables, list(itertools.accumulate(sizes[1:-1])))
    utilities = [part.reshape(shape) for part, shape in zip(parts, shapes[1:])]
    return FiniteBayesianGame.from_dict(
        {**data, "prior": prior.reshape(shapes[0]), "utilities": utilities})


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


#: Most rows a per-type grid may have: ``find_deviation`` builds it whole before
#: charging the budget, so this bounds that build.
_MAX_GRID_ROWS = 2 ** 20


def _dist_grid(n_actions: int, grid_steps: int) -> np.ndarray:
    """Pure action distributions first, then the other simplex grid points ascending, as rows.

    Stars and bars: the bar placements list the counts, summing to grid_steps - 1, ascending.
    A grid of more than ``_MAX_GRID_ROWS`` rows raises InvalidSetting before any is built.
    """
    denom = grid_steps - 1
    slots = denom + n_actions - 1
    rows = math.comb(slots, n_actions - 1)
    if rows > _MAX_GRID_ROWS:
        raise InvalidSetting(f"grid_steps {grid_steps} over {n_actions} actions gives {rows} "
                             f"grid points per type, more than {_MAX_GRID_ROWS}")
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


def _deltas_match(cert: DeviationCertificate, recomputed: Sequence) -> bool:
    """The stored deltas are the recomputed ones.

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
    return True


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
                wins = succeeding_rows(deltas, tol)
                if wins.any():
                    hit = wins.argmax()  # the first success
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
    deltas (see ``_deltas_match``), so a tampered certificate fails.  The
    conditions are ``deviation_succeeds`` under the certificate's own
    ``tolerance``.
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
    return (_deltas_match(cert, recomputed)
            and deviation_succeeds(cert.concept, recomputed, cert.tolerance))


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

    table = setting.scores
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
        type_sets=(SIGNALS,) * n,
        action_sets=(SIGNALS,) * n,
        prior=prior,
        utilities=tuple(utilities),
    )


def mixed_profile_for(setting: Setting, profile: DeviationProfile) -> MixedProfile:
    """The n-agent mixed profile of a deviation profile (rest truthful)."""
    mats = [np.array(s.rows) for s in profile.deviators]
    mats += [np.eye(2) for _ in range(setting.n - profile.k)]
    return MixedProfile(tuple(mats))


def _strategy_from_dists(dists: Sequence[Sequence[float]]) -> Strategy:
    """The strategy of two (l, h) rows; h-probabilities clamped into [0, 1], which
    a row may miss by the 1e-12 the row check allows."""
    if not (len(dists) == 2 and all(len(row) == 2 and min(row) >= -_PROB_TOL
                                    and abs(sum(row) - 1.0) <= _PROB_TOL for row in dists)):
        raise DimensionMismatch(f"certificate strategy rows {dists} "
                                "must be two distributions over (l, h)")
    beta_l, beta_h = (min(max(float(row[1]), 0.0), 1.0) for row in dists)
    return Strategy(beta_l, beta_h)


#: Grid strategies (lanes) priced per chunk by ``find_setting_deviation``.
_CHUNK_LANES = 2 ** 12
#: Grid strategies ``find_setting_deviation`` prices at most: grid_steps <= 3162.
_MAX_LANES = 10 ** 7
#: (beta_l, beta_h) rows of the corner lanes, in ``CANONICAL_DEVIATIONS`` order.
_CORNER_BETAS = np.array([s.betas for s in CANONICAL_DEVIATIONS.values()]).T


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


def find_setting_deviation(setting: Setting, k: int, concept: str, grid_steps: int = 11,
                           tol: float = DEFAULT_TOL) -> Optional[DeviationCertificate]:
    """Falsifier against truthful reporting at mechanism scale.

    Searches coalition sizes 1..k with all members sharing one grid strategy
    (agents are exchangeable and the binding deviations are symmetric corner
    profiles), at any n.  Returns the smallest successful size, first grid
    strategy in grid order among those that succeed at it.  Each strategy's
    smallest winning size is ``thresholds.winning_sizes``, in closed form,
    over chunks of at most ``_CHUNK_LANES`` strategies generated from their
    indices, so memory stays bounded at any ``grid_steps``.

    Every search prices all grid_steps^2 - 1 grid strategies, so the grid
    alone bounds the work: more than ``_MAX_LANES`` of them raise
    InvalidSetting before any is priced.
    """
    if not 1 <= k <= setting.n:
        raise InvalidSetting(f"k must lie in [1, n], got {k}")
    if grid_steps < 2:
        raise InvalidSetting(f"grid_steps must be >= 2, got {grid_steps}")
    if concept not in CONCEPTS:
        raise InvalidSetting(f"unknown concept {concept!r}")
    lanes = grid_steps ** 2 - 1
    if lanes > _MAX_LANES:
        raise InvalidSetting(f"grid_steps {grid_steps} gives {lanes} grid strategies, "
                             f"more than {_MAX_LANES}")
    winner = None  # (size, strategy)
    for start in range(0, lanes, _CHUNK_LANES):
        own = _grid_lanes(grid_steps, start, min(start + _CHUNK_LANES, lanes))
        sizes = winning_sizes(setting, concept, own, 1, k, tol)
        best = int(np.argmin(sizes))
        if sizes[best] <= k and (winner is None or sizes[best] < winner[0]):
            winner = (int(sizes[best]), Strategy(float(own[0][best]), float(own[1][best])))
    if winner is None:
        return None
    size, strat = winner
    [delta] = coalition_deltas(setting, concept, {strat: size}).values()
    return DeviationCertificate(concept=concept, coalition=tuple(range(size)),
                                strategies=(strat.rows,) * size, deltas=(delta,) * size,
                                tolerance=tol)


def _setting_certificate_deltas(setting: Setting, cert: DeviationCertificate) -> list:
    """Each member's delta, recomputed from the closed forms.

    The strategy rows are grouped before any ``Strategy`` is built, and
    rows that give the same strategy share a group, in first-appearance
    order as ``mechanism._peer_roles`` groups a profile; the groups' deltas
    are ``thresholds.coalition_deltas``, one per distinct strategy.
    """
    k = len(cert.coalition)
    row_counts = Counter(cert.strategies)
    strategy_of = {row: _strategy_from_dists(row) for row in row_counts}
    if cert.concept in CONCEPTS:
        counts: Counter = Counter()
        for row, count in row_counts.items():
            counts[strategy_of[row]] += count
        delta_of = coalition_deltas(setting, cert.concept, counts)
        by_row = {row: delta_of[strat] for row, strat in strategy_of.items()}
        return [by_row[row] for row in cert.strategies]
    if cert.concept == INTERIM_D:
        if (setting.world_model is None or cert.conditioning_types is None
                or len(cert.conditioning_types) != k):
            raise DimensionMismatch(
                "interim_D verification needs a world model and one type per member")
        if any(ix not in (0, 1) for ix in cert.conditioning_types):
            raise DimensionMismatch(
                f"conditioning types {list(cert.conditioning_types)} must be 0 (l) or 1 (h)")
        s_d = tuple(SIGNALS[ix] for ix in cert.conditioning_types)
        return _interim_d_deltas(setting, _outsider_rewards(setting, s_d), s_d,
                                 [strategy_of[row] for row in cert.strategies])
    raise DimensionMismatch(f"unknown certificate concept {cert.concept!r}")


def verify_setting_certificate(setting: Setting, cert: DeviationCertificate) -> bool:
    """Re-verify a mechanism-scale certificate from the closed forms.

    Deltas are recomputed once per distinct strategy
    (``_setting_certificate_deltas``) and must match the stored ones member
    by member.  Success, under the certificate's own ``tolerance``, is
    ``thresholds.winning_sizes`` at the certificate's size when every member
    has the same row (ex ante or per type), the search's own rule, and
    ``deviation_succeeds`` on the recomputed deltas otherwise.
    """
    _check_coalition(cert, setting.n)
    recomputed = _setting_certificate_deltas(setting, cert)
    if not _deltas_match(cert, recomputed):
        return False
    rows, k = set(cert.strategies), len(cert.coalition)
    if cert.concept in CONCEPTS and len(rows) == 1:
        own = np.array(_strategy_from_dists(*rows).betas)[:, None]
        return bool(winning_sizes(setting, cert.concept, own, k, k, cert.tolerance)[0] == k)
    return deviation_succeeds(cert.concept, recomputed, cert.tolerance)


def _outsider_rewards(setting: Setting, s_d: tuple[str, ...]) -> tuple[float, float]:
    """Expected reward of reporting h and of reporting l against one truthful
    outsider, given the coalition's signals ``s_d``.

    Outsider signals enter only through the predictive Pr(h | s_D), because
    the utility is linear in each peer's report.
    """
    d = len(s_d)
    if not 1 <= d < setting.n:
        raise InvalidSetting("coalition must leave at least one outsider")
    d1 = sum(1 for s in s_d if s == HIGH)
    return setting.scores.against(coalition_posterior(setting.world_model, d1, d - d1).p_h)


def _interim_d_utilities(table: ScoreTable, n: int, outsider: tuple[float, float],
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


def _interim_d_deltas(setting: Setting, outsider: tuple[float, float], s_d: tuple[str, ...],
                      strategies: Sequence[Strategy]) -> list[float]:
    """Each member's known-type utility change when members play ``strategies``
    instead of reporting truthfully; ``outsider`` is ``_outsider_rewards``."""
    def utilities(members):
        return _interim_d_utilities(setting.scores, setting.n, outsider,
                                    [m.report_prob(s) for m, s in zip(members, s_d)])
    base = utilities([TRUTHFUL_STRATEGY] * len(s_d))
    return [d - b for d, b in zip(utilities(strategies), base)]


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
        if s not in SIGNALS:
            raise InvalidSetting(f"unknown signal {s!r}")
    setting = make_setting(n, rule, world_model=wm)
    outsider = _outsider_rewards(setting, s_d)
    u_report_h, u_report_l = outsider
    if u_report_h > u_report_l + tol:
        strategy = ALL_H
    elif u_report_l > u_report_h + tol:
        strategy = ALL_L
    else:
        strategy = ALL_H if setting.scores.s_hh >= setting.scores.s_ll else ALL_L
    deltas = tuple(_interim_d_deltas(setting, outsider, s_d, [strategy] * d))
    if not deviation_succeeds(INTERIM_D, deltas, tol):
        return None
    return DeviationCertificate(
        concept=INTERIM_D,
        coalition=tuple(range(d)),
        strategies=(strategy.rows,) * d,
        deltas=deltas,
        tolerance=tol,
        conditioning_types=tuple(SIGNALS.index(s) for s in s_d),
    )

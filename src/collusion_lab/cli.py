"""Batch front-end.

Subcommands:

    thresholds       closed-form coalition thresholds for a setting
    verify-examples  recompute the reference worked example end to end
    falsify          grid search for a successful coalition deviation
    simulate         seeded Monte Carlo cross-check of the closed forms
    scan             threshold sweep over n or a prior parameter, CSV out
    game-check       best-response / deviation checks on a game JSON

Configuration comes from a JSON file (--config).  A command accepts exactly
the config keys it reads (``_COMMANDS``), and each scalar one (``_FLAGS``)
is also a flag that overrides the file: ``--grid-steps`` for ``grid_steps``.
Exit codes: 0 success, 1 falsifier found nothing at the given
resolution (and, for ``game-check``, budget), 2 configuration error,
3 ``game-check``'s search budget exhausted.  ``falsify`` and
``game-check`` validate their search options (k, concept, grid_steps) the
same way; only ``game-check`` also reads a budget, as ``falsify``'s grid
alone bounds its work.  All output is deterministic for a fixed config and
seed; randomness flows from the single seed through fixed-size trial
blocks (one spawned stream each).

``scan`` emits its rows in sweep order, one chunk of ``_CHUNK_ROWS`` points
at a time.  A range's chunk is one column of points (``_sweep_values``);
the n and prior checks are masks over it, and only the points a mask
rejects take the scalar path, for their error cells; the priced points'
thresholds are one array step (``thresholds.threshold_columns``), and one
``%`` format writes their rows (``_scan_text``).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from . import checker, mechanism, prior, scoring, thresholds
from .errors import (
    BudgetExceeded,
    CollusionLabError,
    ConfigError,
    InvalidSetting,
    InvalidStrategy,
    NoFiniteN,
)

EXIT_OK = 0
EXIT_NONE_FOUND = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

SCAN_HEADER = "n,k_E_h,k_E_l,k_E,k_B_h,k_B_l,k_B,n_zero,error"

def _dump(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


@dataclass
class RunConfig:
    raw: dict
    tolerance: float = scoring.DEFAULT_TOL
    fmt: str = "json"

    @property
    def setting(self) -> mechanism.Setting:
        n = _checked_n(self.raw)
        rule = scoring.rule_from_config(self.raw.get("rule", {"rule": "brier"}))
        pr, wm = prior.from_config(self.raw)
        return mechanism.make_setting(n, rule, prior=pr, world_model=wm)


#: Largest accepted ``n``: ``n_zero`` is exact up to here, and the simulator's
#: int64 counts hold it.
_MAX_N = 2 ** 62


def _is_int(value: Any) -> bool:
    """An integer config value; JSON true/false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _checked_n(raw: dict) -> int:
    """The config's population size ``n``: an integer in [2, 2^62]."""
    if "n" not in raw:
        raise ConfigError('missing required key "n"')
    return _valid_n(raw["n"])


def _valid_n(n) -> int:
    """``n`` itself, an integer in [2, 2^62]: ``_checked_n`` of a value."""
    if not _is_int(n) or n < 2:
        raise ConfigError(f'"n" must be an integer >= 2, got {n!r}')
    if n > _MAX_N:
        raise ConfigError(f'"n" must be at most 2^62, got a {n.bit_length()}-bit integer')
    return n


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text at ``path``, or a one-line ``ConfigError`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8
        raise ConfigError(f"invalid JSON in {what} {path}: {exc}") from exc


def _parse_json(text: str, path: str, what: str) -> Any:
    """The JSON document ``text`` read from ``path``, or a one-line ``ConfigError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {what} {path} at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer too long for int() to convert
        raise ConfigError(f"invalid JSON in {what} {path}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"invalid JSON in {what} {path}: nested too deeply") from exc


def load_config(path: str | None, command: str, overrides: dict) -> RunConfig:
    raw: dict = {}
    if path is not None:
        raw = _parse_json(_read_text(path, "config"), path, "config")
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    allowed = _COMMANDS[command][1]
    unknown = set(raw).difference(allowed)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {sorted(unknown)} (allowed: {sorted(allowed)})")
    cfg = RunConfig(raw=raw)
    if "tolerance" in raw:
        tol = raw["tolerance"]
        if not scoring.is_finite_number(tol) or tol <= 0:
            raise ConfigError(f'"tolerance" must be a finite positive number, got {tol!r}')
        cfg.tolerance = float(tol)
    if "format" in raw:
        if raw["format"] not in _FLAGS["format"]:
            raise ConfigError(f'unknown format {raw["format"]!r}')
        cfg.fmt = raw["format"]
    return cfg


def _search_options(cfg: RunConfig, n: int) -> tuple[int, str, int]:
    """The checked (k, concept, grid_steps) of a coalition search among n agents."""
    k = cfg.raw["k"]
    if not _is_int(k) or not 1 <= k <= n:
        raise ConfigError(f'"k" must be an integer in [1, n], got {k!r}')
    concept = cfg.raw.get("concept", thresholds.EX_ANTE)
    if concept not in thresholds.CONCEPTS:
        raise ConfigError(f'unknown concept {concept!r}')
    grid_steps = cfg.raw.get("grid_steps", 11)
    if not _is_int(grid_steps) or grid_steps < 2:
        raise ConfigError('"grid_steps" must be an integer >= 2')
    return k, concept, grid_steps


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def cmd_thresholds(cfg: RunConfig) -> int:
    setting = cfg.setting
    table = thresholds.ThresholdTable(setting.prior, setting.rule, cfg.tolerance)
    ex = table.report(thresholds.EX_ANTE, setting.n)
    ba = table.report(thresholds.BAYESIAN, setting.n)
    try:
        nz = table.n_zero()
    except NoFiniteN:
        nz = None  # thresholds remain defined; the interim floor does not
    if cfg.fmt == "text":
        lines = [
            f"{'concept':<10} {'k_h':>6} {'k_l':>6} {'k':>6} {'n':>6}",
            f"{'ex_ante':<10} {ex.k_h:>6} {ex.k_l:>6} {ex.k:>6} {ex.n:>6}",
            f"{'bayesian':<10} {ba.k_h:>6} {ba.k_l:>6} {ba.k:>6} {ba.n:>6}",
            f"n_zero = {nz}",
        ]
        _emit("\n".join(lines))
    else:
        _emit(_dump({"ex_ante": ex.to_dict(), "bayesian": ba.to_dict(), "n_zero": nz}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-examples
# ---------------------------------------------------------------------------

def _reference_setting(rule: scoring.ScoringRule) -> mechanism.Setting:
    return mechanism.make_setting(100, rule, prior=prior.make_prior(2.0 / 3.0, 0.8))


def reference_example_report(tolerance: float = scoring.DEFAULT_TOL) -> list[dict]:
    """Recompute every number of the reference worked example.

    Returns one record per quantity: name, computed, reference value, abs
    difference, tolerance, and status OK / WARN / FAIL.  The ex-ante utility
    of the 40-member always-h coalition is a known erratum in the reference
    (its printed 0.682 matches a 40/59 peer split instead of the stated
    39/60); it is reported as WARN with both values.
    """
    brier = scoring.BrierRule()
    setting = _reference_setting(brier)
    log_setting = _reference_setting(scoring.LogRule())
    q_h = setting.prior.posterior(scoring.HIGH)
    profile40 = mechanism.DeviationProfile((mechanism.ALL_H,) * 40)

    records: list[dict] = []

    def add(name: str, computed: float, reference: float, tol: float,
            warn_only: bool = False, note: str | None = None) -> None:
        diff = abs(computed - reference)
        status = "OK" if diff <= tol else ("WARN" if warn_only else "FAIL")
        rec = {"name": name, "computed": computed, "reference": reference,
               "abs_diff": diff, "tolerance": tol, "status": status}
        if note:
            rec["note"] = note
        records.append(rec)

    add("brier_score_h_given_h", brier.score(scoring.HIGH, q_h), 0.92, 1e-12)
    add("brier_score_l_given_h", brier.score(scoring.LOW, q_h), -0.28, 1e-12)

    u_star = mechanism.truthful_ex_ante(setting)
    add("truthful_ex_ante_closed_form", u_star, 1.88 / 3.0, 1e-12)
    add("truthful_ex_ante_vs_print", u_star, 0.627, 5e-4)
    add("truthful_interim_low", mechanism.truthful_interim(setting, scoring.LOW), 0.52, 1e-12)

    u_dev_low = mechanism.interim_utility(setting, profile40, 0, scoring.LOW)
    add("deviator40_interim_low_closed_form", u_dev_low, 47.88 / 99.0, 1e-12)
    add("deviator40_interim_low_vs_print", u_dev_low, 0.484, 5e-4)

    u_dev = mechanism.ex_ante_utility(setting, profile40, 0)
    alt = (2.0 / 3.0) * ((40 * 0.92 + 59 * 0.68) / 99.0) \
        + (1.0 / 3.0) * ((40 * 0.92 + 59 * 0.2) / 99.0)
    add("deviator40_ex_ante_vs_print", u_dev, 0.682, 5e-4, warn_only=True,
        note=f"printed 0.682 matches a 40/59 peer split ({alt:.5f}); "
             f"the stated 39/60 split gives {u_dev:.5f}")
    add("deviator40_ex_ante_closed_form", u_dev, 201.24 / 297.0, 1e-12)

    ex = thresholds.k_ex_ante(setting, tol=tolerance)
    ba = thresholds.k_bayesian(setting, tol=tolerance)
    add("k_ex_ante_h", ex.k_h, 27, 0)
    add("k_ex_ante_l", ex.k_l, 80, 0)
    add("k_ex_ante", ex.k, 27, 0)
    add("k_bayesian_h", ba.k_h, 44, 0)
    add("k_bayesian_l", ba.k_l, 99, 0)
    add("k_bayesian", ba.k, 44, 0)

    first_success = thresholds.dichotomy_check(setting, 45, "all_h", "bayesian", tol=tolerance)
    still_failing = thresholds.dichotomy_check(setting, 44, "all_h", "bayesian", tol=tolerance)
    add("bayesian_all_h_succeeds_at_45", float(first_success.succeeded), 1.0, 0)
    add("bayesian_all_h_fails_at_44", float(still_failing.succeeded), 0.0, 0)

    log_ex = thresholds.k_ex_ante(log_setting, tol=tolerance)
    add("k_ex_ante_log_base_e", log_ex.k, 28, 0)

    profile45 = mechanism.DeviationProfile((mechanism.ALL_H,) * 45)
    boundary_low = mechanism.interim_utility(setting, profile45, 0, scoring.LOW)
    boundary_high = mechanism.interim_utility(setting, profile45, 0, scoring.HIGH)
    add("boundary45_interim_low_equals_truthful", boundary_low, 0.52, 1e-12)
    add("boundary45_interim_high_closed_form", boundary_high, 77.88 / 99.0, 1e-12)
    add("boundary45_interim_high_vs_print", boundary_high, 0.78667, 5e-6)
    add("truthful_interim_high", mechanism.truthful_interim(setting, scoring.HIGH), 0.68, 1e-12)

    return records


def cmd_verify_examples(cfg: RunConfig) -> int:
    records = reference_example_report(tolerance=cfg.tolerance)
    failed = [r for r in records if r["status"] == "FAIL"]
    if cfg.fmt == "text":
        lines = [f"{'name':<42} {'computed':>14} {'reference':>12} {'|diff|':>12} {'status':>6}"]
        for r in records:
            lines.append(
                f"{r['name']:<42} {r['computed']:>14.8f} {r['reference']:>12.5f} "
                f"{r['abs_diff']:>12.2e} {r['status']:>6}")
        lines.append(f"{len(records)} checks, {len(failed)} failures")
        _emit("\n".join(lines))
    else:
        _emit(_dump({"checks": records, "failures": len(failed)}))
    return EXIT_OK if not failed else EXIT_NONE_FOUND


# ---------------------------------------------------------------------------
# falsify
# ---------------------------------------------------------------------------

def cmd_falsify(cfg: RunConfig) -> int:
    setting = cfg.setting
    if "k" not in cfg.raw:
        raise ConfigError('falsify needs "k"')
    k, concept, grid_steps = _search_options(cfg, setting.n)
    cert = checker.find_setting_deviation(
        setting, k, concept, grid_steps=grid_steps, tol=cfg.tolerance)
    if cert is None:
        _emit(_dump({"found": False, "grid_steps": grid_steps, "k": k}))
        return EXIT_NONE_FOUND
    if not checker.verify_setting_certificate(setting, cert):
        raise CollusionLabError("internal error: emitted certificate failed re-verification")
    _emit(_dump({"found": True, "certificate": cert.to_dict()}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig) -> int:
    setting = cfg.setting
    if setting.world_model is None:
        raise ConfigError('simulate needs a "world_model" setting (a pairwise prior '
                          'does not determine an n-agent sampler)')
    deviators = cfg.raw.get("deviators")
    if deviators is None:
        profile = mechanism.DeviationProfile((mechanism.TRUTHFUL_STRATEGY,))
    else:
        if not isinstance(deviators, list):
            raise ConfigError(f'"deviators" must be a list of strategies, got {deviators!r}')
        try:
            profile = mechanism.DeviationProfile(
                tuple(mechanism.strategy_from_dict(d) for d in deviators))
        except (InvalidSetting, InvalidStrategy) as exc:
            raise ConfigError(f'bad "deviators" entry: {exc}') from exc
    trials = cfg.raw.get("trials", 10000)
    seed = cfg.raw.get("seed", 0)
    if not _is_int(trials) or trials < 1:
        raise ConfigError('"trials" must be a positive integer')
    if not _is_int(seed) or seed < 0:
        raise ConfigError('"seed" must be a non-negative integer')
    result = mechanism.simulate(setting, profile, trials=trials, seed=seed)
    _emit(_dump(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

_MAX_SWEEP_POINTS = 10 ** 7

#: Sweep points ``scan`` makes, checks, prices and writes as one chunk.
_CHUNK_ROWS = 2 ** 10


def _sweep_values(sweep: dict) -> tuple[str, Iterator]:
    """The swept parameter and its points, one chunk of ``_CHUNK_ROWS`` at a time.

    Exactly one form: ``values`` verbatim, in list slices, or ``start +
    i*step`` for i = 0, 1, ... up to ``stop`` (an index within 1e-9 of the
    last point counts).  A range's chunk is made when it is read, as the
    column ``start + step*i``: int64 when start and step are ints, float64
    when one is a float, and Python numbers (dtype object) once some |point|
    could pass 2^62, so every point has the bits of Python's ``start +
    i*step``.  n points are rounded to integers (``np.rint``, half to even
    as ``round``), prior points to 12 decimals by Python's ``round``, a list
    (numpy's differs in the last bit).  Every number must be finite, and
    the point count is checked before any point is made.
    """
    if set(sweep) - {"param"} not in ({"values"}, {"start", "stop", "step"}):
        raise ConfigError('sweep needs "param" and either "values" or start/stop/step, '
                          f'got {sorted(sweep)}')
    param = sweep.get("param")
    if param not in ("n", "p_h", "p_h_given_h"):
        raise ConfigError(f'sweep "param" must be n, p_h, or p_h_given_h, got {param!r}')
    if "values" in sweep:
        values = sweep["values"]
        if not isinstance(values, list) or not all(scoring.is_finite_number(v) for v in values):
            raise ConfigError(f'sweep "values" must be a list of finite numbers, got {values!r}')
        return param, (values[i:i + _CHUNK_ROWS] for i in range(0, len(values), _CHUNK_ROWS))
    start, stop, step = sweep["start"], sweep["stop"], sweep["step"]
    for key, value in (("start", start), ("stop", stop), ("step", step)):
        if not scoring.is_finite_number(value):
            raise ConfigError(f'sweep "{key}" must be a finite number, got {value!r}')
    if step <= 0:
        raise ConfigError('sweep "step" must be positive')
    span = (stop - start) / step
    if span >= _MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep has more than {_MAX_SWEEP_POINTS} points")
    count = math.floor(span + 1e-9) + 1 if span > -1 else 0
    index = np.int64 if abs(start) + step * count < 2 ** 62 else object

    def chunk(i: int):
        x = start + step * np.arange(i, min(i + _CHUNK_ROWS, count), dtype=index)
        if param != "n":
            return [round(v, 12) for v in x.tolist()]
        if x.dtype == np.float64:
            return np.rint(x).astype(np.int64)
        return np.frompyfunc(round, 1, 1)(x) if x.dtype == object else x

    return param, map(chunk, range(0, count, _CHUNK_ROWS))


def _outcome(fn, *args):
    """``fn(*args)``, or the CSV error cell of the package error it raises."""
    try:
        return fn(*args)
    except CollusionLabError as exc:
        return f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _error_cell(rule, parsed, tol: float) -> str:
    """The scalar path's error cell of a prior the columns leave unpriced: the first
    failed part of the rule, the prior (``_outcome``s), the table's scores, sides, n_zero."""
    for part in (rule, parsed):
        if isinstance(part, str):
            return part
    table = _outcome(thresholds.ThresholdTable, parsed[0], rule, tol)
    cell = table if isinstance(table, str) else _outcome(table.n_zero)
    assert isinstance(cell, str), "a prior the columns leave unpriced fails the scalar path"
    return cell


#: A priced row: n, the six thresholds and n_zero, with an empty error cell.
_ROW = "%d,%d,%d,%d,%d,%d,%d,%d,"


def _scan_text(priced, errors: list[str], n, n_zero, sides, tol: float) -> str:
    """The CSV text of one chunk of sweep points, rows in sweep order.

    ``priced`` marks the points that pass every check, and ``errors`` holds
    the other points' rows, in order.  n, n_zero and ``sides``, the four
    sides' ratio and step rows (``thresholds.price_priors``), cover the priced
    points, or are one row for all of them: one ``threshold_columns`` call
    steps every side, and one ``%`` format writes every priced row.
    """
    if not priced.any():
        return "\n".join(errors)
    columns = np.broadcast_arrays(n, *thresholds.threshold_columns(n, *sides, tol), n_zero)
    table = np.stack(columns, axis=1)
    text = "\n".join([_ROW] * len(table)) % tuple(table.ravel().tolist())
    if not errors:
        return text
    rows = np.empty(len(priced), dtype=object)
    rows[priced], rows[~priced] = text.split("\n"), errors
    return "\n".join(rows.tolist())


def cmd_scan(cfg: RunConfig) -> int:
    sweep = cfg.raw.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError('scan needs a "sweep" object')
    param, chunks = _sweep_values(sweep)
    raw, tol = cfg.raw, cfg.tolerance
    # Every printed threshold comes from ``thresholds.price_priors``: an n-sweep
    # prices its one prior once, as a one-row column against each chunk's n, and a
    # prior sweep a chunk of priors at one n.  Each check of the scalar path is a
    # mask there; a point that fails one gets its error cell from the scalar path
    # (``_valid_n``, then ``_error_cell``), first of n, rule, prior, scores, sides, n_zero.
    rule = _outcome(scoring.rule_from_config, raw.get("rule", {"rule": "brier"}))

    if param == "n":
        parsed = _outcome(prior.from_config, raw)
        priced = n_zero = sides = None
        if not isinstance(rule, str) and not isinstance(parsed, str):
            pr = parsed[0]
            priced, n_zero, *sides = thresholds.price_priors([pr.p_h], [pr.p_hh], rule, tol)
        cell = None if priced is not None and priced[0] else _error_cell(rule, parsed, tol)

        def text(points) -> str:
            # ``_valid_n`` as one mask: an integer in [2, 2^62]; a range's points are integers
            column = np.array(points, dtype=object) if isinstance(points, list) else points
            valid = (column >= 2) & (column <= _MAX_N)
            if isinstance(points, list):
                valid &= np.fromiter(map(_is_int, points), bool, len(points))
            ok = valid if cell is None else np.zeros_like(valid)
            errors = [f"{v},,,,,,,,{cell if good else _outcome(_valid_n, v)}"
                      for v, good in zip(column[~ok].tolist(), valid[~ok].tolist())]
            return _scan_text(ok, errors, column[ok].astype(np.int64), n_zero, sides, tol)
    else:
        base = raw.get("prior")
        if not isinstance(base, dict) or not base:
            raise ConfigError('prior-parameter sweeps need a base "prior" config')
        n, label = _outcome(_checked_n, raw), raw.get("n", "")

        def point(v) -> dict:
            return {**raw, "prior": {**base, param: v}}

        def cell(v) -> str:
            return n if isinstance(n, str) else _error_cell(
                rule, _outcome(prior.from_config, point(v)), tol)

        # the config's shape is the same at every point, as each is a finite number
        shape = rule if isinstance(rule, str) else _outcome(prior.prior_values, point(0.5))

        def text(points: list) -> str:
            if isinstance(n, str) or isinstance(shape, str):  # every point fails
                return "\n".join(f"{label},,,,,,,,{cell(v)}" for v in points)
            swept = np.array(points, dtype=float)
            fixed = np.full_like(swept, shape[1] if param == "p_h" else shape[0])
            p_h, p_hh = (swept, fixed) if param == "p_h" else (fixed, swept)
            ok, n_zero, *sides = thresholds.price_priors(p_h, p_hh, rule, tol)
            errors = [f"{label},,,,,,,,{cell(v)}" for v in itertools.compress(points, ~ok)]
            return _scan_text(ok, errors, n, n_zero[ok], [x[:, ok] for x in sides], tol)

    _emit(SCAN_HEADER)
    for points in chunks:
        _emit(text(points))
    return EXIT_OK


# ---------------------------------------------------------------------------
# game-check
# ---------------------------------------------------------------------------

def cmd_game_check(cfg: RunConfig) -> int:
    spec = cfg.raw.get("game")
    if spec is None:
        raise ConfigError('game-check needs a "game" (path or inline object)')
    if isinstance(spec, str):  # a file: its tables read flat, else as general JSON
        text = _read_text(spec, "game")
        game = checker.game_from_text(text)
        if game is None:
            game = checker.FiniteBayesianGame.from_dict(_parse_json(text, spec, "game"))
        del text  # the checks below run without the file's text
    else:
        game = checker.FiniteBayesianGame.from_dict(spec)
    profile_spec = cfg.raw.get("profile")
    if profile_spec is None:
        profile = checker.truthful_profile(game)
    else:
        profile = checker.MixedProfile.from_dict(profile_spec)
    search = _search_options(cfg, game.n) if "k" in cfg.raw else None
    if search is not None:
        budget = cfg.raw.get("budget", checker.DEFAULT_BUDGET)
        if not _is_int(budget) or budget < 1:
            raise ConfigError(f'"budget" must be a positive integer, got {budget!r}')
    holds, worst = checker.bne_check(game, profile, tol=cfg.tolerance)
    payload: dict = {"bne": holds, "worst_violation": worst}
    code = EXIT_OK
    if search is not None:
        k, concept, grid_steps = search
        try:
            cert = checker.find_deviation(game, profile, k, concept,
                                          grid_steps=grid_steps, budget=budget,
                                          tol=cfg.tolerance)
        except BudgetExceeded as exc:
            payload["found"] = False
            payload["budget_exceeded"] = True
            payload["nodes_searched"] = exc.nodes_searched
            _emit(_dump(payload))
            return EXIT_BUDGET
        if cert is None:
            payload["found"] = False
            code = EXIT_NONE_FOUND
        else:
            payload["found"] = True
            payload["certificate"] = cert.to_dict()
    _emit(_dump(payload))
    return code


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

_SETTING = ("n", "rule", "prior", "world_model")
_SEARCH = ("k", "concept", "grid_steps")

#: Each command and the config keys it reads, the only keys it accepts.
_COMMANDS: dict[str, tuple[Callable[[RunConfig], int], tuple[str, ...]]] = {
    "thresholds": (cmd_thresholds, (*_SETTING, "tolerance", "format")),
    "verify-examples": (cmd_verify_examples, ("tolerance", "format")),
    "falsify": (cmd_falsify, (*_SETTING, "tolerance", *_SEARCH)),
    "simulate": (cmd_simulate, (*_SETTING, "deviators", "trials", "seed")),
    "scan": (cmd_scan, (*_SETTING, "tolerance", "sweep")),
    "game-check": (cmd_game_check, ("game", "profile", "tolerance", *_SEARCH, "budget")),
}

#: The scalar keys, each with its flag's type or choices: a command has a
#: ``--key`` flag for each of them that it reads.
_FLAGS: dict[str, type | list[str]] = {
    "n": int, "tolerance": float, "format": ["json", "text"],
    "k": int, "concept": list(thresholds.CONCEPTS), "grid_steps": int, "budget": int,
    "trials": int, "seed": int,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="collusion-lab",
        description="Collusion thresholds and deviation falsifiers for peer prediction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        for key in filter(_FLAGS.__contains__, keys):
            spec = _FLAGS[key]
            kind = {"choices": spec} if isinstance(spec, list) else {"type": spec}
            p.add_argument("--" + key.replace("_", "-"), **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, args.command, overrides)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except CollusionLabError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_CONFIG


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()

"""Seeded job lists and their oracles, one builder per workload.

A job is one ``collusion_lab.cli.main`` call.  The builders write every
config (and game table) a job reads into a work directory, so the CLI sees
only generated files.  Each job carries an oracle that judges its exit code
and stdout; oracles use the library's independent paths (canonical
dichotomy checks, exact utilities, certificate re-verification) and run
outside the timed region.

Job costs are fixed by slot, not by seed: the seed picks priors, world
models and strategies (and the game rules), while each slot's size (rows,
k*, agent-trials, game n and search depth) and, outside game, its scoring
rule come from a fixed ladder, so every seed costs about the same.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import collusion_lab as cl
from collusion_lab import checker, cli, mechanism, thresholds

# Returns None when the job's exit code and stdout are right, else a reason.
Oracle = Callable[[int, str], Optional[str]]


@dataclass
class Job:
    name: str
    argv: list
    oracle: Oracle


class _Builder:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.jobs: list = []
        self.files: dict = {}

    def add(self, name: str, command: str, config: dict, oracle: Oracle) -> None:
        path = os.path.join(self.workdir, f"{name}.json")
        self.files[path] = json.dumps(config, sort_keys=True)
        self.jobs.append(Job(name, [command, "--config", path], oracle))

    def add_file(self, name: str, payload: dict) -> str:
        path = os.path.join(self.workdir, name)
        self.files[path] = json.dumps(payload)
        return path


def build(workload: str, seed: int, workdir: str) -> list:
    """Generate the workload's jobs from ``seed`` and write their inputs."""
    rng = random.Random(f"{workload}:{seed}")
    builder = _Builder(workdir)
    _BUILDERS[workload](rng, builder)
    os.makedirs(workdir, exist_ok=True)
    for path, text in builder.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return builder.jobs


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

_RULES = ({"rule": "brier"}, {"rule": "log"}, {"rule": "log", "base": 2.0})


def _prior_config(rng: random.Random) -> dict:
    """An informative prior: Pr(h|h) well above Pr(h), both away from 0 and 1."""
    p_h = round(rng.uniform(0.3, 0.7), 6)
    p_hh = round(p_h + rng.uniform(0.15, 0.7) * (0.95 - p_h), 6)
    return {"p_h": p_h, "p_h_given_h": p_hh}


def _setting(n: int, rule: dict, prior: dict) -> mechanism.Setting:
    return cl.make_setting(n, cl.rule_from_config(rule),
                           prior=cl.make_prior(prior["p_h"], prior["p_h_given_h"]))


def _exit(code: int, allowed: tuple) -> Optional[str]:
    return None if code in allowed else f"exit code {code}, expected {allowed}"


# ---------------------------------------------------------------------------
# sweep: scan over n, p_h and p_h_given_h
# ---------------------------------------------------------------------------

_LONG_SWEEP_ROWS = 5000
_SHORT_SWEEP_ROWS = 250
_DICHOTOMY_ROWS = 12


def _row_settles(setting: mechanism.Setting, concept: str, k: int) -> Optional[str]:
    """The dichotomy boundary test: no corner succeeds at k, one does at k + 1."""
    for dev in ("all_h", "all_l"):
        if thresholds.dichotomy_check(setting, k, dev, concept).succeeded:
            return f"{concept}: {dev} succeeds at k*={k}"
    if k < setting.n and not any(
            thresholds.dichotomy_check(setting, k + 1, dev, concept).succeeded
            for dev in ("all_h", "all_l")):
        return f"{concept}: no corner succeeds at k*+1={k + 1}"
    return None


def _scan_oracle(rule: dict, settings: list) -> Oracle:
    """``settings``: the expected (n, prior) of every row, in sweep order.

    Every row must be well formed, with k = min(k_h, k_l, n) and k_E <= k_B.
    The dichotomy boundary test costs O(k*) per row, so it runs on
    ``_DICHOTOMY_ROWS`` evenly spaced rows of each sweep, first and last
    included.
    """
    stride = max(1, -(-(len(settings) - 1) // (_DICHOTOMY_ROWS - 1)))
    sampled = set(range(0, len(settings), stride)) | {len(settings) - 1}

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return _exit(code, (0,))
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != cli.SCAN_HEADER.split(","):
            return f"bad header {rows[0]}"
        if len(rows) - 1 != len(settings):
            return f"{len(rows) - 1} rows, expected {len(settings)}"
        for i, (row, (n, prior)) in enumerate(zip(rows[1:], settings)):
            if row[8] or int(row[0]) != n:
                return f"row {row} for n={n}"
            k_e_h, k_e_l, k_e, k_b_h, k_b_l, k_b = (int(x) for x in row[1:7])
            if k_e != min(k_e_h, k_e_l, n) or k_b != min(k_b_h, k_b_l, n) or k_e > k_b:
                return f"inconsistent thresholds in row {row}"
            if i not in sampled:
                continue
            setting = _setting(n, rule, prior)
            for concept, k in ((thresholds.EX_ANTE, k_e), (thresholds.BAYESIAN, k_b)):
                reason = _row_settles(setting, concept, k)
                if reason:
                    return f"n={n} prior={prior}: {reason}"
        return None
    return check


def _build_sweep(rng: random.Random, b: _Builder) -> None:
    # Three long n-sweeps on one prior each (what per-prior caching of
    # n_zero would help), then short sweeps that rotate the parameter and
    # the rule, so per-call overhead and prior-dependent work both show.
    for i in range(40):
        rule = _RULES[i % len(_RULES)]
        prior = _prior_config(rng)
        if i < 3:
            param, rows = "n", _LONG_SWEEP_ROWS
        else:
            param, rows = ("n", "p_h", "p_h_given_h")[i % 3], _SHORT_SWEEP_ROWS
        if param == "n":
            start = rng.randint(5, 200)
            step = 1 if rows == _LONG_SWEEP_ROWS else rng.choice((1, 2, 3, 5))
            stop = start + step * (rows - 1)
            sweep = {"param": "n", "start": start, "stop": stop, "step": step}
            n = start
            settings = [(start + step * j, prior) for j in range(rows)]
        else:
            n = rng.randint(20, 2000)
            if param == "p_h":
                lo, hi = 0.1, prior["p_h_given_h"] - 0.05
            else:
                lo, hi = prior["p_h"] + 0.05, 0.95
            values = [round(lo + (hi - lo) * j / (rows - 1), 6) for j in range(rows)]
            sweep = {"param": param, "values": values}
            key = "p_h" if param == "p_h" else "p_h_given_h"
            settings = [(n, {**prior, key: v}) for v in values]
        config = {"n": n, "rule": rule, "prior": prior, "sweep": sweep}
        b.add(f"sweep{i:02d}", "scan", config, _scan_oracle(rule, settings))


# ---------------------------------------------------------------------------
# falsify: the setting falsifier at k* (exhaustive) and k* + 1 (certificate)
# ---------------------------------------------------------------------------

# k* per slot pair.  The search cost grows as k*^2 * grid, so the ladder is
# what fixes a pass's length; both concepts see the same spread of k*.
_FALSIFY_K = tuple(12 + i for i in range(20))


def _threshold(setting: mechanism.Setting, concept: str) -> int:
    if concept == thresholds.EX_ANTE:
        return thresholds.k_ex_ante(setting).k
    return thresholds.k_bayesian(setting).k


def _falsify_setting(rng: random.Random, rule: dict, concept: str, k_target: int) -> tuple:
    """A (prior, n) whose threshold under ``rule`` and ``concept`` is exactly ``k_target``."""
    while True:
        prior = _prior_config(rng)
        ratio_setting = _setting(1001, rule, prior)
        k_1000 = _threshold(ratio_setting, concept)
        if k_1000 >= 900:
            continue  # the threshold grows almost as fast as n; no room for k* + 1
        n = max(k_target + 2, int(1000 * (k_target - 1) / max(k_1000 - 1, 1)) - 3)
        for n in range(n, n + 40):
            k = _threshold(_setting(n, rule, prior), concept)
            if k >= k_target:
                break
        if k == k_target and k < n:
            return prior, n


def _falsify_oracle(k_star: int, k: int) -> Oracle:
    def check(code: int, out: str) -> Optional[str]:
        payload = json.loads(out)
        if k == k_star:
            if code != 1 or payload["found"]:
                return f"found a deviation at k=k*={k_star} (exit {code})"
            return None
        if code != 0 or not payload["found"]:
            return f"no deviation at k*+1={k} (exit {code})"
        size = len(payload["certificate"]["coalition"])
        if size != k_star + 1:
            return f"certificate size {size}, expected k*+1={k_star + 1}"
        return None
    return check


def _build_falsify(rng: random.Random, b: _Builder) -> None:
    # The rule is fixed by slot like k*: the log rule's utilities cost more
    # than Brier's, so a seeded rule would move a pass's length.
    for i, k_star in enumerate(_FALSIFY_K):
        concept = (thresholds.EX_ANTE, thresholds.BAYESIAN)[i % 2]
        rule = _RULES[(i // 2) % len(_RULES)]
        prior, n = _falsify_setting(rng, rule, concept, k_star)
        for k in (k_star, k_star + 1):
            config = {"n": n, "rule": rule, "prior": prior, "k": k, "concept": concept}
            b.add(f"falsify{i:02d}_k{k}", "falsify", config, _falsify_oracle(k_star, k))


# ---------------------------------------------------------------------------
# simulate: Monte Carlo on seeded world models
# ---------------------------------------------------------------------------

_SIM_BIG = (2000, 20000)        # 4e7 agent-trials: the memory-heavy job
_SIM_AGENT_TRIALS = 600_000     # every other job, at n = 100..480
_SIM_Z = 5.0


# The simulator's cost depends on how predictable its random draws are
# (numpy's where() branches on them), so the signal and report
# probabilities stay in bands where p * (1 - p) barely moves.
def _world_model(rng: random.Random) -> dict:
    while True:
        w = round(rng.uniform(0.4, 0.6), 6)
        p0 = round(rng.uniform(0.2, 0.3), 6)
        p1 = round(rng.uniform(0.7, 0.8), 6)
        try:
            cl.induce_prior(cl.WorldModel((w, 1.0 - w), (p0, p1)))
        except cl.InvalidPrior:
            continue
        return {"p_state": [w, round(1.0 - w, 6)], "p_h_given_state": [p0, p1]}


def _sim_strategy(rng: random.Random) -> dict:
    return {"bl": round(rng.uniform(0.3, 0.7), 3), "bh": round(rng.uniform(0.3, 0.7), 3)}


def _simulate_oracle(setting: mechanism.Setting, profile: mechanism.DeviationProfile,
                     trials: int) -> Oracle:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return _exit(code, (0,))
        result = json.loads(out)
        roles = [f"deviator_{i}" for i in range(profile.k)]
        if setting.n > profile.k:
            roles.append(mechanism.TRUTHFUL)
        if sorted(result) != sorted(roles):
            return f"roles {sorted(result)[:4]}..., expected {len(roles)}"
        for role in roles:
            stats = result[role]
            who = mechanism.TRUTHFUL if role == mechanism.TRUTHFUL else int(role.split("_")[1])
            exact = mechanism.ex_ante_utility(setting, profile, who)
            if stats["trials"] != trials or stats["stderr"] <= 0.0:
                return f"{role}: {stats}"
            if abs(stats["mean"] - exact) > _SIM_Z * stats["stderr"]:
                return (f"{role}: mean {stats['mean']} is "
                        f"{abs(stats['mean'] - exact) / stats['stderr']:.1f} stderr "
                        f"from ex_ante_utility {exact}")
        return None
    return check


def _build_simulate(rng: random.Random, b: _Builder) -> None:
    # Profiles cycle through no deviators, many identical deviators and many
    # deviators with distinct strategies: a group-by-strategy simulator helps
    # the middle kind only.  The 5-stderr oracle tests every role, so each
    # job keeps at least 1250 trials and report probabilities in [0.3, 0.7]:
    # with a few hundred trials, or reports that happen a few times per run,
    # the sample mean is skewed enough that the largest of a hundred role
    # z-scores passes 5 in a few percent of seeds.  The rule is fixed by
    # slot, since the log rule's scores cost more than Brier's.
    for i in range(40):
        wm = _world_model(rng)
        if i == 0:
            n, trials = _SIM_BIG
        else:
            n = 100 + 10 * (i - 1)
            trials = _SIM_AGENT_TRIALS // n
        kind = i % 3
        if kind == 0:
            deviators = None
        elif kind == 1:
            deviators = [_sim_strategy(rng)] * (n // 4)
        else:
            deviators = [_sim_strategy(rng) for _ in range(24)]
        config = {"n": n, "rule": _RULES[(i // 3) % len(_RULES)], "world_model": wm,
                  "trials": trials, "seed": rng.randrange(2 ** 32)}
        if deviators is not None:
            config["deviators"] = deviators
            profile = mechanism.DeviationProfile(
                tuple(mechanism.Strategy(d["bl"], d["bh"]) for d in deviators))
        else:
            profile = mechanism.DeviationProfile((mechanism.TRUTHFUL_STRATEGY,))
        setting = cl.make_setting(n, cl.rule_from_config(config["rule"]),
                                  world_model=cl.WorldModel(tuple(wm["p_state"]),
                                                            tuple(wm["p_h_given_state"])))
        b.add(f"simulate{i:02d}", "simulate", config, _simulate_oracle(setting, profile, trials))


# ---------------------------------------------------------------------------
# game: explicit peer-prediction games through the finite-game checker
# ---------------------------------------------------------------------------

# (kind, n, concept, grid_steps, symmetric threshold, k offset from it).
# Costs run from 5 ms to 0.6 s.  Job costs have a gap just above the
# median (about 90 to 120 ms), so four BNE checks of equal cost (n = 9) sit
# right at it: job_p50_cpu_s then reads one of them and not the average of
# the two jobs on either side of the gap, which seeds and noise reorder.
#   bne:   truthful profile, best-response check only
#   sym:   exchangeable game, truthful profile: multiset search
#   scaled: per-agent utility scales break exchangeability, so the search
#          runs over every coalition with a per-member product of strategies
#   noisy: one agent plays a noisy report, a non-symmetric base profile
_GAME_SLOTS = (
    [("bne", n, None, None, None, None) for n in (3, 7, 8, 8, 9, 9, 9, 9)]
    + [("sym", 4, "ex_ante", 5, 2, 0), ("sym", 5, "ex_ante", 5, 3, -1),
       ("sym", 6, "ex_ante", 5, 3, 0), ("sym", 8, "ex_ante", 3, 3, -1),
       ("sym", 10, "ex_ante", 3, 4, 0), ("sym", 10, "ex_ante", 5, 3, -1),
       ("sym", 7, "ex_ante", 3, 4, -1), ("sym", 9, "ex_ante", 3, 5, -1),
       ("sym", 4, "bayesian", 5, 3, 0), ("sym", 5, "bayesian", 3, 4, -1),
       ("sym", 6, "bayesian", 3, 4, 0), ("sym", 6, "bayesian", 5, 4, -1),
       ("sym", 8, "bayesian", 3, 5, -1), ("sym", 7, "bayesian", 3, 5, 0),
       ("sym", 5, "bayesian", 3, 4, 0), ("sym", 9, "bayesian", 3, 5, 0)]
    + [("scaled", 4, "ex_ante", 3, 3, -1), ("scaled", 5, "ex_ante", 3, 3, -1),
       ("scaled", 6, "ex_ante", 3, 3, -1), ("scaled", 9, "ex_ante", 3, 3, -1),
       ("scaled", 10, "ex_ante", 3, 3, -1), ("scaled", 8, "ex_ante", 3, 3, 0),
       ("scaled", 4, "bayesian", 3, 3, 0), ("scaled", 5, "bayesian", 3, 3, -1),
       ("scaled", 6, "bayesian", 3, 3, -1), ("scaled", 9, "bayesian", 3, 3, -1),
       ("scaled", 10, "bayesian", 3, 6, -5), ("scaled", 7, "bayesian", 3, 3, 0)]
    + [("noisy", n, c, 3, None, None)
       for n, c in ((4, "ex_ante"), (6, "bayesian"), (9, "ex_ante"), (10, "bayesian"))]
)


def _symmetric_size(setting: mechanism.Setting, k: int, concept: str,
                    grid_steps: int) -> Optional[int]:
    cert = checker.find_setting_deviation(setting, k, concept, grid_steps=grid_steps)
    return None if cert is None else len(cert.coalition)


def _game_prior(rng: random.Random, n: int, concept: str, grid_steps: int,
                k_sym: int) -> tuple:
    """A (rule, prior) whose smallest symmetric deviation at n has size ``k_sym``."""
    while True:
        rule, prior = rng.choice(_RULES[:2]), _prior_config(rng)
        setting = _setting(n, rule, prior)
        if _symmetric_size(setting, n, concept, grid_steps) == k_sym:
            return rule, prior, setting


def _game_oracle(game: checker.FiniteBayesianGame, profile: checker.MixedProfile,
                 setting: Optional[mechanism.Setting], k: Optional[int],
                 concept: Optional[str], grid_steps: Optional[int]) -> Oracle:
    """BNE of the truthful profile, certificate re-verification, and the
    symmetric-size cross-check against the setting falsifier."""
    def check(code: int, out: str) -> Optional[str]:
        payload = json.loads(out)
        if setting is not None and not payload["bne"]:
            return f"truthful profile is not a BNE (worst gain {payload['worst_violation']})"
        if k is None:
            return _exit(code, (0,))
        found = payload["found"]
        if code != (0 if found else 1):
            return f"exit code {code} with found={found}"
        if found:
            cert = checker.DeviationCertificate.from_dict(payload["certificate"])
            if not checker.verify_certificate(game, profile, cert):
                return "certificate failed verify_certificate"
        if setting is None:
            return None
        sym = _symmetric_size(setting, k, concept, grid_steps)
        if not found:
            return None if sym is None else f"missed the symmetric deviation of size {sym}"
        size = len(cert.coalition)
        symmetric = all(s == cert.strategies[0] for s in cert.strategies)
        if symmetric and sym != size:
            return f"symmetric certificate of size {size}, setting falsifier says {sym}"
        if not symmetric and sym is not None and sym <= size:
            return f"asymmetric certificate of size {size} after a symmetric one of size {sym}"
        return None
    return check


def _build_game(rng: random.Random, b: _Builder) -> None:
    for i, (kind, n, concept, grid_steps, k_sym, offset) in enumerate(_GAME_SLOTS):
        if kind in ("bne", "noisy"):
            rule, prior = rng.choice(_RULES[:2]), _prior_config(rng)
            setting = _setting(n, rule, prior)
        else:
            rule, prior, setting = _game_prior(rng, n, concept, grid_steps, k_sym)
        game = checker.peer_prediction_game(setting)
        if kind == "scaled":
            scales = [round(rng.uniform(0.5, 2.0), 3) for _ in range(n)]
            game = checker.FiniteBayesianGame(
                n=n, type_sets=game.type_sets, action_sets=game.action_sets,
                prior=game.prior,
                utilities=tuple(c * v for c, v in zip(scales, game.utilities)))
        config: dict = {"game": b.add_file(f"game{i:02d}_table.json", game.to_dict())}
        profile = checker.truthful_profile(game)
        if kind == "noisy":
            eps = round(rng.uniform(0.1, 0.3), 3)
            profile = profile.replace({n - 1: np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])})
            config["profile"] = profile.to_dict()
            k = 2
        elif kind == "bne":
            k = None
        else:
            k = k_sym + offset
        if k is not None:
            config.update(k=k, concept=concept, grid_steps=grid_steps)
        oracle = _game_oracle(game, profile, None if kind == "noisy" else setting,
                              k, concept, grid_steps)
        b.add(f"game{i:02d}_{kind}", "game-check", config, oracle)


_BUILDERS = {
    "sweep": _build_sweep,
    "falsify": _build_falsify,
    "simulate": _build_simulate,
    "game": _build_game,
}

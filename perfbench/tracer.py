"""Spans around the public functions of each collusion_lab module.

Wrappers are installed from outside the package: every module namespace
that binds a traced function gets the wrapper, because ``checker`` and
``thresholds`` import the mechanism helpers by name, and the
``_CoalitionEvaluator`` constructor and methods are patched on the class.
Spans (name, start, end, parent, job) are kept in flat arrays while the
jobs run and written out at the end.  Calls nest on one stack: the scan
thread pool runs one worker while the calling thread waits, so spans never
interleave.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array

import numpy as np

from collusion_lab import checker, cli, mechanism, prior, scoring, thresholds

_FUNCTIONS = (
    (cli, "main"),
    (prior, "from_config"),
    (mechanism, "make_setting"),
    (thresholds, "k_ex_ante"),
    (thresholds, "k_bayesian"),
    (thresholds, "n_zero"),
    (scoring, "four_scores"),
    (mechanism, "ex_ante_utility"),
    (mechanism, "interim_utility"),
    (mechanism, "simulate"),
    (checker, "find_setting_deviation"),
    (checker, "verify_setting_certificate"),
    (checker, "find_deviation"),
    (checker, "bne_check"),
    (checker, "is_symmetric_game"),
)
_EVALUATOR = (("__init__", "checker.evaluator.build"),
              ("ex_ante", "checker.evaluator.ex_ante"),
              ("interim", "checker.evaluator.interim"))

UTILITIES = ("mechanism.ex_ante_utility", "mechanism.interim_utility")
# The layer each workload isolates, as outermost spans.
SEARCH_LAYERS = {
    "find_setting_deviation": ("checker.find_setting_deviation",),
    "simulate": ("mechanism.simulate",),
    "find_deviation_bne": ("checker.find_deviation", "checker.bne_check"),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = -1
        self.priors: set = set()            # distinct (prior, rule) passed to n_zero
        self.simulations: list = []         # (agent-trials, tracemalloc peak bytes)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(self.stack[-1])
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.start[idx] = t0
                self.stack.pop()

        return traced

    def _n_zero(self, fn):
        def counted(prior_, rule, *args, **kwargs):
            self.priors.add((prior_, repr(rule)))
            return fn(prior_, rule, *args, **kwargs)
        return counted

    def _simulate(self, fn):
        def measured(setting, profile, trials, seed):
            tracemalloc.start()
            try:
                return fn(setting, profile, trials=trials, seed=seed)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.simulations.append((setting.n * trials, peak))
        return measured

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "collusion_lab" or key.startswith("collusion_lab.")]
        for module, attr in _FUNCTIONS:
            original = getattr(module, attr)
            fn = original
            if attr == "n_zero":
                fn = self._n_zero(fn)
            elif attr == "simulate":
                fn = self._simulate(fn)
            traced = self.wrap(f"{module.__name__.rsplit('.', 1)[1]}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        cls = checker._CoalitionEvaluator
        for attr, name in _EVALUATOR:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            names = self.names
            for row in zip(self.name, self.start, self.end, self.parent, self.job):
                fh.write(f"{names[row[0]]}\t{row[1]:.9f}\t{row[2]:.9f}\t{row[3]}\t{row[4]}\n")

    def metrics(self, wall_s: float) -> dict:
        """Per-layer counts, self times and ratios for one traced pass."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        self_s = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        ids = {n: i for i, n in enumerate(self.names)}
        calls = np.bincount(name, minlength=len(self.names))
        self_by = np.bincount(name, weights=self_s, minlength=len(self.names))
        incl_by = np.bincount(name, weights=dur, minlength=len(self.names))

        out: dict = {}
        for fn_name, i in ids.items():
            if fn_name.startswith("checker.evaluator."):
                continue
            out[f"{fn_name}.calls"] = (int(calls[i]), "count")
            out[f"{fn_name}.self_s"] = (float(self_by[i]), "s")

        def count(fn_name: str) -> int:
            return int(calls[ids[fn_name]])

        utilities = sum(count(u) for u in UTILITIES)
        fsd = ids["checker.find_setting_deviation"]
        under_fsd = child.copy()
        under_fsd[child] = name[parent[child]] == fsd
        evals_in_fsd = int(np.isin(name[under_fsd], [ids[u] for u in UTILITIES]).sum())
        out["checker.find_setting_deviation.utility_evals"] = (evals_in_fsd, "count")
        out["scoring.four_scores.calls_per_utility"] = (
            _ratio(count("scoring.four_scores"), utilities), "ratio")
        out["thresholds.n_zero.calls_per_prior"] = (
            _ratio(count("thresholds.n_zero"), len(self.priors)), "ratio")

        trials = sum(a for a, _ in self.simulations)
        largest = max(self.simulations, default=(0, 0))
        out["mechanism.simulate.agent_trials"] = (trials, "count")
        out["mechanism.simulate.peak_mb"] = (
            max((p for _, p in self.simulations), default=0) / 2 ** 20, "MB")
        out["mechanism.simulate.bytes_per_agent_trial"] = (_ratio(largest[1], largest[0]), "B")

        builds = count("checker.evaluator.build")
        evals = count("checker.evaluator.ex_ante") + count("checker.evaluator.interim")
        out["checker.evaluator.builds"] = (builds, "count")
        out["checker.evaluator.build_s"] = (float(incl_by[ids["checker.evaluator.build"]]), "s")
        out["checker.evaluator.evals"] = (evals, "count")
        out["checker.evaluator.eval_s"] = (
            float(incl_by[ids["checker.evaluator.ex_ante"]]
                  + incl_by[ids["checker.evaluator.interim"]]), "s")
        out["checker.evaluator.evals_per_build"] = (_ratio(evals, builds), "ratio")

        # Share of the traced pass spent in each workload's layer.  The
        # front end and closed forms are what runs under cli.main outside
        # the three search/simulation layers and certificate re-checks.
        outer = {}
        for layer, members in SEARCH_LAYERS.items():
            outer[layer] = self._outermost(name, parent, dur, [ids[m] for m in members])
        rechecks = self._outermost(name, parent, dur,
                                   [ids["checker.verify_setting_certificate"]])
        front = float(incl_by[ids["cli.main"]]) - sum(outer.values()) - rechecks
        out["share.cli_thresholds"] = (front / wall_s, "ratio")
        for layer, seconds in outer.items():
            out[f"share.{layer}"] = (seconds / wall_s, "ratio")
        out["trace.spans"] = (len(dur), "count")
        return out

    @staticmethod
    def _outermost(name, parent, dur, members) -> float:
        """Total duration of spans in ``members`` with no ancestor in ``members``."""
        inside = np.isin(name, members)
        covered = np.zeros(len(name), dtype=bool)
        up = parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                break
            covered[live] |= inside[up[live]]
            up[live] = parent[up[live]]
        return float(dur[inside & ~covered].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

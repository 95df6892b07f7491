import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import collusion_lab as cl
import props
from collusion_lab import checker, cli, mechanism, scoring, thresholds


REFERENCE = {
    "n": 100,
    "rule": {"rule": "brier"},
    "prior": {"p_h": 2.0 / 3.0, "p_h_given_h": 0.8},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


#: A table rule whose ex ante h side divides a 1e299 loss by a 1e-290 surplus.
OVERFLOW_CFG = {"n": 100, "rule": {"rule": "table", "h": [7e299, -1e300], "l": [-1e-290, 0]},
                "prior": {"p_h": 0.4, "p_h_given_h": 0.7}, "tolerance": 1e-300}


class TestThresholdsCommand:
    def test_reference_brier(self, tmp_path, capsys):
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, REFERENCE)])
        assert code == 0
        payload = json.loads(out)
        assert payload["ex_ante"]["k"] == 27
        assert payload["bayesian"]["k"] == 44
        assert payload["n_zero"] == 107
        # emitted JSON re-parses into the emitting types
        ex = cl.ThresholdReport.from_dict(payload["ex_ante"])
        assert ex == cl.k_ex_ante(cl.make_setting(
            100, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8)))

    def test_reference_log(self, tmp_path, capsys):
        cfg = dict(REFERENCE, rule={"rule": "log", "base": math.e})
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        assert json.loads(out)["ex_ante"]["k"] == 28

    def test_text_format(self, tmp_path, capsys):
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, REFERENCE),
                                 "--format", "text"])
        assert code == 0
        assert "ex_ante" in out and "27" in out and "44" in out

    def test_minimal_n(self, tmp_path, capsys):
        cfg = dict(REFERENCE, n=2)
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        payload = json.loads(out)
        assert 1 <= payload["ex_ante"]["k"] <= 2
        assert 1 <= payload["bayesian"]["k"] <= 2

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_scores_the_prior_once(self, tmp_path, capsys, monkeypatch, fmt):
        # one table gives ex_ante, bayesian and n_zero
        calls = []

        def counted(rule, pr):
            calls.append(pr)
            return scoring.four_scores(rule, pr)

        monkeypatch.setattr(thresholds, "four_scores", counted)
        cfg = dict(REFERENCE, format=fmt)
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, cfg)])
        assert code == 0 and "107" in out
        assert len(calls) == 1

    def test_overflowing_side_ratio_exits_2(self, tmp_path, capsys):
        # the ex ante h side's ratio is 1e299 / 1e-290
        code = cli.main(["thresholds", "--config", write_config(tmp_path, OVERFLOW_CFG)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: InvalidSetting: the ex_ante h side's ratio "
                                "1.0000000000000002e+299 / 1e-290 overflows the float range\n")

    def test_side_past_the_float_range(self, tmp_path, capsys):
        # a finite ratio near 1e306 times n - 1 = 999 passes the float range: the side
        # is the exact product, and the run ends as usual
        cfg = dict(OVERFLOW_CFG, n=1000, rule=dict(OVERFLOW_CFG["rule"], l=[-1e-7, 0]))
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        for concept, step in (("ex_ante", 1), ("bayesian", 0)):
            report = json.loads(out)[concept]
            assert report["k_h"] == 999 * int(report["ratio_h"]) + step
            assert report["k"] == 1000 and report["k_l_infinite"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = dict(REFERENCE, extra=1)
        code, _ = run(capsys, ["thresholds", "--config", write_config(tmp_path, cfg)])
        assert code == 2

    def test_invalid_json_line_reference(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "n": 100,\n  oops\n}')
        code = cli.main(["thresholds", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err


def test_invalid_game_json_line_reference(tmp_path, capsys):
    game = tmp_path / "game.json"
    game.write_text('{\n  "n": 2,\n  oops\n}')
    code = cli.main(["game-check", "--config", write_config(tmp_path, {"game": str(game)})])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "line 3" in captured.err and "game" in captured.err


class TestVerifyExamplesCommand:
    def test_passes_with_single_warn(self, capsys):
        code, out = run(capsys, ["verify-examples"])
        assert code == 0
        payload = json.loads(out)
        statuses = {r["name"]: r["status"] for r in payload["checks"]}
        assert payload["failures"] == 0
        assert statuses["deviator40_ex_ante_vs_print"] == "WARN"
        assert all(s in ("OK", "WARN") for s in statuses.values())
        warn = [r for r in payload["checks"] if r["status"] == "WARN"]
        assert len(warn) == 1 and "40/59" in warn[0]["note"]


class TestFalsifyCommand:
    def test_finds_certificate(self, tmp_path, capsys):
        cfg = dict(REFERENCE, k=40, concept="ex_ante")
        code, out = run(capsys, ["falsify", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        payload = json.loads(out)
        assert payload["found"]
        cert = cl.DeviationCertificate.from_dict(payload["certificate"])
        assert cert.strategies[0] == ((0.0, 1.0), (0.0, 1.0))  # all-h
        setting = cl.make_setting(100, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8))
        assert cl.verify_setting_certificate(setting, cert)

    def test_none_below_threshold(self, tmp_path, capsys):
        cfg = dict(REFERENCE, k=26, concept="ex_ante")
        code, out = run(capsys, ["falsify", "--config", write_config(tmp_path, cfg)])
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_zero_k_is_config_error(self, tmp_path, capsys):
        cfg = dict(REFERENCE, k=0)
        code, _ = run(capsys, ["falsify", "--config", write_config(tmp_path, cfg)])
        assert code == 2

    @pytest.mark.parametrize("concept,threshold,k_star", [("ex_ante", cl.k_ex_ante, 23_810),
                                                          ("bayesian", cl.k_bayesian, 39_683)])
    def test_boundary_at_large_n(self, tmp_path, capsys, concept, threshold, k_star):
        cfg = {"n": 100_000, "rule": {"rule": "brier"},
               "prior": {"p_h": 0.4, "p_h_given_h": 0.6}, "concept": concept}
        setting = cl.make_setting(100_000, cl.BrierRule(), prior=cl.make_prior(0.4, 0.6))
        assert threshold(setting).k == k_star
        code, out = run(capsys, ["falsify", "--config", write_config(tmp_path, dict(cfg, k=k_star))])
        assert code == 1
        assert json.loads(out)["found"] is False
        code, out = run(capsys, ["falsify", "--config",
                                 write_config(tmp_path, dict(cfg, k=k_star + 1))])
        assert code == 0
        cert = cl.DeviationCertificate.from_dict(json.loads(out)["certificate"])
        assert len(cert.coalition) == k_star + 1
        assert cl.verify_setting_certificate(setting, cert)

    @pytest.mark.parametrize("concept,k,code", [("ex_ante", 27, 1), ("ex_ante", 40, 0),
                                                ("bayesian", 44, 1), ("bayesian", 45, 0)])
    def test_scores_the_prior_once(self, tmp_path, capsys, monkeypatch, concept, k, code):
        # the search, its certificate's deltas and the re-check all read setting.scores,
        # and setting.pair_form, built once from it
        calls, forms = [], []
        original, original_form = scoring.four_scores, mechanism.PairForm.of

        def counted(rule, pr):
            calls.append(pr)
            return original(rule, pr)

        def counted_form(pr, table):
            forms.append(pr)
            return original_form(pr, table)

        for module in (scoring, mechanism, thresholds):
            monkeypatch.setattr(module, "four_scores", counted)
        monkeypatch.setattr(mechanism.PairForm, "of", counted_form)
        cfg = dict(REFERENCE, k=k, concept=concept)
        assert run(capsys, ["falsify", "--config", write_config(tmp_path, cfg)])[0] == code
        assert len(calls) == 1 and len(forms) == 1

    @staticmethod
    def refused(capsys, argv):
        """``main(argv)`` exits 2 with one stderr line, within 0.5 s CPU and 16 MB traced."""
        tracemalloc.start()
        try:
            start = time.process_time()
            code = cli.main(argv)
            cpu = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1 and "more than 10000000" in captured.err
        assert cpu < 0.5 and peak < 16 * 2 ** 20, (cpu, peak)

    def test_budget_bounds_the_work_at_any_grid(self, tmp_path, capsys):
        # 10^10 grid strategies: the 10^7 cap refuses the search before it prices any
        cfg = dict(REFERENCE, k=40, concept="bayesian", grid_steps=10 ** 5)
        self.refused(capsys, ["falsify", "--config", write_config(tmp_path, cfg)])

    def test_huge_grid_exits_2(self, tmp_path, capsys):
        # 10^40 grid strategies: the cap is compared before any is generated
        path = write_config(tmp_path, dict(REFERENCE, k=40))
        self.refused(capsys, ["falsify", "--config", path, "--grid-steps", str(10 ** 20)])

    def test_grid_cap_boundary(self, tmp_path, capsys):
        # 3162^2 - 1 grid strategies fit the cap and print the no-find record;
        # 3163^2 - 1 do not
        path = write_config(tmp_path, dict(REFERENCE, k=27, concept="ex_ante"))
        code, out = run(capsys, ["falsify", "--config", path, "--grid-steps", "3162"])
        assert code == 1
        assert out == '{\n  "found": false,\n  "grid_steps": 3162,\n  "k": 27\n}\n'
        self.refused(capsys, ["falsify", "--config", path, "--grid-steps", "3163"])

    @pytest.mark.parametrize("cfg,concept,k_star", [
        # Brier at n = 10^4: the 39-member all-h delta is +8.28e-10, below the tolerance
        ({"n": 10_000, "rule": {"rule": "brier"},
          "prior": {"p_h": 0.6698029550226662, "p_h_given_h": 0.6820869874111526}},
         "ex_ante", 38),
        # log at n = 10^5: at 70,329 members the low type loses 1.37e-10
        ({"n": 100_000, "rule": {"rule": "log"},
          "prior": {"p_h": 0.6788097570305401, "p_h_given_h": 0.879370535781421}},
         "bayesian", 70_329),
        # table rule at n = 10^7: a lone low type reporting h loses 5e-10, within the
        # tolerance, beside an all-h surplus of 1e-3, so the loss still sets k
        ({"n": 10_000_000,
          "rule": {"rule": "table", "h": [0.0, 1.0], "l": [2.5204386995495636, -2.146351511167996]},
          "prior": {"p_h": 0.7745026313708422, "p_h_given_h": 0.8013849344549392}},
         "ex_ante", 5)])
    def test_near_ties_follow_thresholds(self, tmp_path, capsys, cfg, concept, k_star):
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, cfg)])
        assert code == 0 and json.loads(out)[concept]["k"] == k_star
        path = write_config(tmp_path, dict(cfg, concept=concept))
        code, out = run(capsys, ["falsify", "--config", path, "--k", str(k_star)])
        assert code == 1 and json.loads(out)["found"] is False
        code, out = run(capsys, ["falsify", "--config", path, "--k", str(k_star + 1)])
        assert code == 0
        cert = cl.DeviationCertificate.from_dict(json.loads(out)["certificate"])
        assert len(cert.coalition) == k_star + 1 and cert.strategies[0] == cl.ALL_H.rows
        setting = cl.make_setting(cfg["n"], cl.rule_from_config(cfg["rule"]), prior=cl.make_prior(
            cfg["prior"]["p_h"], cfg["prior"]["p_h_given_h"]))
        assert cl.verify_setting_certificate(setting, cert)

    # a table rule at n = 10^4 whose all-h surplus d_h = 2.0e-9 is just above the tolerance
    # while the all-h coalition's ex-ante gain Pr(l) * d_h = 6.7e-10 is within it: ex ante
    # no all-h coalition gains, so k_E is the all-l side's 4000; per type the low type's
    # gain Pr(l|l) * d_h = 1.2e-9 counts, so k_B is the all-h side's 9
    TINY_SURPLUS = {
        "n": 10_000,
        "rule": {"rule": "table", "h": [-0.9999999999999991, 2.4999999999999987],
                 "l": [2.333333331336666, -1.666666666670833]},
        "prior": {"p_h": 0.6666666666666666, "p_h_given_h": 0.8}}

    @pytest.mark.parametrize("concept,k_star", [("ex_ante", 4000), ("bayesian", 9)])
    def test_tiny_surplus_follows_thresholds(self, tmp_path, capsys, concept, k_star):
        cfg = self.TINY_SURPLUS
        code, out = run(capsys, ["thresholds", "--config", write_config(tmp_path, cfg)])
        assert code == 0 and json.loads(out)[concept]["k"] == k_star
        path = write_config(tmp_path, dict(cfg, concept=concept))
        for grid_steps in ("11", "101"):
            code, out = run(capsys, ["falsify", "--config", path, "--k", str(k_star),
                                     "--grid-steps", grid_steps])
            assert code == 1 and json.loads(out)["found"] is False
        code, out = run(capsys, ["falsify", "--config", path, "--k", str(k_star + 1)])
        assert code == 0
        cert = cl.DeviationCertificate.from_dict(json.loads(out)["certificate"])
        assert len(cert.coalition) == k_star + 1
        setting = cl.make_setting(cfg["n"], cl.rule_from_config(cfg["rule"]), prior=cl.make_prior(
            cfg["prior"]["p_h"], cfg["prior"]["p_h_given_h"]))
        assert cl.verify_setting_certificate(setting, cert)
        for k in (k_star, k_star + 1):  # the corners' dichotomy checks agree
            assert any(cl.dichotomy_check(setting, k, deviation, concept).succeeded
                       for deviation in ("all_h", "all_l")) is (k > k_star)


def test_closed_stdout_ends_quietly(tmp_path):
    # a reader that stops after 100 bytes of a ~400 KB certificate, as `| head -c 100`
    path = write_config(tmp_path, dict(REFERENCE, n=10_000, k=10_000))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    proc = subprocess.Popen([sys.executable, "-m", "collusion_lab.cli", "falsify",
                             "--config", path], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.wait(timeout=60)
    assert head.startswith(b"{") and "Traceback" not in err and err == "", err
    assert proc.returncode == 1


class TestSimulateCommand:
    WM_CFG = {
        "n": 10,
        "rule": {"rule": "brier"},
        "world_model": {"p_state": [0.5, 0.5], "p_h_given_state": [0.9, 0.2]},
        "trials": 2000,
        "seed": 11,
        "deviators": [{"bl": 0.0, "bh": 1.0}],
    }

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = write_config(tmp_path, self.WM_CFG)
        code_a, out_a = run(capsys, ["simulate", "--config", path])
        code_b, out_b = run(capsys, ["simulate", "--config", path])
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)
        assert set(payload) == {"deviator_0", "truthful"}
        for role in payload.values():
            assert role["trials"] == 2000 and role["seed"] == 11

    PIN_WM = {"p_state": [0.45, 0.55], "p_h_given_state": [0.25, 0.75]}
    #: The numpy version PINNED's digests were recorded with.
    PIN_NUMPY = "2.4.6"
    #: (config, SHA-256 of its stdout): n/4 identical deviators over two
    #: blocks, 24 distinct deviators, and no deviators (one truthful member).
    PINNED = {
        "identical": ({"n": 120, "rule": {"rule": "log"}, "world_model": PIN_WM,
                       "trials": 5000, "seed": 7, "deviators": [{"bl": 0.4, "bh": 0.6}] * 30},
                      "02d333b63a01bd96a58fae7d17fb03f5a2e749bf8d8eb84705c67b216bb08a14"),
        "distinct": ({"n": 200, "rule": {"rule": "brier"}, "world_model": PIN_WM,
                      "trials": 5000, "seed": 8,
                      "deviators": [{"bl": round(0.3 + 0.015 * i, 3), "bh": round(0.7 - 0.01 * i, 3)}
                                    for i in range(24)]},
                     "63c83022918113ca7ce2b0262266e65f82dcddff2f01f1982888d830bf54ead6"),
        "none": ({"n": 150, "rule": {"rule": "brier"}, "world_model": PIN_WM,
                  "trials": 5000, "seed": 9},
                 "7a3c334b92b7e9182ec50d8414fb2dbafa662820ad06f1e8a7413b24615597ce"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stdout_bytes_pinned(self, tmp_path, capsys, name):
        # Same seed, same bytes.  The digests rest on numpy's Generator
        # streams (PCG64 uniforms and binomials) and its summation order,
        # which numpy does not promise to keep across versions;
        # test_matches_per_cell_oracle does not depend on them.
        cfg, digest = self.PINNED[name]
        code, out = run(capsys, ["simulate", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (
            f"digest recorded with numpy {self.PIN_NUMPY}, running numpy {np.__version__}")

    def test_requires_world_model(self, tmp_path, capsys):
        cfg = {k: v for k, v in self.WM_CFG.items() if k != "world_model"}
        cfg["prior"] = {"p_h": 0.5, "p_h_given_h": 0.8}
        code, _ = run(capsys, ["simulate", "--config", write_config(tmp_path, cfg)])
        assert code == 2

    def test_huge_scores(self, tmp_path, capsys):
        # scores of +-1e200 square to inf unless the simulator rescales them
        rule = {"rule": "table", "h": [1e200, 0.0], "l": [-1e200, 0.0]}
        cfg = dict(self.WM_CFG, n=6, rule=rule, trials=300, seed=3)
        code, out = run(capsys, ["simulate", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        setting = cl.make_setting(6, cl.rule_from_config(rule), world_model=cl.WorldModel(
            (0.5, 0.5), (0.9, 0.2)))
        profile = cl.DeviationProfile((cl.Strategy(0.0, 1.0),))
        for role, stats in json.loads(out).items():
            who = cl.TRUTHFUL if role == "truthful" else 0
            want = cl.ex_ante_utility(setting, profile, who)
            assert 0.0 < abs(stats["mean"] - want) <= 5.0 * stats["stderr"], (role, stats, want)


class TestScanCommand:
    BASE = {
        "rule": {"rule": "brier"},
        "prior": {"p_h": 2.0 / 3.0, "p_h_given_h": 0.8},
        "n": 100,
    }

    def test_n_sweep_matches_formula(self, tmp_path, capsys):
        cfg = dict(self.BASE, sweep={"param": "n", "start": 10, "stop": 100, "step": 10})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == cli.SCAN_HEADER
        assert len(lines) == 11
        for row in lines[1:]:
            cells = row.split(",")
            n = int(cells[0])
            assert int(cells[3]) == math.floor(4.0 / 15.0 * (n - 1)) + 1
            assert cells[-1] == ""

    def test_n_values_must_be_integers(self, tmp_path, capsys):
        # a non-integer n in "values" is its row's error cell, as in a config; never truncated
        cfg = dict(self.BASE, sweep={"param": "n", "values": [2.7, 10.0, 1e300, 10]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        assert out.split("\n")[1:] == [
            f'{v},,,,,,,,ConfigError: "n" must be an integer >= 2; got {v}'
            for v in (2.7, 10.0, 1e300)] + ["10,3,8,3,4,9,4,107,", ""]

    def test_empty_range(self, tmp_path, capsys):
        cfg = dict(self.BASE, sweep={"param": "n", "start": 50, "stop": 40, "step": 10})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        assert out.strip() == cli.SCAN_HEADER

    def test_prior_sweep_reports_invalid_points(self, tmp_path, capsys):
        cfg = dict(self.BASE, sweep={"param": "p_h_given_h",
                                     "values": [0.5, 0.6, 0.7, 0.8, 0.9]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        # Pr(h|h) <= 2/3 cannot pair with Pr(h) = 2/3: derived Pr(h|l) >= 1
        for row in lines[1:3]:
            assert "InvalidPrior" in row
        for row in lines[3:]:
            assert row.endswith(",")

    def test_huge_prior_values_are_quiet_error_cells(self, tmp_path, capsys):
        # the column checks overflow on 1e300 and subtract inf from inf: no RuntimeWarning
        cfg = dict(self.BASE, prior={"p_h": 0.5, "p_h_given_h": 1e300},
                   sweep={"param": "p_h", "values": [1e300, 0.3]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        assert out.split("\n")[1:] == [
            "100,,,,,,,,InvalidPrior: Pr(h) must lie strictly inside (0; 1); got 1e+300",
            "100,,,,,,,,InvalidPrior: Pr(h|h) must lie strictly inside (0; 1); got 1e+300", ""]

    def test_non_finite_scores_are_error_cells(self, tmp_path, capsys):
        # score(h, q) = 1e308 q, score(l, q) = -1e308 q: the spread 2e308 max(q)
        # overflows once Pr(h|h) passes ~0.9
        rule = {"rule": "table", "h": [0.0, 1e308], "l": [0.0, -1e308]}
        cfg = dict(self.BASE, rule=rule, prior={"p_h": 0.5, "p_h_given_h": 0.7},
                   sweep={"param": "p_h_given_h", "values": [0.7, 0.95]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        lines = out.split("\n")
        assert code == 0 and len(lines) == 4
        assert "InvalidSetting" not in lines[1]
        assert lines[2].startswith("100,,,,,,,,InvalidSetting: "), lines[2]
        # an n error comes before the scores error
        cfg = dict(self.BASE, rule=rule, prior={"p_h": 0.5, "p_h_given_h": 0.95},
                   sweep={"param": "n", "values": [1, 10]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        lines = out.split("\n")
        assert code == 0 and lines[1].startswith("1,,,,,,,,ConfigError: ")
        assert lines[2].startswith("10,,,,,,,,InvalidSetting: "), lines[2]

    def test_overflowing_side_ratio_is_an_error_cell(self, tmp_path, capsys):
        # the prior at Pr(h|h) 0.7 overflows a side ratio; the sweep goes on past it
        cfg = dict(OVERFLOW_CFG, sweep={"param": "p_h_given_h", "values": [0.6, 0.7, 0.8]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        lines = out.split("\n")
        assert code == 0 and len(lines) == 5 and lines[-1] == ""
        assert lines[2] == ("100,,,,,,,,InvalidSetting: the ex_ante h side's ratio "
                            "1.0000000000000002e+299 / 1e-290 overflows the float range")
        assert lines[1].startswith("100,,,,,,,,NoFiniteN: ")
        assert lines[3].startswith("100,,,,,,,,NoFiniteN: ")

    def test_n_sweep_error_cells(self, tmp_path, capsys):
        # an n-sweep's one prior fails once, and every row with a valid n carries its
        # cell; an n error comes first
        cfg = dict(OVERFLOW_CFG, sweep={"param": "n", "values": [1, 10, 100]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        lines = out.split("\n")
        assert code == 0 and len(lines) == 5 and lines[-1] == ""
        assert lines[1] == '1,,,,,,,,ConfigError: "n" must be an integer >= 2; got 1'
        for n, line in zip((10, 100), lines[2:4]):
            assert line == (f"{n},,,,,,,,InvalidSetting: the ex_ante h side's ratio "
                            "1.0000000000000002e+299 / 1e-290 overflows the float range")
        # the all-zero table rule: both corners never profit, and n_zero has no finite value
        cfg = dict(self.BASE, rule={"rule": "table"}, sweep={"param": "n", "values": [2.5, 5, 50]})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        lines = out.split("\n")
        assert code == 0 and len(lines) == 5
        assert lines[1].startswith("2.5,,,,,,,,ConfigError: "), lines[1]
        for n, line in zip((5, 50), lines[2:4]):
            assert line == (f"{n},,,,,,,,NoFiniteN: a required positive quantity is "
                            "non-positive; the rule is not strictly proper on this prior")

    def test_prior_sweep_memory_is_flat(self, tmp_path, capsys):
        # one chunk's columns kept at a time: ~0.8 MB at 10^4 priors, the written
        # rows included, where a memo of every prior's n_zero held 3.6 MB
        cfg = dict(self.BASE, prior={"p_h": 0.4, "p_h_given_h": 0.7},
                   sweep={"param": "p_h_given_h", "start": 0.5, "stop": 0.95,
                          "step": 0.45 / 9999})
        path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code, out = run(capsys, ["scan", "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.count("\n") == 10_001
        assert peak < 2.5 * 2 ** 20, peak

    def test_n_sweep_memory_is_flat(self, tmp_path, monkeypatch):
        # rows are priced and written a chunk at a time and each chunk's points made
        # as one column when it is read: ~0.5 MB at 10^5 rows, where listing the
        # points first peaked at ~4.3 MB and building every row first at ~22 MB
        class Sink:  # keeps a line count and the last few bytes, not the output
            lines, tail = 0, ""

            def write(self, text):
                self.lines += text.count("\n")
                self.tail = (self.tail + text)[-100:]

            def flush(self):
                pass

        cfg = dict(self.BASE, sweep={"param": "n", "start": 2, "stop": 100_001, "step": 1})
        path = write_config(tmp_path, cfg)
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["scan", "--config", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.lines == 100_001
        assert sink.tail.split("\n")[-2] == props.scan_row_per_setting(100_001, cl.BrierRule(),
                                                       cl.make_prior(2.0 / 3.0, 0.8))
        assert peak < 2 * 2 ** 20, peak

    def test_chunk_edges(self, tmp_path, capsys):
        # error points on and across chunk edges keep their cells and places, and
        # every row equals the per-row oracle
        edge = cli._CHUNK_ROWS
        spots = [0, edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge, 2 * edge + 5]
        size = 2 * edge + 6
        rule, pr = cl.BrierRule(), cl.make_prior(0.4, 0.7)
        bad_n = [1, 2 ** 62 + 1, 2.5]
        values = [bad_n[spots.index(j) % 3] if j in spots else 2 + (j * 7919) % 10 ** 6
                  for j in range(size)]
        n_cells = {1: 'ConfigError: "n" must be an integer >= 2; got 1',
                   2 ** 62 + 1: 'ConfigError: "n" must be at most 2^62; got a 63-bit integer',
                   2.5: 'ConfigError: "n" must be an integer >= 2; got 2.5'}
        cfg = {"rule": {"rule": "brier"}, "prior": {"p_h": 0.4, "p_h_given_h": 0.7},
               "sweep": {"param": "n", "values": values}}
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        lines = out.split("\n")
        assert code == 0 and lines[0] == cli.SCAN_HEADER and lines[-1] == ""
        assert len(lines) == size + 2
        nz = props.n_zero_by_search(pr, rule)
        for line, v in zip(lines[1:], values):
            if v in n_cells:
                assert line == f"{v},,,,,,,,{n_cells[v]}", line
            else:
                setting = cl.make_setting(v, rule, prior=pr)
                ex = props.report_per_setting(setting, cl.EX_ANTE)
                ba = props.report_per_setting(setting, cl.BAYESIAN)
                assert line == f"{v},{ex.k_h},{ex.k_l},{ex.k},{ba.k_h},{ba.k_l},{ba.k},{nz},"
        # a prior sweep: invalid priors on and across the edges
        p_hhs = [0.5 if j in spots else round(0.7 + 0.29 * j / size, 9) for j in range(size)]
        cfg = {"n": 5000, "rule": {"rule": "log"}, "prior": {"p_h": 2.0 / 3.0, "p_h_given_h": 0.8},
               "sweep": {"param": "p_h_given_h", "values": p_hhs}}
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        lines = out.split("\n")
        assert code == 0 and len(lines) == size + 2 and lines[-1] == ""
        for line, p_hh in zip(lines[1:], p_hhs):
            try:
                prior_j = cl.make_prior(2.0 / 3.0, p_hh)
            except cl.CollusionLabError as exc:
                cell = f"{type(exc).__name__}: {exc}".replace(",", ";")
                assert line == f"5000,,,,,,,,{cell}", line
                continue
            want = props.scan_row_per_setting(5000, cl.LogRule(), prior_j)
            assert want is not None and line == want, (p_hh, line, want)

    def test_prior_sweep_columns_match_scalar_path(self):
        # each chunk's priors are priced as columns: every row equals the per-setting
        # oracle or the scalar path's error cell, at tol 0, 1e-9 and 1e-3
        seen = props.check_prior_sweep_columns()
        assert seen["priced"] > 1000 and seen["error"] > 100, seen

    ORACLE_RULES =[{"rule": "brier"}, {"rule": "log"}, {"rule": "log", "base": 2.0},
                    {"rule": "table", "h": [0.0, 0.0], "l": [1.0, 0.0]},
                    {"rule": "table", "h": [-0.3, 1.7], "l": [0.9, -1.2]}]

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("rule", ORACLE_RULES)
    def test_rows_match_per_setting_oracle(self, tmp_path, capsys, rule, tol):
        # n-sweeps to 2^62 (one over a world model) and both prior sweeps,
        # each row against the thresholds recomputed for its setting alone
        base = {"rule": rule, "tolerance": tol, "n": 300,
                "prior": {"p_h": 0.4, "p_h_given_h": 0.7}}
        world = {"p_state": [0.3, 0.7], "p_h_given_state": [0.2, 0.9]}
        ns = props.log_spaced_n()
        p_hs = [round(0.05 + 0.6 * j / 39, 6) for j in range(40)]
        p_hhs = [round(0.45 + 0.5 * j / 39, 6) for j in range(40)]
        cases = [
            (dict(base, sweep={"param": "n", "values": ns}),
             [(n, cl.make_prior(0.4, 0.7)) for n in ns]),
            (dict(base, sweep={"param": "n", "start": 2, "stop": 400, "step": 3}),
             [(n, cl.make_prior(0.4, 0.7)) for n in range(2, 401, 3)]),
            ({k: v for k, v in base.items() if k != "prior"}
             | {"world_model": world, "sweep": {"param": "n", "values": ns}},
             [(n, cl.induce_prior(cl.WorldModel((0.3, 0.7), (0.2, 0.9)))) for n in ns]),
            (dict(base, sweep={"param": "p_h", "values": p_hs}),
             [(300, cl.make_prior(p, 0.7)) for p in p_hs]),
            (dict(base, sweep={"param": "p_h_given_h", "values": p_hhs}),
             [(300, cl.make_prior(0.4, p)) for p in p_hhs]),
        ]
        scoring_rule = cl.rule_from_config(rule)
        for cfg, settings in cases:
            code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
            lines = out.split("\n")
            assert code == 0 and lines[0] == cli.SCAN_HEADER and lines[-1] == ""
            assert len(lines) == len(settings) + 2
            for line, (n, pr) in zip(lines[1:], settings):
                want = props.scan_row_per_setting(n, scoring_rule, pr, tol)
                if want is None:
                    assert line.startswith(f"{n},,,,,,,,NoFiniteN: "), (cfg, line)
                else:
                    assert line == want, (cfg, line, want)

    def test_work_per_row(self, tmp_path, capsys, monkeypatch):
        # no valid point is scored by the scalar path: an n-sweep scores its one
        # prior once, as a one-row column, and a prior sweep each chunk's priors
        # once, as a column
        calls, column_calls = [], []

        def counted(rule, pr):
            calls.append(pr)
            return scoring.four_scores(rule, pr)

        def counted_columns(rule, priors):
            column_calls.append(len(priors.p_h))
            return scoring.four_score_columns(rule, priors)

        monkeypatch.setattr(thresholds, "four_scores", counted)
        monkeypatch.setattr(thresholds, "four_score_columns", counted_columns)
        cfg = dict(self.BASE, sweep={"param": "n", "start": 10, "stop": 5009, "step": 1})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 0 and out.count("\n") == 5001
        assert calls == [] and column_calls == [1]
        values = [round(0.1 + 0.6 * j / 249, 6) for j in range(250)]
        cfg = dict(self.BASE, sweep={"param": "p_h", "values": values})
        column_calls.clear()
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        rows = out.split("\n")[1:-1]
        assert code == 0 and len(rows) == 250 and all(row.endswith(",") for row in rows)
        assert calls == [] and column_calls == [250]
        # two chunks, each scored as one column; the invalid point also takes the
        # scalar path, which fails before it scores
        values = [0.0] + [round(0.1 + 0.6 * j / 1023, 9) for j in range(1024)]
        cfg = dict(self.BASE, sweep={"param": "p_h", "values": values})
        column_calls.clear()
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        rows = out.split("\n")[1:-1]
        assert code == 0 and len(rows) == 1025 and "InvalidPrior" in rows[0]
        assert calls == [] and column_calls == [1024, 1]

    def test_stdout_matches_per_point_oracle(self, tmp_path, capsys):
        # the chunked path against the per-point one it replaced, byte for byte: range
        # points made alone, each n checked by _valid_n, each row its own f-string
        for raw in props.scan_oracle_configs():
            code, out = run(capsys, ["scan", "--config", write_config(tmp_path, raw)])
            assert code == 0
            tol = raw.get("tolerance", cl.DEFAULT_TOL)
            assert out == props.scan_stdout_per_point(raw, tol), raw

    def test_golden_output(self, tmp_path, capsys):
        # captured before n_zero became closed form and scan parsed once per
        # sweep: valid rows, n < 2, invalid priors, bad rules, NoFiniteN; the
        # n-sweep's 2.7 row was regenerated when n values stopped being truncated
        golden = json.loads((Path(__file__).parent / "data" / "scan_golden.json").read_text())
        for case in golden:
            code, out = run(capsys, ["scan", "--config", write_config(tmp_path, case["config"])])
            assert (code, out) == (case["exit"], case["stdout"]), case["config"]


def sweep_points(sweep: dict) -> tuple[str, list]:
    """``cli._sweep_values``' parameter and its points, the chunks joined, as Python numbers."""
    param, chunks = cli._sweep_values(sweep)
    return param, [v for chunk in chunks for v in (chunk if isinstance(chunk, list)
                                                      else chunk.tolist())]


class TestSweepValues:
    def test_points_are_start_plus_index_times_step(self):
        param, values = sweep_points({"param": "p_h", "start": 0.1, "stop": 0.8, "step": 1e-5})
        assert param == "p_h" and len(values) == 70_001
        assert values[-1] == 0.8
        for i in range(0, 70_001, 7):
            assert values[i] == float(Decimal("0.1") + i * Decimal("0.00001")), i

    def test_ranges(self):
        assert sweep_points({"param": "n", "start": 10, "stop": 40, "step": 10}) \
            == ("n", [10, 20, 30, 40])
        assert sweep_points({"param": "n", "start": 2, "stop": 9, "step": 3})[1] == [2, 5, 8]
        assert sweep_points({"param": "n", "start": 50, "stop": 40, "step": 10})[1] == []
        assert sweep_points({"param": "n", "start": 1.5, "stop": 1.5, "step": 1})[1] == [2]
        assert sweep_points({"param": "p_h", "values": [0.3, 1]})[1] == [0.3, 1]

    def test_points_are_made_as_read(self):
        # a 10^6-point range is checked but not listed: the list took ~38.6 MB; each
        # chunk is one column, made when it is read
        tracemalloc.start()
        try:
            param, chunks = cli._sweep_values({"param": "n", "start": 2, "stop": 1_000_001,
                                               "step": 1})
            first = next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert param == "n" and first.dtype == np.int64 and first[:3].tolist() == [2, 3, 4]
        assert len(first) == cli._CHUNK_ROWS
        assert peak < 4 * 2 ** 20, peak
        assert sum(map(len, chunks)) == 1_000_000 - cli._CHUNK_ROWS

    def test_chunks_keep_python_bits(self):
        # int64 for int operands, float64 for a float one, Python numbers past 2^62:
        # every point is Python's start + i*step, rounded half to even for n
        cases = [(2.5, 6, 0.5), (9007199254740992.0, 9007199254741010.0, 1),
                 (9007199254740993, 9007199254741010, 0.5),
                 (4611686018427387900, 4611686018427387910, 3), (-3.5, 9, 1.25),
                 (5, 2 ** 72, 2 ** 70), (0.5, 10 ** 21, 10 ** 20), (2, 2 ** 63 + 7, 2 ** 61),
                 (3, 3 + 5 * 3000, 5)]
        for param in ("n", "p_h"):
            for start, stop, step in cases:
                sweep = {"param": param, "start": start, "stop": stop, "step": step}
                got = sweep_points(sweep)[1]
                want = props.sweep_points_per_point(sweep)
                assert got == want and list(map(type, got)) == list(map(type, want)), sweep
        assert sweep_points({"param": "n", "start": 2.5, "stop": 6, "step": 0.5})[1] \
            == [2, 3, 4, 4, 4, 5, 6, 6]

    @pytest.mark.parametrize("sweep", [
        {"param": "n", "start": 10, "stop": math.inf, "step": 1},
        {"param": "n", "start": -math.inf, "stop": 10, "step": 1},
        {"param": "n", "start": 10, "stop": 20, "step": math.nan},
        {"param": "n", "values": [10, math.nan]},
        {"param": "p_h", "values": [0.3, math.inf]},
        {"param": "n", "start": 2, "stop": 10, "step": True},
        {"param": "n", "start": 2, "stop": 10, "step": 0},
        {"param": "p_h", "start": 0.0, "stop": 1e9, "step": 1e-3},
    ])
    def test_rejected(self, sweep):
        with pytest.raises(cl.ConfigError):
            cli._sweep_values(sweep)


class TestGameCheckCommand:
    def test_bne_and_deviation(self, tmp_path, capsys):
        v = [[[1.0, 0.0], [0.0, 2.0]]]
        game = {
            "n": 2,
            "types": [["t"], ["t"]],
            "actions": [["a", "b"], ["a", "b"]],
            "prior": [[1.0]],
            "utilities": [v, v],
        }
        game_path = tmp_path / "game.json"
        game_path.write_text(json.dumps(game))
        profile = {"strategies": [[[1.0, 0.0]], [[1.0, 0.0]]]}
        cfg = {"game": str(game_path), "profile": profile, "k": 2, "concept": "ex_ante"}
        code, out = run(capsys, ["game-check", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        payload = json.loads(out)
        assert payload["bne"] is True          # no lone agent can move the payoff
        assert payload["found"] is True        # but the pair jointly switches
        cert = cl.DeviationCertificate.from_dict(payload["certificate"])
        assert all(d > 0 for d in cert.deltas)

    def test_missing_game(self, capsys):
        code, _ = run(capsys, ["game-check"])
        assert code == 2


GAME = {"n": 2, "types": [["t"], ["t"]], "actions": [["a", "b"], ["a", "b"]],
        "prior": [[1.0]], "utilities": [[[[1.0, 0.0], [0.0, 2.0]]]] * 2}
GAME_CFG = {"game": GAME, "profile": {"strategies": [[[1.0, 0.0]], [[1.0, 0.0]]]}, "k": 2}


def _nested(value, depth: int):
    """``value`` inside ``depth`` one-element lists."""
    for _ in range(depth):
        value = [value]
    return value


#: Configs that exit 2 with one line on stderr: (command, config).
MALFORMED = [
    ("game-check", dict(GAME_CFG, concept="interim_D")),
    ("game-check", dict(GAME_CFG, grid_steps=1)),
    ("game-check", dict(GAME_CFG, budget="x")),
    ("falsify", dict(REFERENCE, k=40, budget="x")),
    ("thresholds", dict(REFERENCE, prior={"p_h": 0.5})),
    ("game-check", dict(GAME_CFG, game={k: v for k, v in GAME.items() if k != "types"})),
    ("thresholds", dict(REFERENCE, prior=5)),
    ("thresholds", dict(REFERENCE, prior={"p_h": "a", "p_h_given_h": 0.8})),
    ("thresholds", {"n": 100, "world_model": {"p_state": 3, "p_h_given_state": [0.2, 0.8]}}),
    ("game-check", dict(GAME_CFG, game=5)),
    ("game-check", dict(GAME_CFG, game=dict(GAME, n="x"))),
    ("scan", dict(REFERENCE, sweep={"param": "n", "start": 10, "stop": 20, "step": "x"})),
    ("scan", dict(REFERENCE, sweep={"param": "n", "values": [5, "x"]})),
    ("scan", dict(REFERENCE, sweep={"param": "p_h", "values": [0.3, "x"]})),
    ("thresholds", dict(REFERENCE, tolerance="x")),
    ("thresholds", dict(REFERENCE, tolerance=math.nan)),
    ("thresholds", dict(REFERENCE, tolerance=math.inf)),
    ("thresholds", dict(REFERENCE, tolerance=-math.inf)),
    ("thresholds", dict(REFERENCE, tolerance=True)),
    ("falsify", dict(REFERENCE, k=40, tolerance=math.nan)),
    ("thresholds", dict(REFERENCE, rule=5)),
    ("thresholds", dict(REFERENCE, rule={"rule": "log", "base": "x"})),
    ("thresholds", dict(REFERENCE, rule={"rule": "table", "h": ["x", 1.0], "l": [0.0, 0.0]})),
    ("thresholds", dict(REFERENCE, rule={"rule": "table", "h": [0.0, 1.0], "l": 5})),
    ("game-check", dict(GAME_CFG, profile=5)),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators=[{"bl": "x", "bh": 1}])),
    ("scan", dict(REFERENCE, sweep={"param": "n", "start": 10, "stop": math.inf, "step": 1})),
    ("scan", dict(REFERENCE, sweep={"param": "n", "values": [10, math.nan]})),
    ("falsify", dict(REFERENCE, k=True)),
    ("falsify", dict(REFERENCE, k=40, budget=True)),
    ("simulate", dict(TestSimulateCommand.WM_CFG, trials=True)),
    ("simulate", dict(TestSimulateCommand.WM_CFG, seed=False)),
    ("thresholds", dict(REFERENCE, n=10 ** 400)),
    ("simulate", dict(TestSimulateCommand.WM_CFG, n=2 ** 63 + 1)),
    ("game-check", {"game": {"n": True, "types": [["a", "b"]], "actions": [["a", "b"]],
                             "prior": [0.5, 0.5], "utilities": [[[1.0, 0.0], [0.0, 1.0]]]}}),
    ("game-check", dict(GAME_CFG, game=dict(GAME, n=2.7))),
    ("game-check", dict(GAME_CFG, game=dict(GAME, n="2"))),
    ("game-check", dict(GAME_CFG, profile={"strategies": [[["1.0", 0.0]], [[1.0, 0.0]]]})),
    ("game-check", dict(GAME_CFG, profile={"strategies": [[[True, False]], [[1.0, 0.0]]]})),
    ("game-check", {"game": {"n": 1, "types": [["a", "b"]], "actions": [["a", "b"]],
                             "prior": ["0.5", 0.5], "utilities": [[[1.0, 0.0], [0.0, 1.0]]]}}),
    ("game-check", {"game": {"n": 1, "types": [["a", "b"]], "actions": [["a", "b"]],
                             "prior": [0.5, 0.5], "utilities": [[["1", False], [0.0, True]]]}}),
    ("simulate", dict(TestSimulateCommand.WM_CFG,
                      deviators=[{"bl": True, "bh": "0.7", "extra": 1}])),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators=[{"bl": 0.2, "bh": "0.7"}])),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators=[{"bl": True, "bh": 0.7}])),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators=[{"bl": 0.2, "bh": 0.7, "x": 1}])),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators=[{"bl": 0.2}])),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators=[[0.2, 0.7]])),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators={"bl": 0.2, "bh": 0.7})),
    ("simulate", dict(TestSimulateCommand.WM_CFG, deviators=[])),
    ("falsify", dict(REFERENCE, k=40, rule={"rule": "table", "h": [1e308, 1e308],
                                            "l": [0.0, 0.0]})),
    # a non-finite score (inf), then finite scores whose spread overflows
    ("thresholds", dict(REFERENCE, rule={"rule": "table", "h": [1e308, 1e308],
                                         "l": [0.0, 0.0]})),
    ("thresholds", dict(REFERENCE, prior={"p_h": 0.4, "p_h_given_h": 0.7},
                        rule={"rule": "table", "h": [1e308, 0.0], "l": [-1e308, 0.0]})),
    ("falsify", dict(REFERENCE, k=3, prior={"p_h": 0.4, "p_h_given_h": 0.7},
                     rule={"rule": "table", "h": [1e308, 0.0], "l": [-1e308, 0.0]})),
    # finite scores, zero spread, but 99 peers times 1e308 overflows a utility sum
    ("falsify", dict(REFERENCE, k=3, prior={"p_h": 0.4, "p_h_given_h": 0.7},
                     rule={"rule": "table", "h": [1e308, 0.0], "l": [1e308, 0.0]})),
    # finite utilities whose difference overflows a delta
    ("game-check", {"game": dict(GAME, actions=[["x", "y"], ["x", "y"]],
                                 utilities=[[[[-1.7e308, -1.7e308], [1.7e308, 1.7e308]]],
                                            [[[0.0, 0.0], [0.0, 0.0]]]]),
                    "profile": GAME_CFG["profile"], "k": 1, "concept": "ex_ante",
                    "grid_steps": 3}),
    # prior and rule values are JSON numbers and bools, not strings
    ("thresholds", dict(REFERENCE, prior={"p_h": 2.0 / 3.0, "p_h_given_h": "0.8"})),
    ("simulate", dict(TestSimulateCommand.WM_CFG,
                      world_model={"p_state": [0.5, 0.5], "p_h_given_state": ["0.9", 0.2]})),
    ("simulate", dict(TestSimulateCommand.WM_CFG,
                      world_model={"p_state": "10", "p_h_given_state": [0.9, 0.2]})),
    ("thresholds", dict(REFERENCE, rule={"rule": "table", "h": [0.0, 2.0], "l": [1.0, -1.0],
                                         "strictly_proper": "no"})),
    ("thresholds", dict(REFERENCE, format="csv")),
    # a sweep takes either values or start/stop/step, never both
    ("scan", dict(REFERENCE, sweep={"param": "n", "start": 2, "stop": 5, "step": 1,
                                    "values": [3]})),
    ("scan", dict(REFERENCE, sweep={"param": "p_h", "values": [0.3], "step": 0.1})),
    ("game-check", dict(GAME_CFG, grid_steps=10 ** 20)),  # more grid points than 2^20
    # tables nested past numpy's 32-axis iterators, and past its 64 axes
    *[("game-check", dict(GAME_CFG, game=dict(GAME, prior=_nested(1.0, depth))))
      for depth in (33, 64, 100)],
    ("game-check", dict(GAME_CFG, profile={"strategies": [_nested(1.0, 40), [[1.0, 0.0]]]})),
]


@pytest.mark.parametrize("command,cfg", MALFORMED)
def test_malformed_config_exits_2(tmp_path, capsys, command, cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], captured.err


@pytest.mark.parametrize("where", ["inline", "file"])
@pytest.mark.parametrize("field,value,start", [
    ("utilities", [[1.0, list(range(100_000))]], "got [0, 1, 2, 3, 4, 5"),  # ragged
    ("prior", _nested(list(range(100_000)), 70), "got [[[[[[[0, 1, 2, 3"),  # past 64 axes
])
def test_long_offending_value_is_cut(tmp_path, capsys, where, field, value, start):
    # the error line names the value's start, not the whole of a table: the
    # ragged table's repr alone runs to 688,890 characters
    game = {"n": 1, "types": [["a", "b"]], "actions": [["a", "b"]], "prior": [0.5, 0.5],
            "utilities": [[[1.0, 0.0], [0.0, 1.0]]], field: value}
    spec = game if where == "inline" else write_config(tmp_path, game, "game.json")
    code = cli.main(["game-check", "--config", write_config(tmp_path, {"game": spec})])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 400, len(captured.err)
    assert start in captured.err and "characters)" in captured.err, captured.err


#: The config keys each command reads; scalar ones are also flags.
READS = {
    "thresholds": {"n", "rule", "prior", "world_model", "tolerance", "format"},
    "verify-examples": {"tolerance", "format"},
    "falsify": {"n", "rule", "prior", "world_model", "tolerance", "k", "concept", "grid_steps"},
    "simulate": {"n", "rule", "prior", "world_model", "deviators", "trials", "seed"},
    "scan": {"n", "rule", "prior", "world_model", "tolerance", "sweep"},
    "game-check": {"game", "profile", "tolerance", "k", "concept", "grid_steps", "budget"},
}
VALID = {
    "verify-examples": {},
    "game-check": GAME_CFG,
    "simulate": TestSimulateCommand.WM_CFG,
    "falsify": dict(REFERENCE, k=40),
    "scan": dict(REFERENCE, sweep={"param": "n", "values": [10, 20]}),
}
UNREAD = {"n": 100, "rule": REFERENCE["rule"], "prior": REFERENCE["prior"],
          "world_model": TestSimulateCommand.WM_CFG["world_model"], "tolerance": 1e-9,
          "format": "json", "budget": 5}


@pytest.mark.parametrize("command,key", [
    (command, key) for command in VALID for key in UNREAD if key not in READS[command]])
def test_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, key):
    assert cli.main([command, "--config", write_config(tmp_path, VALID[command])]) in (0, 1)
    capsys.readouterr()
    cfg = dict(VALID[command], **{key: UNREAD[key]})
    code = cli.main([command, "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and f"['{key}']" in captured.err


def test_flags_are_the_scalar_keys_each_command_reads(capsys):
    assert {name: set(keys) for name, (_, keys) in cli._COMMANDS.items()} == READS
    assert sum(map(len, READS.values())) == 36
    # each scalar key with a flag value and what the flag parses it to
    scalar = {"n": ("7", 7), "tolerance": ("0.5", 0.5), "format": ("text", "text"),
              "k": ("7", 7), "concept": ("bayesian", "bayesian"), "grid_steps": ("7", 7),
              "budget": ("7", 7), "trials": ("7", 7), "seed": ("7", 7)}
    assert set(cli._FLAGS) == set(scalar)
    parser = cli._build_parser()
    flags = 0
    for command, keys in READS.items():
        for key in set().union(*READS.values()):
            text, want = scalar.get(key, ("7", None))
            argv = [command, "--" + key.replace("_", "-"), text]
            if key in keys and key in scalar:
                assert vars(parser.parse_args(argv))[key] == want
                flags += 1
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
    capsys.readouterr()
    assert flags == 20
    with pytest.raises(SystemExit):
        parser.parse_args(["thresholds", "--format", "csv"])


OVERLONG = "1" + "0" * 5000  # more digits than Python converts to an int


@pytest.mark.parametrize("command", ["thresholds", "game-check"])
def test_overlong_integer_exits_2(tmp_path, capsys, command):
    game = tmp_path / "game.json"
    game.write_text('{"n": %s}' % OVERLONG)
    path = tmp_path / "config.json"
    path.write_text('{"n": %s}' % OVERLONG if command == "thresholds"
                    else json.dumps({"game": str(game)}))
    code = cli.main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


DEEP = "[" * 100_000  # nested past the JSON decoder's recursion limit


@pytest.mark.parametrize("command,inline", [("thresholds", True), ("game-check", False),
                                            ("game-check", True)])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command, inline):
    game = tmp_path / "game.json"
    game.write_text(DEEP)
    path = tmp_path / "config.json"
    prefix = '{"game": ' if command == "game-check" else ""
    path.write_text(prefix + DEEP if inline else json.dumps({"game": str(game)}))
    code = cli.main([command, "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "nested too deeply" in captured.err


def _game_file_corpus() -> dict:
    """Game file contents by name: the inline malformed games, then tampered texts."""
    corpus = {f"inline {i}": json.dumps(cfg["game"]) for i, (command, cfg) in enumerate(MALFORMED)
              if command == "game-check" and "game" in cfg and cfg["game"] is not GAME}
    base = cl.peer_prediction_game(cl.make_setting(
        3, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8))).to_dict()
    text = json.dumps(base)
    corpus["valid"] = text

    def number(token, table="utilities"):  # the table's first number written as token
        data = json.loads(text)
        cell = data[table]
        while isinstance(cell[0], list):
            cell = cell[0]
        cell[0] = "@"
        return json.dumps(data).replace('"@"', token, 1)

    for token in ("+1", "01", ".5", "1.", "-", "1e5e5", "NaN", "Infinity", "-Infinity",
                  "1e999", "1" + "0" * 400, "10**400", "1" + "0" * 5000, "true", "null",
                  '"0.5"', "1e302", "0x1", "1_0", "[1.0]", "", "1E-999999"):
        corpus[f"utilities {token[:12]!r}"] = number(token)
    for token in ("0.9", "-0.0", "NaN", "1e999", '"0.5"', "false", "1E-999999"):
        corpus[f"prior {token!r}"] = number(token, "prior")
    first_row = json.dumps(base["utilities"][0][0][0])
    corpus["ragged row"] = text.replace(first_row, first_row[:first_row.rindex(",")] + "]", 1)
    corpus["extra nesting"] = text.replace(first_row, f"[{first_row}]", 1)
    corpus["row without comma"] = text.replace(first_row, first_row.replace(",", " "), 1)
    corpus["row trailing comma"] = text.replace(first_row, first_row[:-1] + ",]", 1)
    corpus["two tables"] = json.dumps({**base, "utilities": base["utilities"][:2]})
    corpus["flat prior"] = json.dumps({**base, "prior": sum(sum(base["prior"], []), [])})
    corpus["duplicate prior"] = '{"prior": [[[1.0]]], ' + text[1:]
    corpus["duplicate prior last"] = text[:-1] + ', "prior": 5}'
    corpus["duplicate utilities"] = text[:-1] + ', "utilities": [[[1.0]]]}'
    corpus["nested prior"] = json.dumps({**base, "types": [{"prior": base["prior"]}] * 3})
    corpus["missing actions"] = json.dumps({k: v for k, v in base.items() if k != "actions"})
    corpus["extra key"] = json.dumps({**base, "x": 1})
    corpus["escaped key"] = text.replace('"prior"', '"pri\\u006fr"')
    for label in ('"prior": [1]', "\u0000", "1E-999999", "prior", "utilities", "["):
        relabel = [[label if a == "h" else a for a in labels] for labels in base["types"]]
        corpus[f"label {label!r}"] = json.dumps({**base, "types": relabel, "actions": relabel})
    corpus["types not lists"] = json.dumps({**base, "types": 5})
    corpus["empty type set"] = json.dumps({**base, "types": [[], [], []]})
    corpus["pretty"] = json.dumps(base, indent=2).replace("\n", "\r\n")
    corpus["compact"] = json.dumps(base, separators=(",", ":"))
    for garbage in (" x", "]", "}", "{}", " \n"):
        corpus[f"trailing {garbage!r}"] = text + garbage
    corpus["bom"] = "\ufeff" + text
    corpus["deep nesting"] = DEEP
    corpus["not utf-8"] = b"\xff" + text.encode()
    for other in ("", "[]", "5", "null", "{", '"game"'):
        corpus[f"document {other[:8]!r}"] = other
    return corpus


GAME_FILES = _game_file_corpus()


@pytest.mark.parametrize("name", list(GAME_FILES))
def test_game_file_reads_as_general_json(tmp_path, capsys, monkeypatch, name):
    # the flat table reader changes no exit code, stdout or message of the general path
    game = tmp_path / "game.json"
    content = GAME_FILES[name]
    if isinstance(content, bytes):
        game.write_bytes(content)
    else:
        game.write_text(content, encoding="utf-8")
    argv = ["game-check", "--config", write_config(tmp_path, {"game": str(game)})]

    def outcome():
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    flat = outcome()
    monkeypatch.setattr(checker, "game_from_text", lambda text: None)
    assert outcome() == flat
    code, out, err = flat
    if code == 0:
        assert err == "" and isinstance(json.loads(out)["bne"], bool)
    else:
        assert code == 2 and out == "" and err.count("\n") == 1, (code, err)


def test_nan_tolerance_flag_exits_2(tmp_path, capsys):
    code = cli.main(["thresholds", "--config", write_config(tmp_path, REFERENCE),
                     "--tolerance", "nan"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1


FUZZ_CONFIGS = [
    ("thresholds", {"n": 100, "rule": {"rule": "table", "h": [-0.2, 1.2], "l": [0.9, -1.1]},
                    "prior": REFERENCE["prior"], "tolerance": 1e-9, "format": "text"}),
    ("verify-examples", {"tolerance": 1e-9, "format": "json"}),
    ("falsify", {"n": 60, "rule": {"rule": "log", "base": 2.0}, "prior": REFERENCE["prior"],
                 "k": 20, "concept": "bayesian", "grid_steps": 3}),
    ("simulate", {"n": 6, "rule": {"rule": "brier"},
                  "world_model": {"p_state": [0.5, 0.5], "p_h_given_state": [0.9, 0.2]},
                  "trials": 300, "seed": 3, "deviators": [{"bl": 0.0, "bh": 1.0}]}),
    ("scan", {"n": 30, "rule": {"rule": "brier"}, "prior": REFERENCE["prior"],
              "sweep": {"param": "n", "start": 2, "stop": 12, "step": 5}}),
    ("scan", {"n": 30, "rule": {"rule": "brier"}, "prior": REFERENCE["prior"],
              "sweep": {"param": "p_h_given_h", "values": [0.7, 0.9]}}),
    ("game-check", dict(GAME_CFG, concept="ex_ante", grid_steps=3, budget=1000)),
]
# None of these can make n, trials or k larger, so every mutated run stays small.
FUZZ_VALUES = ("x", None, [], {}, -1, 0, 0.5, True, math.nan, math.inf)
DROP = object()


def _config_paths(node, prefix=()):
    """Every key/index path into a JSON tree, parents before children."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _config_paths(child, prefix + (key,))


def _mutated(config, path, value):
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


def test_mutated_configs_never_traceback(tmp_path, capsys):
    """Drop each key, or replace it with seeded picks from FUZZ_VALUES, at any depth.

    Every run must end in a documented exit code with at most a one-line
    message on stderr; an uncaught exception fails the test.
    """
    rng = np.random.default_rng(2024)
    path = tmp_path / "config.json"
    runs = 0
    for command, base in FUZZ_CONFIGS:
        for key_path in _config_paths(base):
            picks = rng.choice(len(FUZZ_VALUES), size=3, replace=False)
            for value in [DROP] + [FUZZ_VALUES[i] for i in picks]:
                path.write_text(json.dumps(_mutated(base, key_path, value)))
                code = cli.main([command, "--config", str(path)])
                err = capsys.readouterr().err
                case = (command, key_path, "drop" if value is DROP else value, code, err)
                assert code in (0, 1, 2, 3), case
                assert "Traceback" not in err and err.count("\n") <= 1, case
                runs += 1
    assert runs > 400


def test_repeated_main_calls_give_the_same_bytes(tmp_path, capsys):
    """One process, one parser: a second run of the same calls repeats every byte."""
    calls = [[command, "--config", write_config(tmp_path, cfg, f"fuzz{i}.json")]
             for i, (command, cfg) in enumerate(FUZZ_CONFIGS)]
    calls.append(["thresholds", "--config", write_config(tmp_path, dict(REFERENCE, prior=5),
                                                         "bad.json")])
    calls.append(["falsify", "--k", "many"])  # argparse rejects it: SystemExit(2)

    def run_all():
        results = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out))
        return results

    first = run_all()
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _ in first] == [0, 0, 1, 0, 0, 0, 0, 2, ("exit", 2)]
    assert run_all() == first

import json
import math
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import collusion_lab as cl
import props
from collusion_lab import cli, scoring, thresholds


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

    def test_budget_exit_code(self, tmp_path, capsys):
        cfg = dict(REFERENCE, k=40, budget=3)
        code, out = run(capsys, ["falsify", "--config", write_config(tmp_path, cfg)])
        assert code == 3
        payload = json.loads(out)
        assert payload["budget_exceeded"]
        assert payload["nodes_searched"] > 3

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

    def test_budget_bounds_the_work_at_any_grid(self, tmp_path, capsys):
        # 10^10 grid strategies: the default budget stops the search after ~10^3 chunks
        cfg = dict(REFERENCE, k=40, concept="bayesian", grid_steps=10 ** 5)
        code = cli.main(["falsify", "--config", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 3 and captured.err == ""
        assert json.loads(captured.out) == {"found": False, "budget_exceeded": True,
                                            "nodes_searched": cl.DEFAULT_BUDGET + 1}


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

    def test_prior_sweep_memory_is_flat(self, tmp_path, capsys):
        # one table and n_zero kept at a time: ~1.7 MB at 10^4 priors, where a
        # memo of every prior's n_zero held 3.6 MB
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
        # four_scores once per prior, for the one table that also gives n_zero:
        # never per row
        calls = []

        def counted(rule, pr):
            calls.append(pr)
            return scoring.four_scores(rule, pr)

        monkeypatch.setattr(thresholds, "four_scores", counted)
        cfg = dict(self.BASE, sweep={"param": "n", "start": 10, "stop": 5009, "step": 1})
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        assert code == 0 and out.count("\n") == 5001
        assert len(calls) == 1
        values = [round(0.1 + 0.6 * j / 249, 6) for j in range(250)]
        cfg = dict(self.BASE, sweep={"param": "p_h", "values": values})
        calls.clear()
        code, out = run(capsys, ["scan", "--config", write_config(tmp_path, cfg)])
        rows = out.split("\n")[1:-1]
        assert code == 0 and len(rows) == 250 and all(row.endswith(",") for row in rows)
        assert len(calls) == len(values)

    def test_golden_output(self, tmp_path, capsys):
        # captured before n_zero became closed form and scan parsed once per
        # sweep: valid rows, n < 2, invalid priors, bad rules, NoFiniteN
        golden = json.loads((Path(__file__).parent / "data" / "scan_golden.json").read_text())
        for case in golden:
            code, out = run(capsys, ["scan", "--config", write_config(tmp_path, case["config"])])
            assert (code, out) == (case["exit"], case["stdout"]), case["config"]


class TestSweepValues:
    def test_points_are_start_plus_index_times_step(self):
        param, values = cli._sweep_values(
            {"param": "p_h", "start": 0.1, "stop": 0.8, "step": 1e-5})
        assert param == "p_h" and len(values) == 70_001
        assert values[-1] == 0.8
        for i in range(0, 70_001, 7):
            assert values[i] == float(Decimal("0.1") + i * Decimal("0.00001")), i

    def test_ranges(self):
        assert cli._sweep_values({"param": "n", "start": 10, "stop": 40, "step": 10}) \
            == ("n", [10, 20, 30, 40])
        assert cli._sweep_values({"param": "n", "start": 2, "stop": 9, "step": 3})[1] == [2, 5, 8]
        assert cli._sweep_values({"param": "n", "start": 50, "stop": 40, "step": 10})[1] == []
        assert cli._sweep_values({"param": "n", "start": 1.5, "stop": 1.5, "step": 1})[1] == [2]
        assert cli._sweep_values({"param": "p_h", "values": [0.3, 1]})[1] == [0.3, 1]

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


@pytest.mark.parametrize("command,cfg", [
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
])
def test_malformed_config_exits_2(tmp_path, capsys, command, cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], captured.err


#: The config keys each command reads; scalar ones are also flags.
READS = {
    "thresholds": {"n", "rule", "prior", "world_model", "tolerance", "format"},
    "verify-examples": {"tolerance", "format"},
    "falsify": {"n", "rule", "prior", "world_model", "tolerance",
                "k", "concept", "grid_steps", "budget"},
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
          "format": "json"}


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
    assert sum(map(len, READS.values())) == 37
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
    assert flags == 21
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
                 "k": 20, "concept": "bayesian", "grid_steps": 3, "budget": 5000}),
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

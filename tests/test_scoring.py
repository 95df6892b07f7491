import math

import numpy as np
import pytest

import collusion_lab as cl
import props


REFERENCE_PRIOR = cl.make_prior(2.0 / 3.0, 0.8)
Q_H = REFERENCE_PRIOR.posterior(cl.HIGH)
Q_L = REFERENCE_PRIOR.posterior(cl.LOW)


class TestScore:
    def test_brier_h_given_h(self):
        assert cl.BrierRule().score(cl.HIGH, Q_H) == pytest.approx(0.92, abs=1e-12)

    def test_brier_l_given_h(self):
        assert cl.BrierRule().score(cl.LOW, Q_H) == pytest.approx(-0.28, abs=1e-12)

    def test_log_point_mass(self):
        assert cl.LogRule().score(cl.HIGH, cl.BinaryDist(1.0)) == 0.0

    def test_log_of_zero(self):
        with pytest.raises(cl.LogOfZero):
            cl.LogRule().score(cl.HIGH, cl.BinaryDist(0.0))

    def test_log_base(self):
        # log_2(0.5) = -1 exactly
        assert cl.LogRule(base=2.0).score(cl.HIGH, cl.BinaryDist(0.5)) == pytest.approx(
            -1.0, abs=1e-12)

    def test_invalid_dist(self):
        with pytest.raises(cl.InvalidDist):
            cl.BinaryDist(1.2)
        with pytest.raises(cl.InvalidDist):
            cl.BinaryDist(float("nan"))

    def test_table_rule_affine(self):
        rule = cl.TableRule(h_intercept=1.0, h_slope=-2.0, l_intercept=0.5, l_slope=0.25)
        d = cl.BinaryDist(0.4)
        assert rule.score(cl.HIGH, d) == pytest.approx(1.0 - 0.8, abs=1e-15)
        assert rule.score(cl.LOW, d) == pytest.approx(0.5 + 0.1, abs=1e-15)

    @pytest.mark.parametrize("rule", [cl.BrierRule(), cl.LogRule(), cl.TableRule(1.0, 2.0)])
    def test_unknown_outcome(self, rule):
        with pytest.raises(cl.InvalidDist) as exc:
            rule.score("x", cl.BinaryDist(0.5))
        assert str(exc.value) == "unknown outcome 'x', expected one of ('l', 'h')"

    @pytest.mark.parametrize("build, error", [
        (lambda v: cl.BinaryDist(v), cl.InvalidDist),
        (lambda v: cl.LogRule(base=v), cl.InvalidDist),
        (lambda v: cl.Strategy(v, 0.0), cl.InvalidStrategy),
        (lambda v: cl.make_prior(v, 0.5), cl.InvalidPrior),
        (lambda v: cl.BinaryPrior(0.5, v, 0.5), cl.InvalidPrior),
        (lambda v: cl.WorldModel((v, 0.5), (0.5, 0.5)), cl.InvalidPrior),
    ], ids=["BinaryDist", "LogRule", "Strategy", "make_prior", "BinaryPrior", "WorldModel"])
    @pytest.mark.parametrize("value", [10 ** 400, "x", True, None],
                             ids=["huge_int", "str", "bool", "None"])
    def test_constructors_take_finite_numbers(self, build, error, value):
        # one check, is_finite_number: no OverflowError or TypeError, and a bool is no number
        with pytest.raises(error):
            build(value)

    @pytest.mark.parametrize("rule", [cl.LogRule(), cl.LogRule(base=2.0), cl.LogRule(base=10.0),
                                      cl.BrierRule(), cl.TableRule(-0.3, 1.7, 0.9, -1.2)])
    def test_score_column_bit_for_bit(self, rule):
        # 10^5 seeded posteriors, uniform and near either end: each column element
        # has the bits of ``score`` (numpy's log differs from math.log in the last
        # bit on some hosts)
        rng = np.random.default_rng(1717)
        q_h = np.concatenate([rng.uniform(0.0, 1.0, size=40_000),
                              10.0 ** -rng.uniform(0.0, 300.0, size=30_000),
                              1.0 - 10.0 ** -rng.uniform(1.0, 15.9, size=30_000)])
        q_h = q_h[(q_h > 0.0) & (q_h < 1.0)]
        assert len(q_h) > 99_990
        for outcome in cl.SIGNALS:
            column = rule.score_at(outcome, q_h)
            scalar = np.array([rule.score(outcome, cl.BinaryDist(x)) for x in q_h.tolist()])
            assert column.dtype == np.float64
            assert np.array_equal(column.view(np.int64), scalar.view(np.int64)), outcome


class TestExpectedScore:
    def test_brier_at_posterior(self):
        # 0.8 * 0.92 + 0.2 * (-0.28)
        assert cl.expected_score(cl.BrierRule(), Q_H, Q_H) == pytest.approx(0.68, abs=1e-12)

    def test_brier_at_p04(self):
        # 0.4 * 0.28 + 0.6 * 0.68
        d = cl.BinaryDist(0.4)
        assert cl.expected_score(cl.BrierRule(), d, d) == pytest.approx(0.52, abs=1e-12)

    @pytest.mark.parametrize("rule", [cl.BrierRule(), cl.LogRule()])
    def test_truth_maximizes(self, rule):
        points = [cl.BinaryDist(i / 20) for i in range(1, 20)]
        for p in points:
            own = cl.expected_score(rule, p, p)
            for q in points:
                assert own >= cl.expected_score(rule, p, q) - 1e-12

    def test_brier_closed_form(self):
        # E_{s~p}[PS_B(s, p)] = p_h^2 + p_l^2
        for i in range(21):
            p = cl.BinaryDist(i / 20)
            assert cl.expected_score(cl.BrierRule(), p, p) == pytest.approx(
                p.p_h ** 2 + p.p_l ** 2, abs=1e-12)


class TestVerifyProperness:
    def test_builtins_strict(self):
        props.check_properness_grids()

    def test_constant_rule(self):
        report = cl.verify_properness(cl.TableRule(), 21)
        assert report.proper
        assert not report.strict
        assert report.worst_violation <= 0.0

    def test_improper_rule_flagged(self):
        # rewards confidence in h regardless of the outcome
        rule = cl.TableRule(h_intercept=0.0, h_slope=2.0, l_intercept=0.0, l_slope=2.0)
        report = cl.verify_properness(rule, 11)
        assert not report.proper
        assert report.worst_violation > 0.0

    def test_log_boundary_points_skipped(self):
        report = cl.verify_properness(cl.LogRule(), 11)
        assert report.skipped_pairs > 0

    def test_grid_steps_contract(self):
        with pytest.raises(ValueError):
            cl.verify_properness(cl.BrierRule(), 1)


class TestFourScores:
    def test_table_is_the_plain_tuple(self):
        table = cl.four_scores(cl.BrierRule(), REFERENCE_PRIOR)
        assert table == pytest.approx((0.92, -0.28, 0.28, 0.68), abs=1e-12)
        assert tuple(table) == (table.s_hh, table.s_lh, table.s_hl, table.s_ll)
        assert table == tuple(table) and hash(table) == hash(tuple(table))
        s_hh, s_lh, s_hl, s_ll = table
        assert table.against(1.0) == (s_hh, s_hl) and table.against(0.0) == (s_lh, s_ll)
        assert table.against(0.25) == (0.25 * s_hh + 0.75 * s_lh, 0.25 * s_hl + 0.75 * s_ll)


class TestGapReport:
    def test_reference_gap_h(self):
        rep = cl.gap_report(cl.BrierRule(), REFERENCE_PRIOR)
        assert rep.gap_h == pytest.approx(0.92 - 0.28, abs=1e-12)

    def test_reference_reward_surplus(self):
        # PS(h, q_h) - PS(l, q_h) = 2 * (Pr(h|h) - Pr(l|h)) = 1.2 under Brier
        rep = cl.gap_report(cl.BrierRule(), REFERENCE_PRIOR)
        assert rep.score_hh - rep.score_lh == pytest.approx(1.2, abs=1e-12)

    def test_mirror_prior_symmetry(self):
        # q_l = 1 - q_h forces equal gaps under Brier
        prior = cl.make_prior(0.5, 0.8)
        assert prior.p_hl == pytest.approx(0.2, abs=1e-12)
        rep = cl.gap_report(cl.BrierRule(), prior)
        assert rep.gap_h == pytest.approx(rep.gap_l, abs=1e-12)

    def test_spread_dominates_deltas(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            rep = cl.gap_report(props.random_rule(rng), props.random_prior(rng))
            assert rep.spread >= max(rep.gap_h, rep.gap_l) >= 0.0

    def test_gap_positivity_random(self):
        props.check_score_gap_positivity()


class TestConfig:
    def test_round_trip(self):
        for rule in (cl.BrierRule(), cl.LogRule(base=2.0),
                     cl.TableRule(1.0, 2.0, 3.0, 4.0)):
            again = cl.rule_from_config(rule.to_config())
            assert again == rule

    def test_unknown_rule(self):
        with pytest.raises(cl.InvalidDist):
            cl.rule_from_config({"rule": "spherical"})

    def test_unknown_keys(self):
        with pytest.raises(cl.InvalidDist):
            cl.rule_from_config({"rule": "brier", "base": 2.0})

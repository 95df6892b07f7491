import math

import numpy as np
import pytest

import collusion_lab as cl
import props


SETTING = props.reference_setting()
LOG_SETTING = props.reference_setting(cl.LogRule())


class TestExAnteThreshold:
    def test_reference_brier(self):
        rep = cl.k_ex_ante(SETTING)
        assert (rep.k_h, rep.k_l, rep.k) == (27, 80, 27)
        assert not rep.k_h_infinite and not rep.k_l_infinite

    def test_reference_log(self):
        assert cl.k_ex_ante(LOG_SETTING).k == 28

    def test_floor_formula_across_n(self):
        # k_E^h = floor(4/15 * (n-1)) + 1 and k_E^l = floor(4/5 * (n-1)) + 1
        for n in (5, 10, 37, 100, 250):
            rep = cl.k_ex_ante(props.reference_setting(n=n))
            assert rep.k_h == math.floor(4.0 / 15.0 * (n - 1)) + 1
            assert rep.k_l == math.floor(4.0 / 5.0 * (n - 1)) + 1

    def test_scale_consistency(self):
        ratios = [cl.k_ex_ante(props.reference_setting(n=n)).ratio_h
                  for n in (10, 50, 100, 333)]
        for r in ratios[1:]:
            assert abs(r - ratios[0]) <= 1e-12

    def test_infinite_branch(self):
        # a (non-proper) rule that never rewards matching on the h side
        rule = cl.TableRule(h_intercept=0.0, h_slope=0.0, l_intercept=1.0, l_slope=0.0)
        setting = cl.make_setting(50, rule, prior=SETTING.prior)
        rep = cl.k_ex_ante(setting)
        assert rep.k_h_infinite
        assert rep.k_h == setting.n


class TestBayesianThreshold:
    def test_reference_brier(self):
        rep = cl.k_bayesian(SETTING)
        assert (rep.k_h, rep.k_l, rep.k) == (44, 99, 44)

    def test_exact_integer_ceiling(self):
        # (n-1) * ratio = 99 * 4/9 = 44 exactly; the ceiling must not round up
        rep = cl.k_bayesian(SETTING)
        assert rep.ratio_h == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert rep.k_h == 44

    def test_ordering_against_ex_ante(self):
        props.check_threshold_ordering()


class TestThresholdTable:
    def test_matches_per_setting_oracle(self):
        props.check_thresholds_match_per_setting()


class TestNZero:
    @staticmethod
    def _conditions(prior, rule, n, tol=1e-9):
        """Independent re-evaluation of the six population-size conditions."""
        s_hh, s_lh, s_hl, s_ll = cl.four_scores(rule, prior)
        delta_h = s_hh - s_hl
        delta_l = s_ll - s_lh
        big_d = delta_h + delta_l
        spread = max(s_hh, s_lh, s_hl, s_ll) - min(s_hh, s_lh, s_hl, s_ll)
        e_h = prior.p_hh * delta_h - prior.p_lh * delta_l
        e_l = -prior.p_hl * delta_h + prior.p_ll * delta_l
        b_h = 4 * spread * (big_d + s_ll - s_hl) / ((n - 1) * big_d * e_h)
        b_l = 4 * spread * (big_d + s_hh - s_lh) / ((n - 1) * big_d * e_l)
        ok = [b_h < 0.25 - tol, b_l < 0.25 - tol,
              b_h <= e_h / (prior.p_hh * big_d) + tol,
              b_l <= e_l / (prior.p_ll * big_d) + tol]
        if s_hh - s_lh > tol:
            ok.append(b_h <= (s_hh - s_lh) / big_d + tol)
        if s_ll - s_hl > tol:
            ok.append(b_l <= (s_ll - s_hl) / big_d + tol)
        return all(ok)

    def test_reference_value_by_scan(self):
        prior, rule = SETTING.prior, SETTING.rule
        got = cl.n_zero(prior, rule)
        n = 2
        while not self._conditions(prior, rule, n):
            n += 1
        assert got == n == 107

    def test_minimality_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            prior = props.random_prior(rng)
            rule = props.random_rule(rng)
            got = cl.n_zero(prior, rule)
            assert self._conditions(prior, rule, got)
            if got > 2:
                assert not self._conditions(prior, rule, got - 1)

    def test_bound_scales_inversely(self):
        # the conditions' driving quantity halves when n-1 doubles
        s_hh, s_lh, s_hl, s_ll = cl.four_scores(SETTING.rule, SETTING.prior)
        big_d = (s_hh - s_hl) + (s_ll - s_lh)
        spread = max(s_hh, s_lh, s_hl, s_ll) - min(s_hh, s_lh, s_hl, s_ll)
        e_h = SETTING.prior.p_hh * (s_hh - s_hl) - SETTING.prior.p_lh * (s_ll - s_lh)
        def b_h(n):
            return 4 * spread * (big_d + s_ll - s_hl) / ((n - 1) * big_d * e_h)
        for n in (3, 11, 64):
            assert b_h(2 * (n - 1) + 1) == pytest.approx(b_h(n) / 2.0, abs=1e-12)

    def test_no_finite_n(self):
        with pytest.raises(cl.NoFiniteN):
            cl.n_zero(SETTING.prior, cl.TableRule())

    def test_matches_search_oracle(self):
        props.check_n_zero_matches_search()

    def test_matches_six_solve_oracle(self):
        props.check_n_zero_matches_six_solves()

    def test_two_solves(self, monkeypatch):
        # each side's three conditions share c: one solve per side
        from collusion_lab import thresholds
        first_n, calls = thresholds._first_n, []

        def counted(*args):
            calls.append(args)
            return first_n(*args)

        monkeypatch.setattr(thresholds, "_first_n", counted)
        rng = np.random.default_rng(7)
        for rule in (cl.BrierRule(), cl.LogRule(base=2.0), props.random_table_rule(rng)):
            for _ in range(20):
                calls.clear()
                try:
                    cl.n_zero(props.random_prior(rng), rule)
                except cl.NoFiniteN:
                    pass
                assert len(calls) <= 2

    def test_quarter_tie_is_strict(self):
        # at tol 1/16 the h side's 1/4 - tol ties its corner-surplus bound
        # d_h/D + tol = 1/8 + 1/16, and c_h = 52.5 = 280 * 3/16: the strict 1/4
        # condition fails at n - 1 = 280, so n_zero is 282, not the 281 that
        # the non-strict bound alone gives
        prior = cl.make_prior(0.5, 0.75)
        rule = cl.TableRule(h_intercept=-1.375, h_slope=1.5, l_intercept=1.375, l_slope=-2.5)
        assert cl.four_scores(rule, prior) == (-0.25, -0.5, -1.0, 0.75)
        assert cl.n_zero(prior, rule, 0.0625) == 282
        assert props.n_zero_by_six_solves(prior, rule, 0.0625) == 282
        assert props.n_zero_by_search(prior, rule, 0.0625) == 282

    def test_condition_solve_at_exact_boundary(self):
        from collusion_lab.thresholds import _first_n
        # n - 1 = c/bound = 12 exactly: 3/12 < 1/4 fails at n = 13, 3/12 <= 1/4 holds
        assert _first_n(3.0, 0.25, strict=True) == 14
        assert _first_n(3.0, 0.25, strict=False) == 13
        assert _first_n(-1.0, 0.25, strict=True) == 2
        assert _first_n(1.0, 0.0, strict=True) is None
        assert _first_n(2.0 ** 63, 1.0, strict=False) is None

    def test_condition_solve_beyond_float_integers(self):
        # above 2**53 neighbouring n - 1 share a float; the answer must still
        # be the smallest integer n at which the float comparison holds
        from collusion_lab.thresholds import _first_n
        rng = np.random.default_rng(53)
        for _ in range(300):
            c = float(rng.uniform(0.5, 2.0))
            bound = c / float(2 ** rng.uniform(40, 61.9))
            strict = bool(rng.random() < 0.5)

            def holds(n):
                return c / (n - 1) < bound if strict else c / (n - 1) <= bound

            lo, hi = 2, 2 ** 62
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
            assert _first_n(c, bound, strict) == lo, (c, bound, strict)


class TestLiarThreshold:
    def test_reference_value(self):
        # floor(99 * 0.32 / 0.24) + 1
        got = cl.liar_threshold(SETTING)
        assert got == 133
        assert got >= cl.k_ex_ante(SETTING).k

    def test_never_undercuts_ex_ante(self):
        props.check_liar_threshold_bound()

    def test_infinite_branch(self):
        # strictly proper, but both same-posterior surpluses negative:
        # Brier with Pr(h|h) <= 1/2 flips the sign of the lying surplus
        prior = cl.make_prior(0.25, 0.4)
        setting = cl.make_setting(40, cl.BrierRule(), prior=prior)
        assert cl.liar_threshold(setting) == math.inf
        for k in (1, 7, 20, 40):
            verdict = cl.dichotomy_check(setting, k, "all_lie", "ex_ante")
            assert not verdict.succeeded


class TestDichotomyCheck:
    def test_ex_ante_boundary(self):
        # truthful reporting survives exactly up to k_E = 27
        assert not cl.dichotomy_check(SETTING, 26, "all_h", "ex_ante").succeeded
        assert not cl.dichotomy_check(SETTING, 27, "all_h", "ex_ante").succeeded
        assert cl.dichotomy_check(SETTING, 28, "all_h", "ex_ante").succeeded

    def test_bayesian_boundary(self):
        v45 = cl.dichotomy_check(SETTING, 45, "all_h", "bayesian")
        assert v45.succeeded
        delta_l, delta_h = v45.deltas[0]
        assert abs(delta_l) <= 1e-9          # low-type equality at the boundary
        assert delta_h > 1e-9                # strict high-type gain
        assert not cl.dichotomy_check(SETTING, 44, "all_h", "bayesian").succeeded

    def test_lone_deviator_never_succeeds(self):
        for deviation in ("all_h", "all_l", "all_lie"):
            for concept in ("ex_ante", "bayesian"):
                assert not cl.dichotomy_check(SETTING, 1, deviation, concept).succeeded

    def test_sweep_random_settings(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            setting = cl.make_setting(int(rng.integers(5, 61)), props.random_rule(rng),
                                      prior=props.random_prior(rng))
            k_e = cl.k_ex_ante(setting).k
            for k in range(1, k_e + 1):
                for deviation in ("all_h", "all_l", "all_lie"):
                    assert not cl.dichotomy_check(setting, k, deviation, "ex_ante").succeeded
            if k_e < setting.n:
                assert (cl.dichotomy_check(setting, k_e + 1, "all_h", "ex_ante").succeeded
                        or cl.dichotomy_check(setting, k_e + 1, "all_l", "ex_ante").succeeded)

    def test_contracts(self):
        with pytest.raises(cl.InvalidSetting):
            cl.dichotomy_check(SETTING, 0, "all_h", "ex_ante")
        with pytest.raises(cl.InvalidSetting):
            cl.dichotomy_check(SETTING, 5, "sideways", "ex_ante")
        with pytest.raises(cl.InvalidSetting):
            cl.dichotomy_check(SETTING, 5, "all_h", "weird")

    def test_verdict_round_trip(self):
        verdict = cl.dichotomy_check(SETTING, 45, "all_h", "bayesian")
        again = cl.DichotomyVerdict.from_dict(verdict.to_dict())
        assert again == verdict

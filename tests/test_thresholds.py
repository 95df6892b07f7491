import math
import warnings

import numpy as np
import pytest

import collusion_lab as cl
import props
from collusion_lab.mechanism import PairForm
from collusion_lab.thresholds import ThresholdTable


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

    def test_array_steps_match_scalar_oracle(self):
        # int64 columns, Python ints past 2^62, infinite sides and negative ratios
        props.check_steps_match_scalar()

    def test_stacked_steps_match_per_side_steps(self):
        # the four corners take one _steps call, each side with its own kind of step
        props.check_stacked_steps()

    @pytest.mark.parametrize("interim", [False, True])
    def test_products_past_the_float_range_are_exact(self, interim):
        # a finite ratio times n - 1 can pass the float range: there the size is the
        # exact product (such a ratio is a whole number), elsewhere the float step;
        # each n gives the same size alone as inside a column
        from collusion_lab.thresholds import _steps
        ns = [2, 100, 180, 181, 1000, 10 ** 12, 2 ** 62]
        for ratio in (1e306, -1e306, 3.5e289, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                column = _steps(np.array(ns, dtype=np.int64), ratio, interim, 1e-9).tolist()
                alone = [_steps(n, ratio, interim, 1e-9).item() for n in ns]
            want = [props.step_scalar(n, ratio, interim, 1e-9)
                    if math.isfinite((n - 1) * ratio) else
                    max(1, (n - 1) * int(ratio) + (0 if interim else 1)) for n in ns]
            assert column == alone == want, ratio

    def test_overflowing_ratio_is_invalid(self):
        rule = cl.TableRule(7e299, -1e300, -1e-290, 0.0)
        with pytest.raises(cl.InvalidSetting, match="ex_ante h side's ratio"):
            ThresholdTable(cl.make_prior(0.4, 0.7), rule, 1e-300)

    def test_corners_are_the_pair_forms_derivatives(self):
        # the table reads the form's corner slopes, summed from the scores; each is a slope
        # of the form's coefficients
        rng = np.random.default_rng(1616)
        for rule in props.kernel_rules(rng):
            for _ in range(5):
                pr = props.random_prior(rng)
                table = ThresholdTable(pr, rule)
                form = PairForm.of(pr, table.scores)
                close = 1e-12 * max(map(abs, table.scores))
                assert (table.e_l, table.e_h, table.d_h, table.d_l) == form[-4:]
                for got, want in ((table.e_l, -(form.alpha + form.d * pr.p_hl)),
                                  (table.e_h, form.alpha + form.d * pr.p_hh),
                                  (table.d_h, form.beta + form.d),
                                  (table.d_l, -form.beta)):
                    assert abs(got - want) <= close, (rule, pr, got, want)
                joint = np.array([[pr.p_l * pr.p_ll, pr.p_l * pr.p_hl],
                                  [pr.p_h * pr.p_lh, pr.p_h * pr.p_hh]])
                setting = cl.make_setting(10, rule, prior=pr)
                assert setting.pair_form == form
                hessian = cl.pair_reward_hessian(setting).matrix
                assert np.array_equal(hessian, form.d * (joint + joint.T)), (rule, pr)


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

    def test_score_scale_does_not_move_n_zero(self):
        # n_zero's conditions are ratios of like powers of the scores, so scaling the
        # rule by 2^j keeps them; unscaled, their products under- or overflow for
        # j < -536 and j > 509
        prior = cl.make_prior(0.5, 0.8)
        for j in range(-1000, 1001, 25):
            scale = 2.0 ** j
            assert cl.n_zero(prior, cl.TableRule(0.0, scale, 0.0, -scale), 0.0) == 167, j

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

    @staticmethod
    def _first_n(c: float, bound: float, strict: bool) -> int:
        """``thresholds._first_n`` on a one-element column: n, or 0 where none."""
        from collusion_lab.thresholds import _first_n
        return _first_n(np.array([c]), np.array([bound]), np.array([strict])).item()

    def test_condition_solve_at_exact_boundary(self):
        # n - 1 = c/bound = 12 exactly: 3/12 < 1/4 fails at n = 13, 3/12 <= 1/4 holds
        assert self._first_n(3.0, 0.25, strict=True) == 14
        assert self._first_n(3.0, 0.25, strict=False) == 13
        assert self._first_n(-1.0, 0.25, strict=True) == 2
        assert self._first_n(1.0, 0.0, strict=True) == 0
        assert self._first_n(2.0 ** 63, 1.0, strict=False) == 0

    def test_condition_solve_beyond_float_integers(self):
        # above 2**53 neighbouring n - 1 share a float; the answer must still
        # be the smallest integer n at which the float comparison holds
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
            assert self._first_n(c, bound, strict) == lo, (c, bound, strict)


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


# n = 10^4, Brier: the 39-member all-h delta is +8.28e-10, a strict gain below the tolerance
NEAR_TIE_EX_ANTE = cl.make_setting(10 ** 4, cl.BrierRule(),
                                   prior=cl.make_prior(0.6698029550226662, 0.6820869874111526))
# n = 10^5, log: at 70,329 members the low type loses 1.37e-10, a loss within the tolerance
NEAR_TIE_BAYESIAN = cl.make_setting(10 ** 5, cl.LogRule(),
                                    prior=cl.make_prior(0.6788097570305401, 0.879370535781421))

# PS(h, q) = q and PS(l, q) ~ 0.643 - 0.429 q at the prior (0.6, 0.8): a low type that
# reports h alone loses e_l = 3.7e-10, within the tolerance; its corner surplus d_h is 0.5
TINY_LOSS_RULE = cl.TableRule(0.0, 1.0, 0.642857143702857, -0.42857142962857114)


class TestSuccessRule:
    def test_agrees_with_threshold_table_at_every_n(self):
        seen = props.check_rule_ladder()
        assert seen["checked"] >= 4000, seen
        # tiny-surplus rules, some with an ex-ante side infinite by its gain, not its surplus
        assert seen["tiny_surplus"] >= 1500 and seen["gain_within_tol"] >= 20, seen

    def test_per_type_step_reads_the_other_types_gain(self):
        # at tol 1e-3 the all-l corner's high type gains Pr(h|h) * d_l = 1.8e-3 and its low
        # type Pr(h|l) * d_l = 3.1e-4, within tol: at x = 100 * ratio_l = 9.0004, snapped to 9,
        # the high type's zero delta has no strict gain beside it, so k_B is 10, not 9
        setting = cl.make_setting(
            101, cl.TableRule(0.6299676141934342, 0.3727392344080809, 0.8820019504852037,
                              -1.418776706247968),
            prior=cl.make_prior(0.40141302241794935, 0.7920785140702296))
        tol = 1e-3
        assert cl.k_bayesian(setting, tol).k == 10
        assert cl.find_setting_deviation(setting, 10, "bayesian", tol=tol) is None
        cert = cl.find_setting_deviation(setting, 11, "bayesian", tol=tol)
        assert len(cert.coalition) == 11 and cert.strategies[0] == cl.ALL_L.rows
        assert [cl.dichotomy_check(setting, k, "all_l", "bayesian", tol).succeeded
                for k in (10, 11)] == [False, True]

    def test_matches_exact_oracle(self):
        assert props.check_rule_matches_exact_oracle() >= 30_000

    def test_near_ties_follow_the_thresholds(self):
        # the tolerance applies to the n-free gaps and the root, as in ThresholdTable
        assert cl.k_ex_ante(NEAR_TIE_EX_ANTE).k == 38
        assert not cl.dichotomy_check(NEAR_TIE_EX_ANTE, 38, "all_h", "ex_ante").succeeded
        verdict = cl.dichotomy_check(NEAR_TIE_EX_ANTE, 39, "all_h", "ex_ante")
        assert verdict.succeeded and 0 < verdict.deltas[0] < 1e-9
        assert cl.k_bayesian(NEAR_TIE_BAYESIAN).k == 70_329
        verdict = cl.dichotomy_check(NEAR_TIE_BAYESIAN, 70_329, "all_h", "bayesian")
        assert not verdict.succeeded and -1e-9 < verdict.deltas[0][0] < 0
        assert cl.dichotomy_check(NEAR_TIE_BAYESIAN, 70_330, "all_h", "bayesian").succeeded

    @pytest.mark.parametrize("concept", ["ex_ante", "bayesian"])
    def test_a_loss_within_the_tolerance_still_counts(self, concept):
        # a single h-reporting low type loses 3.7e-10 < tol, and the lane (0.3, 1)
        # has a low-type A within tol: B stays exact, as ThresholdTable's numerator
        setting = cl.make_setting(10 ** 10, TINY_LOSS_RULE, prior=cl.make_prior(0.6, 0.8))
        table = ThresholdTable(setting.prior, setting.rule)
        assert 0 < table.e_l < 1e-9
        k = table.k(concept, setting.n)[2]
        assert k == {"ex_ante": 8, "bayesian": 11}[concept]
        assert cl.find_setting_deviation(setting, k, concept) is None
        cert = cl.find_setting_deviation(setting, k + 1, concept)
        assert len(cert.coalition) == k + 1 and cert.strategies[0] == cl.ALL_H.rows
        assert cl.verify_setting_certificate(setting, cert)

    def test_gaps_are_reward_differences(self):
        from collusion_lab.checker import _grid_lanes
        rng = np.random.default_rng(2727)
        lanes = _grid_lanes(11, 0, 120)
        truthful = cl.TRUTHFUL_STRATEGY.betas
        for rule in props.kernel_rules(rng):
            form = cl.make_setting(10, rule, prior=props.random_prior(rng)).pair_form
            close = 1e-12 * max(abs(form.c), abs(form.alpha), abs(form.beta), abs(form.d))
            for s in (None,) + cl.SIGNALS:
                a, b = form.gaps(lanes, s)
                outside = form.reward(lanes, truthful, s)
                assert np.all(abs(a - (form.reward(lanes, lanes, s) - outside)) <= close), rule
                assert np.all(abs(b - (outside - form.reward(truthful, truthful, s))) <= close)
                assert [form.gaps((x, y), s) for x, y in zip(*lanes)] == list(zip(a, b))
                if s is not None:  # a lane reporting truthfully on s loses nothing there
                    same = lanes[s == cl.HIGH] == truthful[s == cl.HIGH]
                    assert np.all(b[same] == 0.0)

    @pytest.mark.parametrize("concept", ["ex_ante", "bayesian"])
    def test_sizes_past_int64(self, concept):
        # from hi 2^62 on the interval ends are Python ints; below it the sizes
        # are those of the int64 ends, and each is the first size that succeeds
        from collusion_lab.checker import _grid_lanes
        from collusion_lab.thresholds import winning_sizes
        rng = np.random.default_rng(6262)
        lanes = _grid_lanes(5, 0, 24)
        for _ in range(6):
            n = 2 ** 64 + int(rng.integers(0, 2 ** 62))
            setting = cl.make_setting(n, props.random_rule(rng), prior=props.random_prior(rng))
            big = winning_sizes(setting, concept, lanes, 1, n)
            small = winning_sizes(setting, concept, lanes, 1, 2 ** 62 - 1)
            assert big.dtype == object and small.dtype == np.int64
            assert any(size <= n for size in big)
            for lane, (b, s) in enumerate(zip(big.tolist(), small.tolist())):
                assert b == s if s < 2 ** 62 else b >= 2 ** 62, (lane, b, s)
                if b <= n:
                    one = tuple(x[lane:lane + 1] for x in lanes)
                    assert winning_sizes(setting, concept, one, b, b)[0] == b
                    assert b == 1 or winning_sizes(setting, concept, one, 1, b - 1)[0] == b

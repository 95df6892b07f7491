import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import collusion_lab as cl
import props
from collusion_lab import mechanism


SETTING = props.reference_setting()
PROFILE_40 = cl.DeviationProfile((cl.ALL_H,) * 40)


class TestReward:
    def test_reference_values(self):
        assert cl.reward(SETTING, cl.HIGH, cl.HIGH) == pytest.approx(0.92, abs=1e-12)
        assert cl.reward(SETTING, cl.HIGH, cl.LOW) == pytest.approx(-0.28, abs=1e-12)

    def test_not_symmetric_in_reports(self):
        assert cl.reward(SETTING, cl.HIGH, cl.LOW) == pytest.approx(-0.28, abs=1e-12)
        assert cl.reward(SETTING, cl.LOW, cl.HIGH) == pytest.approx(0.28, abs=1e-12)


class TestExAnteUtility:
    def test_truthful_value(self):
        # (2/3) * 0.68 + (1/3) * 0.52 = 1.88 / 3, printed as 0.627
        u = cl.truthful_ex_ante(SETTING)
        assert u == pytest.approx(1.88 / 3.0, abs=1e-12)
        assert u == pytest.approx(0.627, abs=5e-4)

    def test_forty_deviators(self):
        # 39 deviating peers and 60 truthful peers:
        # (2/3) * (39*0.92 + 60*0.68)/99 + (1/3) * (39*0.92 + 60*0.2)/99
        u = cl.ex_ante_utility(SETTING, PROFILE_40, 0)
        assert u == pytest.approx(201.24 / 297.0, abs=1e-12)

    def test_all_truthful_coalition(self):
        profile = cl.DeviationProfile((cl.TRUTHFUL_STRATEGY,) * SETTING.n)
        u = cl.ex_ante_utility(SETTING, profile, 0)
        assert u == pytest.approx(cl.truthful_ex_ante(SETTING), abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        setting = cl.make_setting(7, cl.BrierRule(), prior=props.random_prior(rng))
        for _ in range(20):
            k = int(rng.integers(1, 8))
            profile = cl.DeviationProfile(
                tuple(props.random_strategy(rng) for _ in range(k)))
            members = list(range(k)) + ([cl.TRUTHFUL] if k < 7 else [])
            for member in members:
                got = cl.ex_ante_utility(setting, profile, member)
                want = props.oracle_profile_utilities(setting, profile, member)
                assert got == pytest.approx(want, abs=1e-12)

    def test_index_contract(self):
        with pytest.raises(cl.IndexOutOfRange):
            cl.ex_ante_utility(SETTING, PROFILE_40, 40)
        with pytest.raises(cl.IndexOutOfRange):
            cl.ex_ante_utility(
                SETTING, cl.DeviationProfile((cl.ALL_H,) * SETTING.n), cl.TRUTHFUL)
        with pytest.raises(cl.InvalidSetting):
            cl.ex_ante_utility(
                SETTING, cl.DeviationProfile((cl.ALL_H,) * (SETTING.n + 1)), 0)


class TestInterimUtility:
    def test_truthful_low(self):
        assert cl.truthful_interim(SETTING, cl.LOW) == pytest.approx(0.52, abs=1e-12)

    def test_forty_deviators_low(self):
        # (39*0.92 + 60*0.2)/99, printed as 0.484
        u = cl.interim_utility(SETTING, PROFILE_40, 0, cl.LOW)
        assert u == pytest.approx(47.88 / 99.0, abs=1e-12)
        assert u == pytest.approx(0.484, abs=5e-4)

    def test_totality(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            setting = cl.make_setting(int(rng.integers(2, 30)), props.random_rule(rng),
                                      prior=props.random_prior(rng))
            k = int(rng.integers(1, setting.n + 1))
            profile = cl.DeviationProfile(
                tuple(props.random_strategy(rng) for _ in range(k)))
            members = [0] + ([cl.TRUTHFUL] if k < setting.n else [])
            for member in members:
                combined = (
                    setting.prior.p_h * cl.interim_utility(setting, profile, member, cl.HIGH)
                    + setting.prior.p_l * cl.interim_utility(setting, profile, member, cl.LOW))
                assert combined == pytest.approx(
                    cl.ex_ante_utility(setting, profile, member), abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(23)
        setting = cl.make_setting(6, cl.LogRule(), prior=props.random_prior(rng))
        for _ in range(10):
            k = int(rng.integers(1, 7))
            profile = cl.DeviationProfile(
                tuple(props.random_strategy(rng) for _ in range(k)))
            for s in (cl.LOW, cl.HIGH):
                got = cl.interim_utility(setting, profile, 0, s)
                want = props.oracle_profile_utilities(setting, profile, 0, s)
                assert got == pytest.approx(want, abs=1e-12)


class TestSideRewardForms:
    def test_truthful_peer_full_confidence(self):
        # report h for sure against a truthful peer, conditioned on signal h
        got = cl.f_side(cl.HIGH, 1.0, cl.TRUTHFUL_STRATEGY, SETTING)
        want = cl.expected_score(cl.BrierRule(), cl.BinaryDist(0.8), cl.BinaryDist(0.8))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.68, abs=1e-12)

    def test_affine_in_own_coordinate(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            peer = props.random_strategy(rng)
            side = cl.HIGH if rng.random() < 0.5 else cl.LOW
            lo = cl.f_side(side, 0.2, peer, SETTING)
            mid = cl.f_side(side, 0.5, peer, SETTING)
            hi = cl.f_side(side, 0.8, peer, SETTING)
            assert mid == pytest.approx((lo + hi) / 2.0, abs=1e-12)

    def test_affine_in_peer_coordinates(self):
        for beta_own in (0.0, 0.37, 1.0):
            lo = cl.f_side(cl.HIGH, beta_own, cl.Strategy(0.1, 0.5), SETTING)
            mid = cl.f_side(cl.HIGH, beta_own, cl.Strategy(0.4, 0.5), SETTING)
            hi = cl.f_side(cl.HIGH, beta_own, cl.Strategy(0.7, 0.5), SETTING)
            assert mid == pytest.approx((lo + hi) / 2.0, abs=1e-12)

    def test_g_is_diagonal_of_f(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            sigma = props.random_strategy(rng)
            for side in (cl.LOW, cl.HIGH):
                beta_own = sigma.beta_h if side == cl.HIGH else sigma.beta_l
                assert cl.g_side(side, sigma, SETTING) == pytest.approx(
                    cl.f_side(side, beta_own, sigma, SETTING), abs=1e-15)

    def test_g_derivative_identities(self):
        props.check_g_side_identities()


class TestPairRewardHessian:
    def test_reference_setting(self):
        report = cl.pair_reward_hessian(SETTING)
        assert report.matrix[0, 0] > 0.0
        assert np.linalg.det(report.matrix) > 0.0
        assert report.psd

    def test_finite_difference_agreement(self):
        props.check_pair_reward_convexity()

    def test_constant_rule_zero_hessian(self):
        setting = cl.make_setting(10, cl.TableRule(), prior=SETTING.prior)
        report = cl.pair_reward_hessian(setting)
        assert np.allclose(report.matrix, 0.0)
        assert report.psd


class TestDefinitionLevelProperties:
    def test_lone_deviator_grid(self):
        props.check_truthfulness_grid(SETTING)

    def test_average_utility_bound(self):
        props.check_average_utility_bound()

    def test_subspace_dominance(self):
        k_b = cl.k_bayesian(SETTING).k
        props.check_subspace_dominance(SETTING, (2, k_b // 2, k_b))


class TestSimulate:
    def _wm_setting(self, n=12):
        wm = cl.WorldModel((0.5, 0.5), (0.9, 0.2))
        return cl.make_setting(n, cl.BrierRule(), world_model=wm)

    def test_requires_world_model(self):
        with pytest.raises(cl.MissingWorldModel):
            cl.simulate(SETTING, PROFILE_40, trials=10, seed=0)

    def test_truthful_mean_within_stderr(self):
        setting = self._wm_setting()
        profile = cl.DeviationProfile((cl.TRUTHFUL_STRATEGY,))
        result = cl.simulate(setting, profile, trials=40000, seed=3)
        want = cl.truthful_ex_ante(setting)
        for role in ("deviator_0", "truthful"):
            stats = result[role]
            assert abs(stats["mean"] - want) <= 4.0 * stats["stderr"]

    def test_everyone_reports_h_zero_variance(self):
        setting = self._wm_setting()
        profile = cl.DeviationProfile((cl.ALL_H,) * setting.n)
        table = cl.gap_report(setting.rule, setting.prior)
        result = cl.simulate(setting, profile, trials=500, seed=1)
        for idx in range(setting.n):
            stats = result[f"deviator_{idx}"]
            assert stats["mean"] == pytest.approx(table.score_hh, abs=1e-12)
            assert stats["stderr"] == 0.0
        assert "truthful" not in result

    def test_seed_determinism(self):
        setting = self._wm_setting()
        profile = cl.DeviationProfile((cl.Strategy(0.3, 0.9), cl.ALL_L))
        a = cl.simulate(setting, profile, trials=3000, seed=42)
        b = cl.simulate(setting, profile, trials=3000, seed=42)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = cl.simulate(setting, profile, trials=3000, seed=43)
        assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            wm = props.random_world_model(rng)
            setting = cl.make_setting(int(rng.integers(4, 16)), props.random_rule(rng),
                                      world_model=wm)
            k = int(rng.integers(1, setting.n + 1))
            profile = cl.DeviationProfile(
                tuple(props.random_strategy(rng) for _ in range(k)))
            result = cl.simulate(setting, profile, trials=20000,
                                 seed=int(rng.integers(0, 2 ** 63)))
            targets = {f"deviator_{k - 1}": cl.ex_ante_utility(setting, profile, k - 1)}
            if k < setting.n:
                targets["truthful"] = cl.ex_ante_utility(setting, profile, cl.TRUTHFUL)
            for role, want in targets.items():
                stats = result[role]
                if stats["stderr"] == 0.0:
                    assert stats["mean"] == pytest.approx(want, abs=1e-9)
                else:
                    assert abs(stats["mean"] - want) <= 4.0 * stats["stderr"]

    @staticmethod
    def _within(result, setting, profile, roles):
        for role in roles:
            who = cl.TRUTHFUL if role == "truthful" else int(role.split("_")[1])
            want = cl.ex_ante_utility(setting, profile, who)
            stats = result[role]
            assert stats["stderr"] > 0.0
            assert abs(stats["mean"] - want) <= 5.0 * stats["stderr"], (role, stats, want)

    @staticmethod
    def _single_trial_payoffs(setting):
        """Every payoff one agent can get in one trial: own report and total h count."""
        s_hh, s_lh, s_hl, s_ll = cl.four_scores(setting.rule, setting.prior)
        n = setting.n
        return np.array([((h - 1) * s_hh + (n - h) * s_lh) / (n - 1) for h in range(1, n + 1)]
                        + [(h * s_hl + (n - 1 - h) * s_ll) / (n - 1) for h in range(n)])

    @pytest.mark.parametrize("k", [9, 8])
    def test_no_or_one_truthful_agent(self, k):
        setting = self._wm_setting(n=9)
        rng = np.random.default_rng(k)
        profile = cl.DeviationProfile(tuple(props.random_strategy(rng) for _ in range(k)))
        result = cl.simulate(setting, profile, trials=20000, seed=5)
        roles = [f"deviator_{i}" for i in range(k)] + (["truthful"] if k < 9 else [])
        assert sorted(result) == sorted(roles)
        self._within(result, setting, profile, roles)

    def test_identical_deviators_draw_independently(self):
        setting = self._wm_setting(n=40)
        profile = cl.DeviationProfile((cl.Strategy(0.3, 0.8),) * (setting.n // 4))
        result = cl.simulate(setting, profile, trials=20000, seed=8)
        roles = [f"deviator_{i}" for i in range(profile.k)] + ["truthful"]
        self._within(result, setting, profile, roles)
        assert len({result[f"deviator_{i}"]["mean"] for i in range(profile.k)}) == profile.k

    def test_single_trial(self):
        setting = self._wm_setting()
        profile = cl.DeviationProfile((cl.Strategy(0.3, 0.9), cl.ALL_L, cl.ALL_LIE))
        result = cl.simulate(setting, profile, trials=1, seed=4)
        payoffs = self._single_trial_payoffs(setting)
        for idx in range(profile.k):
            stats = result[f"deviator_{idx}"]
            assert stats["stderr"] == 0.0 and stats["trials"] == 1
            assert np.abs(payoffs - stats["mean"]).min() <= 1e-12
        assert result["truthful"]["stderr"] == 0.0
        assert payoffs.min() - 1e-12 <= result["truthful"]["mean"] <= payoffs.max() + 1e-12

    def test_block_edge_merge(self):
        # 4096 trials fill exactly the first block; the 4097th is a block of
        # its own, so the two results differ by one merged value.
        setting = self._wm_setting()
        profile = cl.DeviationProfile((cl.Strategy(0.3, 0.9),))
        one = cl.simulate(setting, profile, trials=4096, seed=9)["deviator_0"]
        two = cl.simulate(setting, profile, trials=4097, seed=9)["deviator_0"]
        assert two["trials"] == 4097
        last = 4097 * two["mean"] - 4096 * one["mean"]
        assert np.abs(self._single_trial_payoffs(setting) - last).min() <= 1e-9
        m2_one = one["stderr"] ** 2 * 4096 * 4095
        m2_two = two["stderr"] ** 2 * 4097 * 4096
        assert m2_two == pytest.approx(
            m2_one + (last - one["mean"]) ** 2 * 4096 / 4097, rel=1e-9)

    def test_large_population(self):
        setting = self._wm_setting(n=10 ** 6)
        profile = cl.DeviationProfile((cl.Strategy(0.2, 0.7),))
        start = time.process_time()
        result = cl.simulate(setting, profile, trials=20000, seed=10)
        assert time.process_time() - start < 1.0
        self._within(result, setting, profile, ["deviator_0", "truthful"])

    def test_memory_bounded_when_everyone_deviates(self):
        setting = self._wm_setting(n=2000)
        rng = np.random.default_rng(11)
        profile = cl.DeviationProfile(
            tuple(props.random_strategy(rng) for _ in range(setting.n)))
        tracemalloc.start()
        try:
            cl.simulate(setting, profile, trials=4096, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20

    def test_stderr_calibration(self):
        """z = (mean - closed form) / stderr over seeded cases is standard normal.

        A stderr that is too small inflates the mean of z^2, one that is too
        large deflates it; the 4-stderr checks above catch only the first.
        """
        rng = np.random.default_rng(27)
        z = []
        while len(z) < 200:
            n = int(rng.integers(3, 41))
            setting = cl.make_setting(n, props.random_rule(rng),
                                      world_model=props.random_world_model(rng))
            k = int(rng.integers(1, n + 1))
            profile = cl.DeviationProfile(
                tuple(props.random_strategy(rng) for _ in range(k)))
            who = int(rng.integers(0, k + 1))
            if who == k and k == n:
                continue
            role, member = (("truthful", cl.TRUTHFUL) if who == k
                            else (f"deviator_{who}", who))
            stats = cl.simulate(setting, profile, trials=int(rng.integers(2000, 9001)),
                                seed=int(rng.integers(0, 2 ** 63)))[role]
            assert stats["stderr"] > 0.0
            z.append((stats["mean"] - cl.ex_ante_utility(setting, profile, member))
                     / stats["stderr"])
        z = np.array(z)
        assert 0.6 <= float(np.mean(z ** 2)) <= 1.5
        assert float(np.abs(z).max()) < 5.0


class TestProfilesAndStrategies:
    def test_average_strategy(self):
        profile = cl.DeviationProfile((cl.Strategy(0.2, 0.4), cl.Strategy(0.6, 1.0)))
        avg = cl.average_strategy(profile)
        assert avg == cl.Strategy(0.4, 0.7)

    def test_strategy_validation(self):
        with pytest.raises(cl.InvalidStrategy):
            cl.Strategy(-0.1, 0.5)
        with pytest.raises(cl.InvalidStrategy):
            cl.Strategy(0.5, 1.5)

    def test_profile_json_round_trip(self):
        data = cl.profile_to_dict(PROFILE_40, SETTING.n)
        n, again = cl.profile_from_dict(json.loads(json.dumps(data)))
        assert n == SETTING.n
        assert again == PROFILE_40

    @pytest.mark.parametrize("entry", [
        {"bl": "0.2", "bh": 0.7}, {"bl": True, "bh": 0.7}, {"bl": 0.2, "bh": None},
        {"bl": 0.2, "bh": 0.7, "x": 1}, {"bl": 0.2}, [0.2, 0.7], "bl",
        {"bl": 0.2, "bh": 1.5}, {"bl": float("nan"), "bh": 0.5}])
    def test_profile_rejects_bad_deviators(self, entry):
        assert cl.strategy_from_dict({"bl": 0, "bh": 0.7}) == cl.Strategy(0.0, 0.7)
        with pytest.raises(cl.InvalidStrategy):
            cl.profile_from_dict({"n": 10, "deviators": [entry]})

    @pytest.mark.parametrize("n", [3.7, 12.0, "12", True, False, None, 1, 0, -5])
    def test_profile_rejects_bad_n(self, n):
        data = cl.profile_to_dict(cl.DeviationProfile((cl.ALL_H,)), 12)
        assert cl.profile_from_dict(data)[0] == 12
        with pytest.raises(cl.InvalidSetting):
            cl.profile_from_dict({**data, "n": n})
        missing = {key: value for key, value in data.items() if key != "n"}
        with pytest.raises(cl.InvalidSetting):
            cl.profile_from_dict(missing)

    def test_setting_world_model_consistency(self):
        wm = cl.WorldModel((0.5, 0.5), (0.9, 0.1))
        with pytest.raises(cl.InvalidSetting):
            cl.Setting(n=10, prior=cl.make_prior(0.7, 0.9), rule=cl.BrierRule(),
                       world_model=wm)

    def test_minimal_n(self):
        with pytest.raises(cl.InvalidSetting):
            cl.make_setting(1, cl.BrierRule(), prior=SETTING.prior)


class TestPairKernel:
    def test_arrays_match_scalar_terms(self):
        # every grid lane, Brier, log bases e/2/0.5 and table rules, compared with ==
        assert props.check_pair_kernel_matches_scalar() > 100_000

    @pytest.mark.parametrize("rule", [
        cl.TableRule(1e308, 1e308, 0.0, 0.0),
        cl.CallableRule(fn=lambda s, d: -math.inf if s == cl.LOW else 0.0),
        cl.CallableRule(fn=lambda s, d: math.nan),
    ])
    def test_non_finite_score_rejected(self, rule):
        setting = cl.make_setting(10, rule, prior=SETTING.prior)
        for call in (lambda: cl.truthful_ex_ante(setting),
                     lambda: cl.interim_utility(setting, cl.DeviationProfile((cl.ALL_H,) * 4), 0,
                                                 cl.HIGH),
                     lambda: cl.find_setting_deviation(setting, 3, "ex_ante")):
            with pytest.raises(cl.InvalidSetting):
                call()

    @pytest.mark.parametrize("n", [2, 10, 10 ** 6, 2 ** 62])
    def test_score_magnitude_bounded_by_peer_count(self, n):
        # every score c: a utility sums (n - 1) * c, priced up to _MAX_SCORE_SUM
        limit = mechanism._MAX_SCORE_SUM / (n - 1)
        for c in (limit * (1 - 1e-9), -limit * (1 - 1e-9)):
            setting = cl.make_setting(n, cl.TableRule(c, 0.0, c, 0.0), prior=SETTING.prior)
            assert cl.truthful_ex_ante(setting) == pytest.approx(c, rel=1e-12)
        for c in (limit * (1 + 1e-9), -limit * (1 + 1e-9)):
            setting = cl.make_setting(n, cl.TableRule(c, 0.0, c, 0.0), prior=SETTING.prior)
            with pytest.raises(cl.InvalidSetting):
                cl.truthful_ex_ante(setting)

    def test_score_magnitude_check_at_any_n(self):
        # n - 1 past _MAX_SCORE_SUM (and the float range): only zero scores are priced,
        # and the check compares an int with a float, so it raises no OverflowError
        for c, ok in ((0.0, True), (1e-300, False), (1.0, False)):
            setting = cl.make_setting(10 ** 400, cl.TableRule(c, 0.0, c, 0.0),
                                      prior=SETTING.prior)
            if ok:
                assert mechanism._score_table(setting).s_hh == c
            else:
                with pytest.raises(cl.InvalidSetting):
                    mechanism._score_table(setting)

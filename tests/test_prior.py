import numpy as np
import pytest

import collusion_lab as cl
import props


class TestMakePrior:
    def test_reference_prior(self):
        pr = cl.make_prior(2.0 / 3.0, 0.8)
        assert pr.p_hl == pytest.approx(0.4, abs=1e-12)
        assert pr.p_ll == pytest.approx(0.6, abs=1e-12)

    def test_uninformative_rejected(self):
        with pytest.raises(cl.InvalidPrior):
            cl.make_prior(0.5, 0.5)

    def test_derived_conditional(self):
        # 0.5 * 0.3 / 0.5
        assert cl.make_prior(0.5, 0.7).p_hl == pytest.approx(0.3, abs=1e-12)

    def test_boundary_marginals_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(cl.InvalidPrior):
                cl.make_prior(bad, 0.8)
            with pytest.raises(cl.InvalidPrior):
                cl.make_prior(0.5, bad)

    def test_direct_construction_validates_exchangeability(self):
        with pytest.raises(cl.InvalidPrior):
            cl.BinaryPrior(p_h=0.5, p_hh=0.8, p_hl=0.3)

    def test_exchangeability_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            pr = props.random_prior(rng)
            assert abs(pr.p_h * pr.p_lh - pr.p_l * pr.p_hl) <= 1e-12

    def test_frechet_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            pr = props.random_prior(rng)
            assert 0.0 < pr.p_hl < pr.p_hh


class TestPosterior:
    def test_reference_values(self):
        pr = cl.make_prior(2.0 / 3.0, 0.8)
        assert pr.posterior(cl.HIGH).p_h == pytest.approx(0.8, abs=1e-12)
        assert pr.posterior(cl.LOW).p_h == pytest.approx(0.4, abs=1e-12)

    def test_high_dominates_low(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            pr = props.random_prior(rng)
            assert pr.posterior(cl.HIGH).p_h > pr.posterior(cl.LOW).p_h


class TestWorldModel:
    def test_induce_prior(self):
        wm = cl.WorldModel((0.5, 0.5), (0.9, 0.1))
        pr = cl.induce_prior(wm)
        assert pr.p_h == pytest.approx(0.5, abs=1e-12)
        assert pr.p_hh == pytest.approx(0.82, abs=1e-12)

    def test_state_independent_signals_rejected(self):
        with pytest.raises(cl.InvalidPrior):
            cl.induce_prior(cl.WorldModel((0.5, 0.5), (0.4, 0.4)))

    def test_degenerate_state_weight_rejected(self):
        # only one live state: signals are iid, Pr(h|h) = Pr(h)
        with pytest.raises(cl.InvalidPrior):
            cl.induce_prior(cl.WorldModel((1.0, 0.0), (0.9, 0.1)))

    def test_state_probabilities_validated(self):
        with pytest.raises(cl.InvalidPrior):
            cl.WorldModel((0.7, 0.7), (0.9, 0.1))
        with pytest.raises(cl.InvalidPrior):
            cl.WorldModel((0.5, 0.5), (1.2, 0.1))


class TestCoalitionPosterior:
    def test_single_signal_matches_posterior(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            wm = props.random_world_model(rng)
            induced = cl.induce_prior(wm)
            got = cl.coalition_posterior(wm, 1, 0).p_h
            assert got == pytest.approx(induced.posterior(cl.HIGH).p_h, abs=1e-12)
            got = cl.coalition_posterior(wm, 0, 1).p_h
            assert got == pytest.approx(induced.posterior(cl.LOW).p_h, abs=1e-12)

    def test_symmetric_cancellation(self):
        wm = cl.WorldModel((0.5, 0.5), (0.9, 0.1))
        assert cl.coalition_posterior(wm, 1, 1).p_h == pytest.approx(0.5, abs=1e-12)

    def test_two_high_signals(self):
        wm = cl.WorldModel((0.5, 0.5), (0.9, 0.1))
        # brute-force Bayes over the two states
        expected = (0.5 * 0.81 * 0.9 + 0.5 * 0.01 * 0.1) / (0.5 * 0.81 + 0.5 * 0.01)
        got = cl.coalition_posterior(wm, 2, 0).p_h
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.8902, abs=5e-5)

    def test_zero_likelihood(self):
        wm = cl.WorldModel((0.5, 0.5), (1.0, 1.0))
        with pytest.raises(cl.ZeroLikelihood):
            cl.coalition_posterior(wm, 0, 1)
        # only when every state is ruled out: here state 0 never emits h
        # and state 1 has weight 0
        wm = cl.WorldModel((1.0, 0.0), (0.0, 0.5))
        with pytest.raises(cl.ZeroLikelihood):
            cl.coalition_posterior(wm, 1, 0)
        assert cl.coalition_posterior(wm, 0, 5000).p_h == 0.0
        wm = cl.WorldModel((0.5, 0.5), (1.0, 0.2))
        assert cl.coalition_posterior(wm, 2000, 1).p_h == pytest.approx(0.2, abs=1e-12)

    def test_large_counts_match_exact_arithmetic(self):
        reference = cl.world_model_for_prior(cl.make_prior(2 / 3, 0.8))
        for count in (400, 406, 407, 3000):
            assert cl.coalition_posterior(reference, count, count).p_h \
                == pytest.approx(0.8, abs=1e-12)
        wm = cl.WorldModel((0.5, 0.5), (0.3, 0.7))
        assert cl.coalition_posterior(wm, 700, 600).p_h == pytest.approx(0.7, abs=1e-12)
        rng = np.random.default_rng(16)
        for _ in range(150):
            wm = props.random_world_model(rng)
            if rng.random() < 0.3:  # a state that cannot emit one of the signals
                p = list(wm.p_h_given_state)
                p[int(rng.integers(0, 2))] = float(rng.choice([0.0, 1.0]))
                wm = cl.WorldModel(wm.p_state, tuple(p))
            count_h, count_l = (int(c) for c in rng.integers(0, 3001, size=2))
            if count_h + count_l == 0:
                continue
            exact = props.exact_coalition_posterior(wm, count_h, count_l)
            got = cl.coalition_posterior(wm, count_h, count_l).p_h
            assert got == pytest.approx(exact, abs=1e-12), (wm, count_h, count_l)

    def test_count_contract(self):
        wm = cl.WorldModel((0.5, 0.5), (0.9, 0.1))
        with pytest.raises(ValueError):
            cl.coalition_posterior(wm, 0, 0)
        with pytest.raises(ValueError):
            cl.coalition_posterior(wm, -1, 2)


class TestCanonicalRealization:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            pr = props.random_prior(rng)
            wm = cl.world_model_for_prior(pr)
            induced = cl.induce_prior(wm)
            assert induced.p_h == pytest.approx(pr.p_h, abs=1e-9)
            assert induced.p_hh == pytest.approx(pr.p_hh, abs=1e-9)


class TestConfig:
    def test_prior_key(self):
        pr, wm = cl.prior.from_config({"prior": {"p_h": 0.5, "p_h_given_h": 0.7}})
        assert wm is None
        assert pr.p_hl == pytest.approx(0.3, abs=1e-12)

    def test_world_model_key(self):
        pr, wm = cl.prior.from_config(
            {"world_model": {"p_state": [0.5, 0.5], "p_h_given_state": [0.9, 0.1]}})
        assert wm is not None
        assert pr.p_hh == pytest.approx(0.82, abs=1e-12)

    def test_exactly_one_source(self):
        with pytest.raises(cl.InvalidPrior):
            cl.prior.from_config({})
        with pytest.raises(cl.InvalidPrior):
            cl.prior.from_config({
                "prior": {"p_h": 0.5, "p_h_given_h": 0.7},
                "world_model": {"p_state": [0.5, 0.5], "p_h_given_state": [0.9, 0.1]},
            })

    def test_unknown_keys(self):
        with pytest.raises(cl.InvalidPrior):
            cl.prior.from_config({"prior": {"p_h": 0.5, "p_h_given_h": 0.7, "p_hl": 0.3}})

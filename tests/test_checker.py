import cProfile
import json
import math
import pstats
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import collusion_lab as cl
import props
from collusion_lab import checker


def constant_game(n=2, c=3.5):
    return cl.FiniteBayesianGame(
        n=n,
        type_sets=(("t",),) * n,
        action_sets=(("a", "b"),) * n,
        prior=np.ones((1,) * n),
        utilities=tuple(np.full((1,) + (2,) * n, c) for _ in range(n)),
    )


def matching_pennies():
    """Known types: payoff +1 to the matcher, -1 otherwise."""
    v0 = np.zeros((1, 2, 2))
    for a in range(2):
        for b in range(2):
            v0[0, a, b] = 1.0 if a == b else -1.0
    return cl.FiniteBayesianGame(
        n=2,
        type_sets=(("t",), ("t",)),
        action_sets=(("x", "y"), ("x", "y")),
        prior=np.ones((1, 1)),
        utilities=(v0, -v0),
    )


def joint_switch_game():
    """Both agents strictly gain by jointly moving from action 0 to action 1."""
    v = np.zeros((1, 2, 2))
    v[0, 0, 0] = 1.0
    v[0, 1, 1] = 2.0
    return cl.FiniteBayesianGame(
        n=2,
        type_sets=(("t",), ("t",)),
        action_sets=(("a", "b"), ("a", "b")),
        prior=np.ones((1, 1)),
        utilities=(v, v.copy()),
    )


def planted_mixed_game():
    """Improving deviations exist only at mixtures off the coarse grid.

    Expected payoff for agent 0 is -0.1*p + q - 2*p*q (p, q = own/peer
    probability of action b), symmetrically for agent 1.  At the base
    profile (both on action a) no lone deviation helps, every pure or
    half-step joint change strictly hurts someone, and the quarter-step
    mixture (0.25, 0.25) strictly helps both.
    """
    v0 = np.zeros((1, 2, 2))
    v0[0, 0, 0] = 0.0
    v0[0, 1, 0] = -0.1
    v0[0, 0, 1] = 1.0
    v0[0, 1, 1] = -1.1
    v1 = np.transpose(v0, (0, 2, 1)).copy()
    return cl.FiniteBayesianGame(
        n=2,
        type_sets=(("t",), ("t",)),
        action_sets=(("a", "b"), ("a", "b")),
        prior=np.ones((1, 1)),
        utilities=(v0, v1),
    )


def pure_profile(game, actions):
    mats = []
    for i in range(game.n):
        m = np.zeros((len(game.type_sets[i]), len(game.action_sets[i])))
        for v, a in enumerate(actions[i]):
            m[v, a] = 1.0
        mats.append(m)
    return cl.MixedProfile(tuple(mats))


class TestGameUtilities:
    def test_constant_game(self):
        game = constant_game(c=3.5)
        profile = pure_profile(game, [(0,), (1,)])
        for i in range(2):
            assert cl.game_ex_ante_utility(game, profile, i) == pytest.approx(3.5, abs=1e-12)
            assert cl.game_interim_utility(game, profile, i, 0) == pytest.approx(3.5, abs=1e-12)

    def test_matching_pennies_uniform(self):
        game = matching_pennies()
        uniform = cl.MixedProfile((np.full((1, 2), 0.5), np.full((1, 2), 0.5)))
        assert cl.game_ex_ante_utility(game, uniform, 0) == pytest.approx(0.0, abs=1e-12)
        assert cl.game_ex_ante_utility(game, uniform, 1) == pytest.approx(0.0, abs=1e-12)

    def test_matches_mechanism_closed_forms(self):
        props.check_checker_mechanism_exactness()

    def test_interim_totality(self):
        rng = np.random.default_rng(41)
        game = props.random_game(rng, n=3)
        profile = props.random_pure_profile(rng, game)
        for i in range(3):
            marginal = game.type_marginal(i)
            total = sum(marginal[v] * cl.game_interim_utility(game, profile, i, v)
                        for v in range(len(game.type_sets[i])))
            assert total == pytest.approx(cl.game_ex_ante_utility(game, profile, i), abs=1e-12)

    def test_interim_coalition_totality(self):
        # averaging the coalition-conditioned utility over the coalition's
        # type vector recovers the ex-ante utility
        setting = cl.make_setting(4, cl.BrierRule(), prior=cl.make_prior(0.5, 0.8))
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        total = 0.0
        for s0 in range(2):
            for s1 in range(2):
                weight = float(game.prior[s0, s1].sum())
                total += weight * cl.game_interim_D_utility(game, profile, 0, {0: s0, 1: s1})
        assert total == pytest.approx(cl.game_ex_ante_utility(game, profile, 0), abs=1e-12)

    def test_dimension_mismatch(self):
        game = matching_pennies()
        bad = cl.MixedProfile((np.full((1, 2), 0.5),))
        with pytest.raises(cl.DimensionMismatch):
            cl.game_ex_ante_utility(game, bad, 0)
        uniform = cl.MixedProfile((np.full((1, 2), 0.5), np.full((1, 2), 0.5)))
        with pytest.raises(cl.DimensionMismatch):
            cl.game_interim_utility(game, uniform, 0, 5)

    def test_game_validation(self):
        with pytest.raises(cl.InvalidGame):
            cl.FiniteBayesianGame(
                n=2, type_sets=(("t",), ("t",)), action_sets=(("a", "b"), ("a", "b")),
                prior=np.array([[0.5, 0.5]]),  # wrong shape
                utilities=(np.zeros((1, 2, 2)), np.zeros((1, 2, 2))))
        with pytest.raises(cl.InvalidGame):
            cl.FiniteBayesianGame(
                n=2, type_sets=(("t", "u"), ("t",)), action_sets=(("a", "b"), ("a", "b")),
                prior=np.array([[1.0], [0.0]]),  # type u has zero marginal
                utilities=(np.zeros((2, 2, 2)), np.zeros((1, 2, 2))))

    def test_utility_magnitude_bounded(self):
        # |utility| <= 2^1000 keeps every expected utility and delta finite
        bound = 2.0 ** 1000
        for c in (np.nextafter(bound, np.inf), -np.nextafter(bound, np.inf), np.nan, np.inf):
            with pytest.raises(cl.InvalidGame):
                constant_game(c=c)
        v = np.array([[[-bound, -bound], [bound, bound]]])
        game = cl.FiniteBayesianGame(
            n=2, type_sets=(("t",),) * 2, action_sets=(("x", "y"),) * 2,
            prior=np.ones((1, 1)), utilities=(v, np.zeros((1, 2, 2))))
        truthful_x = pure_profile(game, [[0], [0]])
        assert cl.bne_check(game, truthful_x) == (False, 2.0 ** 1001)
        cert = cl.find_deviation(game, truthful_x, 1, "ex_ante", grid_steps=3)
        assert cert.deltas == (2.0 ** 1001,)


class TestFindDeviation:
    def test_truthful_peer_prediction_k1(self):
        setting = cl.make_setting(5, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8))
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        for concept in ("ex_ante", "bayesian"):
            assert cl.find_deviation(game, profile, 1, concept, grid_steps=11) is None

    def test_joint_switch_found(self):
        game = joint_switch_game()
        profile = pure_profile(game, [(0,), (0,)])
        cert = cl.find_deviation(game, profile, 2, "ex_ante", grid_steps=3)
        assert cert is not None
        assert cert.coalition == (0, 1)
        assert all(d > 0 for d in cert.deltas)
        assert cl.verify_certificate(game, profile, cert)

    def test_canonical_deviation_small_population(self):
        setting = cl.make_setting(8, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8))
        k_e = cl.k_ex_ante(setting).k
        assert k_e == 2
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        cert = cl.find_deviation(game, profile, k_e + 1, "ex_ante", grid_steps=11)
        assert cert is not None
        assert len(cert.coalition) == k_e + 1
        # the certificate is one of the canonical corner deviations
        all_h = ((0.0, 1.0), (0.0, 1.0))
        all_l = ((1.0, 0.0), (1.0, 0.0))
        assert all(m in (all_h, all_l) for m in cert.strategies)
        assert cl.verify_certificate(game, profile, cert)
        # cross-check against the dichotomy oracle
        assert cl.dichotomy_check(setting, k_e + 1, "all_h", "ex_ante").succeeded

    def test_k_monotonicity(self):
        game = joint_switch_game()
        profile = pure_profile(game, [(0,), (0,)])
        assert cl.find_deviation(game, profile, 1, "ex_ante", grid_steps=3) is None
        for k in (2,):
            assert cl.find_deviation(game, profile, k, "ex_ante", grid_steps=3) is not None

    def test_grid_refinement(self):
        game = planted_mixed_game()
        profile = pure_profile(game, [(0,), (0,)])
        assert cl.find_deviation(game, profile, 2, "ex_ante", grid_steps=3) is None
        cert = cl.find_deviation(game, profile, 2, "ex_ante", grid_steps=5)
        assert cert is not None
        assert cert.strategies[0][0] == pytest.approx((0.75, 0.25))
        # a certificate found at one grid stays valid at any other
        assert cl.verify_certificate(game, profile, cert)

    def test_budget_exceeded(self, monkeypatch):
        setting = cl.make_setting(5, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8))
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        rows = []
        contract = checker._CoalitionEvaluator.ex_ante

        def counted(ev, assignment):
            rows.append(len(assignment[0]))
            return contract(ev, assignment)

        monkeypatch.setattr(checker._CoalitionEvaluator, "ex_ante", counted)
        with pytest.raises(cl.BudgetExceeded) as err:
            cl.find_deviation(game, profile, 2, "ex_ante", grid_steps=11, budget=10)
        # one node for the size-1 build, nine candidates fit, the tenth passes
        assert err.value.nodes_searched == 11
        assert rows == [1, 9]  # the baseline, then only the candidates within budget
        # 121 grid strategies less the truthful one: size 1 needs 121 nodes
        for budget in (1, 2, 120, 121, 122, 123, 124, 500):
            kwargs = {"grid_steps": 11, "budget": budget}
            assert (props.search_outcome(cl.find_deviation, game, profile, 2, "ex_ante", **kwargs)
                    == props.search_outcome(props.find_deviation_by_candidates, game, profile,
                                            2, "ex_ante", **kwargs)), budget

    @pytest.mark.parametrize("concept, nodes", [("ex_ante", 6), ("bayesian", 7)])
    def test_budget_bounds_the_work_at_any_grid(self, concept, nodes):
        # 300^2 and 3000^2 strategies per member: the budget stops the search
        # after the build (1 node) and the candidates that fit in 5 nodes
        setting = cl.make_setting(3, cl.BrierRule(), prior=cl.make_prior(0.4, 0.6))
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        for grid_steps, cpu_bound in ((300, 0.05), (3000, 0.5)):
            start = time.process_time()
            with pytest.raises(cl.BudgetExceeded) as err:
                cl.find_deviation(game, profile, 2, concept, grid_steps=grid_steps, budget=5)
            cpu = time.process_time() - start
            assert err.value.nodes_searched == nodes
            assert cpu < cpu_bound, (grid_steps, cpu)
            tracemalloc.start()
            try:
                with pytest.raises(cl.BudgetExceeded):
                    cl.find_deviation(game, profile, 2, concept, grid_steps=grid_steps, budget=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20, (grid_steps, peak)

    def test_grid_size_is_bounded_before_any_row(self, monkeypatch):
        # the grid is built before the budget is charged, so its row count is checked first
        with pytest.raises(cl.InvalidSetting, match="more than 1048576"):
            checker._dist_grid(2, 10 ** 20)
        with pytest.raises(cl.InvalidSetting, match="1353400 grid points"):
            checker._dist_grid(4, 200)
        monkeypatch.setattr(checker, "_MAX_GRID_ROWS", 66)
        assert len(checker._dist_grid(3, 11)) == 66  # C(12, 2)
        with pytest.raises(cl.InvalidSetting):
            checker._dist_grid(3, 12)
        monkeypatch.setattr(checker, "_MAX_GRID_ROWS", 11)  # two actions: grid_steps rows
        game = cl.peer_prediction_game(cl.make_setting(3, cl.BrierRule(),
                                                       prior=cl.make_prior(0.4, 0.6)))
        with pytest.raises(cl.InvalidSetting):
            cl.find_deviation(game, cl.truthful_profile(game), 2, "ex_ante", grid_steps=12)

    def test_dist_grid_matches_quadratic_construction(self):
        for actions in range(1, 6):
            for grid_steps in range(2, 13):
                rows = checker._dist_grid(actions, grid_steps)
                assert ([tuple(row) for row in rows.tolist()]
                        == props.dist_grid_list(actions, grid_steps)), (actions, grid_steps)

    @pytest.mark.parametrize("eps", [1e-7, 1e-4])  # within np.isclose's rtol of 0.5, and not
    def test_near_grid_rows_match_candidate_loop(self, eps):
        row = [0.5 + eps, 0.5 - eps]
        peer = cl.peer_prediction_game(
            cl.make_setting(3, cl.BrierRule(), prior=cl.make_prior(0.4, 0.6)))
        constant = constant_game(3)  # no deviation succeeds: every candidate is charged
        cases = [(peer, np.array([row, [0.0, 1.0]]), cl.truthful_profile(peer)),
                 (constant, np.array([row]), pure_profile(constant, [(0,)] * 3))]
        for game, near, base in cases:
            # one member off its base play (every coalition), then all three (multisets)
            for profile in (base.replace({0: near}), cl.MixedProfile((near,) * 3)):
                for concept in ("ex_ante", "bayesian"):
                    for k in (1, 2, 3):
                        args = (game, profile, k, concept)
                        assert (props.search_outcome(cl.find_deviation, *args, grid_steps=3)
                                == props.search_outcome(props.find_deviation_by_candidates,
                                                        *args, grid_steps=3)), (eps, k, concept)
                    # every budget: nodes_searched shows whether the current play was skipped
                    props.check_budget_sweep_matches_candidate_loop(game, profile, 2, concept, 3)

    def test_matches_candidate_loop(self):
        # exact ==, not a tolerance: the chunked contraction sums the same
        # products in the same order as one candidate at a time
        cases = [props.game_search_case_args(c) for c in props.game_search_cases()]
        kinds = props.check_find_deviation_matches_candidate_loop(
            cases + props.peer_prediction_search_cases())
        assert min(kinds.values()) >= 5, kinds

    def test_chunk_contraction_matches_candidates(self):
        props.check_chunk_contraction_matches_candidates()

    def test_reduced_tensors_match_einsum(self):
        # folded build vs one einsum per member: sums in another order, so
        # compared within 1e-12 of each tensor's largest |entry|
        assert props.check_reduced_tensors_match_einsum() <= 1e-12
        assert props.check_peer_tensors_match_einsum() <= 1e-12

    def test_matches_einsum_candidate_loop(self):
        # the per-candidate loop on einsum-built tensors: same verdicts,
        # nodes_searched, coalitions and strategies, deltas within 1e-12
        cases = [props.game_search_case_args(c) for c in props.game_search_cases()]
        kinds = props.check_find_deviation_matches_einsum_loop(
            cases + props.peer_prediction_search_cases())
        assert min(kinds.values()) >= 5, kinds

    def test_searches_plan_no_einsum_path(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def guarded(*operands, **kwargs):
            assert not kwargs.get("optimize"), "a search planned an einsum path"
            calls.append(len(operands))
            return einsum(*operands, **kwargs)

        monkeypatch.setattr(np, "einsum", guarded)
        peer = cl.peer_prediction_game(
            cl.make_setting(5, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8)))
        rng = np.random.default_rng(12)
        wide = props.random_wide_game(rng, n=3)
        for game, profile in ((peer, cl.truthful_profile(peer)),
                              (wide, props.random_mixed_profile(rng, wide))):
            for concept in ("ex_ante", "bayesian"):
                cl.find_deviation(game, profile, 3, concept, grid_steps=3, budget=20_000)
            cl.bne_check(game, profile)
        assert calls  # the searches went through the wrapper

    def test_one_candidate_per_chunk(self, monkeypatch):
        monkeypatch.setattr(checker, "_CHUNK_CELLS", 1)
        cases = [props.game_search_case_args(c) for c in props.game_search_cases()]
        props.check_find_deviation_matches_candidate_loop(cases)

    # (case in props.peer_prediction_search_cases(), budget at which it finishes)
    @pytest.mark.parametrize("cells, picks", [
        (None, ((25, 130), (4, 105))),  # size-2 product, size-3 multiset
        (100, ((21, 204),)),            # size-3 multiset; 25, 6, 1 rows per chunk by size
    ])
    def test_budget_sweep_matches_candidate_loop(self, monkeypatch, cells, picks):
        if cells is not None:
            monkeypatch.setattr(checker, "_CHUNK_CELLS", cells)
        cases = props.peer_prediction_search_cases()
        for index, finish in picks:
            game, profile, k, concept, options = cases[index]
            assert props.check_budget_sweep_matches_candidate_loop(
                game, profile, k, concept, options["grid_steps"]) == finish

    def test_chunk_memory_bounded(self):
        # n = 10, k = 6: 4096-cell reduced tensors and 3003 size-6 multisets.
        # Peak 0.8 MB with chunks of 2^15 cells (2.3 MB at 2^17, 33 MB at 2^21).
        setting = cl.make_setting(10, cl.BrierRule(), prior=cl.make_prior(0.5, 0.8))
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        tracemalloc.start()
        try:
            cert = cl.find_deviation(game, profile, 6, "ex_ante", grid_steps=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert is None
        assert peak < 1.5 * 2 ** 20, peak

    def test_golden_search_outcomes(self):
        # captured before the searches read only the reduced coalition
        # tensors: same verdicts, nodes_searched, coalitions and strategies,
        # deltas to 1e-12 (props.game_search_cases(), seed 919)
        golden = json.loads((Path(__file__).parent / "data" / "game_search_golden.json")
                            .read_text())
        assert len(golden) == 60
        for i, case in enumerate(golden):
            got, want = props.game_search_outcome(case), case["outcome"]
            assert got["budget_exceeded"] == want["budget_exceeded"], i
            if want["budget_exceeded"]:
                assert got["nodes_searched"] == want["nodes_searched"], i
                continue
            if want["certificate"] is None:
                assert got["certificate"] is None, i
                continue
            got_cert, want_cert = got["certificate"], want["certificate"]
            assert got_cert["coalition"] == want_cert["coalition"], i
            assert got_cert["strategies"] == want_cert["strategies"], i
            assert np.allclose(got_cert["deltas"], want_cert["deltas"], rtol=0, atol=1e-12), i

    def test_soundness_fuzz(self):
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(1000):
            game = props.random_game(rng, n=2)
            profile = props.random_pure_profile(rng, game)
            concept = "ex_ante" if rng.random() < 0.5 else "bayesian"
            cert = cl.find_deviation(game, profile, 2, concept, grid_steps=3)
            if cert is not None:
                found += 1
                assert cl.verify_certificate(game, profile, cert)
        assert found >= 200, f"fuzz produced too few certificates ({found})"


class TestVerifyCertificate:
    def _found(self):
        game = joint_switch_game()
        profile = pure_profile(game, [(0,), (0,)])
        cert = cl.find_deviation(game, profile, 2, "ex_ante", grid_steps=3)
        return game, profile, cert

    def test_negated_delta_fails(self):
        game, profile, cert = self._found()
        tampered = cl.DeviationCertificate(
            concept=cert.concept, coalition=cert.coalition, strategies=cert.strategies,
            deltas=tuple(-d for d in cert.deltas), tolerance=cert.tolerance)
        assert not cl.verify_certificate(game, profile, tampered)
        # truncated certificates: missing deltas, or short per-type tuples
        setting = props.reference_setting()
        ex = cl.find_setting_deviation(setting, 40, "ex_ante")
        ba = cl.find_setting_deviation(setting, 45, "bayesian")
        for bad in (replace(ex, deltas=()), replace(ex, deltas=ex.deltas[:1]),
                    replace(ba, deltas=tuple(d[:1] for d in ba.deltas))):
            assert not cl.verify_setting_certificate(setting, bad)
        # a NaN stored delta matches nothing
        assert not cl.verify_setting_certificate(
            setting, replace(ex, deltas=(math.nan,) + ex.deltas[1:]))
        assert not cl.verify_setting_certificate(
            setting, replace(ba, deltas=((ba.deltas[0][0], math.nan),) + ba.deltas[1:]))
        game = cl.peer_prediction_game(
            cl.make_setting(6, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8)))
        profile = cl.truthful_profile(game)
        cert = cl.find_deviation(game, profile, 3, "ex_ante")
        assert cl.verify_certificate(game, profile, cert)
        assert not cl.verify_certificate(game, profile, replace(cert, deltas=()))

    def test_coalition_must_list_distinct_agents_in_range(self):
        v = np.zeros((1, 2, 2))
        v[0, 1, :] = 1.0  # the dominated-action game of TestBneCheck
        game = cl.FiniteBayesianGame(
            n=2, type_sets=(("t",), ("t",)), action_sets=(("a", "b"), ("a", "b")),
            prior=np.ones((1, 1)), utilities=(v, np.zeros((1, 2, 2))))
        profile = pure_profile(game, [(0,), (0,)])
        b = ((0.0, 1.0),)
        for coalition in ((0, 0), (0, 5), (-1,)):
            cert = cl.DeviationCertificate(
                concept="ex_ante", coalition=coalition, strategies=(b,) * len(coalition),
                deltas=(1.0,) * len(coalition), tolerance=1e-9)
            with pytest.raises(cl.DimensionMismatch):
                cl.verify_certificate(game, profile, cert)
        assert cl.verify_certificate(game, profile, replace(cert, coalition=(0,)))
        setting = props.reference_setting(n=10)
        cert = cl.find_setting_deviation(setting, 10, "ex_ante")
        assert cl.verify_setting_certificate(setting, cert)
        size = len(cert.coalition)
        for coalition in ((0,) * size, tuple(range(1, size + 1))[:-1] + (10,)):
            with pytest.raises(cl.DimensionMismatch):
                cl.verify_setting_certificate(setting, replace(cert, coalition=coalition))

    def test_bayesian_reinterprets_as_ex_ante(self):
        props.check_bayesian_implies_ex_ante_certificate()

    def test_round_trip(self):
        game, profile, cert = self._found()
        again = cl.DeviationCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert again == cert
        assert cl.verify_certificate(game, profile, again)

    def test_from_dict_typed_errors(self):
        good = self._found()[2].to_dict()
        bad = [None, [], "cert", {}, {k: v for k, v in good.items() if k != "deltas"},
               {**good, "extra": 1}, {**good, "concept": 5}, {**good, "coalition": "ab"},
               {**good, "coalition": 3}, {**good, "coalition": [0.5, 1]},
               {**good, "strategies": [[1.0, 0.0]]}, {**good, "deltas": ["x", 1.0]},
               {**good, "deltas": [None]}, {**good, "tolerance": "tight"},
               {**good, "tolerance": 10 ** 400}, {**good, "conditioning_types": ["h"]},
               {**good, "conditioning_types": 1}]
        for data in bad:
            with pytest.raises(cl.DimensionMismatch):
                cl.DeviationCertificate.from_dict(data)
        no_types = {k: v for k, v in good.items() if k != "conditioning_types"}
        assert cl.DeviationCertificate.from_dict(no_types) == self._found()[2]

    @pytest.mark.parametrize("field,value", [
        ("deltas", ["0.5", 1.0]), ("tolerance", "1e-9"),
        ("strategies", [[["1.0", "0.0"]], [[1.0, 0.0]]])])
    def test_from_dict_rejects_numeric_strings(self, field, value):
        good = self._found()[2].to_dict()
        with pytest.raises(cl.DimensionMismatch):
            cl.DeviationCertificate.from_dict({**good, field: value})

    @pytest.mark.parametrize("field,value", [
        ("deltas", [True, 1.0]), ("tolerance", False),
        ("strategies", [[[True, False]], [[1.0, 0.0]]])])
    def test_from_dict_rejects_bool_numbers(self, field, value):
        good = self._found()[2].to_dict()
        with pytest.raises(cl.DimensionMismatch):
            cl.DeviationCertificate.from_dict({**good, field: value})

    @pytest.mark.parametrize("field,value", [
        ("coalition", [True]), ("coalition", [0, True]), ("conditioning_types", [False, 1])])
    def test_from_dict_rejects_bool_indices(self, field, value):
        good = self._found()[2].to_dict()
        with pytest.raises(cl.DimensionMismatch):
            cl.DeviationCertificate.from_dict({**good, field: value})

    def test_conditioning_types_range_checked(self):
        # the n = 6 reference interim_D certificate, members (h, l)
        wm = cl.world_model_for_prior(cl.make_prior(2 / 3, 0.8))
        cert = cl.interim_D_deviation(wm, cl.BrierRule(), 6, (cl.HIGH, cl.LOW))
        setting = cl.make_setting(6, cl.BrierRule(), world_model=wm)
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        assert cl.verify_setting_certificate(setting, cert)
        assert cl.verify_certificate(game, profile, cert)
        for types in ((5, 0), (1, 2), (-1, 0), (1, -1)):
            tampered = replace(cert, conditioning_types=types)
            with pytest.raises(cl.DimensionMismatch):
                cl.verify_setting_certificate(setting, tampered)
            with pytest.raises(cl.DimensionMismatch):
                cl.verify_certificate(game, profile, tampered)


class TestBneCheck:
    def test_truthful_peer_prediction(self):
        setting = cl.make_setting(4, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8))
        game = cl.peer_prediction_game(setting)
        holds, worst = cl.bne_check(game, cl.truthful_profile(game))
        assert holds
        assert worst <= 0.0

    def test_dominated_action(self):
        v = np.zeros((1, 2, 2))
        v[0, 1, :] = 1.0  # action b strictly dominates for agent 0
        game = cl.FiniteBayesianGame(
            n=2, type_sets=(("t",), ("t",)), action_sets=(("a", "b"), ("a", "b")),
            prior=np.ones((1, 1)), utilities=(v, np.zeros((1, 2, 2))))
        profile = pure_profile(game, [(0,), (0,)])
        holds, worst = cl.bne_check(game, profile)
        assert not holds
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_equivalence_with_size_one_falsifier(self):
        props.check_bne_equivalence()

    def test_matches_action_loop_on_mixed_profiles(self):
        props.check_bne_matches_action_loop()


class TestSymmetryDetection:
    def test_peer_prediction_symmetric(self):
        setting = cl.make_setting(4, cl.BrierRule(), prior=cl.make_prior(2 / 3, 0.8))
        assert cl.is_symmetric_game(cl.peer_prediction_game(setting))

    def test_planted_game_symmetric(self):
        assert cl.is_symmetric_game(planted_mixed_game())

    def test_random_game_not_symmetric(self):
        rng = np.random.default_rng(43)
        game = props.random_game(rng, n=2)
        assert not cl.is_symmetric_game(game)

    def test_one_comparison_matches_pair_loop(self):
        seen = props.check_symmetric_game_matches_pairs()
        assert min(seen.values()) >= 20, seen


class TestInterimD:
    def _reference_wm(self):
        return cl.world_model_for_prior(cl.make_prior(2 / 3, 0.8))

    def test_mixed_coalition_certificate_exists(self):
        wm = self._reference_wm()
        cert = cl.interim_D_deviation(wm, cl.BrierRule(), 100, (cl.HIGH, cl.LOW))
        assert cert is not None
        assert cert.concept == "interim_D"
        assert all(d > 0 for d in cert.deltas)

    def test_singleton_reduces_to_bne(self):
        wm = self._reference_wm()
        for s in (cl.LOW, cl.HIGH):
            assert cl.interim_D_deviation(wm, cl.BrierRule(), 100, (s,)) is None

    def test_deltas_match_enumeration_oracle(self):
        wm = self._reference_wm()
        rule = cl.BrierRule()
        n = 50
        s_d = (cl.HIGH, cl.LOW, cl.LOW)
        cert = cl.interim_D_deviation(wm, rule, n, s_d)
        assert cert is not None
        target_h = cert.strategies[0][0][1] == 1.0  # coordinated report
        prior = cl.induce_prior(wm)
        q = {cl.LOW: prior.posterior(cl.LOW), cl.HIGH: prior.posterior(cl.HIGH)}

        def oracle_member(i, reports):
            # enumerate the two states; outsiders are iid given the state
            like = []
            for w, p in zip(wm.p_state, wm.p_h_given_state):
                l = w
                for s in s_d:
                    l *= p if s == cl.HIGH else (1.0 - p)
                like.append((l, p))
            z = sum(l for l, _ in like)
            total = 0.0
            own = reports[i]
            for l, p in like:
                inner = 0.0
                for j, r in enumerate(reports):
                    if j == i:
                        continue
                    inner += rule.score(r, q[own])
                outsider = (p * rule.score(cl.HIGH, q[own])
                            + (1 - p) * rule.score(cl.LOW, q[own]))
                total += (l / z) * (inner + (n - len(s_d)) * outsider)
            return total / (n - 1)

        coordinated = [cl.HIGH if target_h else cl.LOW] * len(s_d)
        for i in range(len(s_d)):
            want = oracle_member(i, coordinated) - oracle_member(i, list(s_d))
            assert cert.deltas[i] == pytest.approx(want, abs=1e-12)

    def test_large_coalitions_match_enumeration_oracle(self):
        rng = np.random.default_rng(45)
        found = 0
        for _ in range(20):
            wm = props.random_world_model(rng)
            rule = props.random_rule(rng)
            d = int(rng.integers(2, 60))
            n = d + int(rng.integers(1, 200))
            s_d = tuple(cl.HIGH if rng.random() < 0.5 else cl.LOW for _ in range(d))
            cert = cl.interim_D_deviation(wm, rule, n, s_d)
            if cert is None:
                continue
            found += 1
            target = cl.HIGH if cert.strategies[0][0][1] == 1.0 else cl.LOW
            base = props.interim_d_oracle(wm, rule, n, s_d, list(s_d))
            dev = props.interim_d_oracle(wm, rule, n, s_d, [target] * d)
            for i, delta in enumerate(cert.deltas):
                assert abs(delta - (dev[i] - base[i])) <= 1e-12
            setting = cl.make_setting(n, rule, world_model=wm)
            assert cl.verify_setting_certificate(setting, cert)
        assert found >= 5, found

    def test_certificate_verifies_in_explicit_game(self):
        wm = self._reference_wm()
        n = 8
        s_d = (cl.HIGH, cl.LOW)
        cert = cl.interim_D_deviation(wm, cl.BrierRule(), n, s_d)
        assert cert is not None
        setting = cl.make_setting(n, cl.BrierRule(), world_model=wm)
        game = cl.peer_prediction_game(setting)
        profile = cl.truthful_profile(game)
        assert cl.verify_certificate(game, profile, cert)
        assert cl.verify_setting_certificate(setting, cert)
        longer = replace(cert, conditioning_types=cert.conditioning_types + (0,))
        with pytest.raises(cl.DimensionMismatch):
            cl.verify_setting_certificate(setting, longer)


class TestSettingFalsifier:
    SETTING = props.reference_setting()

    def test_finds_canonical_at_scale(self):
        cert = cl.find_setting_deviation(self.SETTING, 40, "ex_ante")
        assert cert is not None
        assert len(cert.coalition) == cl.k_ex_ante(self.SETTING).k + 1
        assert cert.strategies[0] == ((0.0, 1.0), (0.0, 1.0))  # all-h
        assert cl.verify_setting_certificate(self.SETTING, cert)

    def test_none_within_threshold(self):
        assert cl.find_setting_deviation(self.SETTING, 26, "ex_ante") is None
        assert cl.find_setting_deviation(self.SETTING, 27, "ex_ante") is None

    def test_bayesian_threshold(self):
        assert cl.find_setting_deviation(self.SETTING, 44, "bayesian") is None
        cert = cl.find_setting_deviation(self.SETTING, 45, "bayesian")
        assert cert is not None
        assert len(cert.coalition) == 45

    def test_verifier_judges_one_strategy_by_the_rule(self):
        # a 70,329-member all-h certificate whose low type loses 1.37e-10: the deltas
        # pass the +-tol test, but the rule (and k_B = 70,329) says it fails
        from collusion_lab.thresholds import coalition_deltas, deviation_succeeds
        setting = cl.make_setting(10 ** 5, cl.LogRule(),
                                  prior=cl.make_prior(0.6788097570305401, 0.879370535781421))
        for k, holds in ((70_329, False), (70_330, True)):
            deltas = (coalition_deltas(setting, "bayesian", {cl.ALL_H: k})[cl.ALL_H],) * k
            assert deviation_succeeds("bayesian", deltas, cl.DEFAULT_TOL)
            cert = cl.DeviationCertificate("bayesian", tuple(range(k)), (cl.ALL_H.rows,) * k,
                                           deltas, cl.DEFAULT_TOL)
            assert cl.verify_setting_certificate(setting, cert) is holds
            # two members on another strategy: the deltas' test decides, as for any mix
            mixed_rows = (cl.ALL_H.rows,) * (k - 2) + (cl.ALL_L.rows,) * 2
            mix = coalition_deltas(setting, "bayesian", {cl.ALL_H: k - 2, cl.ALL_L: 2})
            mixed = cl.DeviationCertificate(
                "bayesian", tuple(range(k)), mixed_rows,
                (mix[cl.ALL_H],) * (k - 2) + (mix[cl.ALL_L],) * 2, cl.DEFAULT_TOL)
            assert cl.verify_setting_certificate(setting, mixed) is deviation_succeeds(
                "bayesian", mixed.deltas, cl.DEFAULT_TOL)

    def test_matches_size_loop_oracle(self):
        props.check_setting_falsifier_matches_loop()

    def test_matches_bisection_oracle(self):
        # the strategy-by-strategy scalar search: the same certificate or None
        kinds = props.check_setting_falsifier_matches_bisection()
        assert min(kinds.values()) >= 1000, kinds

    def test_small_chunks_match_bisection_oracle(self, monkeypatch):
        # many chunks per grid: ties across chunk boundaries
        monkeypatch.setattr(checker, "_CHUNK_LANES", 5)
        kinds = props.check_setting_falsifier_matches_bisection(seed=9191, cases=600)
        assert min(kinds.values()) >= 60, kinds

    def test_beyond_int64_matches_bisection_oracle(self):
        # n beyond int64, as in the scalar search
        rng = np.random.default_rng(6464)
        for case in range(40):
            n = 2 ** 63 + int(rng.integers(0, 2 ** 62)) * int(rng.integers(1, 20))
            # table rules that are not proper give small thresholds, so some searches win
            rule = (props.random_rule, props.random_table_rule)[case % 4 // 2](rng)
            setting = cl.make_setting(n, rule, prior=props.random_prior(rng))
            k, concept = int(rng.integers(1, 1000)), ("ex_ante", "bayesian")[case % 2]
            props.search_matches_oracle(props.setting_falsifier_by_bisection, setting, k, concept,
                                        grid_steps=int(rng.choice([3, 5])), label=case)

    @pytest.mark.parametrize("concept", ["ex_ante", "bayesian"])
    def test_budget_bounds_the_work(self, concept):
        # 10^8 grid strategies past the 10^7 cap: the search refuses before pricing any
        tracemalloc.start()
        try:
            start = time.process_time()
            with pytest.raises(cl.InvalidSetting, match="more than 10000000"):
                cl.find_setting_deviation(self.SETTING, 40, concept, grid_steps=10 ** 4)
            cpu = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cpu < 0.5 and peak < 16 * 2 ** 20, (cpu, peak)

    def test_grouped_deltas_match_profile_path(self):
        props.check_grouped_deltas_match_profile_path()

    @pytest.mark.parametrize("concept,threshold", [("ex_ante", cl.k_ex_ante),
                                                   ("bayesian", cl.k_bayesian)])
    def test_certificate_rows_must_be_distributions(self, concept, threshold):
        # a member's rows are read as its strategy only when they are two
        # distributions over (l, h), within MixedProfile's 1e-12
        setting = cl.make_setting(50, cl.BrierRule(), prior=cl.make_prior(0.4, 0.6))
        cert = cl.find_setting_deviation(setting, threshold(setting).k + 1, concept)
        assert cl.verify_setting_certificate(setting, cert)
        data = cert.to_dict()
        assert cl.verify_setting_certificate(setting, cl.DeviationCertificate.from_dict(data))
        (_, b_l), (_, b_h) = data["strategies"][0]
        bad_rows = [
            [[5.0, b_l], [-7.0, b_h]],          # right betas, rows not distributions
            [[b_l], [1.0 - b_h, b_h]],          # a one-entry row
            [[1.0 - b_l, b_l]],                 # one row
            [[1.0 - b_l, b_l], [1.0 - b_h, b_h], [0.5, 0.5]],
            [[1.0 - b_l, b_l, 0.0], [1.0 - b_h, b_h]],
            [[1.0 - b_l + 1e-11, b_l], [1.0 - b_h, b_h]],
            [[math.nan, b_l], [1.0 - b_h, b_h]],
            [[1.0 - b_l, b_l], [b_h, math.nan]],
            [[-0.5, 1.5], [1.0 - b_h, b_h]],
        ]
        for rows in bad_rows:
            bad = dict(data, strategies=[rows] * len(data["coalition"]))
            with pytest.raises(cl.DimensionMismatch):
                cl.verify_setting_certificate(setting, cl.DeviationCertificate.from_dict(bad))
        # within the tolerance the rows still read as the strategy
        close = dict(data, strategies=[[[1.0 - b_l + 1e-13, b_l], [1.0 - b_h, b_h]]]
                     * len(data["coalition"]))
        assert cl.verify_setting_certificate(setting, cl.DeviationCertificate.from_dict(close))

    def test_interim_d_certificate_rows_verify(self):
        wm = cl.WorldModel((0.5, 0.5), (0.2, 0.9))
        setting = cl.make_setting(100, cl.BrierRule(), world_model=wm)
        cert = cl.interim_D_deviation(wm, cl.BrierRule(), 100, (cl.HIGH, cl.LOW))
        assert cert is not None and cl.verify_setting_certificate(setting, cert)
        bad = dict(cert.to_dict(), strategies=[[[5.0, 1.0], [-7.0, 1.0]]] * 2)
        with pytest.raises(cl.DimensionMismatch):
            cl.verify_setting_certificate(setting, cl.DeviationCertificate.from_dict(bad))

    @pytest.mark.parametrize("concept", ["ex_ante", "bayesian", "interim_D"])
    def test_rows_just_outside_the_unit_interval_verify(self, concept):
        # corner rows pushed 1e-13 past 0 and 1 pass the 1e-12 row check, as in
        # MixedProfile, and read as the corner: the h-probability is clamped
        if concept == "interim_D":
            wm = cl.WorldModel((0.5, 0.5), (0.2, 0.9))
            setting = cl.make_setting(100, cl.BrierRule(), world_model=wm)
            cert = cl.interim_D_deviation(wm, cl.BrierRule(), 100, (cl.HIGH, cl.LOW))
        else:
            setting = cl.make_setting(50, cl.BrierRule(), prior=cl.make_prior(0.4, 0.6))
            threshold = cl.k_ex_ante if concept == "ex_ante" else cl.k_bayesian
            cert = cl.find_setting_deviation(setting, threshold(setting).k + 1, concept)
        data = cert.to_dict()
        assert all(b in (0.0, 1.0) for _, b in data["strategies"][0])
        rows = [[-1e-13, 1.0 + 1e-13] if b == 1.0 else [1.0 + 1e-13, -1e-13]
                for _, b in data["strategies"][0]]
        cl.MixedProfile((np.array(rows),))  # a game profile accepts the same rows
        nudged = dict(data, strategies=[rows] * len(data["coalition"]))
        assert cl.verify_setting_certificate(setting, cl.DeviationCertificate.from_dict(nudged))

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 7])
    @pytest.mark.parametrize("concept,threshold", [("ex_ante", cl.k_ex_ante),
                                                   ("bayesian", cl.k_bayesian)])
    def test_boundary_at_large_n(self, n, concept, threshold):
        # the grid's 120 strategies are priced at any n
        setting = cl.make_setting(n, cl.BrierRule(), prior=cl.make_prior(0.4, 0.6))
        k_star = threshold(setting).k
        assert cl.find_setting_deviation(setting, k_star, concept) is None
        cert = cl.find_setting_deviation(setting, k_star + 1, concept)
        assert cert is not None and len(cert.coalition) == k_star + 1
        if n == 10 ** 6:
            assert k_star + 1 == {"ex_ante": 238_097, "bayesian": 396_826}[concept]
            assert cl.verify_setting_certificate(setting, cert)

    def test_large_n_search_counts_no_members(self):
        # a member's delta reads grouped peers: no k-long profile, no Counter over it
        setting = cl.make_setting(10 ** 6, cl.BrierRule(), prior=cl.make_prior(0.4, 0.6))
        profiler = cProfile.Profile()
        profiler.runcall(cl.find_setting_deviation, setting, 396_826, "bayesian")
        called = {name for _, _, name in pstats.Stats(profiler).stats}
        assert "_peer_roles" not in called
        assert not any("_count_elements" in name for name in called), called

    def test_bad_search_options(self):
        game = joint_switch_game()
        profile = cl.MixedProfile((np.array([[1.0, 0.0]]),) * 2)
        for search, args in ((cl.find_setting_deviation, (self.SETTING, 5)),
                             (cl.find_deviation, (game, profile, 2))):
            with pytest.raises(cl.InvalidSetting):
                search(*args, "ex_ante", grid_steps=1)
            with pytest.raises(cl.InvalidSetting):
                search(*args, "interim_D")


class TestGameSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(44)
        game = props.random_game(rng, n=3)
        again = cl.FiniteBayesianGame.from_dict(json.loads(json.dumps(game.to_dict())))
        assert again.n == game.n
        assert again.type_sets == game.type_sets
        assert np.allclose(again.prior, game.prior, atol=0)
        for a, b in zip(again.utilities, game.utilities):
            assert np.allclose(a, b, atol=0)

    @staticmethod
    def text_games():
        """Seeded games: peer prediction n = 2..10 (Brier/log, some per-agent
        scaled), wide games with unequal type and action counts, and a table of
        edge numbers (ints, -0.0, subnormals, near the +-2^1000 bound)."""
        rng = np.random.default_rng(1919)
        for n in range(2, 11):
            rule = cl.BrierRule() if n % 2 else cl.LogRule(base=float(rng.uniform(1.5, 10.0)))
            game = cl.peer_prediction_game(cl.make_setting(n, rule, prior=props.random_prior(rng)))
            if n % 3 == 0:
                scales = rng.uniform(-1e3, 1e3, size=n)
                game = replace(game, utilities=tuple(c * v for c, v in zip(scales, game.utilities)))
            yield game
        for n in (1, 2, 3, 4):
            yield props.random_wide_game(rng, n)
        yield {"n": 2, "types": [["x"], ["y", "z"]], "actions": [["a", "b", "c"], ["d", "e"]],
               "prior": [[0.25, 0.75]],
               "utilities": [[[[0, -0.0], [5e-324, -2.2250738585072014e-308], [1e300, -1e300]]],
                             [[[2 ** 70, -(2 ** 53 + 1)], [0.1, 1 / 3], [123456789, -7]],
                              [[-0.0, 0], [1e-320, -5e-324], [2 ** 64, 1.7976931348623157e300]]]]}
        yield {"n": 1, "types": [["t"]], "actions": [["a", "b"]], "prior": [1],
               "utilities": [[[-0, 3]]]}

    def test_text_reader_matches_general_json(self):
        # the flat table reader gives the bits from_dict(json.loads(text)) gives, in
        # every layout, key order and number form json.dumps writes
        rng = np.random.default_rng(2020)
        for game in self.text_games():
            data = game if isinstance(game, dict) else game.to_dict()
            keys = list(data)
            rng.shuffle(keys)
            for text in (json.dumps(data), json.dumps(data, separators=(",", ":")),
                         json.dumps(data, indent=2), json.dumps({k: data[k] for k in keys})):
                flat = checker.game_from_text(text)
                assert flat is not None, text[:200]
                general = cl.FiniteBayesianGame.from_dict(json.loads(text))
                assert (flat.n, flat.type_sets, flat.action_sets) \
                    == (general.n, general.type_sets, general.action_sets)
                for a, b in zip((flat.prior, *flat.utilities), (general.prior, *general.utilities),
                                strict=True):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("n", [3.7, 3.0, "3", None])
    def test_game_rejects_non_integer_n(self, n):
        data = props.random_game(np.random.default_rng(44), n=3).to_dict()
        assert cl.FiniteBayesianGame.from_dict(data).n == 3
        with pytest.raises(cl.InvalidGame):
            cl.FiniteBayesianGame.from_dict({**data, "n": n})

    def test_game_rejects_bool_n(self):
        # a one-agent game, which n = true would otherwise read as n = 1
        data = {"n": 1, "types": [["a", "b"]], "actions": [["a", "b"]], "prior": [0.5, 0.5],
                "utilities": [[[1.0, 0.0], [0.0, 1.0]]]}
        assert cl.FiniteBayesianGame.from_dict(data).n == 1
        with pytest.raises(cl.InvalidGame):
            cl.FiniteBayesianGame.from_dict({**data, "n": True})

    @pytest.mark.parametrize("field,value", [
        ("prior", ["0.5", 0.5]), ("prior", [True, 0.0]), ("prior", [0.5, None]),
        ("prior", [[0.5], 0.5]), ("prior", [0.5, 10 ** 400]),
        ("utilities", [[["1", False], [0.0, True]]]), ("utilities", [[[1.0, 0.0], [0.0, "1"]]]),
        ("utilities", [[[1.0, False], [0.0, 1.0]]]), ("utilities", [[[1.0, 0.0], [0.0, None]]]),
    ])
    def test_game_rejects_non_number_tables(self, field, value):
        data = {"n": 1, "types": [["a", "b"]], "actions": [["a", "b"]], "prior": [0.5, 0.5],
                "utilities": [[[1, 0.0], [0.0, 1]]]}
        game = cl.FiniteBayesianGame.from_dict(data)
        assert game.prior.tolist() == [0.5, 0.5]
        assert game.utilities[0].tolist() == [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(cl.InvalidGame):
            cl.FiniteBayesianGame.from_dict({**data, field: value})

    @pytest.mark.parametrize("row", [["1.0", 0.0], ["1", "0"], [True, False], [1.0, False],
                                     [None, 1.0], [[1.0], 0.0]])
    def test_profile_rejects_non_number_entries(self, row):
        good = {"strategies": [[[0.5, 0.5]], [[1, 0]]]}
        assert cl.MixedProfile.from_dict(good).strategies[1].tolist() == [[1.0, 0.0]]
        with pytest.raises(cl.DimensionMismatch):
            cl.MixedProfile.from_dict({"strategies": [[[0.5, 0.5]], [row]]})

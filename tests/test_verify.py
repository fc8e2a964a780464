import json
from pathlib import Path

import numpy as np
import pytest

import symdiv.verify as verify_mod
from symdiv import (DomainError, GeneratorFamilyKind, InputError, MeasureKind, Severity,
                    SweepConfig, check_bounds_suite, check_chain, check_parametric,
                    ratio_bounds, run_sweep, validate_distribution)
from symdiv.csiszar import (_endpoints, _smoothness, bound_report, endpoint_bounds,
                            family_generator, smoothness_bounds)
from symdiv.divergences import (_vajda_bounds, _vajda_coefficients, vajda_upper_bounds,
                                vajda_variation_coefficients)
from symdiv.verify import (DEFAULT_TOL, REGISTRY, CaseResult, _generators, _sample_stack, _stack,
                           pair_for, slack_violation)

MANIFEST = Path(__file__).parent / "data" / "registry_manifest.txt"
# run_sweep(SweepConfig(samples_per_dim=5, seed=S)) for S = 7 and 1402,
# elapsed_ms dropped, generated by checking the pairs one at a time; the
# batched engine must reproduce it byte for byte. Seed 1402 includes a
# near-diagonal pair (pair_for(1402, 2, 4), chi2 about 7e-7)
GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"


class TestRegistry:
    def test_ids_match_checked_in_manifest(self):
        manifest = MANIFEST.read_text().split()
        assert [c.id for c in REGISTRY] == manifest

    def test_ids_are_unique(self):
        ids = [c.id for c in REGISTRY]
        assert len(ids) == len(set(ids))

    def test_only_the_variation_lower_bound_is_diagnostic(self):
        diagnostic = [c.id for c in REGISTRY if c.severity is Severity.DIAGNOSTIC]
        assert diagnostic == ["EQ53_LOWER"]


class TestSlack:
    def test_passes_with_small_relative_excess(self):
        assert slack_violation(100.0 + 1e-9, 100.0, 1e-10) <= 0

    def test_absolute_floor_near_zero(self):
        assert slack_violation(5e-11, 0.0, 1e-10) <= 0
        assert slack_violation(2e-10, 0.0, 1e-10) > 0

    def test_arrays_match_scalars_bit_for_bit(self):
        rng = np.random.default_rng(5)
        rhs = np.concatenate([rng.uniform(-3.0, 3.0, 200), 10.0 ** rng.uniform(-12, 6, 200),
                              [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0)]])
        lhs = rhs * (1.0 + rng.normal(0.0, 1e-9, rhs.size)) + rng.normal(0.0, 1e-10, rhs.size)
        for tol in (1e-10, 1e-3):
            batched = slack_violation(lhs.reshape(5, -1), rhs.reshape(5, -1), tol).ravel()
            scalar = [l - r - tol * max(1.0, abs(r)) for l, r in zip(lhs.tolist(), rhs.tolist())]
            assert batched.tolist() == scalar
            assert batched.tolist() == [float(slack_violation(l, r, tol))
                                        for l, r in zip(lhs.tolist(), rhs.tolist())]


class TestCheckChain:
    def test_canonical_chain_values(self, pair):
        report = check_chain(*pair)
        assert report.ok
        # mpmath oracle values for the seven chain quantities
        expected = (0.02, 0.0201355135507, 0.0202041028867, 0.0202553879795,
                    0.0202732554054, 0.0204109972601, 0.0208333333333)
        np.testing.assert_allclose(report.chain_values, expected, rtol=1e-11)

    def test_equal_pair_gives_all_zero_chain(self):
        p = validate_distribution([0.5, 0.5])
        report = check_chain(p, p)
        assert report.ok
        np.testing.assert_allclose(report.chain_values, 0.0, atol=1e-15)

    def test_random_high_dimensional_pair_passes(self):
        p, q = pair_for(99, 7, 0)
        assert check_chain(p, q).ok

    def test_case_ids(self, pair):
        report = check_chain(*pair)
        assert [c.case_id for c in report.cases] == [
            "EQ77", "EQ104", "EQ130", "EQ137", "EQ138", "EQ139", "EQ140",
            "EQ141", "EQ172", "EQ182", "EQ183"]


class TestCheckParametric:
    def test_canonical_pair_passes(self, pair):
        results = check_parametric(*pair, s_grid=(-2, -1, 0, 0.5, 1, 2),
                                   t_grid=(-2, -1, 0, 0.5, 1, 2))
        assert all(c.passed for c in results)

    def test_v_dominates_four_w_at_half(self, pair):
        from symdiv import ag_js_divergence_type_s, j_divergence_type_s
        v = j_divergence_type_s(0.5, *pair)
        w = ag_js_divergence_type_s(0.5, *pair)
        assert v == pytest.approx(0.161632823094, rel=1e-10)
        assert 4 * w <= v

    def test_domain_restricted_points_are_counted(self, pair):
        results = {c.case_id: c for c in check_parametric(
            *pair, s_grid=(-2.0, 0.25, 3.0), t_grid=(-0.5,))}
        # s = 0.25 and 3.0 fall outside [-2, 0]; both skipped
        assert results["EQ129_UPPER"].skipped == 2
        assert results["EQ129_UPPER"].evaluations == 1
        # t = -0.5 is outside every EQ148 domain piece
        assert results["EQ148"].skipped == 1
        assert results["EQ148"].evaluations == 0

    def test_empty_grid_rejected(self, pair):
        with pytest.raises(InputError) as err:
            check_parametric(*pair, s_grid=(), t_grid=(1.0,))
        assert err.value.code == "EMPTY_GRID"


class TestCheckBoundsSuite:
    def test_canonical_pair_passes(self, pair):
        results = check_bounds_suite(*pair, s_grid=(-1, 0, 0.5, 1, 2))
        by_id = {c.case_id: c for c in results}
        for case_id, case in by_id.items():
            if case.severity is Severity.ASSERT:
                assert case.passed, case_id
        # the printed lower variation bound fails here, by design
        assert by_id["EQ53_LOWER"].violations > 0

    def test_ratio_square_inequality_values(self, pair):
        # (R-1)(1-r) = 1/6 <= (R-r)^2/4 = 25/144 at (r, R) = (2/3, 3/2)
        from symdiv import ratio_bounds
        rb = ratio_bounds(*pair)
        lhs = (rb.R - 1) * (1 - rb.r)
        rhs = (rb.R - rb.r) ** 2 / 4
        assert lhs == pytest.approx(1 / 6, rel=1e-12)
        assert rhs == pytest.approx(25 / 144, rel=1e-12)
        assert lhs <= rhs

    def test_degenerate_pair_skips_everything(self):
        p = validate_distribution([0.5, 0.5])
        results = check_bounds_suite(p, p, s_grid=(0.5,))
        assert all(c.evaluations == 0 and c.skipped > 0 for c in results)


class TestRunSweep:
    def test_small_sweep_passes_and_reports(self):
        config = SweepConfig(dims=(2, 3), samples_per_dim=10, seed=7,
                             s_grid=(-2.0, -0.5, 0.5, 2.0, 3.0),
                             t_grid=(-2.0, -0.5, 0.5, 2.0, 3.0))
        summary = run_sweep(config)
        assert summary.ok
        assert summary.samples == 20
        assert summary.assert_failures == 0
        diag = next(c for c in summary.cases if c.case_id == "EQ53_LOWER")
        assert diag.evaluations > 0
        payload = summary.to_json_dict()
        assert set(payload) >= {"config", "cases", "skipped_counts", "samples",
                                "seed", "elapsed_ms"}
        assert {c["id"] for c in payload["cases"]} == {c.id for c in REGISTRY}
        json.dumps(payload)

    def test_deterministic_modulo_timing(self):
        config = SweepConfig(dims=(2,), samples_per_dim=8, seed=3,
                             s_grid=(-1.0, 0.5, 2.0), t_grid=(-1.0, 0.5, 2.0))
        one = run_sweep(config).to_json_dict()
        two = run_sweep(config).to_json_dict()
        one.pop("elapsed_ms")
        two.pop("elapsed_ms")
        assert json.dumps(one) == json.dumps(two)

    def test_violation_carries_witness(self, pair):
        # the diagnostic case is the one claim that actually fails on a
        # two-point pair, so it exercises the witness path
        from symdiv.verify import CaseResult
        results = check_bounds_suite(*pair, s_grid=(0.5,))
        diag = next(c for c in results if c.case_id == "EQ53_LOWER")
        assert diag.violations > 0
        assert diag.witness is not None
        assert diag.witness["p"] == [0.6, 0.4]
        assert diag.witness["m"] in (1.0, 2.0, 3.0)
        payload = diag.to_json_dict()
        assert "witness" in payload

    def test_config_validation(self):
        with pytest.raises(InputError):
            SweepConfig(samples_per_dim=0)
        with pytest.raises(InputError):
            SweepConfig(dims=(1, 2))
        with pytest.raises(InputError):
            SweepConfig(s_grid=())
        with pytest.raises(InputError):
            SweepConfig(tol=0.0)

    @pytest.mark.parametrize("bad", [{"seed": -1}, {"seed": 1.5}, {"seed": True},
                                     {"samples_per_dim": 2.5}, {"samples_per_dim": True},
                                     {"dims": (2.5,)}, {"dims": (3, 4.0)}])
    def test_config_types_are_checked(self, bad):
        # the stack sampler trusts the config: a float dim would sample
        # int(dim) rows and report the float
        with pytest.raises(InputError) as err:
            SweepConfig(**bad)
        assert err.value.code == "BAD_CONFIG"

    def test_output_matches_golden_bytes(self):
        golden = {}
        for seed in (7, 1402):
            payload = run_sweep(SweepConfig(samples_per_dim=5, seed=seed)).to_json_dict()
            payload.pop("elapsed_ms")
            golden[str(seed)] = payload
        assert json.dumps(golden, indent=1) + "\n" == GOLDEN.read_text()

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-16])
    def test_equals_sequential_merge_of_single_pair_checks(self, tol):
        # the batched engine against the single-pair checks merged in sweep
        # order; tol 1e-16 makes ASSERT cases fail and print their witness
        config = SweepConfig(dims=(2, 3, 6), samples_per_dim=4, seed=1402, tol=tol,
                             s_grid=(-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0),
                             t_grid=(-1.5, 0.25, 1.0, 2.5))
        totals = {c.id: CaseResult(c.id, c.severity) for c in REGISTRY}
        for dim in config.dims:
            for index in range(config.samples_per_dim):
                p, q = pair_for(config.seed, dim, index)
                parts = (check_chain(p, q, tol).cases
                         + check_parametric(p, q, config.s_grid, config.t_grid, tol)
                         + check_bounds_suite(p, q, config.s_grid, tol))
                for part in parts:
                    totals[part.case_id].merge(part)
        summary = run_sweep(config)
        assert any(c.violations for c in summary.cases)
        for case in summary.cases:
            expected = totals[case.case_id]
            assert case.to_json_dict() == expected.to_json_dict(), case.case_id
            assert case.witness == expected.witness, case.case_id

    def test_pair_stream_is_shard_deterministic(self):
        a1, b1 = pair_for(7, 5, 3)
        a2, b2 = pair_for(7, 5, 3)
        np.testing.assert_array_equal(a1.weights, a2.weights)
        np.testing.assert_array_equal(b1.weights, b2.weights)
        a3, _ = pair_for(7, 5, 4)
        assert not np.array_equal(a1.weights, a3.weights)


    def test_stack_sampler_equals_pair_for_bit_for_bit(self):
        # every seed on the first 8 indices, seeds 0, 100 and 200 on all 250;
        # rows of 10 and 37 weights are summed in unrolled blocks
        for seed in range(201):
            count = 250 if seed % 100 == 0 else 8
            for dim in (2, 3, 5, 10, 37):
                x = _sample_stack(seed, dim, count, {})
                for index in range(count):
                    p, q = pair_for(seed, dim, index)
                    assert np.array_equal(x.a[index], p.weights), (seed, dim, index)
                    assert np.array_equal(x.b[index], q.weights), (seed, dim, index)

    def test_f3_sup_of_a_lane_is_independent_of_its_stack(self):
        # psi_s''' has stationary points for these s; they depend on s alone,
        # not on the hull of the stack's ratio ranges
        for dim in range(2, 11):
            pairs = [pair_for(5, dim, index) for index in range(200)]
            x = _stack(pairs, {})
            for s in (-5.0, -2.0, -1.5, -1.2):
                stacked = _smoothness(family_generator(GeneratorFamilyKind.PSI, s),
                                      x.r, x.big_r)[1]
                single = family_generator(GeneratorFamilyKind.PSI, s)
                lanes = [smoothness_bounds(single, ratio_bounds(p, q))[1] for p, q in pairs]
                assert np.array_equal(stacked, lanes), (dim, s)


class TestNonFinite:
    def test_overflowing_family_is_refused(self):
        # V_200 overflows to inf or NaN on some of these pairs; a NaN
        # violation compares as a pass and an inf side as a clear one
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError) as err:
                run_sweep(SweepConfig(dims=(10,), samples_per_dim=40, seed=5, t_grid=(200.0,)))
        assert err.value.code == "NON_FINITE_RESULT"
        assert "t = 200.0" in str(err.value)

    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [MeasureKind.HELLINGER, MeasureKind.SYM_CHI2])
    def test_planted_value_on_either_side_is_refused(self, pair, monkeypatch, planted, side):
        # EQ77 is hel <= j/8 <= sym_chi2/16: hel is a left side, sym_chi2 a right one
        real = verify_mod._classic
        monkeypatch.setattr(verify_mod, "_classic", lambda kind, a, b: (
            np.full(a.shape[0], planted) if kind is side else real(kind, a, b)))
        with np.errstate(invalid="ignore"), pytest.raises(DomainError) as err:
            check_chain(*pair)
        assert err.value.code == "NON_FINITE_RESULT"
        assert "EQ77" in str(err.value)


ONE_ROUNDING_S = (-5.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0)


def test_single_pair_equals_stack_of_one_bit_for_bit():
    # the public single-pair functions and the engine's stack at N = 1 run
    # the same array kernels, so every field rounds alike
    first = lambda v: None if v is None else float(v[0])
    gens = _generators(ONE_ROUNDING_S)
    mismatches, compared = [], 0
    for dim in range(2, 11):
        for index in range(2):
            p, q = pair_for(11, dim, index)
            rb = ratio_bounds(p, q)
            x = _stack([(p, q)], gens)
            fields = {"r": (rb.r, x.r[0]), "R": (rb.R, x.big_r[0])}
            for m in (1.0, 2.0, 3.0):
                for name, public, kernel in (("bounds", vajda_upper_bounds, _vajda_bounds),
                                             ("coefficients", vajda_variation_coefficients,
                                              _vajda_coefficients)):
                    for k, (one, stacked) in enumerate(zip(public(m, rb),
                                                           kernel(m, x.r, x.big_r))):
                        fields[f"{name}{k} m={m}"] = (one, first(stacked))
            for kind in GeneratorFamilyKind:
                for s in ONE_ROUNDING_S:
                    gen = gens[(kind, s)]
                    report, engine = bound_report(gen, p, q), x.report(kind, s)
                    tag = f"{kind.value} s={s}"
                    for name in ("value", "linearized", "linearized_mid", "endpoint_A",
                                 "endpoint_B", "half_E_bound", "E_star_bound"):
                        fields[f"{tag} {name}"] = (getattr(report, name),
                                                   first(getattr(engine, name)))
                    ends = _endpoints(gen, x.r, x.big_r)
                    smooth = _smoothness(gen, x.r, x.big_r)
                    for name, one, stacked in zip(
                            ("endpoint_A", "endpoint_B", "delta", "f3_sup", "variation"),
                            endpoint_bounds(gen, rb) + smoothness_bounds(gen, rb),
                            ends + smooth):
                        fields[f"{tag} {name} (function)"] = (one, first(stacked))
                    for name, stacked in (("delta", smooth[0]), ("f3_sup", smooth[1]),
                                          ("variation", smooth[2]),
                                          ("chi2", x.classic(MeasureKind.CHI2)),
                                          ("abs_chi3", x.chi(3.0)), ("total_variation", x.tv)):
                        fields[f"{tag} {name} (report)"] = (getattr(report, name), first(stacked))
            compared += len(fields)
            mismatches += [(dim, index, key, one, stacked)
                           for key, (one, stacked) in fields.items() if one != stacked]
    assert compared > 9000
    assert mismatches == []

import collections
import threading
import time

import numpy as np
import pytest

import oracle
import symdiv.families as families
from conftest import assert_close, run_in_threads, sampled_pairs
from symdiv import (DomainError, FamilyParam, GeneratorFamilyKind, InputError,
                    MeasureKind, ag_js_divergence_type_s, classic_divergence,
                    family_generator, generator_eval, j_divergence_type_s, mixture,
                    relative_information_type_s, validate_distribution)
from symdiv.families import _column
from symdiv.families import _BLOCK, _DELTA_EDGE, LIMIT_TOLERANCE, _family_eval, _v_values, _w_values

PHI, PSI = GeneratorFamilyKind.PHI, GeneratorFamilyKind.PSI
PAIRS = sampled_pairs(per_dim=15)
S_GRID = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]


class TestAgainstOracle:
    @pytest.mark.parametrize("s", [-2, -1, -0.5, 0.5, 1.5, 2, 3])
    def test_generic_branch(self, s, pair3):
        p, q = pair3
        pw, qw = p.as_tuple(), q.as_tuple()
        assert relative_information_type_s(s, p, q) == pytest.approx(
            float(oracle.phi_s(s, pw, qw)), rel=1e-12)
        assert j_divergence_type_s(s, p, q) == pytest.approx(
            float(oracle.v_s(s, pw, qw)), rel=1e-12)
        assert ag_js_divergence_type_s(s, p, q) == pytest.approx(
            float(oracle.w_s(s, pw, qw)), rel=1e-12)

    def test_limit_branches(self, pair3):
        p, q = pair3
        pw, qw = p.as_tuple(), q.as_tuple()
        assert relative_information_type_s(0, p, q) == pytest.approx(
            float(oracle.kl(qw, pw)), rel=1e-13)
        assert relative_information_type_s(1, p, q) == pytest.approx(
            float(oracle.kl(pw, qw)), rel=1e-13)
        for s in (0, 1):
            assert j_divergence_type_s(s, p, q) == pytest.approx(
                float(oracle.j_divergence(pw, qw)), rel=1e-13)
        assert ag_js_divergence_type_s(0, p, q) == pytest.approx(
            float(oracle.js_divergence(pw, qw)), rel=1e-13)
        assert ag_js_divergence_type_s(1, p, q) == pytest.approx(
            float(oracle.ag_divergence(pw, qw)), rel=1e-13)


class TestSpecialCases:
    def test_named_specializations(self):
        for p, q in PAIRS[:40]:
            measure = lambda kind: classic_divergence(kind, p, q)
            h = measure(MeasureKind.HELLINGER)
            psi = measure(MeasureKind.SYM_CHI2)
            cases = [
                (j_divergence_type_s(-1, p, q), psi / 2, "V_-1"),
                (j_divergence_type_s(2, p, q), psi / 2, "V_2"),
                (j_divergence_type_s(0.5, p, q), 8 * h, "V_1/2"),
                (ag_js_divergence_type_s(-1, p, q),
                 measure(MeasureKind.TRIANGULAR) / 4, "W_-1"),
                (ag_js_divergence_type_s(0.5, p, q),
                 4 * measure(MeasureKind.D_NEW), "W_1/2"),
                (ag_js_divergence_type_s(2, p, q), psi / 16, "W_2"),
                (relative_information_type_s(-1, p, q),
                 classic_divergence(MeasureKind.CHI2, q, p) / 2, "Phi_-1"),
                (relative_information_type_s(0.5, p, q), 4 * h, "Phi_1/2"),
                (relative_information_type_s(2, p, q),
                 measure(MeasureKind.CHI2) / 2, "Phi_2"),
            ]
            for got, want, label in cases:
                assert_close(got, want, 1e-10, label)

    def test_limit_branches_are_the_classic_measures(self):
        # inside the windows around s = 0 and 1 the families are J, JS, AG
        # and KL, bit for bit
        for p, q in PAIRS[:10]:
            measure = lambda kind, a=p, b=q: classic_divergence(kind, a, b)
            for eps in (0.0, 4e-6, -9e-6):
                assert j_divergence_type_s(eps, p, q) == measure(MeasureKind.J)
                assert j_divergence_type_s(1 + eps, p, q) == measure(MeasureKind.J)
                assert ag_js_divergence_type_s(eps, p, q) == measure(MeasureKind.JS)
                assert ag_js_divergence_type_s(1 + eps, p, q) == measure(MeasureKind.AG)
                assert relative_information_type_s(eps, p, q) == measure(MeasureKind.KL, q, p)
                assert relative_information_type_s(1 + eps, p, q) == measure(MeasureKind.KL)

    def test_zero_at_equal_arguments(self):
        p = validate_distribution([0.2, 0.3, 0.5])
        for s in (-2, -1, 0, 0.5, 1, 2, 3):
            assert relative_information_type_s(s, p, p) == pytest.approx(0.0, abs=1e-15)
            assert j_divergence_type_s(s, p, p) == pytest.approx(0.0, abs=1e-15)
            assert ag_js_divergence_type_s(s, p, p) == pytest.approx(0.0, abs=1e-15)

    def test_canonical_pair_values(self, pair):
        p, q = pair
        assert relative_information_type_s(2, p, q) == pytest.approx(1 / 12, rel=1e-12)
        assert relative_information_type_s(0.5, p, q) == pytest.approx(
            0.0808164115469, rel=1e-10)
        assert j_divergence_type_s(0.5, p, q) == pytest.approx(0.161632823094, rel=1e-10)
        assert j_divergence_type_s(0, p, q) == pytest.approx(0.162186043243, rel=1e-10)
        assert ag_js_divergence_type_s(-1, p, q) == pytest.approx(0.02, rel=1e-12)
        assert ag_js_divergence_type_s(0.5, p, q) == pytest.approx(
            0.0202553879795, rel=1e-10)
        assert ag_js_divergence_type_s(2, p, q) == pytest.approx(1 / 48, rel=1e-12)


class TestSymmetryAndIdentities:
    def test_v_symmetric_in_order_and_arguments(self):
        for p, q in PAIRS[:40]:
            for s in S_GRID:
                assert_close(j_divergence_type_s(s, p, q),
                             j_divergence_type_s(1 - s, p, q), 1e-12, f"V s<->1-s s={s}")
                assert_close(j_divergence_type_s(s, p, q),
                             j_divergence_type_s(s, q, p), 1e-12, f"V args s={s}")
                assert_close(ag_js_divergence_type_s(s, p, q),
                             ag_js_divergence_type_s(s, q, p), 1e-12, f"W args s={s}")
                assert_close(relative_information_type_s(s, p, q),
                             relative_information_type_s(1 - s, q, p), 1e-12,
                             f"Phi swap s={s}")

    def test_w_construction_from_mixture(self):
        # W_s = (Phi_s(M||P) + Phi_s(M||Q)) / 2 with M the midpoint
        for p, q in PAIRS[:40]:
            m = mixture(p, q)
            for s in S_GRID:
                direct = ag_js_divergence_type_s(s, p, q)
                via_phi = (relative_information_type_s(s, m, p)
                           + relative_information_type_s(s, m, q)) / 2
                assert_close(direct, via_phi, 1e-12, f"W construction s={s}")

    def test_w_reflection_identity(self):
        # W_{1-s} = (Phi_s(P||M) + Phi_s(Q||M)) / 2
        for p, q in PAIRS[:40]:
            m = mixture(p, q)
            for s in S_GRID:
                lhs = ag_js_divergence_type_s(1 - s, p, q)
                rhs = (relative_information_type_s(s, p, m)
                       + relative_information_type_s(s, q, m)) / 2
                assert_close(lhs, rhs, 1e-12, f"W reflection s={s}")

    def test_csiszar_consistency(self):
        for p, q in PAIRS[:40]:
            x = p.weights / q.weights
            for s in S_GRID:
                v_sum = float((q.weights * generator_eval(PHI, s, x, 0)).sum())
                w_sum = float((q.weights * generator_eval(PSI, s, x, 0)).sum())
                assert_close(v_sum, j_divergence_type_s(s, p, q), 1e-12, f"phi sum s={s}")
                assert_close(w_sum, ag_js_divergence_type_s(s, p, q), 1e-12, f"psi sum s={s}")


class TestLimitWindow:
    def test_values_inside_window_equal_the_limit(self):
        for p, q in PAIRS[:25]:
            for fn, limit_at in ((relative_information_type_s, 0),
                                 (j_divergence_type_s, 0),
                                 (ag_js_divergence_type_s, 0),
                                 (relative_information_type_s, 1),
                                 (j_divergence_type_s, 1),
                                 (ag_js_divergence_type_s, 1)):
                at_limit = fn(limit_at, p, q)
                for eps in (-1e-5, 1e-5):
                    assert abs(fn(limit_at + eps, p, q) - at_limit) <= 1e-8

    def test_generic_branch_converges_to_limit(self, pair3):
        # just outside the window the generic branch sits within
        # |ds| * d/ds of the limit value
        p, q = pair3
        for fn, limit_at in ((relative_information_type_s, 0),
                             (j_divergence_type_s, 1),
                             (ag_js_divergence_type_s, 0)):
            at_limit = fn(limit_at, p, q)
            gap = abs(fn(limit_at + 2e-5, p, q) - at_limit)
            assert gap <= 1e-4


class TestMonotonicity:
    def test_v_decreases_then_increases_around_half(self):
        for p, q in PAIRS[:40]:
            values = [j_divergence_type_s(s, p, q) for s in S_GRID]
            for (s1, v1), (s2, v2) in zip(zip(S_GRID, values), zip(S_GRID[1:], values[1:])):
                if s2 <= 0.5:
                    assert v2 <= v1 + 1e-12 * max(1.0, abs(v1))
                if s1 >= 0.5:
                    assert v1 <= v2 + 1e-12 * max(1.0, abs(v2))

    def test_w_nondecreasing_from_minus_one(self):
        for p, q in PAIRS[:40]:
            values = [(s, ag_js_divergence_type_s(s, p, q)) for s in S_GRID if s >= -1]
            for (s1, v1), (s2, v2) in zip(values, values[1:]):
                assert v1 <= v2 + 1e-12 * max(1.0, abs(v2))

    def test_classic_orderings_at_special_orders(self):
        for p, q in PAIRS[:40]:
            h = classic_divergence(MeasureKind.HELLINGER, p, q)
            j = classic_divergence(MeasureKind.J, p, q)
            psi = classic_divergence(MeasureKind.SYM_CHI2, p, q)
            assert h <= j / 8 + 1e-12 * max(1.0, j / 8)
            assert j / 8 <= psi / 16 + 1e-12 * max(1.0, psi / 16)
            tri = classic_divergence(MeasureKind.TRIANGULAR, p, q)
            js = classic_divergence(MeasureKind.JS, p, q)
            d = classic_divergence(MeasureKind.D_NEW, p, q)
            ag = classic_divergence(MeasureKind.AG, p, q)
            chain = [tri / 4, js, 4 * d, ag, psi / 16]
            for lo, hi in zip(chain, chain[1:]):
                assert lo <= hi + 1e-12 * max(1.0, abs(hi))


class TestGeneratorEval:
    def test_point_values(self):
        assert generator_eval(PHI, 2, 2.0, 0) == pytest.approx(0.75, rel=1e-15)
        assert generator_eval(PHI, 2, 2.0, 2) == pytest.approx(1.125, rel=1e-15)
        for family in (PHI, PSI):
            for s in (-1, 0.3, 1, 2.5):
                assert generator_eval(family, s, 1.0, 0) == pytest.approx(0.0, abs=1e-14)
        for s in (-2, -0.5, 0, 1, 3):
            assert generator_eval(PSI, s, 1.0, 2) == pytest.approx(0.25, rel=1e-14)

    def test_second_order_positive(self):
        xs = np.geomspace(0.01, 100, 200)
        for family in (PHI, PSI):
            for s in (-2, -1, 0, 0.5, 1, 2, 3):
                assert np.all(generator_eval(family, s, xs, 2) > 0)

    @pytest.mark.parametrize("family", [PHI, PSI], ids=lambda f: f.value)
    @pytest.mark.parametrize("s", [-1, -0.3, 0.5, 1.7, 2])
    def test_derivatives_match_finite_differences(self, family, s):
        for x in (0.25, 0.5, 1.0, 2.0, 4.0):
            f = lambda t: generator_eval(family, s, t, 0)
            h1 = x * 1e-6
            fd1 = (f(x + h1) - f(x - h1)) / (2 * h1)
            h2 = x * 1e-4
            fd2 = (f(x + h2) - 2 * f(x) + f(x - h2)) / h2 ** 2
            h3 = x * 1e-3
            fd3 = (f(x + 2 * h3) - 2 * f(x + h3) + 2 * f(x - h3) - f(x - 2 * h3)) / (2 * h3 ** 3)
            for order, fd in ((1, fd1), (2, fd2), (3, fd3)):
                analytic = generator_eval(family, s, x, order)
                assert_close(analytic, fd, 1e-5, f"{family.value} s={s} x={x} order={order}")

    def test_derivatives_match_oracle(self):
        for family, gen in ((PHI, oracle.phi_gen), (PSI, oracle.psi_gen)):
            for s in (-1.5, -0.3, 0.5, 1.7, 2.5):
                for x in (0.3, 1.0, 2.7):
                    for order in (1, 2, 3):
                        expected = float(oracle.gen_derivative(gen, s, x, order))
                        assert_close(generator_eval(family, s, x, order), expected,
                                     1e-11, f"{family.value} s={s} x={x} o={order}")

    def test_rejects_bad_order_and_domain(self):
        with pytest.raises(InputError) as err:
            generator_eval(PHI, 1, 1.0, 4)
        assert err.value.code == "UNSUPPORTED_ORDER"
        with pytest.raises(DomainError) as err:
            generator_eval(PSI, 1, -1.0, 0)
        assert err.value.code == "NONPOSITIVE_ARGUMENT"

    def test_argument_is_checked_before_the_family(self):
        with pytest.raises(DomainError) as err:
            generator_eval("PHI", 1, -1.0, 0)
        assert err.value.code == "NONPOSITIVE_ARGUMENT"
        with pytest.raises(InputError) as err:
            generator_eval("PHI", 1, 1.0, 0)
        assert err.value.code == "PARAMETER_OUT_OF_RANGE"


# s whose exponents (s, 1 - s, s - 1, -s, s - 2, -s - 1, s - 3, -s - 2) hit
# numpy's sqrt, square and reciprocal paths; the limit windows at 0 and 1 with
# their edges, the cushion (1 + 1e-6) and just past it; and large orders
_EDGE = LIMIT_TOLERANCE * (1.0 + 1e-6)
GRID_ROWS_S = (-5.0, -2.0, -1.5, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0, 10.0, 60.0,
               0.0, -0.0, 1e-6, -1e-6, 1e-5, -1e-5, _EDGE, -_EDGE, _EDGE * (1.0 + 1e-9),
               1.0, 1.0 + 1e-5, 1.0 - 1e-5, 1.0 + _EDGE, 1.0 - _EDGE, 1.0 + _EDGE * (1.0 + 1e-9))


class TestGridRows:
    """A grid column evaluates every order at once; each row must carry the
    bits of the scalar evaluation at that order."""

    @pytest.mark.parametrize("family", [PHI, PSI])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_generator_rows_equal_scalar_evaluation(self, family, order):
        x = np.concatenate([np.geomspace(1e-3, 1e3, 97), [1.0, 0.5, 2.0]])
        core = _family_eval(family)
        column = _column(GRID_ROWS_S, 1)
        # x broadcast along the grid, and x as a full contiguous (S, n) array
        full = np.ascontiguousarray(np.broadcast_to(x, (len(GRID_ROWS_S), x.size)))
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in (core(column, x, order), core(column, full, order)):
                for row, s in zip(rows, GRID_ROWS_S):
                    expected = generator_eval(family, s, x, order)
                    assert np.array_equal(row, expected, equal_nan=True), (family, order, s)

    @pytest.mark.parametrize("s", [0.5, GRID_ROWS_S])
    def test_a_near_entry_keeps_its_bits_whatever_shares_its_pass(self, s):
        # psi_s takes phi_s's series at both near entries; the second one is
        # nearer the series edge, and before the series length was fixed per
        # order it lengthened the first one's series and moved its last bit
        near, nearer = 1.0003300096095609, 0.9989152613076431
        column = _column(s, 1)
        alone = _family_eval(PSI)(column, np.array([near]), 0)
        shared = _family_eval(PSI)(column, np.array([near, nearer]), 0)
        assert np.array_equal(alone[..., 0], shared[..., 0])

    def test_family_sum_rows_equal_the_public_functions(self):
        pairs = PAIRS[::3]
        for shape in ("stack", "full"):
            for dim in (2, 3, 5, 10):
                a = np.stack([p.weights for p, _ in pairs if p.dim == dim])
                b = np.stack([q.weights for p, q in pairs if p.dim == dim])
                if shape == "full":  # (S, N, n) contiguous bases
                    a, b = (np.ascontiguousarray(np.broadcast_to(w, (len(GRID_ROWS_S),) + w.shape))
                            for w in (a, b))
                column = _column(GRID_ROWS_S, 2)
                with np.errstate(over="ignore", invalid="ignore"):
                    for values, public in ((_v_values(column, a, b), j_divergence_type_s),
                                           (_w_values(column, a, b), ag_js_divergence_type_s)):
                        lanes = [(p, q) for p, q in pairs if p.dim == dim]
                        for row, s in zip(values, GRID_ROWS_S):
                            expected = [public(s, p, q) for p, q in lanes]
                            assert np.array_equal(row, expected, equal_nan=True), (shape, dim, s)


class TestOrderBoundary:
    @pytest.mark.parametrize("order", ["a", "0.5", None, True, np.True_, 0.5j, [0.5]])
    def test_orders_must_be_real_numbers(self, pair, order):
        calls = {"relative_information_type_s": lambda: relative_information_type_s(order, *pair),
                 "j_divergence_type_s": lambda: j_divergence_type_s(order, *pair),
                 "ag_js_divergence_type_s": lambda: ag_js_divergence_type_s(order, *pair),
                 "generator_eval": lambda: generator_eval(PHI, order, 1.5, 2),
                 "family_generator": lambda: family_generator(PSI, order),
                 "FamilyParam": lambda: FamilyParam(order)}
        for name, call in calls.items():
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == (f"[PARAMETER_OUT_OF_RANGE] family order must be a real "
                                      f"number, got {order!r}"), name

    def test_non_finite_orders_keep_their_message(self, pair):
        for order in (np.nan, np.inf, np.float32(-np.inf)):
            with pytest.raises(InputError) as err:
                j_divergence_type_s(order, *pair)
            assert str(err.value) == (f"[PARAMETER_OUT_OF_RANGE] family order must be finite, "
                                      f"got {float(order)}")

    def test_numpy_and_integer_orders_are_accepted(self, pair):
        for order in (np.float32(0.5), np.int64(2), 2):
            assert j_divergence_type_s(order, *pair) == j_divergence_type_s(float(order), *pair)


class TestOffsetMemo:
    # the family functions share a pair's offsets (stage one) through a one-slot memo
    # (``families._memo``); the kernels workload's orders, and large |s|
    ORDERS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -800.0, 1000.0)
    FUNCTIONS = (j_divergence_type_s, ag_js_divergence_type_s, relative_information_type_s)

    @staticmethod
    def memo_pairs():
        from test_formula_table import block_pair
        from test_frozen_bits import grid_cases, shortcut_cases  # it imports this module
        rng = np.random.default_rng(2121)
        sizes = (_BLOCK, _BLOCK + 1, 4 * _BLOCK)
        return ([pair for pair, _ in grid_cases() + shortcut_cases()] + [block_pair(n) for n in sizes]
                + [tuple(validate_distribution(w / w.sum()) for w in rng.exponential(size=(2, n)))
                   for n in sizes])

    @staticmethod
    def bits(fn, s, p, q) -> bytes:
        with np.errstate(over="ignore", invalid="ignore"):  # large orders overflow
            return np.float64(fn(s, p, q)).tobytes()

    def test_values_equal_those_with_the_memo_cleared(self, tables):
        pairs = self.memo_pairs()
        pairs += [(q, p) for p, q in pairs]  # both directions
        cleared = {}
        for fn in self.FUNCTIONS:
            for s in self.ORDERS:
                for p, q in pairs:
                    families._last = None
                    cleared[fn, s, p, q] = self.bits(fn, s, p, q)
        half = len(pairs) // 2
        forwards = [(fn, s, p, q) for p, q in pairs[:half] for fn in self.FUNCTIONS
                    for s in self.ORDERS]
        backwards = [(fn, s, p, q) for p, q in pairs[:half] for fn in self.FUNCTIONS
                     for s in self.ORDERS[::-1]]
        # two pairs and both directions in turn, at each order
        alternating = [(fn, s, *pair) for one, other in zip(pairs[:half:2], pairs[1:half:2])
                       for fn in self.FUNCTIONS for s in self.ORDERS
                       for pair in (one, other, one[::-1], other[::-1])]
        families_in_turn = [(fn, s, p, q) for p, q in pairs[:half] for s in self.ORDERS
                            for fn in self.FUNCTIONS]
        for steps in (forwards, backwards, alternating, families_in_turn):
            for fn, s, p, q in steps:
                assert self.bits(fn, s, p, q) == cleared[fn, s, p, q], (fn.__name__, s, p.dim)
                assert len(tables) <= 1
        self.bits(ag_js_divergence_type_s, 0.5, *pairs[half - 1])  # W's rows, at n = 65536
        table = families._last
        assert table.table.shape == (13, 4 * _BLOCK) and table.table.flags.c_contiguous  # W's and PSI's
        for view in [table.table, *(row for rows in table.views.values() for row in rows)]:
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0

    @staticmethod
    def near(n, eps=1e-3):
        """p = q (1 + eps z), sum(q z) = 0 and max |z| = 1: every entry near P = Q."""
        rng = np.random.default_rng([2123, n])
        q = rng.uniform(0.5, 1.5, n)
        z = rng.uniform(-1.0, 1.0, n)
        z -= (q * z).sum() / q.sum()
        p = q * (1.0 + eps * z / np.abs(z).max())
        return validate_distribution(p / q.sum()), validate_distribution(q / q.sum())

    def test_w_delta_rows_are_formed_once_per_block(self, tables, monkeypatch):
        # near P = Q, W's series in delta reads a + b and delta^2 from stage one (``_w_delta``):
        # over the nine orders, each block's rows are formed once; on a pair whose blocks each
        # start far from P = Q, never. A count per stage, as the report table's test counts them
        formed, real = collections.Counter(), families._w_delta
        monkeypatch.setattr(families, "_w_delta",
                            lambda a, b: formed.update([a.size]) or real(a, b))
        monkeypatch.setitem(families._PLACES, families._w_delta, families._PLACES[real])
        rng = np.random.default_rng(2124)
        sizes = (3, _BLOCK + 1, 4 * _BLOCK)
        far = [tuple(validate_distribution(w / w.sum()) for w in rng.uniform(0.5, 1.5, (2, n)) ** 4)
               for n in sizes]
        for p, q in far:  # each block's first entry, where W looks first, is beyond every edge
            a, b = p.weights[::_BLOCK], q.weights[::_BLOCK]
            assert (np.abs(a - b) > _DELTA_EDGE * (a + b)).all()
        for (p, q), near in [(self.near(n), True) for n in sizes] + [(pair, False) for pair in far]:
            formed.clear()
            for s in self.ORDERS[:9]:
                ag_js_divergence_type_s(s, p, q)
            blocks = collections.Counter(min(_BLOCK, p.dim - i) for i in range(0, p.dim, _BLOCK))
            assert formed == (blocks if near else {}), (p.dim, near)

    def test_kept_delta_maxima_are_each_views_own(self, tables):
        # block_pair(2 * _BLOCK + 3)'s first block lies near P = Q; its second, with the last
        # entry, a near one, moved to its start, starts there and leaves it, as does the third.
        # Each block's delta rows are formed, and each view's kept largest delta^2
        # (``families._top``) is its own; the values equal those with the memo cleared, and
        # those formed without it
        from test_formula_table import block_pair
        p, q = block_pair(2 * _BLOCK + 3)
        order = np.arange(p.dim)
        order[[_BLOCK, -1]] = order[[-1, _BLOCK]]
        p, q = (validate_distribution(w.weights[order]) for w in (p, q))
        warm = [self.bits(ag_js_divergence_type_s, s, p, q) for s in self.ORDERS]
        table = families._last
        for start in range(0, p.dim, _BLOCK):
            x = table.views[families._w_delta, start][1]
            assert table.tops[id(x)][1] == x.max(), start
        del table, x  # the one table is freed before the next is built
        cleared = []
        for s in self.ORDERS:
            families._last = None
            cleared.append(self.bits(ag_js_divergence_type_s, s, p, q))
        with np.errstate(over="ignore", invalid="ignore"):
            formed = [_w_values(_column(s, 1), p.weights, q.weights).tobytes() for s in self.ORDERS]
        assert warm == cleared == formed

    def test_threads_alternating_pairs_and_families_equal_serial_values(self):
        from test_formula_table import block_pair
        rng = np.random.default_rng(2122)
        pairs = [block_pair(2 * _BLOCK + 3),
                 tuple(validate_distribution(w / w.sum()) for w in rng.exponential(size=(2, 3001)))]
        steps = [(fn, s, i) for i in (0, 1) for fn in self.FUNCTIONS for s in self.ORDERS[:9]]
        serial = {step: self.bits(step[0], step[1], *pairs[step[2]]) for step in steps}
        failures, together = [], threading.Barrier(4)

        def work(thread):
            for step in range(120):  # pair, family and order all change in turn
                fn, s, i = self.FUNCTIONS[step // 2 % 3], self.ORDERS[step % 9], (thread + step) % 2
                together.wait(timeout=30)
                # two threads call on one pair, the second a little later, so that it
                # meets the first one's table half formed
                time.sleep(thread // 2 * 1e-4 * (step % 4))
                if self.bits(fn, s, *pairs[i]) != serial[fn, s, i]:
                    failures.append((thread, step))
        run_in_threads(work, (0, 1, 2, 3))  # more threads than cores, in opposite turns by twos
        assert failures == []

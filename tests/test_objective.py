import math

import numpy as np
import pytest

from detmax import (
    ENUMERATION_CAP,
    GuardExceededError,
    PointSet,
    PreconditionError,
    REGIME_HIGHK,
    REGIME_LOWK,
    WeightProfile,
    logsumexp,
    mu,
    mu_cauchy_binet,
    mu_hat_lowdim,
    mu_tilde,
    mu_tilde_by_enumeration,
    nu,
    objective_value,
)
from detmax.properties import _exact_scatter_logdet
from exact_oracles import exact_gram_det, exact_log


def _ps(vectors):
    return PointSet(
        len(vectors[0]),
        [(i, np.asarray(v, dtype=float), None) for i, v in enumerate(vectors)],
    )


E1E2_MIX = _ps([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


class TestNu:
    def test_single_unit_vector(self):
        assert nu(E1E2_MIX, [0]) == 0.0  # log(1)

    def test_pair_frozen(self):
        # rows (1,0),(1,1): inner-product matrix [[1,1],[1,2]], det 1
        assert abs(nu(E1E2_MIX, [0, 2])) < 1e-12

    def test_scaled_pair(self):
        ps = _ps([(2.0, 0.0), (0.0, 3.0)])
        assert abs(nu(ps, [0, 1]) - math.log(36.0)) < 1e-12

    def test_dependent_set_neg_inf(self):
        ps = _ps([(1.0, 1.0), (2.0, 2.0)])
        assert nu(ps, [0, 1]) == -math.inf

    def test_ell_validation(self):
        with pytest.raises(PreconditionError):
            nu(E1E2_MIX, [0, 1, 2])  # more than dim vectors

    def test_empty_selection(self):
        assert nu(E1E2_MIX, []) == 0.0


class TestMu:
    def test_frozen_three_vectors(self):
        # sum of outer products is [[2,1],[1,2]], det 3
        assert abs(mu(E1E2_MIX, [0, 1, 2]) - math.log(3.0)) < 1e-12

    def test_requires_at_least_d(self):
        with pytest.raises(PreconditionError):
            mu(E1E2_MIX, [0])

    def test_multiset_repeats_count(self):
        # two copies of each basis vector: diag(2,2), det 4
        ps = _ps([(1.0, 0.0), (0.0, 1.0)])
        assert abs(mu(ps, [0, 0, 1, 1]) - math.log(4.0)) < 1e-12

    def test_exact_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(d, d + 3))
            vecs = rng.integers(-2, 3, size=(k, d))
            ps = PointSet(d, [(i, vecs[i].astype(float), None) for i in range(k)])
            got = mu(ps, list(range(k)))
            det = exact_gram_det(vecs.tolist())
            if det == 0:
                assert got == -math.inf
            else:
                assert abs(got - exact_log(det)) < 1e-9

    def test_dispatch(self):
        # below dim: spanned-volume objective; at dim: full determinant
        ps = _ps([(1.0, 0.0), (0.0, 2.0)])
        assert objective_value(ps, [1]) == nu(ps, [1])
        assert objective_value(ps, [0, 1]) == mu(ps, [0, 1])


class TestCauchyBinet:
    def test_frozen(self):
        direct = mu(E1E2_MIX, [0, 1, 2])
        expanded = mu_cauchy_binet(E1E2_MIX, [0, 1, 2])
        assert abs(direct - expanded) < 1e-12
        # by hand: the three 2-subsets have squared volumes 1, 1, 1
        assert abs(expanded - math.log(3.0)) < 1e-12

    def test_random_agreement(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, 8))
            vecs = rng.standard_normal((n, d))
            ps = PointSet(d, [(i, vecs[i], None) for i in range(n)])
            sel = list(range(n))
            assert abs(mu(ps, sel) - mu_cauchy_binet(ps, sel)) < 1e-8

    def test_all_subsets_dependent(self):
        ps = _ps([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        assert mu_cauchy_binet(ps, [0, 1, 2]) == -math.inf
        assert mu(ps, [0, 1, 2]) == -math.inf

    def test_exact_scatter_logdet(self):
        # the c01 reference matches Bareiss on integer rows, singular ones too
        rng = np.random.default_rng(4)
        for trial in range(20):
            d = int(rng.integers(2, 5))
            rows = rng.integers(-2, 3, size=(int(rng.integers(d, 7)), d)).astype(float)
            det = exact_gram_det(rows.astype(int).tolist())
            want = exact_log(det) if det else -math.inf
            assert _exact_scatter_logdet(rows) == want
        assert _exact_scatter_logdet(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])) == -math.inf

    def test_guard(self):
        rng = np.random.default_rng(0)
        n = ENUMERATION_CAP + 2
        vecs = rng.standard_normal((n, 2))
        ps = PointSet(2, [(i, vecs[i], None) for i in range(n)])
        with pytest.raises(GuardExceededError):
            mu_cauchy_binet(ps, list(range(n)))


class TestWeightProfile:
    def test_log_boost(self):
        p = WeightProfile(frozenset([0]), 1.5, 2, REGIME_HIGHK)
        assert abs(p.log_boost - 2 * math.log(3.0)) < 1e-12

    def test_zeta_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            WeightProfile(frozenset(), 0.99, 2, REGIME_HIGHK)

    def test_bad_regime_rejected(self):
        with pytest.raises(PreconditionError):
            WeightProfile(frozenset(), 1.01, 2, "midk")


class TestMuTilde:
    def test_frozen_scaled_gram(self):
        # U = {e1}, zeta*ell = 2 doubles the e1 row: outer-product sum
        # becomes [[5,1],[1,2]], det 9
        profile = WeightProfile(frozenset([0]), 1.0, 2, REGIME_HIGHK)
        got = mu_tilde(E1E2_MIX, [0, 1, 2], profile)
        assert abs(got - math.log(9.0)) < 1e-12

    def test_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            d = 2
            n = int(rng.integers(3, 7))
            vecs = rng.standard_normal((n, d))
            ps = PointSet(d, [(i, vecs[i], None) for i in range(n)])
            u = frozenset(int(x) for x in rng.choice(n, size=2, replace=False))
            profile = WeightProfile(u, 1.01, d, REGIME_HIGHK)
            sel = sorted(int(x) for x in rng.choice(n, size=min(4, n), replace=False))
            a = mu_tilde(ps, sel, profile)
            b = mu_tilde_by_enumeration(ps, sel, profile)
            if a == -math.inf or b == -math.inf:
                assert a == b
            else:
                assert abs(a - b) < 1e-8

    def test_sandwich(self):
        rng = np.random.default_rng(33)
        for trial in range(25):
            d = int(rng.integers(2, 4))
            n = d + 4
            vecs = rng.standard_normal((n, d))
            ps = PointSet(d, [(i, vecs[i], None) for i in range(n)])
            u = frozenset(range(0, n, 2))
            zeta = 1.0 + 0.5 * rng.random()
            profile = WeightProfile(u, zeta, d, REGIME_HIGHK)
            sel = list(range(d + 1))
            lo = mu(ps, sel)
            hi = lo + 2 * d * math.log(zeta * d)
            val = mu_tilde(ps, sel, profile)
            assert lo - 1e-9 <= val <= hi + 1e-9

    def test_requires_highk(self):
        profile = WeightProfile(frozenset([0]), 1.01, 2, REGIME_LOWK)
        with pytest.raises(PreconditionError):
            mu_tilde(E1E2_MIX, [0, 1, 2], profile)

    def test_requires_enough_points(self):
        profile = WeightProfile(frozenset([0]), 1.01, 2, REGIME_HIGHK)
        with pytest.raises(PreconditionError):
            mu_tilde(E1E2_MIX, [0], profile)


class TestMuHatLowdim:
    def test_frozen(self):
        # nu({e1, 2 e2}) = log 4; one overlap with U at zeta*ell = 2 adds log 4
        ps = _ps([(1.0, 0.0), (0.0, 2.0)])
        profile = WeightProfile(frozenset([0]), 1.0, 2, REGIME_LOWK)
        got = mu_hat_lowdim(ps, [0, 1], profile)
        assert abs(got - math.log(16.0)) < 1e-12

    def test_neg_inf_passthrough(self):
        ps = _ps([(1.0, 1.0), (2.0, 2.0)])
        profile = WeightProfile(frozenset([0]), 1.01, 2, REGIME_LOWK)
        assert mu_hat_lowdim(ps, [0, 1], profile) == -math.inf

    def test_size_must_match_ell(self):
        profile = WeightProfile(frozenset([0]), 1.01, 2, REGIME_LOWK)
        with pytest.raises(PreconditionError):
            mu_hat_lowdim(E1E2_MIX, [0], profile)

    def test_requires_lowk(self):
        profile = WeightProfile(frozenset([0]), 1.01, 2, REGIME_HIGHK)
        with pytest.raises(PreconditionError):
            mu_hat_lowdim(E1E2_MIX, [0, 1], profile)


class TestLogSumExp:
    def test_basic(self):
        vals = [math.log(1.0), math.log(3.0)]
        assert abs(logsumexp(vals) - math.log(4.0)) < 1e-12

    def test_all_neg_inf(self):
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    def test_empty(self):
        assert logsumexp([]) == -math.inf

    def test_large_shift(self):
        vals = [1000.0, 1000.0 + math.log(2.0)]
        assert abs(logsumexp(vals) - (1000.0 + math.log(3.0))) < 1e-9

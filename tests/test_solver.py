"""Least-squares paths cross-checked against the independent oracles."""

import numpy as np
import pytest

import scipy.linalg

from chartflow import (
    ChartFlowError,
    Influence,
    LagConfig,
    PlantSpec,
    build_design,
    build_velocities,
    default_boundary,
    fit_nnls,
    fit_ols,
    generate_planted,
    predict,
    rmse,
    rng,
    temporal_split,
)
from chartflow.errors import (
    ConvergenceError,
    DimensionError,
    GramOverflowError,
    NonFiniteError,
    SingularMatrixError,
)
from chartflow import solver
from chartflow.solver import (
    RANK_TOL,
    REDUCE_BLOCK_ROWS,
    _gram,
    _lawson_hanson,
    _qr_fold,
    _reduce,
)

from oracles import oracle_nnls, oracle_ols


def train_rmse(x, y, fit):
    """The fit's RMSE on its own training system."""
    return rmse(y, predict(x, fit))


def random_system(seed, rows, cols, nonneg_target=False):
    x = rng.normals(rng.derive_key(seed, 1), rows * cols).reshape(rows, cols)
    if nonneg_target:
        beta = np.abs(rng.normals(rng.derive_key(seed, 2), cols)) + 0.5
        noise = 0.01 * rng.normals(rng.derive_key(seed, 3), rows)
        return x, x @ beta + noise
    return x, rng.normals(rng.derive_key(seed, 2), rows)


class TestOracleOls:
    def test_identity(self):
        x, y = np.eye(3), np.array([1.0, -2.0, 5.0])
        fit = oracle_ols(x, y)
        assert fit.values == pytest.approx([1.0, -2.0, 5.0], abs=1e-14)
        assert train_rmse(x, y, fit) == pytest.approx(0.0, abs=1e-14)

    def test_line_fit_exact(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = oracle_ols(x, np.array([0.0, 1.0, 2.0]))
        assert fit.values.tolist() == [0.0, 1.0]

    def test_duplicate_columns_singular(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(SingularMatrixError):
            oracle_ols(x, np.array([1.0, 2.0, 3.0]))

    def test_column_cap(self):
        x = np.ones((4, 13))
        with pytest.raises(DimensionError):
            oracle_ols(x, np.ones(4))


class TestFitOls:
    def test_identity(self):
        fit = fit_ols(np.eye(3), np.array([1.0, -2.0, 5.0]))
        assert fit.values == pytest.approx([1.0, -2.0, 5.0], abs=1e-12)
        assert not fit.rank_deficient

    def test_zero_target(self):
        fit = fit_ols(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
        assert fit.values == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_line_fit(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([0.0, 1.0, 2.0])
        fit = fit_ols(x, y)
        assert fit.values == pytest.approx([0.0, 1.0], abs=1e-12)
        assert train_rmse(x, y, fit) == pytest.approx(0.0, abs=1e-12)

    def test_rank_deficient_minimum_norm(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        fit = fit_ols(x, np.array([1.0, 2.0]))
        assert fit.rank_deficient
        # Minimum-norm solution splits the weight evenly.
        assert fit.values == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_more_columns_than_rows_flags(self):
        x = np.ones((2, 5))
        assert fit_ols(x, np.ones(2)).rank_deficient

    def test_ridge_shrinks(self):
        x, y = random_system(400, 30, 4)
        plain = fit_ols(x, y)
        shrunk = fit_ols(x, y, ridge=1e6)
        assert np.linalg.norm(shrunk.values) < 1e-3 * max(
            np.linalg.norm(plain.values), 1.0
        )
        assert not shrunk.rank_deficient

    def test_ridge_zero_matches_plain(self):
        x, y = random_system(401, 25, 3)
        assert fit_ols(x, y, ridge=0.0).values == pytest.approx(
            fit_ols(x, y).values, abs=1e-12
        )

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            fit_ols(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(DimensionError):
            fit_ols(np.zeros((3, 0)), np.zeros(3))
        with pytest.raises(DimensionError):
            fit_ols(np.eye(3), np.zeros(4))

    def test_non_finite(self):
        x = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError):
            fit_ols(x, np.array([1.0, 2.0]))

    def test_non_finite_is_chartflow_error(self):
        with pytest.raises(NonFiniteError) as err:
            fit_nnls(np.ones((2, 1)), np.array([1.0, np.inf]))
        assert isinstance(err.value, ChartFlowError)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("fit", [fit_ols, fit_nnls])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_one_non_finite_cell_raises(self, fit, value, where):
        # A sparse design, as evaluate builds: an infinity times the zeros
        # beside it is NaN in the Gram matrix, which must not warn.
        x, y = random_system(402, 5000, 96)
        x[x < 0.5] = 0.0
        if where == "x":
            x[2718, 31] = value
        else:
            y[2718] = value
        with pytest.raises(NonFiniteError, match="non-finite entries"):
            fit(x, y)

    def test_non_finite_precedes_negative_ridge(self):
        x, y = random_system(403, 20, 3)
        x[4, 1] = np.nan
        with pytest.raises(NonFiniteError):
            fit_ols(x, y, ridge=-1.0)

    @pytest.mark.parametrize("fit", [fit_ols, fit_nnls])
    def test_finite_system_whose_gram_overflows(self, fit):
        """Finite entries whose products overflow are not called non-finite,
        and no fit is read from the overflowed matrix: the overflow raises a
        GramOverflowError, through x or through y alone, and warns of
        nothing (the suite makes a RuntimeWarning an error)."""
        x, y = random_system(404, 200, 4)
        x[:, 1] *= 1e200
        with pytest.raises(GramOverflowError, match="200x4 system"):
            fit(x, y)
        x, y = random_system(405, 5000, 96)
        y *= 1e300
        with pytest.raises(GramOverflowError, match="5000x96 system"):
            fit(x, y)
        assert issubclass(GramOverflowError, ChartFlowError)

    @pytest.mark.parametrize("fit", [fit_ols, fit_nnls])
    def test_lapack_failure_is_singular(self, fit, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "qr", broken)
        monkeypatch.setattr(np.linalg, "cholesky", broken)
        x, y = random_system(402, 20, 3)
        with pytest.raises(SingularMatrixError):
            fit(x, y)


class TestOracleNnls:
    def test_binding_constraint(self):
        fit = oracle_nnls(np.array([[1.0], [1.0]]), np.array([-1.0, -1.0]))
        assert fit.values.tolist() == [0.0]

    def test_two_column_fixture(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        fit = oracle_nnls(x, np.array([1.0, -1.0, 0.0]))
        assert fit.values == pytest.approx([0.5, 0.0], abs=1e-12)

    def test_column_cap(self):
        with pytest.raises(DimensionError):
            oracle_nnls(np.ones((4, 11)), np.ones(4))

    def test_zero_columns_rejected(self):
        with pytest.raises(DimensionError):
            oracle_nnls(np.zeros((3, 0)), np.zeros(3))


class TestFitNnls:
    def test_binding_constraint(self):
        fit = fit_nnls(np.array([[1.0], [1.0]]), np.array([-1.0, -1.0]))
        assert fit.values.tolist() == [0.0]

    def test_two_column_fixture(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        fit = fit_nnls(x, np.array([1.0, -1.0, 0.0]))
        assert fit.values == pytest.approx([0.5, 0.0], abs=1e-12)

    def test_matches_ols_when_unconstrained_optimum_feasible(self):
        x, y = random_system(55, 40, 3, nonneg_target=True)
        ols = oracle_ols(x, y)
        assert ols.values.min() > 0  # fixture sanity
        nnls = fit_nnls(x, y)
        assert nnls.values == pytest.approx(ols.values, abs=1e-8)
        assert nnls.values == pytest.approx(oracle_nnls(x, y).values, abs=1e-8)

    def test_duplicate_columns_still_feasible(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([2.0, 2.0, 2.0])
        fit = fit_nnls(x, y)
        assert fit.values.min() >= 0.0
        assert train_rmse(x, y, fit) == pytest.approx(0.0, abs=1e-12)

    def test_constrained_values_exactly_zero(self):
        for seed in range(20):
            x, y = random_system(800 + seed, 30, 5)
            values = fit_nnls(x, y).values
            assert np.all(values >= 0.0)
            assert np.all((values == 0.0) | (values > 0.0))

    def test_iteration_cap(self):
        x, y = random_system(56, 40, 3, nonneg_target=True)
        r, qty, cholesky = _reduce(x, y, _gram(x, y))
        with pytest.raises(ConvergenceError):
            _lawson_hanson(r, qty, cholesky, 0, x.shape)

    def test_kkt_conditions(self):
        for seed in range(30):
            x, y = random_system(900 + seed, 35, 6)
            fit = fit_nnls(x, y)
            gradient = x.T @ (x @ fit.values - y)
            assert gradient[fit.values == 0.0].min() >= -1e-8
            if (fit.values > 0).any():
                assert np.abs(gradient[fit.values > 0]).max() <= 1e-8


class TestPredict:
    def test_zero_coefficients(self):
        fit = fit_nnls(np.array([[1.0], [1.0]]), np.array([-1.0, -1.0]))
        assert predict(np.array([[5.0], [7.0]]), fit).tolist() == [0.0, 0.0]

    def test_identity(self):
        fit = fit_ols(np.eye(3), np.array([1.0, -2.0, 5.0]))
        assert predict(np.eye(3), fit) == pytest.approx(fit.values)

    def test_line_fixture_residual_zero(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = fit_ols(x, np.array([0.0, 1.0, 2.0]))
        assert predict(x, fit) == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    def test_dimension_mismatch(self):
        fit = fit_ols(np.eye(3), np.zeros(3))
        with pytest.raises(DimensionError):
            predict(np.ones((2, 2)), fit)


class TestInvariants:
    def test_feasibility_dominance(self):
        for seed in range(20):
            x, y = random_system(1000 + seed, 30, 4)
            ols = train_rmse(x, y, fit_ols(x, y))
            nnls = train_rmse(x, y, fit_nnls(x, y))
            baseline = float(np.sqrt(np.mean(y**2)))
            assert ols <= nnls + 1e-10
            assert nnls <= baseline + 1e-10

    def test_normal_equation_residual(self):
        for seed in range(20):
            x, y = random_system(1100 + seed, 40, 6)
            beta = fit_ols(x, y).values
            lhs = np.abs(x.T @ (x @ beta - y)).max()
            assert lhs <= 1e-8 * (1.0 + np.abs(x.T @ y).max())

    def test_column_scaling_consistency(self):
        x, y = random_system(77, 30, 4)
        base = fit_ols(x, y)
        scaled = x.copy()
        scaled[:, 2] *= 8.0
        fit = fit_ols(scaled, y)
        expected = base.values.copy()
        expected[2] /= 8.0
        assert fit.values == pytest.approx(expected, abs=1e-10)
        assert predict(scaled, fit) == pytest.approx(
            predict(x, base), abs=1e-10
        )

    def test_oracle_equivalence_sample(self):
        for seed in range(40):
            rows = 10 + (seed * 7) % 41
            cols = 1 + seed % 10
            x, y = random_system(1200 + seed, rows, cols)
            ours = fit_ols(x, y).values
            ref = oracle_ols(x, y).values
            assert np.abs(ours - ref).max() < 1e-8
            if cols <= 8:
                ours_n = fit_nnls(x, y).values
                ref_n = oracle_nnls(x, y).values
                assert np.abs(ours_n - ref_n).max() < 1e-8


class TestReduction:
    """Fits on the folded (R, Q^T y) match fits on the unreduced design."""

    TALL_ROWS = 3 * REDUCE_BLOCK_ROWS + 217  # four blocks, the last partial

    def test_residual_norm_preserved(self):
        x, y = random_system(1300, self.TALL_ROWS, 7)
        folds = {
            "_reduce": _reduce(x, y, _gram(x, y))[:2],
            "_qr_fold": _qr_fold(x, y),
        }
        for fold, (r, qty) in folds.items():
            assert r.shape == (8, 7) and qty.shape == (8,)
            assert np.allclose(np.tril(r, -1), 0.0)
            for seed in range(5):
                b = rng.normals(rng.derive_key(1301, seed), 7)
                assert np.linalg.norm(r @ b - qty) == pytest.approx(
                    np.linalg.norm(x @ b - y), rel=1e-12
                ), fold

    def test_well_conditioned_system_takes_cholesky_path(self, monkeypatch):
        def unreachable(x, y):
            raise AssertionError("QR fallback taken")

        monkeypatch.setattr(solver, "_qr_fold", unreachable)
        x, y = random_system(1302, self.TALL_ROWS, 7)
        r, qty, cholesky = _reduce(x, y, _gram(x, y))
        assert cholesky
        qr_r, qr_qty = _qr_fold(x, y)  # this module's name, not the patch
        # Both are the triangle of [x | y], up to the sign of each row.
        signs = np.sign(np.diag(qr_r[:, :7]))
        assert np.abs(r[:7] - signs[:, None] * qr_r[:7]).max() < 1e-10
        assert np.abs(qty[:7] - signs * qr_qty[:7]).max() < 1e-10
        assert abs(qty[7]) == pytest.approx(abs(qr_qty[7]), rel=1e-10)

    @pytest.mark.parametrize("fit", [fit_ols, fit_nnls])
    def test_exact_fit_recovers_coefficients(self, fit):
        x, _ = random_system(1303, self.TALL_ROWS, 6)
        b = np.abs(rng.normals(rng.derive_key(1304, 0), 6)) + 0.25
        got = fit(x, x @ b)
        assert np.abs(got.values - b).max() < 1e-10
        assert not got.rank_deficient

    def test_near_duplicate_columns_take_qr_path(self):
        x, y = random_system(1305, self.TALL_ROWS, 5)
        nudge = 1e-7 * rng.normals(rng.derive_key(1306, 0), self.TALL_ROWS)
        x = np.column_stack([x, x[:, 2] + nudge])
        r, qty, cholesky = _reduce(x, y, _gram(x, y))
        assert not cholesky
        qr_r, qr_qty = _qr_fold(x, y)
        assert np.array_equal(r, qr_r) and np.array_equal(qty, qr_qty)
        _, _, rank, _ = scipy.linalg.lstsq(
            x, y, cond=RANK_TOL, lapack_driver="gelsy"
        )
        assert fit_ols(x, y).rank_deficient == (rank < 6)

    def test_tall_ols_matches_lstsq(self):
        for seed in range(3):
            x, y = random_system(1310 + seed, self.TALL_ROWS, 9)
            fit = fit_ols(x, y)
            ref, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
            assert np.abs(fit.values - ref).max() < 1e-10
            assert np.abs(fit.values - oracle_ols(x, y).values).max() < 1e-10
            assert not fit.rank_deficient
            residual = np.sqrt(np.mean((x @ ref - y) ** 2))
            assert train_rmse(x, y, fit) == pytest.approx(residual, rel=1e-12)

    def test_tall_ridge_matches_augmented_lstsq(self):
        x, y = random_system(1315, self.TALL_ROWS, 5)
        ridge = 250.0
        xa = np.vstack([x, np.sqrt(ridge) * np.eye(5)])
        ya = np.concatenate([y, np.zeros(5)])
        ref, _, _, _ = np.linalg.lstsq(xa, ya, rcond=None)
        assert np.abs(fit_ols(x, y, ridge=ridge).values - ref).max() < 1e-10

    def test_tall_nnls_matches_oracle(self):
        for seed in range(3):
            x, y = random_system(1320 + seed, self.TALL_ROWS, 8)
            fit = fit_nnls(x, y)
            ref = oracle_nnls(x, y)
            assert np.abs(fit.values - ref.values).max() < 1e-10
            assert ((fit.values == 0.0) == (ref.values == 0.0)).all()
            assert train_rmse(x, y, fit) == pytest.approx(
                train_rmse(x, y, ref), rel=1e-12
            )

    def test_tall_nnls_feasible_target_matches_lstsq(self):
        x, y = random_system(1330, self.TALL_ROWS, 6, nonneg_target=True)
        ref, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
        assert ref.min() > 0  # fixture sanity: the constraint is inactive
        assert np.abs(fit_nnls(x, y).values - ref).max() < 1e-10

    def test_wide_ols_is_minimum_norm(self):
        x, y = random_system(1340, 5, 9)
        fit = fit_ols(x, y)
        ref, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
        assert fit.rank_deficient
        assert np.abs(fit.values - ref).max() < 1e-10
        assert train_rmse(x, y, fit) == pytest.approx(0.0, abs=1e-12)

    def test_wide_nnls_matches_oracle_residual(self):
        x, y = random_system(1341, 5, 9)
        fit = fit_nnls(x, y)
        ref = oracle_nnls(x, y)
        assert fit.values.min() >= 0.0
        assert train_rmse(x, y, fit) == pytest.approx(
            train_rmse(x, y, ref), abs=1e-10
        )

    def test_duplicate_columns_keep_rank_flag(self):
        x, y = random_system(1350, self.TALL_ROWS, 5)
        x = np.column_stack([x, x[:, 2]])
        _, _, rank, _ = scipy.linalg.lstsq(
            x, y, cond=RANK_TOL, lapack_driver="gelsy"
        )
        assert rank == 5  # the unreduced design is deficient too
        fit = fit_ols(x, y)
        assert fit.rank_deficient
        ref, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
        assert np.abs(fit.values - ref).max() < 1e-10
        # The minimum-norm solution splits the duplicated weight evenly.
        assert fit.values[2] == pytest.approx(fit.values[5], abs=1e-10)
        nnls = fit_nnls(x, y)
        assert nnls.values.min() >= 0.0
        assert train_rmse(x, y, nnls) == pytest.approx(
            train_rmse(x, y, oracle_nnls(x, y)), rel=1e-12
        )

    def test_full_rank_flag_unchanged(self):
        x, y = random_system(1351, self.TALL_ROWS, 6)
        _, _, rank, _ = scipy.linalg.lstsq(
            x, y, cond=RANK_TOL, lapack_driver="gelsy"
        )
        assert rank == 6
        assert not fit_ols(x, y).rank_deficient


# The region-nnls benchmark workload's shape: 12 cities x 600 artists x 120
# weeks at chart size 120, c00-c03 leading c04-c07 at lags 1-4.
REGION_SPEC = PlantSpec(
    cities=tuple((f"c{i:02d}", "unlabeled") for i in range(12)),
    influence=tuple(
        Influence(f"c{i:02d}", f"c{i + 4:02d}", i + 1, 0.8) for i in range(4)
    ),
    weeks=120,
    artists=600,
    chart_size=120,
    noise_sigma=0.04,
    seed=101,
)


@pytest.fixture(scope="module")
def region_train():
    """The train part of c05's all-history design on ``REGION_SPEC``."""
    velocities = build_velocities(generate_planted(REGION_SPEC))
    config = LagConfig(8, velocities.cities)
    design = build_design(velocities, "c05", config)
    train = temporal_split(design, default_boundary(velocities.weeks)).train
    return train.x, train.y


class TestGramStep:
    """FNNLS steps on the Gram matrix against the lstsq step on R."""

    def assert_same_path(self, x, y):
        r, qty, cholesky = _reduce(x, y, _gram(x, y))
        assert cholesky
        cap = max(10 * x.shape[1], 100)
        gram_beta, gram_its = _lawson_hanson(r, qty, True, cap, x.shape)
        lstsq_beta, lstsq_its = _lawson_hanson(r, qty, False, cap, x.shape)
        assert np.abs(gram_beta - lstsq_beta).max() < 1e-10
        assert ((gram_beta == 0.0) == (lstsq_beta == 0.0)).all()
        assert gram_its == lstsq_its
        return gram_beta

    def test_tall_systems(self):
        for seed in range(6):
            x, y = random_system(1400 + seed, TestReduction.TALL_ROWS, 8)
            beta = self.assert_same_path(x, y)
            assert (beta == 0.0).any() and (beta > 0.0).any()

    def test_region_sized_design(self, region_train):
        x, y = region_train
        assert x.shape[1] == 96 and x.shape[0] > 5000
        beta = self.assert_same_path(x, y)
        assert (beta == 0.0).sum() > 10 and (beta > 0.0).sum() > 10
        assert fit_nnls(x, y).values.tobytes() == beta.tobytes()

    @pytest.fixture
    def steps(self, monkeypatch):
        """Counts of the two step kinds taken by the solver."""
        counts = {"lstsq": 0, "solve": 0}
        for name in counts:
            inner = getattr(np.linalg, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    def test_well_conditioned_system_takes_gram_step(self, steps):
        x, y = random_system(1410, TestReduction.TALL_ROWS, 6)
        assert fit_nnls(x, y).iterations > 0
        assert steps["solve"] > 0 and steps["lstsq"] == 0

    @pytest.mark.parametrize("kind", ["duplicate", "near_duplicate", "wide"])
    def test_qr_fold_systems_keep_lstsq_step(self, kind, steps):
        if kind == "wide":
            x, y = random_system(1341, 5, 9)
        else:
            x, y = random_system(1350, TestReduction.TALL_ROWS, 5)
            nudge = 0.0
            if kind == "near_duplicate":
                nudge = 1e-7 * rng.normals(
                    rng.derive_key(1306, 0), TestReduction.TALL_ROWS
                )
            x = np.column_stack([x, x[:, 2] + nudge])
        assert not _reduce(x, y, _gram(x, y))[2]
        fit = fit_nnls(x, y)
        assert fit.iterations > 0
        assert steps["lstsq"] > 0 and steps["solve"] == 0
        assert train_rmse(x, y, fit) == pytest.approx(
            train_rmse(x, y, oracle_nnls(x, y)), rel=1e-9, abs=1e-12
        )


def test_oracle_failure_unreachable_via_zero_vector():
    # The all-zero pattern is always feasible, so the oracle returns even on
    # hostile targets.
    x, y = np.array([[1.0], [1.0]]), np.array([-5.0, -5.0])
    fit = oracle_nnls(x, y)
    assert fit.values.tolist() == [0.0]
    assert train_rmse(x, y, fit) == 5.0


def test_oracle_nnls_is_chartflow_error_free_on_simple_input():
    x = np.array([[2.0, 0.0], [0.0, 3.0]])
    fit = oracle_nnls(x, np.array([4.0, 9.0]))
    assert fit.values == pytest.approx([2.0, 3.0], abs=1e-12)

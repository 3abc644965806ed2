import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chgeo import ambient, families
from chgeo.errors import DegeneratePlaneError
from chgeo.solvable import (
    OrbitModel,
    build_algebra,
    build_ruled,
    default_ruled_spec,
    horosphere_model,
)


@pytest.fixture(scope="module")
def model():
    return ambient.CurvatureModel(3)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


def random_tangent(model: ambient.CurvatureModel, rng: np.random.Generator):
    v = rng.standard_normal(model.dim)
    return v / np.linalg.norm(v)


def random_totally_real_pair(model: ambient.CurvatureModel, rng: np.random.Generator):
    """Orthonormal pair x, y with <Jx, y> = 0 (a totally real 2-plane)."""
    x = random_tangent(model, rng)
    jx = model.J @ x
    while True:
        y = rng.standard_normal(model.dim)
        y -= (y @ x) * x + (y @ jx) * jx
        norm = np.linalg.norm(y)
        if norm > 1e-6:
            return x, y / norm


# ---------------------------------------------------------------------------
# curvature tensor values
# ---------------------------------------------------------------------------


def test_holomorphic_plane_curvature(model, rng):
    """K(X, JX) = -1 on any J-plane."""
    for _ in range(10):
        x = random_tangent(model, rng)
        assert ambient.sectional_curvature(model, x, model.J @ x) == pytest.approx(
            -1.0, abs=1e-13
        )


def test_totally_real_plane_curvature(model, rng):
    for _ in range(10):
        x, y = random_totally_real_pair(model, rng)
        assert ambient.sectional_curvature(model, x, y) == pytest.approx(
            -0.25, abs=1e-13
        )


def test_rotated_plane_reduces_to_totally_real(model, rng):
    """Plane (X, cos t JX + sin t Y) at t = pi/2 is the totally real one."""
    x, y = random_totally_real_pair(model, rng)
    theta = np.pi / 2.0
    mixed = np.cos(theta) * (model.J @ x) + np.sin(theta) * y
    assert ambient.sectional_curvature(model, x, mixed) == pytest.approx(
        -0.25, abs=1e-13
    )


def test_antisymmetry_in_first_arguments(model, rng):
    x = random_tangent(model, rng)
    z = random_tangent(model, rng)
    assert np.linalg.norm(ambient.curvature(model, x, x, z)) <= 1e-15


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_pair_symmetry(seed):
    model = ambient.CurvatureModel(3)
    gen = np.random.default_rng(seed)
    x, y, z, w = (random_tangent(model, gen) for _ in range(4))
    lhs = ambient.curvature_component(model, x, y, z, w)
    rhs = ambient.curvature_component(model, z, w, x, y)
    assert abs(lhs - rhs) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_first_bianchi_identity(seed):
    model = ambient.CurvatureModel(2)
    gen = np.random.default_rng(seed)
    x, y, z = (random_tangent(model, gen) for _ in range(3))
    total = (
        ambient.curvature(model, x, y, z)
        + ambient.curvature(model, y, z, x)
        + ambient.curvature(model, z, x, y)
    )
    assert np.linalg.norm(total) <= 1e-12


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_complex_structure_invariance(seed):
    model = ambient.CurvatureModel(3)
    gen = np.random.default_rng(seed)
    x, y, z = (random_tangent(model, gen) for _ in range(3))
    lhs = ambient.curvature(model, model.J @ x, model.J @ y, z)
    rhs = ambient.curvature(model, x, y, z)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_sectional_curvature_pinching(model, rng):
    for _ in range(1000):
        x = random_tangent(model, rng)
        y = random_tangent(model, rng)
        kappa = ambient.sectional_curvature(model, x, y)
        assert -1.0 - 1e-12 <= kappa <= -0.25 + 1e-12


def test_complex_structure_is_isometric_involution(model, rng):
    x = random_tangent(model, rng)
    y = random_tangent(model, rng)
    assert abs((model.J @ x) @ (model.J @ y) - x @ y) <= 1e-14
    assert np.linalg.norm(model.J @ (model.J @ x) + x) <= 1e-14


def test_complex_structure_equals_the_pair_loop():
    # the per-pair construction ``complex_structure`` replaced, kept as a reference
    for n in range(1, 13):
        j = np.zeros((2 * n, 2 * n))
        for i in range(n):
            j[2 * i + 1, 2 * i] = 1.0
            j[2 * i, 2 * i + 1] = -1.0
        assert ambient.complex_structure(n).tobytes() == j.tobytes()


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_degenerate_plane_rejected(model):
    x = np.zeros(6)
    x[0] = 1.0
    with pytest.raises(DegeneratePlaneError):
        ambient.sectional_curvature(model, x, 2.0 * x)


@pytest.mark.parametrize("n", [3.5, "3", True])
def test_curvature_model_rejects_a_dimension_that_is_not_an_integer(n):
    # 3.5 used to raise the bare TypeError of complex_structure on first use of J
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
        ambient.CurvatureModel(n)


def test_curvature_model_stores_a_numpy_dimension_as_an_int():
    model = ambient.CurvatureModel(np.int64(3))
    assert type(model.n) is int and model.n == 3
    assert model.J.shape == (6, 6)


def test_jacobi_operator_columns_are_curvature_values():
    model = ambient.CurvatureModel(4)
    c = random_tangent(model, np.random.default_rng(5))
    K = ambient.jacobi_operator(model, c)
    ref = np.column_stack([-ambient.curvature(model, e, c, c) for e in np.eye(8)])
    assert np.max(np.abs(K - ref)) <= 1e-15
    # eigenvalues 0 on c, 1 on Jc and 1/4 on the rest
    assert np.allclose(np.linalg.eigvalsh(0.5 * (K + K.T)), [0.0] + [0.25] * 6 + [1.0])


def test_dimension_mismatch_rejected(model):
    with pytest.raises(ValueError):
        ambient.curvature(model, np.ones(4), np.ones(6), np.ones(6))


def test_non_finite_vector_rejected(model):
    bad = np.full(6, np.nan)
    with pytest.raises(ValueError):
        ambient.curvature(model, bad, np.ones(6), np.ones(6))


def test_single_vector_entry_points_reject_stacks(model):
    stack = np.eye(6)
    with pytest.raises(ValueError, match=r"got shape \(6, 6\)"):
        ambient.jacobi_operator(model, stack)
    with pytest.raises(ValueError, match=r"got shape \(6, 6\)"):
        model.as_tangent(stack)


def test_stacked_curvature_matches_row_by_row(model, rng):
    # the broadcast of one vector against a stack is
    # test_jacobi_operator_columns_are_curvature_values
    x, y, z = rng.standard_normal((3, 40, 6))
    nx, ny, nz = np.linalg.norm([x, y, z], axis=-1)
    rows = np.array([ambient.curvature(model, *v) for v in zip(x, y, z)])
    gap = np.abs(ambient.curvature(model, x, y, z) - rows)
    assert np.all(gap <= 1e-15 * (nx * ny * nz)[:, None])
    rows = np.array([ambient.curvature_component(model, *v) for v in zip(x, y, z, x)])
    gap = np.abs(ambient.curvature_component(model, x, y, z, x) - rows)
    assert np.all(gap <= 1e-15 * nx * ny * nz * nx)
    rows = np.array([ambient.sectional_curvature(model, a, b) for a, b in zip(x, y)])
    assert np.max(np.abs(ambient.sectional_curvature(model, x, y) - rows)) <= 1e-15


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones((5, 4)), "expected vector of dimension 6"),
        (np.ones((5, 6, 1)), "expected vector of dimension 6"),
        (np.where(np.eye(5, 6) == 1.0, np.inf, 1.0), "non-finite"),
    ],
    ids=["dimension-4", "trailing-axis-1", "inf-entry"],
)
def test_stacked_curvature_rejects_bad_rows(model, bad, message):
    with pytest.raises(ValueError, match=message):
        ambient.curvature(model, bad, np.ones(6), np.ones(6))


# ---------------------------------------------------------------------------
# compatibility equations on homogeneous models, read along random vectors
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ruled_data():
    alg = build_algebra(3)
    return build_ruled(alg, default_ruled_spec(alg, 1))


@pytest.fixture(scope="module")
def horosphere_data():
    return horosphere_model(build_algebra(3))


@pytest.mark.parametrize("fixture", ["ruled_data", "horosphere_data"])
def test_gauss_residual_on_orbit_models(fixture, request, rng):
    orbit = request.getfixturevalue(fixture)
    gauss, _ = orbit.compatibility_defects()
    # frame coefficients of four random tangent vectors per row; each row
    # reads the Gauss equation along them
    x, y, z, w = rng.standard_normal((4, 25, orbit.dim))
    values = np.einsum("abcw,ka,kb,kc,kw->k", gauss, x, y, z, w)
    assert np.max(np.abs(values)) <= 1e-10


def test_gauss_residual_vanishes_for_repeated_argument(ruled_data, rng):
    gauss, _ = ruled_data.compatibility_defects()
    x, z, w = rng.standard_normal((3, ruled_data.dim))
    assert abs(np.einsum("abcw,a,b,c,w->", gauss, x, x, z, w)) <= 1e-14
    # the whole tensor is skew in its first pair
    assert np.max(np.abs(gauss + gauss.swapaxes(0, 1))) <= 1e-15


@pytest.mark.parametrize("fixture", ["ruled_data", "horosphere_data"])
def test_codazzi_residual_on_orbit_models(fixture, request, rng):
    orbit = request.getfixturevalue(fixture)
    _, codazzi = orbit.compatibility_defects()
    x, y, z = rng.standard_normal((3, 25, orbit.dim))
    values = np.einsum("abc,ka,kb,kc->k", codazzi, x, y, z)
    assert np.max(np.abs(values)) <= 1e-10


def test_codazzi_residual_vanishes_for_repeated_argument(ruled_data, rng):
    _, codazzi = ruled_data.compatibility_defects()
    x, z = rng.standard_normal((2, ruled_data.dim))
    assert abs(np.einsum("abc,a,b,c->", codazzi, x, x, z)) <= 1e-14
    assert np.max(np.abs(codazzi + codazzi.swapaxes(0, 1))) <= 1e-15


def test_eigenframe_codazzi_form(ruled_data):
    """In an eigenbasis of S the normal curvature component is the two-term bracket

    <R(x, y)z, xi> = (lam_y - lam_z) <D_x y, z> - (lam_x - lam_z) <D_y x, z>.
    """
    model = ambient.CurvatureModel(3)
    xi = ruled_data.normal[0]
    vals, vecs = np.linalg.eigh(ruled_data.shape_operator(xi))
    e = vecs.T @ ruled_data.tangent
    nabla = vecs.T @ np.tensordot(vecs.T, ruled_data.intrinsic_gamma, 1) @ vecs
    lhs = ambient.curvature(model, e[:, None, None], e[None, :, None], e[None, None, :]) @ xi
    gap = vals[None, :, None] - vals[None, None, :]
    rhs = gap * nabla - gap.swapaxes(0, 1) * nabla.swapaxes(0, 1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_eigenpair_bracket_form(ruled_data, rng):
    """The same-eigenvalue pairing identity holds on the minimal orbit, in any frame."""
    q, _ = np.linalg.qr(rng.standard_normal((ruled_data.dim, ruled_data.dim)))
    rotated = OrbitModel(ruled_data.algebra, q @ ruled_data.tangent, ruled_data.normal)
    for orbit in (ruled_data, rotated):
        assert families.structural_residuals(orbit)["eigenpair_bracket"] <= 1e-13

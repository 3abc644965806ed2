import re
import tracemalloc

import numpy as np
import pytest

from chgeo import ambient, solvable, verification
from chgeo.errors import ValidationError


@pytest.fixture(scope="module")
def alg():
    return solvable.build_algebra(3)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


# ---------------------------------------------------------------------------
# algebra structure
# ---------------------------------------------------------------------------


def test_dimensions(alg):
    assert alg.dim == 6
    a, z, v1, v2 = np.eye(alg.dim)[:4]
    assert np.array_equal(alg.bracket_of(a, z), z)
    assert np.array_equal(alg.bracket_of(a, v1), 0.5 * v1)
    assert np.array_equal(alg.bracket_of(v1, v2), z)


def test_rejects_low_dimension():
    with pytest.raises(ValueError):
        solvable.build_algebra(1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobi_identity(n):
    alg = solvable.build_algebra(n)
    e = np.eye(alg.dim)
    worst = 0.0
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                total = (
                    alg.bracket_of(alg.bracket_of(e[i], e[j]), e[k])
                    + alg.bracket_of(alg.bracket_of(e[j], e[k]), e[i])
                    + alg.bracket_of(alg.bracket_of(e[k], e[i]), e[j])
                )
                worst = max(worst, np.linalg.norm(total))
    assert worst <= 1e-14


def test_centre_of_nilpotent_part(alg):
    e = np.eye(alg.dim)
    z = e[1]
    for idx in range(1, alg.dim):
        assert np.linalg.norm(alg.bracket_of(z, e[idx])) == 0.0


def test_centre_in_lowest_dimension():
    alg = solvable.build_algebra(2)
    assert alg.dim == 4
    z, v1 = np.eye(4)[1], np.eye(4)[2]
    assert np.linalg.norm(alg.bracket_of(z, v1)) == 0.0


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------


def test_metric_compatibility(alg, rng):
    for _ in range(100):
        x, y, w = rng.standard_normal((3, alg.dim))
        lhs = solvable.levi_civita(alg, x, y) @ w + y @ solvable.levi_civita(alg, x, w)
        assert abs(lhs) <= 1e-14 * max(1.0, np.linalg.norm(x) * np.linalg.norm(y))


def test_torsion_free(alg, rng):
    for _ in range(100):
        x, y = rng.standard_normal((2, alg.dim))
        defect = (
            solvable.levi_civita(alg, x, y)
            - solvable.levi_civita(alg, y, x)
            - alg.bracket_of(x, y)
        )
        assert np.linalg.norm(defect) <= 1e-14 * max(1.0, np.linalg.norm(x))


def test_abelian_direction_is_geodesic(alg):
    a = np.eye(alg.dim)[0]
    assert np.linalg.norm(solvable.levi_civita(alg, a, a)) == 0.0


def test_nilpotent_directions_bend_toward_abelian(alg, rng):
    """D_V V for unit V in the v-part points along the A-direction."""
    coeffs = rng.standard_normal(alg.dim - 2)
    v = np.zeros(alg.dim)
    v[2:] = coeffs / np.linalg.norm(coeffs)
    out = solvable.levi_civita(alg, v, v)
    assert out[0] == pytest.approx(0.5, abs=1e-14)
    assert np.linalg.norm(out[1:]) <= 1e-14


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_holomorphic_plane_through_group_model(alg):
    e = np.eye(alg.dim)
    out = solvable.algebra_curvature(alg, e[0], e[1], e[1])
    assert np.linalg.norm(out - (-e[0])) <= 1e-14


def test_totally_real_plane_through_group_model(alg):
    e = np.eye(alg.dim)
    out = solvable.algebra_curvature(alg, e[2], e[0], e[0])
    assert out @ e[2] == pytest.approx(-0.25, abs=1e-14)


def test_repeated_argument_vanishes(alg, rng):
    x = rng.standard_normal(alg.dim)
    z = rng.standard_normal(alg.dim)
    assert np.linalg.norm(solvable.algebra_curvature(alg, x, x, z)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_matches_closed_form(n, rng):
    alg = solvable.build_algebra(n)
    model = ambient.CurvatureModel(n)
    for _ in range(100):
        x, y, z = rng.standard_normal((3, 2 * n))
        lhs = solvable.algebra_curvature(alg, x, y, z)
        rhs = ambient.curvature(model, x, y, z)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("n", [2, 4])
def test_stacked_algebra_curvature_matches_row_by_row(n, rng):
    alg = solvable.build_algebra(n)
    x, y, z = rng.standard_normal((3, 40, 2 * n))
    nx, ny, nz = np.linalg.norm([x, y, z], axis=-1)
    rows = np.array([solvable.algebra_curvature(alg, *v) for v in zip(x, y, z)])
    gap = np.abs(solvable.algebra_curvature(alg, x, y, z) - rows)
    assert np.all(gap <= 1e-15 * (nx * ny * nz)[:, None])


def _dense_bracket(n):
    """bracket[i, j] = coefficients of [e_i, e_j], entry by entry from the table."""
    d = 2 * n
    bracket = np.zeros((d, d, d))
    # [A, Z] = Z
    bracket[0, 1, 1], bracket[1, 0, 1] = 1.0, -1.0
    # [A, V] = V / 2
    for a in range(2, d):
        bracket[0, a, a], bracket[a, 0, a] = 0.5, -0.5
    # [V_{2j-1}, V_{2j}] = Z
    for a in range(2, d, 2):
        bracket[a, a + 1, 1], bracket[a + 1, a, 1] = 1.0, -1.0
    return bracket


def _dense_gamma(bracket):
    """gamma[i, j, k] = <D_i e_j, e_k> from the Koszul formula on the dense bracket.

    2 <D_i e_j, e_k> = <[e_i,e_j],e_k> - <[e_j,e_k],e_i> + <[e_k,e_i],e_j>.
    """
    return 0.5 * (
        bracket - np.einsum("jki->ijk", bracket) + np.einsum("kij->ijk", bracket)
    )


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "x_shape, y_shape",
    [((), ()), ((5,), (5,)), ((3, 1), (4,))],
    ids=["vector", "stack", "broadcast"],
)
def test_bilinear_maps_match_einsum_reference(n, x_shape, y_shape):
    alg = solvable.build_algebra(n)
    bracket = _dense_bracket(n)
    rng = np.random.default_rng(12)
    # unit rows, so an absolute bound is a relative one
    x, y = (
        v / np.linalg.norm(v, axis=-1, keepdims=True)
        for v in (rng.standard_normal((*shape, alg.dim)) for shape in (x_shape, y_shape))
    )
    for got, tensor in (
        (solvable.levi_civita(alg, x, y), _dense_gamma(bracket)),
        (alg.bracket_of(x, y), bracket),
    ):
        want = np.einsum("...i,...j,ijk->...k", x, y, tensor)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("n", [3, 5])
def test_closure_leak_matches_dense_reference(n):
    alg = solvable.build_algebra(n)
    bracket = _dense_bracket(n)
    rng = np.random.default_rng(n)
    for k in (1, n - 1):
        frame, _ = np.linalg.qr(rng.standard_normal((alg.dim, alg.dim)))
        t, nr = frame[k:], frame[:k]
        want = np.einsum("ip,jq,pqr,cr->cij", t, t, bracket, nr)
        # the structured check returns the leak's norm, read off the two factors
        assert abs(solvable._closure_leak(alg, t, nr) - np.linalg.norm(want)) <= 1e-14
        # the random normal mixes Z in, so [V, iV] = Z leaks out of the frame
        assert abs(nr[0, 1]) > 1e-3
        with pytest.raises(ValidationError, match="not closed under the bracket"):
            solvable.OrbitModel(algebra=alg, tangent=t, normal=nr)


def _random_basis(orbit, rng):
    """The orbit's tangent rows written in a random orthonormal basis of their span."""
    q, _ = np.linalg.qr(rng.standard_normal((orbit.dim, orbit.dim)))
    return q @ orbit.tangent


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_frame_in_a_random_tangent_basis_passes(n):
    rng = np.random.default_rng(40 + n)
    alg = solvable.build_algebra(n)
    orbit = solvable.build_ruled(alg, _random_slice(alg, int(rng.integers(1, n)), rng))
    t = _random_basis(orbit, rng)
    # every row has an A-part, so each pair of rows enters the leak
    assert np.min(np.abs(t[:, 0])) > 1e-6
    leak = np.einsum("ip,jq,pqr,cr->cij", t, t, _dense_bracket(n), orbit.normal)
    dense = np.linalg.norm(leak)
    assert dense <= 1e-14
    assert solvable._closure_leak(alg, t, orbit.normal) <= 1e-14
    solvable.OrbitModel(algebra=alg, tangent=t, normal=orbit.normal)


@pytest.mark.parametrize("n", range(3, 9))
def test_frame_with_a_normal_row_mixed_into_its_tangent_rows_fails(n):
    rng = np.random.default_rng(50 + n)
    alg = solvable.build_algebra(n)
    orbit = solvable.build_ruled(alg, _random_slice(alg, int(rng.integers(1, n)), rng))
    t, nr = _random_basis(orbit, rng), orbit.normal.copy()
    # rotate one tangent row into the first normal row: still an orthonormal frame
    j = int(rng.integers(len(t)))
    c, s = np.cos(0.3), np.sin(0.3)
    t[j], nr[0] = c * t[j] + s * nr[0], c * nr[0] - s * t[j]
    dense = np.linalg.norm(np.einsum("ip,jq,pqr,cr->cij", t, t, _dense_bracket(n), nr))
    assert dense > 1e-3
    assert abs(solvable._closure_leak(alg, t, nr) - dense) <= 1e-14
    with pytest.raises(ValidationError, match="not closed under the bracket"):
        solvable.OrbitModel(algebra=alg, tangent=t, normal=nr)


@pytest.mark.parametrize("n", range(3, 9))
def test_random_frame_with_a_z_part_in_its_normal_fails(n):
    rng = np.random.default_rng(60 + n)
    alg = solvable.build_algebra(n)
    k = int(rng.integers(1, n))
    frame, _ = np.linalg.qr(rng.standard_normal((alg.dim, alg.dim)))
    t, nr = frame[k:], frame[:k]
    assert np.min(np.abs(nr[:, 1])) > 1e-6
    assert solvable._closure_leak(alg, t, nr) > 1e-3
    with pytest.raises(ValidationError, match="not closed under the bracket"):
        solvable.OrbitModel(algebra=alg, tangent=t, normal=nr)


def test_orbit_of_a_large_algebra_stays_small():
    """No (d, d, d) array: n = 64 builds a ruled orbit and its shape operator in 4 MiB."""
    tracemalloc.start()
    try:
        alg = solvable.build_algebra(64)
        orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))
        orbit.shape_operator(orbit.normal[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones((5, 4)), "expected vector of dimension 6"),
        (np.ones((5, 6, 1)), "expected vector of dimension 6"),
        (np.where(np.eye(5, 6) == 1.0, np.nan, 1.0), "non-finite"),
    ],
    ids=["dimension-4", "trailing-axis-1", "nan-entry"],
)
def test_stacked_algebra_curvature_rejects_bad_rows(alg, bad, message):
    with pytest.raises(ValueError, match=message):
        solvable.algebra_curvature(alg, bad, np.ones(6), np.ones(6))


# ---------------------------------------------------------------------------
# ruled orbits
# ---------------------------------------------------------------------------


def test_default_slice_is_totally_real(alg):
    w_perp = solvable.default_ruled_spec(alg, 2)
    jw = w_perp @ alg.J.T
    assert np.max(np.abs(jw @ w_perp.T)) <= 1e-14


def test_slice_decomposition(alg):
    """v splits orthogonally into the complex part, i(slice) and the slice."""
    w_perp = solvable.default_ruled_spec(alg, 2)
    orbit = solvable.build_ruled(alg, w_perp)
    i_slice = w_perp @ alg.J.T
    tangent = orbit.tangent
    # i(slice) is tangent, the slice itself is normal
    assert np.max(np.abs(i_slice - (i_slice @ tangent.T) @ tangent)) <= 1e-12
    assert np.array_equal(orbit.normal, w_perp)
    assert np.max(np.abs(orbit.normal @ tangent.T)) <= 1e-12


def test_non_totally_real_slice_rejected(alg):
    rows = np.zeros((2, alg.dim))
    rows[0, 2] = 1.0
    rows[1, 3] = 1.0  # the J-image of the first row
    with pytest.raises(ValidationError):
        solvable.build_ruled(alg, rows)


def _nan_frame(alg):
    nan = np.full((alg.dim, alg.dim), np.nan)
    solvable.OrbitModel(algebra=alg, tangent=nan[1:], normal=nan[:1])


def _nan_slice(alg):
    rows = solvable.default_ruled_spec(alg, 1)
    rows[0, 4] = np.nan
    solvable.build_ruled(alg, rows)


@pytest.mark.parametrize(
    "build, message",
    [
        (_nan_frame, "do not form an orthonormal basis"),
        (_nan_slice, "slice rows must be finite"),
        (lambda alg: solvable.build_ruled(alg, np.eye(alg.dim)[2]), "must form a"),
        (lambda alg: solvable.build_ruled(alg, np.zeros((0, alg.dim))), "got 0"),
        (lambda alg: solvable.build_ruled(alg, np.eye(alg.dim)[1::2]), "got 3"),
        (lambda alg: solvable.build_ruled(alg, np.eye(alg.dim - 2)[2:3]), "must form a"),
    ],
    ids=["nan-frame", "nan-slice", "1-d-slice", "zero-rows", "n-rows", "short-rows"],
)
def test_orbit_rejects_malformed_data(alg, build, message):
    with pytest.raises(ValidationError, match=message):
        build(alg)


def test_corank_range_enforced(alg):
    with pytest.raises(ValidationError):
        solvable.default_ruled_spec(alg, alg.n)


def test_hypersurface_second_fundamental_form(alg):
    orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))
    xi = orbit.normal[0]
    ixi = alg.J @ xi
    z = np.eye(alg.dim)[1]
    assert np.linalg.norm(2.0 * orbit.second_fundamental(z, ixi) - xi) <= 1e-14
    # minimality
    assert abs(np.trace(orbit.shape_operator(xi))) <= 1e-14


def test_only_centre_slice_pairing_is_nonzero(alg):
    orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))
    xi = orbit.normal[0]
    ixi = alg.J @ xi
    z = np.eye(alg.dim)[1]
    for ti in orbit.tangent:
        for tj in orbit.tangent:
            weight = (ti @ z) * (tj @ ixi) + (tj @ z) * (ti @ ixi)
            value = orbit.second_fundamental(ti, tj) @ xi
            assert abs(value - 0.5 * weight) <= 1e-14


def test_corank_two_spectrum_and_eigenvectors(alg):
    orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 2))
    z = np.eye(alg.dim)[1]
    for xi in orbit.normal:
        vals, _ = np.linalg.eigh(orbit.shape_operator(xi))
        assert np.allclose(
            np.sort(vals), [-0.5, 0.0, 0.0, 0.5], atol=1e-12
        )
        ixi = alg.J @ xi
        S = orbit.shape_operator(xi)
        for sign in (1.0, -1.0):
            vec = orbit.tangent @ ((z + sign * ixi) / np.sqrt(2.0))
            assert np.linalg.norm(S @ vec - sign * 0.5 * vec) <= 1e-12


def test_random_unit_normal_spectrum(alg, rng):
    """Spectrum is the same for every unit vector of the normal slice."""
    orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 2))
    coeffs = rng.standard_normal(2)
    coeffs /= np.linalg.norm(coeffs)
    xi = coeffs @ orbit.normal
    vals, _ = np.linalg.eigh(orbit.shape_operator(xi))
    assert np.allclose(np.sort(vals), [-0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_horosphere_shape_operator(alg):
    orbit = solvable.horosphere_model(alg)
    vals = np.linalg.eigvalsh(orbit.shape_operator(orbit.normal[0]))
    assert np.allclose(np.sort(vals), [0.5, 0.5, 0.5, 0.5, 1.0], atol=1e-14)


def test_frame_without_centre_is_not_closed(alg):
    """A, V1, V2, ... with Z left normal: [V1, V2] = Z leaks out of the frame."""
    e = np.eye(alg.dim)
    tangent = np.vstack([e[:1], e[2:]])
    with pytest.raises(ValidationError, match="not closed under the bracket"):
        solvable.OrbitModel(algebra=alg, tangent=tangent, normal=e[1:2])


def _random_slice(alg, k, rng):
    """The canonical slice of corank k moved by a random unitary of v: still totally real."""
    m = alg.n - 1
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    # real form of q on v: V_{2j+1} is the real, V_{2j+2} the imaginary axis
    real = np.zeros((2 * m, 2 * m))
    real[0::2, 0::2], real[0::2, 1::2] = q.real, -q.imag
    real[1::2, 0::2], real[1::2, 1::2] = q.imag, q.real
    w = solvable.default_ruled_spec(alg, k)
    w[:, 2:] = w[:, 2:] @ real.T
    return w


def _rotated_ruled(n, k, rng):
    """Ruled orbit over the canonical slice moved by a random unitary of v."""
    alg = solvable.build_algebra(n)
    return solvable.build_ruled(alg, _random_slice(alg, k, rng))


@pytest.mark.parametrize("n", [3.0, 2.5, "3", True])
def test_build_algebra_rejects_a_dimension_that_is_not_an_integer(n):
    # 3.0 used to raise numpy's bare "expected a sequence of integers"
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
        solvable.build_algebra(n)
    assert solvable.build_algebra(np.int64(3)).n == 3
    assert type(solvable.build_algebra(np.int64(3)).n) is int


def test_default_slice_rejects_a_corank_that_is_not_an_integer(alg):
    # it used to raise "slice indices must be integers"
    with pytest.raises(ValueError, match=re.escape("k must be an integer, got 2.5")):
        solvable.default_ruled_spec(alg, 2.5)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3)])
def test_orbit_arrays_match_per_pair_levi_civita(n, k):
    rng = np.random.default_rng(n)
    orbit = _rotated_ruled(n, k, rng)
    alg, t, nr = orbit.algebra, orbit.tangent, orbit.normal
    assert np.mean(np.abs(t[2:, 2:]) > 1e-3) > 0.5  # a dense frame
    coeffs = rng.standard_normal(k)
    xi = (coeffs / np.linalg.norm(coeffs)) @ nr
    amb = np.array([[solvable.levi_civita(alg, ti, tj) for tj in t] for ti in t])
    S_ref = (amb @ nr.T) @ (nr @ xi)
    S_ref = 0.5 * (S_ref + S_ref.T)
    assert np.max(np.abs(orbit.shape_operator(xi) - S_ref)) <= 1e-13
    # only the normal part of the argument enters
    assert np.max(np.abs(orbit.shape_operator(xi + t[3]) - S_ref)) <= 1e-13
    assert np.max(np.abs(orbit.intrinsic_gamma - amb @ t.T)) <= 1e-13



# ---------------------------------------------------------------------------
# Gauss and Codazzi over the whole frame
# ---------------------------------------------------------------------------


def _hypersurface_orbit(n, kind):
    alg = solvable.build_algebra(n)
    if kind == "ruled":
        return solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))
    return solvable.horosphere_model(alg)


@pytest.mark.parametrize("kind", ["ruled", "horosphere"])
@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_compatibility_defects_vanish_on_hypersurface_orbits(n, kind):
    orbit = _hypersurface_orbit(n, kind)
    gauss, codazzi = orbit.compatibility_defects()
    m = 2 * n - 1
    assert gauss.shape == (m, m, m, m) and codazzi.shape == (m, m, m)
    assert np.max(np.abs(gauss)) == 0.0
    assert np.max(np.abs(codazzi)) == 0.0
    # a rotated tangent frame spans the same orbit
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((m, m)))
    rotated = solvable.OrbitModel(orbit.algebra, q @ orbit.tangent, orbit.normal)
    gauss, codazzi = rotated.compatibility_defects()
    assert np.max(np.abs(gauss)) <= 1e-14
    assert np.max(np.abs(codazzi)) <= 1e-14


def test_compatibility_defects_require_a_hypersurface(alg):
    orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 2))
    with pytest.raises(ValidationError, match="codimension-one"):
        orbit.compatibility_defects()


def _negated_shape_operator(monkeypatch):
    shape_operator = solvable.OrbitModel.shape_operator
    monkeypatch.setattr(
        solvable.OrbitModel, "shape_operator", lambda self, xi: -shape_operator(self, xi)
    )


def _swapped_intrinsic_gamma(monkeypatch):
    # a plain property: cached values from other tests stay out of reach
    gamma = solvable.OrbitModel.intrinsic_gamma.func
    monkeypatch.setattr(
        solvable.OrbitModel, "intrinsic_gamma", property(lambda self: gamma(self).swapaxes(0, 1))
    )


@pytest.mark.parametrize(
    "mutate, identity",
    [(_negated_shape_operator, "codazzi"), (_swapped_intrinsic_gamma, "gauss")],
    ids=["negated-shape-operator", "swapped-intrinsic-gamma"],
)
def test_structural_residuals_suite_catches_mutations(monkeypatch, mutate, identity):
    assert verification.run_suite("structural-residuals").passed
    mutate(monkeypatch)
    gauss, codazzi = _hypersurface_orbit(3, "horosphere").compatibility_defects()
    assert np.max(np.abs({"gauss": gauss, "codazzi": codazzi}[identity])) >= 0.5
    result = verification.run_suite("structural-residuals")
    assert not result.passed
    assert result.detail.startswith("worst: ")
    assert "orbit, n=" in result.detail


def test_slice_rows_equal_the_row_loop():
    # the per-row construction ``default_ruled_spec`` replaced, kept as a reference
    for n in range(2, 13):
        alg = solvable.build_algebra(n)
        for k in range(1, n):
            rows = np.zeros((k, alg.dim))
            for j in range(k):
                rows[j, 2 + 2 * j] = 1.0
            spec = solvable.default_ruled_spec(alg, k)
            assert spec.shape == rows.shape and spec.tobytes() == rows.tobytes()

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chgeo import classifier, jacobi, solvable, verification
from chgeo.errors import FocalPointError, ValidationError
from chgeo.profiles import HopfAttitude, PrincipalProfile, merge_spectrum

R_STAR = jacobi.EXCEPTIONAL_RADIUS
SQ2, SQ3, SQ6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)


@pytest.fixture(scope="module")
def iso_profile():
    return classifier.branch_profile(classifier.solve_case_one(), 3, m1=2)


@pytest.fixture(scope="module")
def frame(iso_profile):
    return jacobi.normal_frame(iso_profile)


# ---------------------------------------------------------------------------
# scalar coefficients
# ---------------------------------------------------------------------------


def test_exceptional_radius_hyperbolic_values():
    assert math.cosh(R_STAR / 2.0) == pytest.approx(SQ6 / 2.0, abs=1e-15)
    assert math.sinh(R_STAR / 2.0) == pytest.approx(SQ2 / 2.0, abs=1e-15)
    assert math.tanh(R_STAR / 2.0) == pytest.approx(1.0 / SQ3, abs=1e-14)


def test_initial_conditions_of_modes():
    (f, g), (f_dt, g_dt) = jacobi.coefficient_pairs(0.7, 0.0)
    assert f == 1.0
    assert g == 0.0
    assert f_dt == -0.7
    assert g_dt == 0.0


def test_transverse_collapse_at_exceptional_radius():
    """The sqrt(3)/2 mode vanishes exactly at the exceptional distance."""
    (f, _), (f_dt, _) = jacobi.coefficient_pairs(SQ3 / 2.0, R_STAR)
    assert abs(f) <= 1e-15
    assert f_dt == pytest.approx(-1.0 / SQ2, abs=1e-15)


def test_axis_class_coefficient_at_exceptional_radius():
    # sqrt(3)/6 mode: value sqrt(6)/3 with stationary derivative
    (f, _), (f_dt, _) = jacobi.coefficient_pairs(SQ3 / 6.0, R_STAR)
    assert f == pytest.approx(SQ6 / 3.0, abs=1e-15)
    assert abs(f_dt) <= 1e-15


@given(
    lam=st.floats(min_value=-1.0, max_value=1.0),
    t=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=200)
def test_axis_coefficient_is_mode_sum(lam, t):
    """f + g collapses to the pure axis evolution cosh(t) - lam sinh(t)."""
    (f, g), _ = jacobi.coefficient_pairs(lam, t)
    total = f + g
    assert total == pytest.approx(np.cosh(t) - lam * np.sinh(t), abs=1e-10)


@given(
    lam=st.floats(min_value=-1.0, max_value=1.0),
    w=st.floats(min_value=-1.0, max_value=1.0),
    t=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=100)
def test_closed_form_satisfies_field_equation(lam, w, t):
    h = np.longdouble(1e-4)
    lam_l, w_l, t_l = np.longdouble(lam), np.longdouble(w), np.longdouble(t)
    vals = {}
    for step in (-1, 0, 1):
        tt = t_l + step * h
        (f, g), _ = jacobi.coefficient_pairs(lam_l, tt)
        vals[step] = np.array([f, w_l * g], dtype=np.longdouble)
    second = (vals[1] - 2.0 * vals[0] + vals[-1]) / h**2
    axis = vals[0][0] * w_l + vals[0][1]
    rhs = np.array([vals[0][0], vals[0][1] + 3.0 * axis], dtype=np.longdouble)
    assert float(np.linalg.norm((4.0 * second - rhs).astype(float))) <= 1e-6


# ---------------------------------------------------------------------------
# full fields and the numerical oracle
# ---------------------------------------------------------------------------


def test_zero_vector_gives_zero_field(frame):
    value, deriv = jacobi.jacobi_field(frame, np.zeros(6), 1.3)
    assert np.linalg.norm(value) == 0.0
    assert np.linalg.norm(deriv) == 0.0


def test_field_initial_conditions(frame):
    rng = np.random.default_rng(5)
    v = rng.standard_normal(6)
    v[0] = 0.0
    value, deriv = jacobi.jacobi_field(frame, v, 0.0)
    expected_deriv = -sum(
        lam * (row @ v) * row for lam, row in zip(frame.lambdas, frame.basis)
    )
    assert np.linalg.norm(value - v) <= 1e-14
    assert np.linalg.norm(deriv - expected_deriv) <= 1e-14


def test_numeric_matches_transverse_closed_form():
    d = 6
    jc = np.eye(d)[1]
    v = np.eye(d)[2]
    z, zp = jacobi.jacobi_numeric(v, np.zeros(d), jc, 1.0, 1e-3)
    assert np.linalg.norm(z - math.cosh(0.5) * v) <= 1e-8
    assert np.linalg.norm(zp - 0.5 * math.sinh(0.5) * v) <= 1e-8


@pytest.mark.parametrize("lam", [-0.8, 0.0, 0.5, 1.0])
def test_numeric_matches_axis_closed_form(lam):
    """On the Jc-line with derivative -lam v the coefficient is cosh - lam sinh."""
    d = 6
    jc = np.eye(d)[1]
    z, zp = jacobi.jacobi_numeric(jc, -lam * jc, jc, 1.0, 1e-3)
    assert np.linalg.norm(z - (math.cosh(1.0) - lam * math.sinh(1.0)) * jc) <= 1e-8
    assert np.linalg.norm(zp - (math.sinh(1.0) - lam * math.cosh(1.0)) * jc) <= 1e-8


def test_numeric_zero_time_returns_inputs():
    d = 6
    jc = np.eye(d)[1]
    v0 = np.arange(d, dtype=float)
    v0p = -v0
    z, zp = jacobi.jacobi_numeric(v0, v0p, jc, 0.0, 1e-3)
    assert np.array_equal(z, v0) and np.array_equal(zp, v0p)


def test_numeric_rejects_bad_step():
    with pytest.raises(ValueError):
        jacobi.jacobi_numeric(np.zeros(6), np.zeros(6), np.eye(6)[1], 1.0, 0.0)


@pytest.mark.parametrize(
    "t, step, message",
    [
        (math.nan, 1e-3, "t must be finite"),
        (math.inf, 1e-3, "t must be finite"),
        (-math.inf, 1e-3, "t must be finite"),
        (1.0, math.nan, "step must be finite"),
        (1.0, math.inf, "step must be finite"),
        (1e300, 1e-300, "t / step overflows"),
    ],
)
def test_numeric_rejects_non_finite_time_or_step(t, step, message):
    with pytest.raises(ValueError, match=message):
        jacobi.jacobi_numeric(np.zeros(6), np.zeros(6), np.eye(6)[1], t, step)


def _rk4_stage_loop(z, zp, jc, h, nsteps):
    """Reference: the classic four-stage scheme, one stage at a time."""

    def acc(w):
        return 0.25 * (w + 3.0 * np.multiply.outer(jc, jc @ w))

    for _ in range(nsteps):
        k1v, k1a = zp, acc(z)
        k2v, k2a = zp + 0.5 * h * k1a, acc(z + 0.5 * h * k1v)
        k3v, k3a = zp + 0.5 * h * k2a, acc(z + 0.5 * h * k2v)
        k4v, k4a = zp + h * k3a, acc(z + h * k3v)
        z = z + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        zp = zp + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    return z, zp


@pytest.mark.parametrize("shape", [(6,), (6, 5)], ids=["vector", "batch"])
@pytest.mark.parametrize(
    "h, nsteps, tol", [(0.1, 1, 1e-14), (1e-3, 3000, 1e-11)], ids=["1-step", "3000-steps"]
)
def test_rk4_step_matrix_power_matches_stage_loop(shape, h, nsteps, tol):
    rng = np.random.default_rng(17)
    jc = rng.standard_normal(6)
    jc /= np.linalg.norm(jc)
    z0, zp0 = rng.standard_normal((2, *shape))
    got = jacobi._rk4_segment(z0, zp0, jc, h, nsteps)
    want = _rk4_stage_loop(z0, zp0, jc, h, nsteps)
    for g, w in zip(got, want):
        assert g.shape == shape
        assert np.max(np.abs(g - w)) <= tol


def test_closed_form_matches_numeric_on_random_cases(frame):
    rng = np.random.default_rng(321)
    jc = frame.jxi
    for _ in range(20):
        v = rng.standard_normal(6)
        v[0] = 0.0
        t = float(rng.uniform(0.0, 3.0))
        v0, v0p = jacobi.jacobi_field(frame, v, 0.0)
        z, zp = jacobi.jacobi_numeric(v0, v0p, jc, t, 1e-3)
        value, deriv = jacobi.jacobi_field(frame, v, t)
        assert np.linalg.norm(z - value) <= 1e-8
        assert np.linalg.norm(zp - deriv) <= 1e-8


@pytest.mark.parametrize(
    "t_shape", [(), (4,), (3, 4)], ids=["scalar-t", "broadcast-t", "stacked-t"]
)
def test_stacked_jacobi_field_equals_row_calls(frame, t_shape):
    rng = np.random.default_rng(8)
    v = rng.standard_normal((3, 4, 6))
    v[..., 0] = 0.0
    t = rng.uniform(-3.0, 3.0, size=t_shape)
    value, deriv = jacobi.jacobi_field(frame, v, t)
    assert value.shape == deriv.shape == (3, 4, 6)
    t_rows = np.broadcast_to(t, (3, 4))
    for idx in np.ndindex(3, 4):
        row_value, row_deriv = jacobi.jacobi_field(frame, v[idx], float(t_rows[idx]))
        assert np.array_equal(value[idx], row_value)
        assert np.array_equal(deriv[idx], row_deriv)


@pytest.mark.parametrize("bad", [1.0, math.nan], ids=["normal-component", "nan-entry"])
def test_stacked_jacobi_field_rejects_one_non_tangent_row(frame, bad):
    v = np.random.default_rng(9).standard_normal((5, 6))
    v[:, 0] = 0.0
    jacobi.jacobi_field(frame, v, 1.0)
    v[3, 0] = bad
    with pytest.raises(ValueError, match="not tangent"):
        jacobi.jacobi_field(frame, v, 1.0)


def test_per_bit_rk4_sampling_matches_jacobi_numeric(frame):
    """Each column marched by binary powers equals its own integration."""
    rng = np.random.default_rng(10)
    h = 1e-3
    steps = np.concatenate([[0, 1, 2, 3000, 2047, 2048], rng.integers(0, 3001, size=14)])
    v0, v0p = rng.standard_normal((2, 6, steps.size))
    z, zp = verification._rk4_at_steps(v0, v0p, frame.jxi, h, steps)
    for i, k in enumerate(steps):
        want_z, want_zp = jacobi.jacobi_numeric(v0[:, i], v0p[:, i], frame.jxi, k * h, h)
        assert np.max(np.abs(z[:, i] - want_z)) <= 1e-11
        assert np.max(np.abs(zp[:, i] - want_zp)) <= 1e-11


def test_propagator_blocks_reproduce_mode_functions():
    from chgeo.ambient import CurvatureModel

    model = CurvatureModel(3)
    nu = np.eye(6)[0]
    t = 1.7
    basis, ch, th, th_dt = jacobi.curvature_propagator(model, nu, t)
    assert basis.shape == (5, 6)
    assert np.allclose(basis @ basis.T, np.eye(5), atol=1e-15)
    assert np.max(np.abs(basis @ nu)) <= 1e-15
    lam = 0.45

    def value_and_derivative(v):
        # initial value v and derivative -lam v, in the eigenbasis of nu-perp
        w0, w0_dt = basis @ v, basis @ (-lam * v)
        return basis.T @ (ch * (w0 + th * w0_dt)), basis.T @ (ch * (th_dt * w0 + w0_dt))

    v = np.eye(6)[2]  # transverse to the J-line
    (f, _), (f_dt, _) = jacobi.coefficient_pairs(lam, t)
    value, derivative = value_and_derivative(v)
    assert np.linalg.norm(value - f * v) <= 1e-12
    assert np.linalg.norm(derivative - f_dt * v) <= 1e-12
    jn = np.eye(6)[1]
    value, derivative = value_and_derivative(jn)
    assert np.linalg.norm(value - (np.cosh(t) - lam * np.sinh(t)) * jn) <= 1e-12
    assert np.linalg.norm(derivative - (np.sinh(t) - lam * np.cosh(t)) * jn) <= 1e-12


@pytest.mark.parametrize("n", [2, 5])
def test_propagator_radius_axis_matches_scalar_calls(n):
    """A radius array stacks the scalar results bit for bit, signed zeros included."""
    from chgeo.ambient import CurvatureModel

    model = CurvatureModel(n)
    radii = [-0.0, 0.0, -1.3, 0.7, jacobi.EXCEPTIONAL_RADIUS]
    d = 2 * n
    for nu in np.eye(d)[:3]:
        basis, *stacked = jacobi.curvature_propagator(model, nu, np.array(radii))
        for j, t in enumerate(radii):
            single_basis, *single = jacobi.curvature_propagator(model, nu, t)
            assert single_basis.tobytes() == basis.tobytes()
            for got, want in zip(stacked, single):
                assert got.shape == (len(radii), d - 1)
                assert want.shape == (d - 1,)
                assert got[j].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# transversal map
# ---------------------------------------------------------------------------


def test_zero_distance_is_identity(iso_profile):
    focal = jacobi.transversal_map(iso_profile, 0.0)
    assert focal.kernel_dim == 0
    assert np.array_equal(focal.d_block, np.eye(2))
    assert np.array_equal(focal.f, np.ones(len(focal.frame.basis) - 2))


def test_repeated_carrier_collapse(iso_profile):
    focal = jacobi.transversal_map(iso_profile, R_STAR)
    nine = 9.0 * focal.d_block
    assert nine[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert nine[0, 1] == pytest.approx(SQ2, abs=1e-12)
    assert nine[1, 0] == pytest.approx(4.0 * SQ2 - 2.0 * SQ3, abs=1e-12)
    assert nine[1, 1] == pytest.approx(2.0 + 4.0 * SQ6, abs=1e-12)
    assert focal.kernel_dim == iso_profile.multiplicity(SQ3 / 2.0) - 1
    assert focal.rank == 4
    assert focal.image_codim == iso_profile.multiplicity(SQ3 / 2.0)
    svals = focal.singular_values
    assert np.sum(svals <= 1e-12) == focal.kernel_dim
    assert svals[svals > 1e-12].min() >= 0.1


@pytest.mark.parametrize("r", [700.0, -700.0, math.nan])
def test_transversal_map_rejects_distance_out_of_range(iso_profile, r):
    with pytest.raises(ValueError, match="out of range"):
        jacobi.transversal_map(iso_profile, r)


def test_transversal_map_rejects_axis_curvature_off_the_equidistants():
    # |lam3| >= 1/2 has no distance to the minimal orbit to bound
    hopf = HopfAttitude(b1=0.6, b2=0.8, lam1=0.0, lam2=1.0)
    profile = PrincipalProfile(
        entries=((0.0, 1), (0.75, 3), (1.0, 1)), total_dim=5, hopf=hopf
    )
    with pytest.raises(ValueError, match="outside"):
        jacobi.transversal_map(profile, 1.0)


@pytest.mark.parametrize(
    "n, lam3", [(n, lam3) for lam3 in (0.2, -0.3) for n in (3, 5)] + [(4, None)]
)
def test_transversal_map_shares_the_field_columns(n, lam3):
    """The basis fields are blockdiag(D, diag f) times the basis, derivatives likewise."""
    if lam3 is None:  # case i at the exceptional radius, m1 = 3
        profile = classifier.branch_profile(classifier.solve_case_one(), n, m1=3)
        r = R_STAR
    else:
        profile = classifier.branch_profile(classifier.solve_case_two(lam3).branch, n)
        r = 2.0 * math.atanh(2.0 * lam3)
    focal = jacobi.transversal_map(profile, r)
    frame = focal.frame
    fields = jacobi.jacobi_field(frame, frame.basis, focal.r)
    blocks = ((focal.d_block, focal.f), (focal.d_block_dt, focal.f_dt))
    m = len(frame.basis)
    for field, (block, diagonal) in zip(fields, blocks):
        expected = np.zeros((m, m))
        expected[:2, :2], expected[2:, 2:] = block, np.diag(diagonal)
        assert np.max(np.abs(field - expected @ frame.basis)) <= 1e-14


def _grid_jobs():
    jobs = []
    for lam3 in verification.case_two_grid():
        branch = classifier.solve_case_two(float(lam3)).branch
        jobs.append((classifier.branch_profile(branch, 3), 2.0 * math.atanh(2.0 * lam3)))
    return jobs


FOCAL_FIELDS = (
    "r", "f", "f_dt", "singular_values", "kernel_dim", "d_block", "d_block_dt", "c_reason"
)


def _assert_same_focal(stacked, alone):
    for name in FOCAL_FIELDS:
        got, want = getattr(stacked, name), getattr(alone, name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        else:
            assert got == want and type(got) is type(want), name
    assert stacked.frame.basis.tobytes() == alone.frame.basis.tobytes()
    assert stacked.frame.lambdas.tobytes() == alone.frame.lambdas.tobytes()
    if alone.c_reason is None:
        assert stacked.c_block.tobytes() == alone.c_block.tobytes()


def test_stacked_transversal_maps_equal_the_one_job_calls():
    jobs = _grid_jobs()
    stacked = jacobi.transversal_maps(jobs)
    assert len(stacked) == len(jobs) == 97
    for focal, (profile, r) in zip(stacked, jobs):
        _assert_same_focal(focal, jacobi.transversal_map(profile, r))


def test_stacked_transversal_maps_keep_kernels_and_singular_blocks():
    # the case-i collapse (kernels of dimension 1 and 2) next to a regular
    # job, and a job whose carrier block is singular
    iso = classifier.solve_case_one()
    jobs = [
        (classifier.branch_profile(iso, 4, m1=2), R_STAR),
        (classifier.branch_profile(classifier.solve_case_two(0.2).branch, 4), 1.0),
        (classifier.branch_profile(iso, 4, m1=3), R_STAR),
    ]
    for focal, (profile, r) in zip(jacobi.transversal_maps(jobs), jobs):
        _assert_same_focal(focal, jacobi.transversal_map(profile, r))
    lam1 = 1.0 / math.tanh(1.0)
    hopf = HopfAttitude(b1=1.0, b2=0.0, lam1=lam1, lam2=2.0 * lam1)
    singular = PrincipalProfile(
        entries=((0.0, 3), (lam1, 1), (2.0 * lam1, 1)), total_dim=5, hopf=hopf
    )
    regular = classifier.branch_profile(classifier.solve_case_two(-0.3).branch, 3)
    focals = jacobi.transversal_maps([(regular, 1.0), (singular, 1.0), (regular, -0.5)])
    assert [f.c_reason is None for f in focals] == [True, False, True]
    with pytest.raises(FocalPointError):
        _ = focals[1].c_block
    _assert_same_focal(focals[2], jacobi.transversal_map(regular, -0.5))


@pytest.mark.parametrize("bad_r", [700.0, math.nan])
def test_stacked_transversal_maps_name_the_rejected_job(bad_r):
    jobs = _grid_jobs()[:5]
    profile, _ = jobs[3]
    jobs[3] = (profile, bad_r)
    lam3 = profile.axis_value()
    with pytest.raises(ValueError, match="out of range") as info:
        jacobi.transversal_maps(jobs)
    assert f"distance {bad_r}" in str(info.value)
    assert f"lam3={lam3}" in str(info.value)


def test_stacked_transversal_maps_name_the_job_off_the_equidistants():
    hopf = HopfAttitude(b1=0.6, b2=0.8, lam1=0.0, lam2=1.0)
    off = PrincipalProfile(entries=((0.0, 1), (0.75, 3), (1.0, 1)), total_dim=5, hopf=hopf)
    jobs = _grid_jobs()[:2] + [(off, 1.0)]
    with pytest.raises(ValueError, match="axis curvature 0.75 lies outside .* at distance 1.0"):
        jacobi.transversal_maps(jobs)


def test_stacked_kernel_gap_guard_names_its_job(monkeypatch):
    iso = classifier.solve_case_one()
    jobs = [
        (classifier.branch_profile(classifier.solve_case_two(0.2).branch, 4), 1.0),
        (classifier.branch_profile(iso, 4, m1=3), R_STAR),
    ]
    monkeypatch.setattr(jacobi, "KERNEL_GAP", 10.0)
    with pytest.raises(ValidationError, match=f"at distance {R_STAR}, lam3={iso.lambda3}"):
        jacobi.transversal_maps(jobs)


def test_stacked_transversal_maps_need_one_dimension():
    branch = classifier.solve_case_two(0.2).branch
    jobs = [(classifier.branch_profile(branch, n), 0.5) for n in (3, 4)]
    with pytest.raises(ValidationError, match="one complex dimension"):
        jacobi.transversal_maps(jobs)
    assert jacobi.transversal_maps([]) == []


def _dense_reference(focal):
    """Singular values and image spectrum of the map as a dense matrix.

    phi holds the jacobi_field values of the frame basis as columns;
    with phi = U diag(s) V^T and p the singular values above KERNEL_TOL,
    the image shape operator is S = -(U_p^T phi_dt) V_p / s_p.
    """
    frame = focal.frame
    value, deriv = jacobi.jacobi_field(frame, frame.basis, focal.r)
    phi, phi_dt = value.T, deriv.T
    U, s, Vt = np.linalg.svd(phi, full_matrices=False)
    p = int(np.sum(s > jacobi.KERNEL_TOL))
    if focal.c_reason is not None:
        return s, p, None
    S = -(U[:, :p].T @ phi_dt) @ Vt[:p].T / s[:p]
    return s, p, merge_spectrum(np.linalg.eigvalsh(0.5 * (S + S.T)))


def _assert_same_spectrum(got, want, tol=1e-12):
    assert [m for _, m in got] == [m for _, m in want]
    assert np.max(np.abs(np.subtract([v for v, _ in got], [v for v, _ in want]))) <= tol


def test_block_route_matches_the_dense_map():
    iso = classifier.solve_case_one()
    focals = []
    for n in (3, 5, 8):
        jobs = []
        for lam3 in verification.case_two_grid():
            profile = classifier.branch_profile(classifier.solve_case_two(float(lam3)).branch, n)
            jobs += [(profile, r) for r in (2.0 * math.atanh(2.0 * lam3), 1.0, -2.0, 5.0)]
        focals += jacobi.transversal_maps(jobs)
    for (n, m1), r in itertools.product(((3, 2), (4, 2), (4, 3), (6, 5), (8, 4)), (R_STAR, 1.3)):
        focals.append(jacobi.transversal_map(classifier.branch_profile(iso, n, m1=m1), r))
    assert len(focals) == 1174
    for focal in focals:
        s, p, spectrum = _dense_reference(focal)
        got = focal.singular_values
        assert np.max(np.abs(got - s) / np.maximum(s, 1.0)) <= 1e-12
        assert focal.rank == p
        if spectrum is not None:
            _assert_same_spectrum(jacobi.image_shape_operator(focal).entries, spectrum)


def _assert_image_is_orbit(focal, k):
    """The focal image has the spectrum of the Koszul orbit W^{2n-k} in every normal."""
    alg = solvable.build_algebra(focal.frame.n)
    orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, k))
    assert orbit.dim == focal.rank
    entries = jacobi.image_shape_operator(focal).entries
    total = orbit.normal.sum(axis=0)
    for xi in [*orbit.normal, total / np.linalg.norm(total)]:
        orbit_entries = merge_spectrum(np.linalg.eigvalsh(orbit.shape_operator(xi)))
        _assert_same_spectrum(entries, orbit_entries)


@pytest.mark.parametrize("n", range(3, 9))
def test_case_one_focal_image_is_the_ruled_orbit(n):
    iso = classifier.solve_case_one()
    for m1 in range(2, n):
        focal = jacobi.transversal_map(classifier.branch_profile(iso, n, m1=m1), R_STAR)
        _assert_image_is_orbit(focal, m1)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_case_two_focal_image_is_the_ruled_orbit(n):
    for lam3 in (-0.4, -0.2, 0.1, 0.3, 0.45):
        profile = classifier.branch_profile(classifier.solve_case_two(lam3).branch, n)
        _assert_image_is_orbit(jacobi.transversal_map(profile, 2.0 * math.atanh(2.0 * lam3)), 1)


def _mult_near(entries, lam, tol=1e-9):
    return next(m for value, m in entries if abs(value - lam) <= tol)


def test_repeated_carrier_collapse_larger_multiplicity():
    profile = classifier.branch_profile(classifier.solve_case_one(), 4, m1=3)
    focal = jacobi.transversal_map(profile, R_STAR)
    assert focal.kernel_dim == 2
    assert focal.image_codim == 3
    image = jacobi.image_shape_operator(focal)
    assert _mult_near(image.entries, 0.0) == 2 * 4 - 3 - 2
    assert sum(m for _, m in image.entries) == focal.rank


def test_image_shape_block(iso_profile):
    focal = jacobi.transversal_map(iso_profile, R_STAR)
    image = jacobi.image_shape_operator(focal)
    expected = np.array([[4.0 * SQ2, -7.0], [-7.0, -4.0 * SQ2]]) / 18.0
    assert np.max(np.abs(image.carrier_block - expected)) <= 1e-12
    eig = np.sort(np.linalg.eigvalsh(image.carrier_block))
    assert np.allclose(eig, [-0.5, 0.5], atol=1e-12)
    assert abs(image.axis_rate) <= 1e-12
    assert sorted(dict(image.entries)) == pytest.approx([-0.5, 0.0, 0.5], abs=1e-12)
    assert sum(m for _, m in image.entries) == focal.rank


def test_carrier_block_is_symmetric_and_similar_to_c_block():
    # carrier_block = -D^-1 D_dt is the image shape operator in an orthonormal
    # carrier basis; c_block = -D_dt D^-1 = D carrier_block D^-1 is not symmetric
    jobs = []
    for lam3 in verification.case_two_grid():
        branch = classifier.solve_case_two(float(lam3)).branch
        profile = classifier.branch_profile(branch, 3)
        jobs += [(profile, r) for r in (2.0 * math.atanh(2.0 * lam3), 1.0, -2.0, 5.0)]
    focals = jacobi.transversal_maps(jobs)
    iso = classifier.solve_case_one()
    for n, m1 in ((3, 2), (4, 2), (4, 3), (6, 5)):
        focals.append(jacobi.transversal_map(classifier.branch_profile(iso, n, m1=m1), R_STAR))
    for focal in focals:
        block = jacobi.image_shape_operator(focal).carrier_block
        D = focal.d_block
        assert np.max(np.abs(block - block.T)) <= 1e-12
        assert np.max(np.abs(np.linalg.inv(D) @ focal.c_block @ D - block)) <= 1e-12


@pytest.mark.parametrize(
    "lam3",
    [s * 0.05 * j for j in range(1, 10) for s in (1.0, -1.0)],
)
def test_carrier_block_identities(lam3):
    branch = classifier.solve_case_two(lam3).branch
    r = 2.0 * math.atanh(2.0 * lam3)
    focal = jacobi.transversal_map(classifier.branch_profile(branch, 3), r)
    sech = 1.0 / math.cosh(r / 2.0)
    assert abs(focal.det_d - sech**3) <= 1e-10
    C = focal.c_block
    assert abs(np.trace(C)) <= 1e-10
    assert abs(np.linalg.det(C) + 0.25) <= 1e-10
    eig = np.sort(np.linalg.eigvals(C).real)
    assert np.allclose(eig, [-0.5, 0.5], atol=1e-9)


def test_block_determinant_is_stationary_at_matched_distance():
    lam3 = 0.3
    branch = classifier.solve_case_two(lam3).branch
    profile = classifier.branch_profile(branch, 3)
    r = 2.0 * math.atanh(2.0 * lam3)
    h = 1e-4
    det_plus = jacobi.transversal_map(profile, r + h).det_d
    det_minus = jacobi.transversal_map(profile, r - h).det_d
    assert abs((det_plus - det_minus) / (2.0 * h)) <= 1e-6


def test_image_spectrum_of_parametric_branch():
    lam3 = 0.2
    branch = classifier.solve_case_two(lam3).branch
    r = 2.0 * math.atanh(2.0 * lam3)
    focal = jacobi.transversal_map(classifier.branch_profile(branch, 3), r)
    image = jacobi.image_shape_operator(focal)
    assert [m for _, m in image.entries] == [1, 3, 1]
    assert [lam for lam, _ in image.entries] == pytest.approx(
        [-0.5, 0.0, 0.5], abs=1e-10
    )
    assert sum(m for _, m in image.entries) == focal.rank


def test_signed_distance_supported():
    lam3 = -0.2
    branch = classifier.solve_case_two(lam3).branch
    r = 2.0 * math.atanh(2.0 * lam3)
    assert r < 0
    focal = jacobi.transversal_map(classifier.branch_profile(branch, 3), r)
    image = jacobi.image_shape_operator(focal)
    assert sorted(dict(image.entries)) == pytest.approx([-0.5, 0.0, 0.5], abs=1e-10)


def test_singular_carrier_block_reports_focal_point():
    """A fully one-sided projection can make the carrier block singular.

    With the whole J-image on one carrier of curvature coth(1), the
    carrier entry is the axis coefficient cosh(t) - coth(1) sinh(t),
    which vanishes at distance one.
    """
    lam1 = 1.0 / math.tanh(1.0)
    entries = ((0.0, 3), (lam1, 1), (2.0 * lam1, 1))
    hopf = HopfAttitude(b1=1.0, b2=0.0, lam1=lam1, lam2=2.0 * lam1)
    profile = PrincipalProfile(entries=entries, total_dim=5, hopf=hopf)
    focal = jacobi.transversal_map(profile, 1.0)
    assert focal.kernel_dim == 1
    with pytest.raises(FocalPointError):
        _ = focal.c_block
    with pytest.raises(FocalPointError):
        jacobi.image_shape_operator(focal)


def test_frame_requires_carrier_data():
    profile = PrincipalProfile(entries=((0.0, 3), (1.0, 1), (2.0, 1)), total_dim=5)
    with pytest.raises(ValidationError):
        jacobi.normal_frame(profile)


def test_frame_rejects_inconsistent_multiplicities():
    hopf = HopfAttitude(b1=0.6, b2=0.8, lam1=1.0, lam2=2.0)
    profile = PrincipalProfile(
        entries=((0.0, 1), (1.0, 3), (2.0, 1)), total_dim=5, hopf=hopf
    )
    with pytest.raises(ValidationError):
        jacobi.normal_frame(profile)

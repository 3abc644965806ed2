import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
import regen_cli_golden
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chgeo import cli

SQ2 = math.sqrt(2.0)


def _clean_env():
    # a CHGEO_SEED exported by the caller's shell must not reach the tests;
    # a test that wants one passes its own env
    return {k: v for k, v in os.environ.items() if k != "CHGEO_SEED"}


def run_cli(*args, env=None):
    """``chgeo *args`` in this process, with the result of a subprocess run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, _clean_env() if env is None else env, clear=True):
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli.run(list(args))
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


def run_cli_subprocess(*args):
    return subprocess.run(
        [sys.executable, "-m", "chgeo", *args],
        capture_output=True,
        text=True,
        env=_clean_env(),
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_json_document():
    proc = run_cli("--format", "json", "catalog", "--n", "3")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "chgeo/1"
    letters = {e.get("classification_family") for e in doc["entries"]} - {None}
    assert letters == {"a", "b", "c", "d"}
    g2 = [e for e in doc["entries"] if e["g"] == 2]
    assert len(g2) == 4
    for entry in doc["entries"]:
        for lam, mult in entry["profile"]:
            assert isinstance(lam, float) and isinstance(mult, int)


@pytest.mark.parametrize(
    "args",
    [
        ("catalog", "--n", "3"),
        ("classify", "--lambda3", "0.2"),
        ("classify", "--case", "i"),
        ("sweep", "--lo", "-0.1", "--hi", "0.1", "--step", "0.1"),
        ("focal", "--case", "ii", "--lambda3", "0.3"),
        ("focal", "--case", "ii", "--lambda3", "0.55"),  # excluded: no result
        ("verify",),
    ],
)
def test_every_json_document_names_its_schema_and_command(args):
    proc = run_cli("--format", "json", *args)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "chgeo/1"
    assert doc["command"] == args[0]


def test_catalog_emits_symbolic_tags():
    proc = run_cli("--format", "json", "catalog", "--n", "3")
    doc = json.loads(proc.stdout)
    ruled = next(e for e in doc["entries"] if e["family"] == "ruled-W")
    assert "1/2" in ruled["profile_symbols"]
    critical = next(e for e in doc["entries"] if e["family"] == "tube-Wk")
    assert critical["r"]["symbol"] == "ln(2+sqrt(3))"


def test_catalog_open_case_note():
    proc = run_cli("--format", "json", "catalog", "--n", "2")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert any("open" in note for note in doc["notes"])
    assert all(e["g"] == 2 for e in doc["entries"])


def test_catalog_rejects_bad_dimension():
    proc = run_cli("catalog", "--n", "1")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_catalog_csv_layout():
    proc = run_cli("--format", "csv", "catalog", "--n", "3")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "family,n,k,r,lambda,mult"
    assert all(len(line.split(",")) == 6 for line in lines[1:])


@pytest.mark.parametrize("radius", ["0", "-1", "-0.0"])
def test_catalog_rejects_non_positive_radius(radius):
    # r = 0 used to be replaced by the default r = 1 without a word
    proc = run_cli("--format", "json", "catalog", "--n", "3", "--r", radius)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--r > 0" in proc.stderr


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_catalog_rejects_non_finite_radius(radius):
    proc = run_cli("--format", "json", "catalog", "--n", "3", "--r", radius)
    assert proc.returncode == 2
    assert "argument --r: must be a finite number" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_catalog_focal_radius_is_usage_error():
    # a FocalRadiusError used to end in a traceback with exit 1
    proc = run_cli("--format", "json", "catalog", "--n", "3", "--r", "1e-12")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: tube differential degenerates at distance 1e-12\n"


def test_catalog_at_the_radius_cap_is_a_usage_error_naming_the_family():
    # at the cap two curvatures of the tube around CH^5 lie within MERGE_TOL
    proc = run_cli("--format", "json", "catalog", "--n", "8", "--r", "21.41641301750635")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: catalog family tube-CHk (k = 5), the tube at distance 21.41641301750635: "
        "principal curvatures -0.5000000005 and -0.49999999950000007 lie within MERGE_TOL"
    )
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("catalog", "--n", "101"),
        ("catalog", "--n", "100000"),
        ("focal", "--case", "ii", "--n", "100000", "--lambda3", "0.2"),
        ("focal", "--case", "i", "--n", "101"),
    ],
    ids=["catalog-101", "catalog-100000", "focal-ii-100000", "focal-i-101"],
)
def test_dimension_above_cap_is_usage_error(args):
    # n = 100000 used to try to allocate 298 GiB; nothing is built now
    with mock.patch.object(cli.families, "catalog") as catalog, mock.patch.object(
        cli.jacobi, "transversal_map"
    ) as transversal_map:
        proc = run_cli("--format", "json", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --n must be at most 100, got ")
    catalog.assert_not_called()
    transversal_map.assert_not_called()


# ---------------------------------------------------------------------------
# classify / sweep / focal
# ---------------------------------------------------------------------------


def test_classify_zero_axis():
    proc = run_cli("--format", "json", "classify", "--lambda3", "0.0")
    doc = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert doc["lambda1"]["value"] == pytest.approx(-0.5, abs=1e-14)
    assert doc["lambda2"]["value"] == pytest.approx(0.5, abs=1e-14)
    assert doc["lambda1"]["symbol"] == "-1/2"


def test_classify_exclusion_is_success_with_reason():
    proc = run_cli("--format", "json", "classify", "--lambda3", "0.55")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["branch"] is None
    assert "ellipse" in doc["reason"]


@pytest.mark.parametrize(
    "args",
    [
        ("classify", "--lambda3", "1e300"),
        ("classify", "--lambda3=-1e300"),
        ("focal", "--case", "ii", "--lambda3", "1e300"),
    ],
    ids=["classify", "classify-negative", "focal"],
)
def test_huge_lambda3_has_no_real_intersection(args):
    # lam3**2 used to overflow with a traceback
    proc = run_cli("--format", "json", *args)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["reason"] == "no real intersection (3 lam3^2 exceeds 1)"


def test_classify_isolated_case():
    proc = run_cli("--format", "json", "classify", "--case", "i")
    doc = json.loads(proc.stdout)
    assert doc["case"] == "i"
    assert doc["lambda1"]["symbol"] == "sqrt(3)/2"
    assert doc["b1sq"]["symbol"] == "8/9"
    assert doc["b2sq"]["symbol"] == "1/9"


@pytest.mark.parametrize("value", ["0.499999", "-0.499999"])
def test_branch_weights_are_never_tagged_zero_or_one(value):
    # a branch exists only while both weights lie strictly inside (0, 1),
    # even when one of them is within 1e-12 of an end
    doc = json.loads(run_cli("--format", "json", "classify", f"--lambda3={value}").stdout)
    weights = [doc["b1sq"], doc["b2sq"]]
    assert min(w["value"] for w in weights) < 1e-12
    assert all(0.0 < w["value"] < 1.0 and w["symbol"] is None for w in weights)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_classify_rejects_non_finite_lambda3(value):
    proc = run_cli("--format", "json", "classify", f"--lambda3={value}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --lambda3: must be a finite number" in proc.stderr


def test_sweep_far_outside_the_window():
    proc = run_cli(
        "--format", "json", "sweep", "--lo", "1e300", "--hi", "1e300", "--step", "1"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [o["reason"] for o in doc["outcomes"]] == [
        "no real intersection (3 lam3^2 exceeds 1)"
    ]


def test_sweep_csv():
    # the second grid crosses the exclusion window at lambda3 = 1/2
    for lo, hi, points, excluded in (("-0.4", "0.4", 9, 0), ("0.4", "0.6", 3, 2)):
        proc = run_cli("--format", "csv", "sweep", "--lo", lo, "--hi", hi, "--step", "0.1")
        lines = proc.stdout.strip().splitlines()
        # header + one row per grid point + the isolated row
        assert len(lines) == points + 2
        assert lines[-1].startswith("i,")
        rows = list(csv.DictReader(lines))
        assert sum(row["reason"] != "" for row in rows) == excluded
        for row in rows:
            cells = [row[key] for key in ("lambda1", "lambda2", "b1sq", "b2sq")]
            outcome = cli.classifier.solve_case_two(float(row["lambda3"]))
            if row["case"] == "ii" and outcome.branch is None:
                assert cells == ["", "", "", ""]
                assert row["reason"] == outcome.reason
            else:
                assert "" not in cells
                assert row["reason"] == ""


@pytest.mark.parametrize(
    "bounds",
    [
        ("--lo", "0.4", "--hi", "-0.4", "--step", "0.1"),  # used to give an empty grid
        ("--lo", "-0.4", "--hi", "0.4", "--step=-0.1"),
        ("--lo", "-0.45", "--hi", "0.45", "--step", "1e-6"),  # 900 001 points
        ("--lo=-1e308", "--hi", "1e308", "--step", "1e308"),  # hi - lo overflows
        # (hi - lo)/step falls within the slack below 1, so the last point,
        # lo + step, passes --hi = the largest float and overflows
        ("--lo", "7.9769313534e307", "--hi", "1.7976931348623157e308", "--step", "1e308"),
    ],
)
def test_sweep_rejects_empty_or_oversized_grid(bounds):
    proc = run_cli("--format", "json", "sweep", *bounds)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: sweep" in proc.stderr


@pytest.mark.parametrize(
    "lo, step, count",
    # the huge count used to print as a 300-digit integer; one point over
    # the cap must still read as one over
    [("-0.4", "1e-300", "8e+299"), ("-0.6", "1e-4", "10001")],
)
def test_sweep_names_its_point_count_briefly(lo, step, count):
    proc = run_cli("sweep", "--lo", lo, "--hi", "0.4", "--step", step)
    assert proc.returncode == 2
    assert proc.stdout == ""
    message = f"error: sweep grid would have {count} points; at most 10000 are allowed"
    assert proc.stderr.strip() == message


@pytest.mark.parametrize(
    "hi, grid",
    [("0.16", [0.0, 0.1]), ("0.3", [0.0, 0.1, 0.2, 0.30000000000000004])],
)
def test_sweep_grid_stops_at_hi(hi, grid):
    # 0.16 used to round up to a third point, 0.2; 0.3 / 0.1 rounds to just below 3
    proc = run_cli("--format", "json", "sweep", "--lo", "0", "--hi", hi, "--step", "0.1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["grid"] == grid


def test_focal_isolated_report():
    proc = run_cli("--format", "json", "focal", "--case", "i", "--n", "3")
    doc = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert doc["kernel_dim"] == 1
    assert doc["image_codim"] == 2
    block = doc["carrier_block"]
    assert block[0][0] == pytest.approx(4.0 * SQ2 / 18.0, abs=1e-12)
    assert block[0][1] == pytest.approx(-7.0 / 18.0, abs=1e-12)


def test_focal_parametric_report():
    proc = run_cli("--format", "json", "focal", "--case", "ii", "--lambda3", "0.2")
    doc = json.loads(proc.stdout)
    assert doc["kernel_dim"] == 0
    lams = sorted(item["lambda"]["value"] for item in doc["image_spectrum"])
    assert lams == pytest.approx([-0.5, 0.0, 0.5], abs=1e-10)


def test_focal_excluded_window_reports_reason():
    proc = run_cli("--format", "json", "focal", "--case", "ii", "--lambda3", "0.55")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"] is None
    assert "ellipse" in doc["reason"]


@pytest.mark.parametrize(
    "args, message",
    [
        (("--n", "0"), "--n >= 3"),
        (("--k", "0"), "multiplicity must lie in"),
    ],
    ids=["n=0", "k=0"],
)
def test_focal_rejects_zero_instead_of_defaulting(args, message):
    # 0 used to be replaced by the default (n = 3, m1 = 2) without a word
    proc = run_cli("--format", "json", "focal", "--case", "i", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("focal", "--case", "x")
    assert proc.returncode == 2


_CLI_GOLDENS = json.loads(regen_cli_golden.GOLDENS.read_text())


def test_cli_goldens_cover_their_commands():
    assert [case["args"] for case in _CLI_GOLDENS] == regen_cli_golden.COMMANDS


@pytest.mark.parametrize(
    "case", _CLI_GOLDENS, ids=[" ".join(case["args"]) for case in _CLI_GOLDENS]
)
def test_cli_json_matches_its_golden(case):
    # every field's JSON text, so every float bit for bit; regen_cli_golden.py names what moved
    proc = run_cli("--format", "json", *case["args"])
    assert proc.returncode == 0
    new = {"args": case["args"], "doc": json.loads(proc.stdout)}
    assert regen_cli_golden.moved([case], [new]) == []


# ---------------------------------------------------------------------------
# radius limits
# ---------------------------------------------------------------------------

CATALOG = ("catalog", "--n", "3")
FOCAL = ("focal", "--case", "ii", "--n", "3", "--lambda3", "0.2")


@pytest.mark.parametrize(
    "args, code, message",
    [
        # two curvatures of one family merge
        ((*CATALOG, "--r=1e-9"), 2, "geodesic-sphere at r = 1e-09 has g = 1, not 2"),
        ((*CATALOG, "--r=1.3169578981248167"), 2, "tube-RHn at r = 1.3169578981248167"),
        # the equidistant keeps its two carriers, its smaller weight 1.7e-13 at r = 21
        ((*CATALOG, "--r=14"), 0, ""),
        ((*CATALOG, "--r=21"), 0, ""),
        # past MAX_RADIUS two tube curvatures come closer than the merge gap
        (
            (*CATALOG, "--r=22"),
            2,
            "tube radius 22.0 is out of range: |r| must be finite and at most 21.4164",
        ),
        # and further out the engine would degenerate or overflow in cosh
        ((*CATALOG, "--r=100"), 2, "tube radius 100.0 is out of range"),
        ((*CATALOG, "--r=800"), 2, "tube radius 800.0 is out of range"),
        # or builds carrier blocks whose spectra disagree in the third digit
        ((*FOCAL, "--r=700"), 2, "distance 700.0 is out of range"),
        ((*FOCAL, "--r=-700"), 2, "distance -700.0 is out of range"),
        ((*CATALOG, "--r=13.5"), 0, ""),
        ((*FOCAL, "--r=20"), 0, ""),
        ((*FOCAL, "--r=-20"), 0, ""),
    ],
    ids=[
        "catalog-1e-9",
        "catalog-R*+1.2e-9",
        "catalog-14",
        "catalog-21",
        "catalog-22",
        "catalog-100",
        "catalog-800",
        "focal-700",
        "focal-minus-700",
        "catalog-13.5",
        "focal-20",
        "focal-minus-20",
    ],
)
def test_radius_limits(args, code, message):
    proc = run_cli("--format", "json", *args)
    assert proc.returncode == code
    assert message in proc.stderr
    assert (proc.stdout == "") == (code == 2)


@pytest.mark.parametrize(
    "args, g",
    [
        (("focal", "--case", "ii", "--lambda3", "0.2", "--r=-21"), None),
        (("focal", "--case", "i", "--n", "3", "--r=-20.5"), None),
        ((*FOCAL, "--r=-20"), 3),
    ],
    ids=["focal-ii-minus-21", "focal-i-minus-20.5", "focal-ii-minus-20"],
)
def test_focal_image_distance_bound(args, g):
    # past MAX_RADIUS from the minimal orbit the image curvatures merge
    proc = run_cli("--format", "json", *args)
    if g is None:
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "from the minimal orbit: at most 21.4164" in proc.stderr
    else:
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)["image_spectrum"]) == g


def _reject_constant(token):
    raise AssertionError(f"JSON output contains {token}")


def _assert_result_or_usage_error(*args):
    """Exit 0 with a JSON document, or exit 2 with an error line; no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        proc = run_cli("--format", "json", *args)
    assert not [str(w.message) for w in caught]
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        return json.loads(proc.stdout, parse_constant=_reject_constant)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    return None


RADII = st.floats() | st.floats(min_value=-25.0, max_value=25.0)


@given(r=RADII)
@example(r=1e-9)
@example(r=1.3169578981248167)
@example(r=13.5)
@example(r=14.0)
@example(r=18.0)
@example(r=21.0)
@example(r=22.0)
@example(r=100.0)
@example(r=800.0)
@settings(max_examples=100)
def test_catalog_radius_property(r):
    doc = _assert_result_or_usage_error(*CATALOG, f"--r={r!r}")
    if doc is not None:
        non_hopf = {e["family"] for e in doc["entries"] if not e["hopf"]}
        assert non_hopf == {"ruled-W", "equidistant-W", "tube-Wk"}


@given(r=RADII)
@example(r=700.0)
@example(r=-700.0)
@settings(max_examples=100)
def test_focal_radius_property(r):
    doc = _assert_result_or_usage_error(*FOCAL, f"--r={r!r}")
    if doc is not None and doc["c_block"] is not None:
        # -D' D^-1 and -D^-1 D' are similar: their spectra agree
        c_block = np.linalg.eigvals(doc["c_block"])
        carrier = np.linalg.eigvals(doc["carrier_block"])
        assert np.sort_complex(c_block) == pytest.approx(np.sort_complex(carrier), abs=1e-9)


@given(lam3=st.floats())
@example(lam3=5e-324)
@example(lam3=-0.0)
@example(lam3=0.49999999999)
@example(lam3=0.499999)
@example(lam3=1.0 / math.sqrt(3.0))
@example(lam3=1e300)
@example(lam3=math.nan)
@settings(max_examples=100)
def test_classify_lambda3_property(lam3):
    doc = _assert_result_or_usage_error("classify", f"--lambda3={lam3!r}")
    if doc is not None:
        assert ("lambda1" in doc) == (doc["reason"] is None)
        # the weights stay in (0, 1) on the whole window |lambda3| < 1/2
        if abs(lam3) < 0.5:
            assert not (doc["reason"] or "").startswith("ellipse exclusion")


@st.composite
def sweep_bounds(draw):
    """Any three floats, or a grid of at most 40 steps from any lo and step."""
    lo, step = draw(st.floats()), draw(st.floats())
    hi = draw(st.floats() | st.integers(0, 40).map(lambda k: lo + k * step))
    return lo, hi, step


def _small_or_rejected(lo, hi, step):
    """False for a grid of 65 to 10,000 points, which the test does not run."""
    if not (step > 0 and hi >= lo):
        return True
    return not 64 < (hi - lo) / step < 10_000


@given(bounds=sweep_bounds())
@example(bounds=(5e-324, 5e-324, 5e-324))
@example(bounds=(0.0, 2e-323, 5e-324))
@example(bounds=(-0.0, -0.0, 0.1))
@example(bounds=(-0.3, 0.3, -0.0))
@example(bounds=(0.49999999999, 0.5, 1e-11))
@example(bounds=(1.0 / math.sqrt(3.0), 0.6, 0.01))
@example(bounds=(-1e300, 1e300, 1e300))
@example(bounds=(1e300, 1e300, 1.0))
@example(bounds=(2.976931348623157e307, 1.7976931348623157e308, 1e308))
@example(bounds=(7.9769313534e307, 1.7976931348623157e308, 1e308))
@example(bounds=(0.0, 0.16, 0.1))
@example(bounds=(0.0, 0.3, 0.1))
@example(bounds=(math.nan, 0.5, 0.1))
@example(bounds=(-0.5, math.nan, 0.1))
@example(bounds=(-0.5, 0.5, math.nan))
@settings(max_examples=100)
def test_sweep_grid_property(bounds):
    lo, hi, step = bounds
    assume(_small_or_rejected(lo, hi, step))
    doc = _assert_result_or_usage_error("sweep", f"--lo={lo!r}", f"--hi={hi!r}", f"--step={step!r}")
    if doc is not None:
        grid = doc["grid"]
        assert len(doc["outcomes"]) == len(grid) <= 65
        # the grid stops at the last point <= hi, up to the rounding slack
        slack, rounding = cli._SWEEP_SLACK * step, 4.0 * math.ulp(max(abs(lo), abs(hi)))
        assert grid[-1] - hi <= slack + rounding
        assert lo + len(grid) * step - hi >= slack - rounding


@given(lam3=st.floats())
@example(lam3=0.0)
@example(lam3=5e-324)
@example(lam3=0.49999999999)
@example(lam3=-0.485)
@example(lam3=0.55)
@example(lam3=1e300)
@example(lam3=math.inf)
@settings(max_examples=100)
def test_focal_lambda3_property(lam3):
    doc = _assert_result_or_usage_error("focal", "--case", "ii", f"--lambda3={lam3!r}")
    if doc is not None and "result" not in doc:
        # at the default distance the image is the minimal orbit: three values
        assert [e["mult"] for e in doc["image_spectrum"]] == [1, 3, 1]


# running sizes stay at most 12; larger ones are rejected before anything is built
DIMENSIONS = st.integers(-5, 12) | st.integers(101, 10**30) | st.integers(-(10**30), -6)


@given(case=st.sampled_from(["i", "ii"]), n=DIMENSIONS)
@example(case="i", n=2)
@example(case="ii", n=3)
@example(case="i", n=101)
@example(case="ii", n=10**30)
@settings(max_examples=60)
def test_focal_dimension_property(case, n):
    lam3 = ("--lambda3", "0.2") if case == "ii" else ()
    doc = _assert_result_or_usage_error("focal", "--case", case, f"--n={n}", *lam3)
    assert (doc is not None) == (3 <= n <= 100)
    if doc is not None:
        assert doc["n"] == n and len(doc["singular_values"]) == 2 * n - 1


@given(case=st.sampled_from(["i", "ii"]), n=st.integers(3, 8), k=DIMENSIONS)
@example(case="i", n=4, k=3)
@example(case="i", n=4, k=4)
@example(case="i", n=3, k=1)
@example(case="ii", n=3, k=2)
@example(case="i", n=8, k=10**30)
@settings(max_examples=60)
def test_focal_multiplicity_property(case, n, k):
    lam3 = ("--lambda3", "0.2") if case == "ii" else ()
    doc = _assert_result_or_usage_error("focal", "--case", case, f"--n={n}", f"--k={k}", *lam3)
    assert (doc is not None) == (case == "i" and 2 <= k <= n - 1)
    if doc is not None:
        # the repeated carrier collapses: m1 - 1 directions in the kernel
        assert doc["kernel_dim"] == k - 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _without_timings(stdout):
    """The verify JSON without its ``timings``, the part that varies between runs."""
    doc = json.loads(stdout)
    timings = doc.pop("timings")
    assert set(timings) == set(cli.verification.suite_names())
    assert len(timings) == len(doc["suites"])
    assert all(seconds >= 0.0 for seconds in timings.values())
    return cli.render(doc, "json")


def test_verify_passes_and_is_deterministic():
    # one run in a fresh interpreter, so determinism holds across processes
    first = run_cli_subprocess("--seed", "7", "--format", "json", "verify")
    second = run_cli("--seed", "7", "--format", "json", "verify")
    assert first.returncode == 0
    assert _without_timings(first.stdout) == _without_timings(second.stdout)
    doc = json.loads(first.stdout)
    assert doc["passed"] is True
    assert len(doc["suites"]) >= 9


def test_verify_timings_stay_out_of_table_and_csv():
    stub = {"stub": (_stub_suite, 1e-10, "stub coverage")}
    with mock.patch.dict(cli.verification._SUITES, stub, clear=True):
        table = run_cli("verify").stdout
        csv_text = run_cli("--format", "csv", "verify").stdout
    assert table.splitlines() == [
        "[PASS] stub                       max residual 1.000e-12 (tol 1.0e-10) stub coverage",
        "all suites passed",
    ]
    assert csv_text.splitlines() == [
        "suite,passed,max_residual,tolerance",
        "stub,True,1e-12,1e-10",
    ]


def test_engine_error_in_a_suite_fails_that_suite_only(monkeypatch):
    # with the gap guard above every singular value, the collapse suite's
    # transversal map raises; the other suites still report
    monkeypatch.setattr(cli.jacobi, "KERNEL_GAP", 10)
    proc = run_cli("--format", "json", "verify")
    assert proc.returncode == 1
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert len(doc["suites"]) == 11
    failing = [s for s in doc["suites"] if not s["passed"]]
    assert [s["name"] for s in failing] == ["focal-collapse"]
    assert failing[0]["detail"].startswith(
        "raised ValidationError: singular values fall between the kernel threshold"
    )


def test_verify_overtight_tolerance_fails():
    proc = run_cli("--format", "json", "verify", "--tolerance", "1e-15")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    failing = [s for s in doc["suites"] if not s["passed"]]
    assert failing
    assert all(s["max_residual"] > 1e-15 for s in failing)


# tolerances that run every suite; any other draw runs one stub suite
REAL_VERIFY_TOLERANCES = (1e-17, 1e-15, 1e300)


def _stub_suite():
    return [(1e-12, "stub check")]


@given(tolerance=st.floats())
@example(tolerance=1e-17)
@example(tolerance=1e-15)
@example(tolerance=1e300)
@example(tolerance=-0.0)
@example(tolerance=-5e-324)
@example(tolerance=math.inf)
@example(tolerance=math.nan)
@settings(max_examples=100)
def test_verify_tolerance_property(tolerance):
    args = ("--format", "json", "verify", f"--tolerance={tolerance!r}")
    if tolerance in REAL_VERIFY_TOLERANCES:
        proc = run_cli(*args)
    else:
        stub = {"stub": (_stub_suite, 1e-10, "stub coverage")}
        with mock.patch.dict(cli.verification._SUITES, stub, clear=True):
            proc = run_cli(*args)
    assert "Traceback" not in proc.stderr
    if not (math.isfinite(tolerance) and tolerance >= 0):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr
        return
    doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert proc.returncode == (0 if doc["passed"] else 1)
    for suite in doc["suites"]:
        assert suite["tolerance"] == tolerance
        assert suite["passed"] == (suite["max_residual"] <= tolerance)
        if not suite["passed"]:
            # a suite failed by the override names its worst check, not its coverage
            value = f" ({suite['max_residual']:.3e})"
            assert suite["detail"].startswith("worst: ") and suite["detail"].endswith(value)
            assert suite["detail"][len("worst: "):-len(value)].strip()
    if tolerance == 1e-17:
        assert not doc["passed"]


def test_verify_rejects_negative_tolerance():
    # a negative tolerance used to fail every suite and exit 1
    proc = run_cli("--format", "json", "verify", "--tolerance", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "tolerance must be a finite number >= 0, got -1.0" in proc.stderr


def test_seed_environment_variable():
    env = dict(os.environ)
    env["CHGEO_SEED"] = "1234"
    with_env = run_cli("--format", "json", "verify", env=env)
    explicit = run_cli("--seed", "1234", "--format", "json", "verify")
    assert json.loads(with_env.stdout)["seed"] == 1234
    assert _without_timings(with_env.stdout) == _without_timings(explicit.stdout)


def test_seed_flag_beats_environment_variable():
    env = dict(os.environ)
    env["CHGEO_SEED"] = "1234"
    proc = run_cli("--seed", "7", "--format", "json", "verify", env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 7


@pytest.mark.parametrize("value", ["abc", ""])
def test_malformed_seed_environment_variable_is_usage_error(value):
    env = dict(os.environ)
    env["CHGEO_SEED"] = value
    proc = run_cli("verify", env=env)
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [("--seed=-1", "verify"), ("verify", "--seed", "-1")])
def test_negative_seed_flag_is_usage_error_naming_the_flag(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --seed: must be a non-negative integer, got '-1'" in proc.stderr


def test_negative_seed_environment_variable_is_usage_error_naming_it():
    env = dict(os.environ)
    env["CHGEO_SEED"] = "-5"
    proc = run_cli("--format", "json", "verify", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "CHGEO_SEED must be a non-negative integer, got '-5'" in proc.stderr


@pytest.mark.parametrize("seed", [0, 2**70])
def test_zero_and_very_large_seeds_run(seed):
    env = dict(os.environ)
    env["CHGEO_SEED"] = str(seed)
    from_env = run_cli("--format", "json", "verify", env=env)
    from_flag = run_cli("--seed", str(seed), "--format", "json", "verify")
    assert from_flag.returncode == 0
    assert json.loads(from_flag.stdout)["seed"] == seed
    assert _without_timings(from_env.stdout) == _without_timings(from_flag.stdout)


def test_global_flags_accepted_after_subcommand():
    before = run_cli("--seed", "7", "--format", "json", "verify")
    after = run_cli("verify", "--seed", "7", "--format", "json")
    assert after.returncode == 0
    assert _without_timings(after.stdout) == _without_timings(before.stdout)


def test_default_format_is_table():
    proc = run_cli("catalog", "--n", "3")
    assert proc.returncode == 0
    first = proc.stdout.splitlines()[0]
    assert first.startswith("horosphere ")
    assert "  g=2  hopf  [" in first


def test_closed_pipe_ends_quietly():
    # a document far larger than a pipe buffer, read one line and dropped
    args = ["sweep", "--lo", "-0.45", "--hi", "0.45", "--step", "0.001"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "chgeo", "--format", "json", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_clean_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr


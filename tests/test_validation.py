import pytest

import gausspack as g

_FREE = {"hbar": 1.0, "mass": 1.0, "alpha": 1.0, "x0": 0.3, "p0": 1.2, "t": 1.5}
_ACCEL = {"hbar": 1.0, "mass": 1.0, "alpha": 0.8, "x0": 0.0, "p0": -0.6, "t": 1.2,
          "force": 0.8}
_SHO = {"hbar": 1.0, "mass": 1.0, "alpha": 0.7, "x0": 0.0, "p0": 1.1, "t": 0.9,
        "omega": 1.3}
_INVERTED = {"hbar": 1.0, "mass": 1.0, "alpha": 0.9, "x0": 0.0, "p0": 0.7, "t": 1.1,
             "omega_tilde": 0.8}
_CASES = (("free", _FREE), ("accel", _ACCEL), ("sho", _SHO), ("inverted", _INVERTED))

# (name, system, params, tol) of every check in report order; the oracle
# values are left out, since quadrature and FFT bits may vary by machine.
SUITE = [
    (f"{family}-{system}", system, params, tol)
    for family, tol in (("normalization", 1e-9), ("ibp", 1e-8), ("halves", 1e-8),
                        ("splitstep", 1e-6))
    for system, params in _CASES
] + [
    ("reduction-sho", "sho", {"hbar": 1.0, "mass": 1.0, "alpha": 1.0, "x0": 0.0,
                              "p0": 1.2, "t": 1.0, "omega": 1e-6}, 1e-5),
    ("reduction-accel", "accel", {"hbar": 1.0, "mass": 1.0, "alpha": 1.0, "x0": 0.0,
                                  "p0": 1.2, "t": 1.0, "force": 1e-6}, 1e-5),
]


@pytest.fixture(scope="module")
def suite():
    return g.run_checks()


def test_suite_runs_every_check_in_order(suite):
    got = [(r.name, r.system, r.params, r.tol) for r in suite]
    assert got == SUITE
    for r, (_, _, params, _) in zip(suite, SUITE):
        assert list(r.params) == list(params)


def test_default_suite_passes(suite):
    results = suite
    assert len(results) == 18
    assert all(r.passed for r in results)
    kinds = {r.name.split("-")[0] for r in results}
    assert {"normalization", "ibp", "halves", "splitstep", "reduction"} <= kinds


def test_filter_selects_substring():
    results = g.run_checks(name_filter="splitstep")
    assert 0 < len(results) < 18
    assert all("splitstep" in r.name for r in results)
    assert g.run_checks(name_filter="no-such-check") == []


def test_result_records_both_sides():
    (r,) = g.run_checks(name_filter="normalization-free")
    assert r.system == "free"
    assert abs(r.analytic - 1.0) < 1e-12
    assert r.abs_err == abs(r.analytic - r.oracle)
    assert r.rel_err <= r.tol
    assert isinstance(r.params, dict) and r.params["hbar"] == 1.0


def test_tightened_tolerance_fails_controlled():
    results = g.run_checks(rel_tol=1e-30)
    assert any(not r.passed for r in results)
    assert all(r.tol == 1e-30 for r in results)
    with pytest.raises(g.ParameterError):
        g.run_checks(rel_tol=0.0)


@pytest.mark.parametrize("rel_tol", [True, "1e-3", float("inf"), float("nan"), -1.0])
def test_tolerance_override_must_be_a_finite_positive_real(rel_tol):
    with pytest.raises(g.ParameterError):
        g.run_checks(name_filter="no-such-check", rel_tol=rel_tol)


def test_report_shape():
    results = g.run_checks(name_filter="halves")
    doc = g.report(results)
    assert doc["n_checks"] == len(results) == len(doc["checks"])
    assert doc["n_failed"] == 0 and doc["all_pass"] is True
    record = doc["checks"][0]
    assert set(record) == {"name", "system", "params", "analytic", "oracle",
                           "abs_err", "rel_err", "tol", "pass"}


def test_grid_checks_are_exact_to_rounding(suite):
    """normalization, ibp and halves sum on a periodic grid that resolves psi."""
    grid = [r for r in suite if r.name.split("-")[0] in ("normalization", "ibp", "halves")]
    assert len(grid) == 12
    assert max(r.rel_err for r in grid) <= 1e-14

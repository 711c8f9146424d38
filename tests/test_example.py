"""The bundled surface example: closed form, pipeline, search, verdicts."""

import numpy as np
import pytest

import minksub.example as ex
from minksub.curvature import ricci_expanded
from reference import example_constants

DEFAULT = ex.ExampleParams(A=10.0, B=10.0, eps1=0.1, eps2=0.1, eps3=0.001,
                           C=100.0)


def test_constants_frozen_values():
    c = example_constants(DEFAULT)
    # a1 = 4AB + 4A e2 - 9 e1^2, a2 = A e2 - e1^2
    assert c["a1"] == pytest.approx(403.91, abs=1e-12)
    assert c["a2"] == pytest.approx(0.99, abs=1e-12)
    assert c["T10"] == pytest.approx(0.177190225, rel=1e-12)
    assert c["T13"] == pytest.approx(0.008672535705699454, rel=1e-12)


def test_t_values_sit_on_the_cubic_zero_rays():
    # the cubic group vanishes at angles k*pi/3; on those rays the closed
    # form reduces to the two-group sum the constants tabulate
    c = example_constants(DEFAULT)
    ric_10 = ex.ric_closed_form(DEFAULT, np.array([1.0, 0.0]))[0]
    assert c["T10"] == pytest.approx(ric_10, rel=1e-12)
    ric_m = ex.ric_closed_form(DEFAULT, np.array([1.0, -np.sqrt(3.0)]))[0]
    assert c["T13"] == pytest.approx(ric_m, rel=1e-12)


def test_closed_form_term_structure():
    u = np.array([np.cos(0.4), np.sin(0.4)])
    ric, t1, t2, t3 = ex.ric_closed_form(DEFAULT, u)
    assert ric == pytest.approx(t1 + t2 + t3, rel=1e-14)
    assert t1 > 0.0  # positive multiple of the squared cubic factor
    for k in range(6):
        th = k * np.pi / 3.0
        v = np.array([np.cos(th), np.sin(th)])
        _, t1, _, _ = ex.ric_closed_form(DEFAULT, v)
        assert t1 == pytest.approx(0.0, abs=1e-22)


def test_closed_form_scale_invariance_in_u():
    u = np.array([0.6, -1.1])
    r1 = ex.ric_closed_form(DEFAULT, u)[0]
    r2 = ex.ric_closed_form(DEFAULT, 3.0 * u)[0]
    assert r2 == pytest.approx(9.0 * r1, rel=1e-12)


def test_closed_form_rejects_bad_directions():
    with pytest.raises(ValueError):
        ex.ric_closed_form(DEFAULT, np.zeros(2))
    with pytest.raises(ValueError):
        ex.ric_closed_form(DEFAULT, np.array([1.0, 0.0, 0.0]))


def test_closed_form_matches_pipeline():
    norm, germ = ex.build_example(DEFAULT)
    for th in np.linspace(0.05, 2 * np.pi, 9):
        u = np.array([np.cos(th), np.sin(th)])
        closed = ex.ric_closed_form(DEFAULT, u)[0]
        pipeline = ricci_expanded(norm, germ, u).Ric
        rel = abs(closed - pipeline) / (1.0 + max(abs(closed),
                                                  abs(pipeline)))
        assert rel <= 1e-12


def test_germ_determinant_is_exactly_minus_eps3():
    _, germ = ex.build_example(DEFAULT)
    A = germ.d2[0]
    # f12 = sqrt(1 + eps3): float det picks up one rounding, the reported
    # determinant does the cancellation in exact algebra
    assert abs(float(np.linalg.det(A)) + DEFAULT.eps3) < 1e-15
    rep = ex.verify_example(DEFAULT, grid=360)
    assert rep.gauss_det == -DEFAULT.eps3
    assert rep.gauss_det_float_residual <= 1e-12


def test_verify_example_success_report():
    rep = ex.verify_example(DEFAULT, grid=360)
    assert rep.verdict == "SUCCESS"
    assert rep.gauss_det < 0.0
    assert rep.min_ric > 0.0
    assert rep.max_rel_discrepancy <= 1e-6
    assert rep.norm_valid
    # refinement windows around the six cubic-zero rays join the base grid
    assert len(rep.angles) > 360
    near_ray = np.min(np.abs(rep.argmin_angle - np.arange(7) * np.pi / 3.0))
    assert near_ray < 0.05
    assert any("f11 u1^2" in note for note in rep.notes)


def test_verify_example_deterministic():
    r1 = ex.verify_example(DEFAULT, grid=360)
    r2 = ex.verify_example(DEFAULT, grid=360)
    assert r1.to_dict() == r2.to_dict()
    assert r1.csv_text() == r2.csv_text()


def test_verify_example_fails_on_positive_determinant():
    params = ex.ExampleParams(A=10.0, B=10.0, eps1=0.1, eps2=0.1,
                              eps3=-0.001, C=100.0)
    rep = ex.verify_example(params, grid=360)
    assert rep.verdict == "FAILURE"
    assert rep.gauss_det > 0.0
    # later stages are skipped once the determinant sign is wrong
    assert rep.min_ric is None
    assert any("determinant" in n or "skipped" in n for n in rep.notes)


def test_verify_example_fails_on_negative_ricci():
    # eps3 large: the determinant term drags T(1,0) and the ray values down
    params = ex.ExampleParams(A=10.0, B=10.0, eps1=0.1, eps2=0.1,
                              eps3=0.9, C=100.0)
    rep = ex.verify_example(params, grid=360)
    assert rep.verdict == "FAILURE"
    assert rep.min_ric is not None and rep.min_ric < 0.0


def test_params_dict_round_trip():
    d = DEFAULT.to_dict()
    assert ex.ExampleParams(**d) == DEFAULT
    assert set(d) == {"A", "B", "eps1", "eps2", "eps3", "C"}


def test_find_params_first_success_is_seventh_combination():
    # the grid walks C fastest, then eps3: combinations 1-6 fail on the
    # ricci sign (eps3 in {0.1, 0.01}), the seventh passes
    with pytest.raises(ex.NoParamsFound):
        ex.find_example_params(6, grid=360)
    params = ex.find_example_params(7, grid=360)
    assert params == ex.ExampleParams(A=10.0, B=10.0, eps1=0.1, eps2=0.1,
                                      eps3=0.001, C=100.0)


def test_csv_text_is_the_per_angle_repr_loop():
    # csv_text shares reports_to_csv's writer; these are the bytes of a
    # header line and one line of repr floats per angle
    rep = ex.verify_example(DEFAULT)
    lines = ["angle,ricClosed,ricPipeline"]
    for th, rc, rp in zip(rep.angles, rep.ric_closed, rep.ric_pipeline):
        lines.append(f"{float(th)!r},{float(rc)!r},{float(rp)!r}")
    assert rep.csv_text() == "\n".join(lines) + "\n"


def test_report_csv_shape():
    rep = ex.verify_example(DEFAULT, grid=360)
    lines = rep.csv_text().strip().split("\n")
    assert lines[0] == "angle,ricClosed,ricPipeline"
    assert len(lines) == len(rep.angles) + 1
    first = lines[1].split(",")
    assert len(first) == 3
    float(first[0]), float(first[1]), float(first[2])

import json
import time

import pytest

from missingdigits import (CertificateReport, ConfigError, EvalBudget, Theorem,
                           Verdict, best_lower_bound, certify_linear,
                           certify_radial_Lp, explicit_spec, interval_spec,
                           lebesgue_spec, preset, square)

C32 = square(explicit_spec(3, [0, 2]))


# ---------------------------------------------------------------- verdicts


def test_radial_l2_not_certified_for_planar_cantor():
    report = certify_radial_Lp(C32, 2)
    assert report.theorem is Theorem.RADIAL_LP
    assert report.p_exp == 2
    assert report.threshold == pytest.approx(1.5)
    assert report.bound_used.value == pytest.approx(0.73814, abs=2e-3)
    assert report.margin < 0
    assert report.verdict is Verdict.NOT_CERTIFIED


def test_radial_l2_certified_for_fine_lebesgue():
    report = certify_radial_Lp(lebesgue_spec(4096, 2), 2)
    assert report.verdict is Verdict.CERTIFIED
    assert report.margin > 0
    assert report.bound_used.rigorous


def test_radial_l1_always_inconclusive():
    report = certify_radial_Lp(C32, 1)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.side_conditions
    assert report.threshold == pytest.approx(1.0)


def test_radial_l1_computes_its_bound_once():
    once, report_budget = EvalBudget(), EvalBudget()
    bound = best_lower_bound(C32, budget=once)
    report = certify_radial_Lp(C32, 1, report_budget)
    assert report_budget.spent == once.spent > 0
    assert report.bound_used.value == bound.value
    assert repr(bound.value) in report.side_conditions[1]


def test_radial_rejects_bad_exponent():
    with pytest.raises(ConfigError):
        certify_radial_Lp(C32, 0)


def test_linear_threshold_is_codimension_one():
    report = certify_linear(C32)
    assert report.theorem is Theorem.LINEAR_CONTINUOUS
    assert report.threshold == pytest.approx(1.0)
    assert report.verdict is Verdict.NOT_CERTIFIED
    cert = certify_linear(lebesgue_spec(10, 2))
    assert cert.verdict is Verdict.CERTIFIED


def test_margin_nonincreasing_in_p_exp():
    margins = [certify_radial_Lp(C32, p).margin for p in (2, 3, 4, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(margins, margins[1:]))


def test_verdict_consistency_margin_sign():
    for spec in (C32, lebesgue_spec(10, 2), square(interval_spec(10, 0, 8))):
        report = certify_linear(spec)
        if report.verdict is Verdict.CERTIFIED:
            assert report.margin > 0 and report.bound_used.rigorous
        elif report.verdict is Verdict.NOT_CERTIFIED:
            assert report.margin <= 0


# ------------------------------------------------------------ serialization


def test_report_bytes_deterministic():
    a = json.dumps(certify_radial_Lp(C32, 2).as_dict(), sort_keys=True)
    b = json.dumps(certify_radial_Lp(C32, 2).as_dict(), sort_keys=True)
    assert a == b
    assert isinstance(a, str) and '"verdict"' in a


# ----------------------------------------------------------------- presets


def test_preset_theorem_a():
    t0 = time.monotonic()
    spec, report = preset("theorem-a")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert report.theorem is Theorem.THEOREM_A
    assert report.verdict is Verdict.CERTIFIED
    assert report.bound_used.value == pytest.approx(1.59907, abs=1e-4)
    assert report.threshold == pytest.approx(1.5)
    assert len(spec.factors) == 2


def test_preset_theorem_b_both_variants():
    t0 = time.monotonic()
    _, mixed = preset("theorem-b")
    _, homogeneous = preset("theorem-b-homogeneous")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert mixed.theorem is Theorem.THEOREM_B
    assert mixed.verdict is Verdict.CERTIFIED
    assert mixed.bound_used.value == pytest.approx(1.000084, abs=2e-5)
    assert homogeneous.verdict is Verdict.CERTIFIED
    assert homogeneous.bound_used.value == pytest.approx(1.000067, abs=2e-5)


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        preset("theorem-z")


def test_preset_reports_reproducible():
    _, a = preset("theorem-b")
    _, b = preset("theorem-b")
    assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(b.as_dict(), sort_keys=True)

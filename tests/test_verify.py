"""Self-check suite: each check passes the real kernel and catches a corrupted one."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from siou import verify
from siou.errors import ConfigError
from siou.gaussian import GaussianSpec, RngSeed
from siou.geometry import Corner, frontier
from siou.kernel import KernelParams, transition_params
from siou.measures import MeasureSpec
from siou.simulator import InitialLaw, plan, simulate
from siou.verify import (
    BIG_STATISTIC,
    CheckReport,
    FlowSpec,
    build_mc_checks,
    check_continuity,
    check_flow_projection,
    check_kernel_schur,
    check_markov_orthogonality,
    check_mc_agreement,
    check_mc_moments,
    check_ou_reduction,
    check_psd,
    check_stationarity,
    matched_sequences,
    moment_zscores,
    negative_control_reports,
    run_suite,
    sign_flipped_covariance,
    theory_dirac,
)


LEB = MeasureSpec.lebesgue()
P = KernelParams(1.0, math.sqrt(2.0), LEB)
FLOW = FlowSpec((Corner((0.0, 0.0)), Corner((0.5, 0.5)), Corner((1.5, 2.5))))


def test_report_construction_and_clamping():
    r = CheckReport.make("x", 1e400, 1.0, "overflowed")
    assert r.statistic == BIG_STATISTIC
    assert not r.passed
    ok = CheckReport.make("x", 0.5, 1.0)
    assert ok.passed
    j = ok.to_json()
    assert j["name"] == "x" and j["passed"] is True


def test_flow_spec_validation():
    with pytest.raises(ConfigError):
        FlowSpec((Corner((0.0,)),))  # needs two waypoints
    with pytest.raises(ConfigError):
        FlowSpec((Corner((0.5,)), Corner((1.0,))))  # must start at the origin
    with pytest.raises(ConfigError):
        FlowSpec((Corner((0.0, 0.0)), Corner((2.0, 2.0)), Corner((1.0, 3.0))))  # not monotone
    f = FlowSpec((Corner((0.0,)), Corner((2.0,)), Corner((3.0,))))
    assert f.max_param == 2.0
    assert f.corner_at(0.5).coords == (1.0,)
    assert f.corner_at(1.5).coords == (2.5,)
    with pytest.raises(ConfigError):
        f.corner_at(2.5)


def test_each_deterministic_check_passes_canonical_kernel():
    p2 = KernelParams(0.7, 1.1, LEB)
    assert check_psd(p2, 15, RngSeed(1)).passed
    assert check_kernel_schur(p2, 2, 15, RngSeed(2)).passed
    assert check_markov_orthogonality(p2, 2, 25, RngSeed(3)).passed
    assert check_continuity(p2, [FLOW], 1e-8 * p2.stationary_variance).passed
    v, u_seq, a_seq, _ = matched_sequences(LEB, 2)
    assert check_stationarity(p2, v, u_seq, a_seq).passed
    assert check_flow_projection(p2, FLOW).passed
    assert check_ou_reduction(p2).passed


def test_each_deterministic_check_fails_flipped_covariance():
    flip = sign_flipped_covariance
    assert not check_psd(P, 15, RngSeed(1), cov_fn=flip).passed
    assert not check_kernel_schur(P, 2, 15, RngSeed(2), cov_fn=flip).passed
    assert not check_markov_orthogonality(P, 2, 25, RngSeed(3), cov_fn=flip).passed
    assert not check_continuity(P, [FLOW], 1e-8 * P.stationary_variance, cov_fn=flip).passed
    v, u_seq, a_seq, _ = matched_sequences(LEB, 2)
    assert not check_stationarity(P, v, u_seq, a_seq, cov_fn=flip).passed
    assert not check_flow_projection(P, FLOW, cov_fn=flip).passed
    assert not check_ou_reduction(P, cov_fn=flip).passed


def test_negative_controls_all_fail():
    reports = negative_control_reports(RngSeed(7))
    assert len(reports) == 7
    assert all(not r.passed for r in reports)


def test_stationarity_rejects_bad_sequences():
    v, u_seq, a_seq, _ = matched_sequences(LEB, 2)
    with pytest.raises(ConfigError):
        check_stationarity(P, v, u_seq, [])
    with pytest.raises(ConfigError):
        check_stationarity(P, v, list(reversed(u_seq)), a_seq)
    # mismatched increment measures must be refused, not scored
    bad_a = [Corner((c.coords[0], c.coords[1] + 1.0)) for c in a_seq]
    with pytest.raises(ConfigError):
        check_stationarity(P, v, u_seq, bad_a)


def test_matched_sequences_really_match():
    from siou.geometry import canonicalize
    from siou.measures import measure_diff, measure_rect

    for measure, dim in ((LEB, 1), (LEB, 2), (MeasureSpec.axis((1.0, 0.5, 2.0)), 3)):
        v, u_seq, a_seq, _ = matched_sequences(measure, dim)
        for u, a in zip(u_seq, a_seq):
            d = measure_diff(measure, u, canonicalize([v]))
            assert abs(d - measure_rect(measure, a)) <= 1e-12


def test_ou_reduction_requires_lebesgue():
    with pytest.raises(ConfigError):
        check_ou_reduction(KernelParams(1.0, 1.0, MeasureSpec.axis((1.0, 1.0))))


def test_mc_moments_validation_and_pass():
    corners = [Corner((0.5, 0.5)), Corner((1.0, 1.0))]
    pl = plan(corners)
    theory = theory_dirac(P, pl.corners, 0.7)
    path = simulate(pl, P, InitialLaw.dirac(0.7), 5000, RngSeed(13))
    rep = check_mc_moments(path, theory)
    assert rep.passed
    with pytest.raises(ConfigError):
        check_mc_moments(path.values[:100], theory)
    with pytest.raises(ConfigError):
        check_mc_moments(path.values[:, :1], theory)


def test_mc_moments_catches_wrong_mean():
    gen = RngSeed(14).generator()
    values = gen.standard_normal((20_000, 1)) + 0.5
    theory = GaussianSpec(np.zeros(1), np.eye(1))
    assert not check_mc_moments(values, theory).passed


def test_mc_agreement_pass_and_shape_guard():
    gen = RngSeed(15).generator()
    a = gen.standard_normal((5000, 2))
    b = gen.standard_normal((5000, 2))
    theory = GaussianSpec(np.zeros(2), np.eye(2))
    assert check_mc_agreement(a, b, theory).passed
    with pytest.raises(ConfigError):
        check_mc_agreement(a, b[:100], theory)
    assert not check_mc_agreement(a, b + 0.3, theory).passed


def test_zero_variance_component_scores_zero():
    theory = GaussianSpec(np.array([0.7, 0.0]), np.diag([0.0, 1.0]))
    gen = RngSeed(16).generator()
    values = np.column_stack([np.full(2000, 0.7), gen.standard_normal(2000)])
    rep = check_mc_moments(values, theory)
    assert rep.passed
    values_bad = values.copy()
    values_bad[:, 0] = 0.7001
    assert not check_mc_moments(values_bad, theory).passed


def test_run_suite_deterministic_all_pass_with_unique_labels():
    reports = run_suite("deterministic", RngSeed(42))
    assert reports and all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert len(names) == len(set(names))


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("everything", RngSeed(1))


def test_errored_check_keeps_its_label_and_fails():
    # a corrupted covariance makes conditioning routines raise; the runner
    # must convert that into a named failing report, not crash
    def explode(params, A, B=None):
        raise np.linalg.LinAlgError("boom")

    reports = run_suite("deterministic", RngSeed(5), cov_fn=explode)
    assert all(not r.passed for r in reports)
    assert all(r.details.startswith("errored LinAlgError") for r in reports)
    assert [r.name for r in reports] == [r.name for r in run_suite("deterministic", RngSeed(5))]


@pytest.mark.parametrize("check, trials", [(check_kernel_schur, 1600), (check_markov_orthogonality, 1200)],
                         ids=["kernel_schur", "markov_orthogonality"])
def test_transition_checks_pass_on_nets_beyond_one(monkeypatch, check, trials):
    # The increments a check conditions on are the ones it passes transition_params.
    seen = []

    def recording(params, inc):
        seen.append(inc)
        return transition_params(params, inc)

    monkeypatch.setattr(verify, "transition_params", recording)
    for dim, measure in ((3, LEB), (4, MeasureSpec.axis((1.0, 0.5, 2.0, 1.5)))):
        report = check(KernelParams(0.8, 1.3, measure), dim, trials, RngSeed(dim))
        assert report.passed, report
    beyond_one = sum(any(abs(n) > 1 for n in frontier(inc).signs) for inc in seen)
    assert beyond_one >= 200


# SHA-256 of the JSON of the four non-sheet mc reports of `siou verify --suite mc
# --seed 42`. They draw from RngSeed.generator (Philox) on streams the sheet checks do not use.
GOLDEN_MC_NON_SHEET = "fc6143636055c26d29b67c5f95b8546eec5b1252671e0724838d00d8de982549"


def _mc_non_sheet_checks():
    return [(label, thunk) for label, thunk in build_mc_checks(RngSeed(42).child(10_000))
            if not label.startswith("mc.sheet")]


def test_mc_non_sheet_reports_match_golden_digest():
    reports = [replace(thunk(), name=label).to_json() for label, thunk in _mc_non_sheet_checks()]
    assert [r["name"] for r in reports] == ["mc.dirac_markov", "mc.dirac_exact", "mc.dirac_agreement",
                                            "mc.stationary_markov"]
    text = json.dumps(reports, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MC_NON_SHEET


def test_mc_agreement_run_on_its_own_draws_the_paths_the_suite_shares():
    checks = _mc_non_sheet_checks()
    in_order = {label: thunk() for label, thunk in checks}
    alone = dict(_mc_non_sheet_checks())["mc.dirac_agreement"]()
    assert alone == in_order["mc.dirac_agreement"]


def test_a_check_with_nothing_to_examine_raises():
    with pytest.raises(ConfigError):
        check_psd(P, 0, RngSeed(1))
    with pytest.raises(ConfigError):
        check_kernel_schur(P, 2, 0, RngSeed(1))
    with pytest.raises(ConfigError):
        check_markov_orthogonality(P, 2, 0, RngSeed(1))
    with pytest.raises(ConfigError):
        check_continuity(P, [], 1e-8)


def _loop_zscores(values, theory, other=None, allowance=0.0):
    """Explicit-loop oracle for moment_zscores: means first, then the covariance upper triangle."""
    n, d = values.shape
    tc = theory.cov
    m1, c1 = values.mean(axis=0), np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    if other is None:
        m2, c2, scale = theory.mean, tc, 1.0
    else:
        m2, c2, scale = other.mean(axis=0), np.atleast_2d(np.cov(other, rowvar=False, ddof=1)), math.sqrt(2.0)
    scores = []
    for i in range(d):
        scores.append((abs(m1[i] - m2[i]), scale * math.sqrt(tc[i, i] / n), f"mean[{i}]"))
    for i in range(d):
        for j in range(i, d):
            excess = max(abs(c1[i, j] - c2[i, j]) - allowance, 0.0)
            scores.append((excess, scale * math.sqrt((tc[i, i] * tc[j, j] + tc[i, j] ** 2) / n), f"cov[{i},{j}]"))
    worst, where = 0.0, ""
    for excess, se, label in scores:
        z = (0.0 if excess <= 1e-9 else BIG_STATISTIC) if se == 0.0 else excess / se
        if z > worst:
            worst, where = z, label
    return worst, where


def test_moment_zscores_match_an_explicit_loop():
    gen = RngSeed(21).generator()
    n = 3000
    mix = np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 0.0]])
    values = gen.standard_normal((n, 3)) @ mix + np.array([0.1, -0.2, 0.7])
    other = gen.standard_normal((n, 3)) @ mix + np.array([0.1, -0.2, 0.7])
    # Column 2 is a constant: zero variance in theory, matched exactly by the sample.
    theory = GaussianSpec(np.array([0.1, -0.2, 0.7]), mix.T @ mix)
    assert theory.cov[2, 2] == 0.0
    for kwargs in ({}, {"allowance": 0.02}, {"other": other}, {"other": other, "allowance": 0.01}):
        got = moment_zscores(values, theory, **kwargs)
        assert got == _loop_zscores(values, theory, **kwargs)
        assert got[0] > 0.0 and got[1]
    # An allowance wider than every covariance discrepancy leaves only the means to score.
    assert moment_zscores(values, theory, allowance=10.0)[1].startswith("mean[")
    # The constant column off its target is an exact-match failure.
    shifted = values.copy()
    shifted[:, 2] += 1e-6
    assert moment_zscores(shifted, theory) == (BIG_STATISTIC, "mean[2]")


def test_nan_sample_fails_the_moment_checks():
    # A NaN moment compares false against every score; it must still fail the check.
    values = RngSeed(22).generator().standard_normal((2000, 2))
    values[:, 1] = np.nan
    theory = GaussianSpec(np.zeros(2), np.eye(2))
    assert moment_zscores(values, theory)[1] == "mean[1]"
    assert not check_mc_moments(values, theory).passed
    assert not check_mc_agreement(values, values.copy(), theory).passed

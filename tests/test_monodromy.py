import cmath
import dataclasses
import math
import os
import re
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.linalg import expm

from frobwdvv import monodromy
from frobwdvv.calibration import solve_calibration, theta_matrix_coefficients
from frobwdvv.closedform import cf_mono
from frobwdvv.core import FrobeniusSpec, build_tensors
from frobwdvv.monodromy import (
    MatchingError, NonSemisimpleError, frame_invariance_report,
    hamiltonians_and_closedness, is_admissible, monodromy_identities,
    phi_orthogonality_residual, phi_recursion, semisimple_at,
    stokes_and_connection, tensor_monodromy,
)
from frobwdvv.specs import BUILTIN_SPECS, load_spec, twodim_spec

F = Fraction


@pytest.fixture(scope="module")
def a2():
    spec = load_spec("a2")
    return spec, build_tensors(spec)


@pytest.fixture(scope="module")
def a2_md(a2):
    spec, t = a2
    return stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4, tensors=t)


def test_canonical_coordinates(a2):
    spec, t = a2
    ss = semisimple_at(spec, (F(0), F(3)), t)
    assert np.allclose(ss.u, [-2, 2])
    assert ss.residual_frame < 1e-12

    p1 = load_spec("p1")
    ss1 = semisimple_at(p1, (F(0), F(0)))
    assert np.allclose(ss1.u, [-2, 2])


def test_frame_invariants(a2):
    spec, t = a2
    ss = semisimple_at(spec, (F(0), F(3)), t)
    eta = ss.eta
    assert np.abs(ss.psi.T @ ss.psi - eta).max() < 1e-12
    assert np.abs(ss.v_mat + ss.v_mat.T).max() < 1e-12


def test_non_semisimple_detection():
    a1 = FrobeniusSpec(name="a1", varnames=("v1", "v2"), unity=1,
                       potential=cf_mono(F(1, 2), {"v1": 2, "v2": 1}),
                       charge=F(0), mu=(F(0), F(0)))
    with pytest.raises(NonSemisimpleError):
        semisimple_at(a1, (F(0), F(0)))


def test_phi_recursion_orthogonality(a2):
    spec, t = a2
    ss = semisimple_at(spec, (F(0), F(3)), t)
    phis = phi_recursion(ss, 8)
    assert np.allclose(phis[0], np.eye(2))
    # order-1 off-diagonal entries are V entries over eigenvalue gaps
    for i in range(2):
        for j in range(2):
            if i != j:
                assert abs(phis[1][i, j] - ss.v_mat[i, j] / (ss.u[j] - ss.u[i])) < 1e-12
    assert phi_orthogonality_residual(phis) < 1e-10


def test_admissibility():
    u = np.array([-2.0, 2.0])
    assert is_admissible(u, 3 * math.pi / 4)
    assert not is_admissible(u, math.pi / 2)


def test_a2_stokes_matrix(a2_md):
    want = np.array([[1.0, 0.0], [-1.0, 1.0]])
    assert np.abs(a2_md.stokes - want).max() < 1e-6


def _a2_gamma_central():
    g23, g13 = math.gamma(2 / 3), math.gamma(1 / 3)
    pref = -1j / math.sqrt(2 * math.pi)
    return pref * np.array([
        [g23, g23 * cmath.exp(5j * math.pi / 3)],
        [g13 * cmath.exp(1j * math.pi), g13 * cmath.exp(4j * math.pi / 3)]])


def _euler_gamma():
    """Euler's constant from H_n - ln n and its Euler-Maclaurin tail, n = 100
    (the first omitted term is below 1e-18)."""
    n = 100
    return (math.fsum(1 / k for k in range(1, n + 1)) - math.log(n) - 1 / (2 * n)
            + 1 / (12 * n ** 2) - 1 / (120 * n ** 4) + 1 / (252 * n ** 6))


def _p1_gamma_hat_central(ks):
    """Column j is -i/sqrt(2 pi) Gamma-hat(P^1) Ch(O(k_j)) in the flat basis
    (1, x): Gamma-hat = 1 + 2 gamma x and Ch(O(k)) = 1 + 2 pi i k x."""
    pref = -1j / math.sqrt(2 * math.pi)
    return pref * np.array([[1, 1], [2 * _euler_gamma() + 2j * math.pi * k for k in ks]])


def _error_up_to_column_signs(stokes, central, want_stokes, want_central):
    """Largest entry error of S and C against references, after the column
    signs of the frame's square roots: they flip columns of C and conjugate S."""
    eps = np.diag([1.0 if abs(central[0, j] - want_central[0, j])
                   < abs(central[0, j] + want_central[0, j]) else -1.0
                   for j in range(len(central))])
    return max(np.abs(central @ eps - want_central).max(),
               np.abs(eps @ stokes @ eps - np.array(want_stokes)).max())


def test_a2_central_matrix(a2_md):
    assert np.abs(a2_md.central - _a2_gamma_central()).max() < 1e-6


def test_a2_identities(a2, a2_md):
    _, t = a2
    rep = monodromy_identities(a2_md, t.eta)
    assert rep["pass"]


def test_a2_residual_quality(a2_md):
    r = a2_md.residuals
    assert r["stokes_stability"] < 1e-8
    assert r["central_stability"] < 1e-8
    assert r["stokes_transpose_relation"] < 1e-8
    assert r["unipotent"] < 1e-10
    assert r["seed_truncation"] < 1e-15


@pytest.mark.parametrize("point", [(0, 3), (0, 5), (1, 5), (0, 8)])
def test_a2_matrices_against_mpmath_gamma(a2, point):
    """Canonical spreads 4, 8.6, 8.6 and 17.4: past 4 the matching radii are
    scaled by 4 / spread."""
    spec, t = a2
    md = stokes_and_connection(spec, tuple(F(x) for x in point), 3 * math.pi / 4, tensors=t)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        g13, g23 = mpmath.gamma(mpmath.mpf(1) / 3), mpmath.gamma(mpmath.mpf(2) / 3)
        pref = -1j / mpmath.sqrt(2 * mpmath.pi)
        want = [[pref * g23, pref * g23 * mpmath.expjpi(mpmath.mpf(5) / 3)],
                [pref * g13 * mpmath.expjpi(1), pref * g13 * mpmath.expjpi(mpmath.mpf(4) / 3)]]
        want = np.array([[complex(x) for x in row] for row in want])
    assert _error_up_to_column_signs(md.stokes, md.central, [[1, 0], [-1, 1]], want) < 1e-10


def test_radii_are_not_scaled_up_below_spread_4(a2):
    """a2 at (1/2, 9/4) has spread 2.6.  Radii scaled up by 4 / 2.6 would
    take the Fuchsian-point series tail at r_small to 8.6e-12 and the central
    stability residual to 2.0e-9 (2.0e-14 and 2.2e-12 at the tuned radii)."""
    spec, t = a2
    md = stokes_and_connection(spec, (F(1, 2), F(9, 4)), 3 * math.pi / 4, tensors=t)
    assert md.conventions["radius_scale"] == 1.0
    assert md.residuals["central_stability"] < 1e-10
    assert md.residuals["theta_tail"] < 1e-12


@pytest.mark.parametrize("name, point, want_stokes, want_central", [
    ("a2", (0, 1), [[1, 0], [-1, 1]], _a2_gamma_central()),
    ("p1", (0, -3), [[1, 0], [-2, 1]], _p1_gamma_hat_central((0, -1))),
])
def test_small_spread_matches_the_gamma_references(name, point, want_stokes, want_central):
    """Canonical spreads 0.77 and 0.89: the seed radius grows to 62 and 54.
    Seeded at z = 30 from 8 series terms, the seed truncation was 1e-8 and
    6e-9, and C missed its reference by 7.1e-11 and 2.7e-10."""
    md = stokes_and_connection(load_spec(name), tuple(F(x) for x in point), PHI)
    err = _error_up_to_column_signs(md.stokes, md.central, want_stokes, want_central)
    assert err < 1e-11, f"{name} at {point}: error {err:.2e}"
    assert md.residuals["seed_truncation"] < 1e-15


@pytest.mark.parametrize("constant, value, message", [
    # a gate of 1e8 units of roundoff stops each step's sum near 1e-8 of its
    # start, and the Stokes stability residual is 2.3e-5 (3.7e-6 at 1e7)
    ("TERM_GATE", 1e8, "Stokes matrix unstable"),
    ("R_SMALL", 0.9, "central connection matrix unstable"),
    # at z_far = 12 the last term is 2.9e-6 for 3 terms and 1.8e-7 for 4
    ("KMAX", 3, "seed truncation"),
])
def test_stability_checks_raise(a2, monkeypatch, constant, value, message):
    spec, t = a2
    monkeypatch.setattr(monodromy, constant, value)
    with pytest.raises(MatchingError, match=message):
        stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4, tensors=t)


PHI = 3 * math.pi / 4


def _columns_alone(ss, phis, sectors, rtol=1e-11, atol=1e-14):
    """Reference scheme: every column integrated on its own, one scipy
    solve_ivp per radial segment and per arc.  Returns, per (sector, l), the
    seed, the state at every radius of its sector, and the arc end states
    keyed by target."""
    n = len(ss.u)
    z_far = monodromy._seed_radius(max(abs(a - b) for a in ss.u for b in ss.u))

    def run(f, y):
        sol = scipy_solve_ivp(f, (0.0, 1.0), y, method="DOP853", rtol=rtol, atol=atol)
        assert sol.success
        return sol.y[:, -1]

    out = {}
    for k, ((lo, hi), targets) in enumerate(sectors):
        for l in range(n):
            shifted = np.diag(ss.u) - ss.u[l] * np.eye(n)
            th = monodromy._recessive_angle(ss.u, lo, hi, l)
            z = z_far * cmath.exp(1j * th)
            w = sum(phis[j][:, l] / z ** j for j in range(len(phis)))
            seed, states, ends = w, {}, {}
            for r in sorted({r for r, _ in targets}, reverse=True):
                z_to = r * cmath.exp(1j * th)
                dz = z_to - z
                w = run(lambda s, y: dz * (shifted @ y + ss.v_mat @ y / (z + s * dz)), w)
                states[r], z = w, z_to
            for r, th_t in targets:
                dth = th_t - th

                def arc(s, y):
                    zz = r * cmath.exp(1j * (th + s * dth))
                    return 1j * zz * dth * (shifted @ y + ss.v_mat @ y / zz)
                ends[r, th_t] = run(arc, states[r])
            out[k, l] = seed, states, ends
    return out


# one recorded solve_ivp call: start and end stacks (n x width), Taylor
# terms, and the operator (d, v) and path
IvpCall = namedtuple("IvpCall", "start end nfev d v path")


@pytest.fixture(scope="module")
def a2_ivp_calls(a2):
    """One a2 call at (0,3) with every solve_ivp call recorded."""
    spec, t = a2
    calls = []
    solve_ivp = monodromy.solve_ivp

    def recording(d, v, path, y0):
        sol = solve_ivp(d, v, path, y0)
        calls.append(IvpCall(y0, sol.y, sol.nfev, d, v, path))
        return sol

    monodromy.solve_ivp = recording
    try:
        md = stokes_and_connection(spec, (F(0), F(3)), PHI, tensors=t)
    finally:
        monodromy.solve_ivp = solve_ivp
    return md, calls


def test_work_counts_every_rhs_evaluation(a2_ivp_calls):
    md, calls = a2_ivp_calls
    work = md.work
    assert work["rhs_evals"] == [c.nfev for c in calls]
    assert work["rhs_evals_total"] == sum(c.nfev for c in calls)
    assert work["stack_widths"] == [c.start.shape[1] for c in calls]
    assert work["radial_segments"] + work["arc_segments"] == len(calls)
    # four distinct radii; the left sector's two columns leave after r_match;
    # then the 5 + 3 targets of both columns of each sector in one arc stack
    assert work["stack_widths"] == [4, 4, 2, 2, 16]
    assert (work["radial_segments"], work["arc_segments"]) == (4, 1)
    assert not set(work) & set(md.residuals)


def test_stack_steps_obey_the_step_rule(a2, a2_ivp_calls):
    """Every step t from z0 has |t| <= STEP_RHO |z0| and |t| spread <=
    STEP_TAU; the radial stacks share their radii across columns and the arc
    stack takes equal angle steps."""
    spec, t = a2
    _, calls = a2_ivp_calls
    u = semisimple_at(spec, (F(0), F(3)), t).u
    spread = np.abs(np.subtract.outer(u, u)).max()
    for c in calls:
        assert c.path.shape[1] == c.start.shape[1]
        step = np.abs(np.diff(c.path, axis=0))
        assert (step <= monodromy.STEP_RHO * np.abs(c.path[:-1]) * (1 + 1e-12)).all()
        assert (step * spread <= monodromy.STEP_TAU * (1 + 1e-12)).all()
    for c in calls[:-1]:
        assert np.ptp(np.abs(c.path), axis=1).max() < 1e-12
    angles = np.diff(np.unwrap(np.angle(calls[-1].path), axis=0), axis=0)
    assert np.ptp(angles, axis=0).max() < 1e-12


def test_stacked_work_is_pinned(a2_ivp_calls):
    """28 DOP853 integrations and 22,736 right-hand-side evaluations before
    the columns shared a stack; 3,310 evaluations of the stacked DOP853 with
    the seed radius scaled by the spread; 733 Taylor terms now."""
    md, calls = a2_ivp_calls
    assert len(calls) <= 5
    assert md.work["rhs_evals"] == [214, 65, 79, 44, 331]
    assert md.work["rhs_evals_total"] == 733


def test_each_column_ray_is_integrated_once(a2, a2_ivp_calls):
    spec, t = a2
    _, calls = a2_ivp_calls
    radial, arcs = calls[:-1], calls[-1]
    ss = semisimple_at(spec, (F(0), F(3)), t)
    sectors = monodromy._matching_sectors(PHI, monodromy.R_MATCH, monodromy.R_SMALL)
    ref = _columns_alone(ss, phi_recursion(ss, monodromy.KMAX), sectors)

    def same_columns(a, b):
        """Index in b of every column of a, each found bit for bit."""
        found = [[j for j in range(b.shape[1]) if np.array_equal(a[:, i], b[:, j])]
                 for i in range(a.shape[1])]
        assert all(len(f) == 1 for f in found)
        return [f[0] for f in found]

    # the first stack holds each column's seed once, every later stack starts
    # from where the previous one ended, and the arcs start from radial ends
    seeds = np.column_stack([seed for seed, _, _ in ref.values()])
    assert sorted(same_columns(radial[0].start, seeds)) == list(range(len(ref)))
    for prev, nxt in zip(radial, radial[1:]):
        assert len(set(same_columns(nxt.start, prev.end))) == nxt.start.shape[1]
    same_columns(arcs.start, np.column_stack([c.end for c in radial]))

    # each stack ends at the next radius, on the columns whose sector still
    # has a target there, each matching that column integrated alone
    radii = [2 * monodromy.R_MATCH, monodromy.R_MATCH, monodromy.R_SMALL * 1.6,
             monodromy.R_SMALL]
    assert len(radial) == len(radii)
    for c, r in zip(radial, radii):
        alone = [states[r] for _, states, _ in ref.values() if r in states]
        assert c.end.shape[1] == len(alone)
        for col in alone:
            assert np.abs(c.end - col[:, None]).max(axis=0).min() < 1e-9


@pytest.mark.parametrize("name, point", [("a2", (0, 3)), ("p1", (0, 0))])
def test_stacked_states_match_columns_integrated_alone(name, point):
    spec = load_spec(name)
    ss = semisimple_at(spec, tuple(F(x) for x in point))
    phis = phi_recursion(ss, monodromy.KMAX)
    sectors = monodromy._matching_sectors(PHI, monodromy.R_MATCH, monodromy.R_SMALL)
    sols, _ = monodromy._sectorial_solutions(ss, phis, sectors, monodromy.Z_FAR)
    ref = _columns_alone(ss, phis, sectors)
    for (k, l), (_, _, ends) in ref.items():
        for (r, th), want in ends.items():
            got = sols[k][r, th][:, l] * cmath.exp(-r * cmath.exp(1j * th) * ss.u[l])
            assert np.abs(got - want).max() < 1e-9


def _along_path(d, v, path, y0):
    """scipy's DOP853 at rtol 1e-13 on z w' = (z D + V) w, column by column,
    along the straight steps of `path`."""
    out = []
    for c in range(y0.shape[1]):
        w = y0[:, c]
        for z0, z1 in zip(path[:-1, c], path[1:, c]):
            def f(s, y, z0=z0, t=z1 - z0):
                return t * (d[:, c] * y + v @ y / (z0 + s * t))
            sol = scipy_solve_ivp(f, (0.0, 1.0), w, method="DOP853", rtol=1e-13, atol=1e-16)
            assert sol.success
            w = sol.y[:, -1]
        out.append(w)
    return np.column_stack(out)


def test_taylor_stacks_match_scipy_dop853(a2_ivp_calls):
    """The radial and arc stacks of a2 at (0,3), each integrated again by
    scipy's DOP853 at rtol 1e-13 along the same path."""
    _, calls = a2_ivp_calls
    for c in calls:
        want = _along_path(c.d, c.v, c.path, c.start)
        assert np.abs(c.end - want).max() <= 1e-11 * np.abs(want).max()


def test_taylor_steps_give_the_exponential_when_v_vanishes():
    """V = 0: w(z1) = e^{D (z1 - z0)} w(z0), here over |D t| up to 9 in 12 steps."""
    d = np.array([[-0.7 + 3.1j, 2.0], [0.5j, -1.5 + 0.2j]])
    y0 = np.array([[1.0, 2.0 - 1.0j], [0.5j, -3.0]])
    z0, z1 = np.array([3.0, 2.0j]), np.array([5.0 + 1j, -1.0 + 4.0j])
    path = z0 + np.linspace(0, 1, 13)[:, None] * (z1 - z0)
    out = monodromy.solve_ivp(d, np.zeros((2, 2)), path, y0)
    want = np.exp(d * (z1 - z0)) * y0
    assert np.abs(out.y - want).max() <= 1e-14 * np.abs(want).max()


def test_taylor_steps_give_the_power_when_d_vanishes():
    """D = 0: z w' = V w gives w(z1) = exp(V log(z1 / z0)) w(z0), along a
    quarter circle and then inward, checked against scipy's expm."""
    v = np.array([[0.0, 0.8 - 0.3j], [-0.8 + 0.3j, 0.0]]) + np.diag([0.25, -0.25])
    y0 = np.array([[1.0, 0.3j], [-0.5, 2.0]])
    arc = 2.0 * np.exp(1j * np.linspace(0, math.pi / 2, 9))
    path = np.concatenate([arc, 2j * np.linspace(1, 0.5, 5)[1:]])[:, None] * np.ones(2)
    out = monodromy.solve_ivp(np.zeros((2, 2)), v, path, y0)
    want = expm(v * (math.log(0.5) + 1j * math.pi / 2)) @ y0
    assert np.abs(out.y - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("where", ["stack", "path"])
def test_taylor_stepper_raises_on_a_nan_stack(where):
    """A NaN in the stack, or a NaN point in the middle of the path, makes
    every later term NaN: the step raises after TERM_CAP terms."""
    terms = []

    class Counted:   # V = 0, counting the terms
        def __matmul__(self, w):
            terms.append(w)
            return np.zeros_like(w)

    y0 = np.ones((2, 3), dtype=complex)
    path = np.linspace(1.0, 2.0, 5)[:, None] * np.ones(3)
    if where == "stack":
        y0[1, 2] = np.nan
    else:
        path[2, 0] = np.nan
    with pytest.raises(monodromy.IntegrationError), np.errstate(invalid="ignore"):
        monodromy.solve_ivp(np.ones((2, 3)), Counted(), path, y0)
    assert monodromy.TERM_CAP <= len(terms) <= 2 * monodromy.TERM_CAP


def _recessive_angle_loop(u, lo, hi, col):
    """The angle scan one angle at a time: the index k of the first of
    lo + (hi - lo) k / 240, 0 < k < 240, with the least max_j Re(e^{i th}
    (u_col - u_j)), or MatchingError."""
    best, best_val = None, math.inf
    for k in range(1, 240):
        th = lo + (hi - lo) * k / 240
        val = max(((cmath.exp(1j * th) * (u[col] - u[j])).real
                   for j in range(len(u)) if j != col), default=-1.0)
        if val < best_val:
            best, best_val = k, val
    if best_val >= 0:
        raise MatchingError(f"no recessive angle for column {col} in ({lo}, {hi})")
    return best


# the a2 and p1 points the monodromy-sweep benchmark draws at seeds 3, 5 and
# 7, the first of them a2 at (0,3)
BENCH_POINTS = [("a2", (0, 3)), ("p1", (1, -1)), ("a2", (-1, F(9, 4))), ("p1", (-1, F(-1, 4))),
                ("a2", (-1, 3)), ("p1", (F(1, 2), F(-1, 4)))]


@pytest.mark.parametrize("name, point", [("p1", (0, 0)), *BENCH_POINTS, ("p2", (0, 0, 0))])
def test_recessive_angle_matches_the_scan_one_angle_at_a_time(name, point):
    """The same angle index on both sectors of every column, and on p2 at the
    origin, where one column has no recessive ray, the same error."""
    spec = load_spec(name)
    u = semisimple_at(spec, tuple(F(x) for x in point)).u
    phi = 0.3 if name == "p2" else PHI
    for (lo, hi), _ in monodromy._matching_sectors(phi, 1.5, 0.35):
        for col in range(len(u)):
            try:
                k = _recessive_angle_loop(u, lo, hi, col)
            except MatchingError as exc:
                with pytest.raises(MatchingError, match=re.escape(str(exc))):
                    monodromy._recessive_angle(u, lo, hi, col)
                continue
            assert monodromy._recessive_angle(u, lo, hi, col) == lo + (hi - lo) * k / 240


def _bundled_specs():
    return [load_spec(name) for name in BUILTIN_SPECS if name != "twodim"] + [
        twodim_spec(F(3, 2), F(1))]


@pytest.mark.parametrize("c", [math.log(1.6 * 0.35) + 2.356j, 2j * math.pi, -1j * math.pi])
def test_exponentials_match_scipy_expm(c):
    """e^{c mu} and e^{c R} against scipy's expm for the summed R of every
    bundled spec that has one (twodim at its resonant member m = 3/2).  e^{cR}
    is compared relative to its largest entry, which reaches 158 for p1xp1 at
    c = 2 pi i."""
    specs = _bundled_specs()
    assert sum(bool(spec.rmats) for spec in specs) == 6
    for spec in specs:
        mu = [float(x) for x in spec.mu]
        rmat = sum((np.array(r, dtype=float) for r in spec.rmats.values()),
                   np.zeros((spec.n, spec.n)))
        e_mu, e_r = monodromy._exponentials(mu, rmat, c)
        assert np.abs(e_mu - expm(c * np.diag(mu))).max() <= 1e-14
        if spec.rmats:
            assert np.abs(e_r - expm(c * rmat)).max() <= 1e-14 * np.abs(e_r).max()


def test_exponentials_reject_a_non_nilpotent_r():
    with pytest.raises(ValueError, match="not nilpotent"):
        monodromy._exponentials([0.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]), 2j * math.pi)


def test_stokes_and_connection_loads_no_scipy():
    code = """
import math, sys
from fractions import Fraction
from frobwdvv.monodromy import stokes_and_connection
from frobwdvv.specs import load_spec
md = stokes_and_connection(load_spec("a2"), (Fraction(0), Fraction(3)), 3 * math.pi / 4)
print(md.work["rhs_evals_total"], sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.stdout.strip() == "733 []", proc.stderr[-2000:]


def test_sign_flip_conjugates_everything(a2):
    spec, t = a2
    md_pp = stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4,
                                  tensors=t, sign_choices=(1, 1))
    md_pm = stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4,
                                  tensors=t, sign_choices=(1, -1))
    eps = np.diag([1.0, -1.0])
    assert np.abs(eps @ md_pp.stokes @ eps - md_pm.stokes).max() < 1e-9
    assert np.abs(md_pp.central @ eps - md_pm.central).max() < 1e-9


def _case_md(a2, hat, name, point):
    """stokes_and_connection of the spec `name` at `point` ("v1,v2"); for
    "a2s2", the hat fixture at the hat point of a2 (0,3), kappa = 2, with the
    hat signs induced by the kappa column."""
    if name != "a2s2":
        return stokes_and_connection(load_spec(name), tuple(F(x) for x in point.split(",")),
                                     PHI)
    spec, t = a2
    th = build_tensors(hat)
    inv = frame_invariance_report(spec, hat, (F(0), F(3)), 2, t, th)
    ss = semisimple_at(spec, (F(0), F(3)), t)
    ss_hat = semisimple_at(hat, inv["hat_point"], th, sign_reference=(1, ss.psi[:, 1]))
    return stokes_and_connection(hat, inv["hat_point"], PHI, tensors=th,
                                 sign_choices=ss_hat.sign_choices)


def test_transform_invariance_s2_a2(a2, a2_md, a2_s2_spec):
    spec, t = a2
    inv = frame_invariance_report(spec, a2_s2_spec, (F(0), F(3)), 2, t, build_tensors(a2_s2_spec))
    assert inv["pass"]
    mdh = _case_md(a2, a2_s2_spec, "a2s2", None)
    assert np.abs(a2_md.stokes - mdh.stokes).max() < 1e-6
    assert np.abs(a2_md.central - mdh.central).max() < 1e-6


def test_trivial_direction_invariance(a2):
    spec, t = a2
    inv = frame_invariance_report(spec, spec, (F(0), F(3)), spec.unity, t, t)
    assert inv["pass"]


def test_p1_conjugacy_invariant():
    p1 = load_spec("p1")
    t = build_tensors(p1)
    md = stokes_and_connection(p1, (F(0), F(0)), 3 * math.pi / 4, tensors=t)
    s = md.stokes
    val = 2 - np.trace(np.linalg.inv(s) @ s.T)
    assert abs(val - 4) < 1e-6
    assert monodromy_identities(md, t.eta)["pass"]


# exceptional collections (O(k_1), O(k_2)) of P^1 per line angle, and S once
# the column signs of C match the reference: S_ij = -chi(O(k_i), O(k_j)) off
# the diagonal (the raw S at 0.3 is [[1, 2], [0, 1]], with column 2 of C flipped)
P1_COLLECTIONS = [(3 * math.pi / 4, (0, -1), [[1, 0], [-2, 1]]),
                  (2.0, (0, -1), [[1, 0], [-2, 1]]),
                  (0.3, (0, 1), [[1, -2], [0, 1]])]


@pytest.mark.parametrize("point", [(0, 0), (F(1, 2), F(-1, 2))])
@pytest.mark.parametrize("phi, ks, want_stokes", P1_COLLECTIONS)
def test_p1_central_matrix_is_the_gamma_hat_class(point, phi, ks, want_stokes):
    """C of p1 is the Gamma-hat class times the Chern characters of (O, O(k)),
    and a C off by 1e-6 in one entry fails the same comparison."""
    md = stokes_and_connection(load_spec("p1"), tuple(F(x) for x in point), phi)
    want = _p1_gamma_hat_central(ks)
    err = _error_up_to_column_signs(md.stokes, md.central, want_stokes, want)
    assert err < 1e-10, f"phi = {phi}, point {point}: error {err:.2e}"
    off = md.central.copy()
    off[1, 0] += 1e-6
    err_off = _error_up_to_column_signs(md.stokes, off, want_stokes, want)
    assert err_off >= 1e-10, f"perturbed C passed: error {err_off:.2e}"


@pytest.mark.parametrize("spec, point, d", [
    (load_spec("p1"), (0, 0), F(1)), (load_spec("a2"), (0, 3), F(1, 3)),
    *[(twodim_spec(F(m), F(1)), (0, 2), (F(m) - 3) / (F(m) - 1)) for m in ("5", "7/2", "3/2", "-1")]],
    ids=["p1", "a2", "twodim-m5", "twodim-m7/2", "twodim-m3/2", "twodim-m-1"])
def test_stokes_entry_is_the_closed_form(spec, point, d):
    """At n = 2 the flat sections are sqrt(z)-scaled modified Bessel functions
    of order nu with |nu| = (1 - d) / 2, and the Stokes entry is
    2 cos(pi nu) = 2 sin(pi d / 2).  Convention: at phi = 3 pi / 4, with u in
    the canonical order, S is lower unitriangular, and the entry is S[1, 0];
    flipping one frame sign conjugates S by diag(1, -1), so its sign is the
    frame's and is not compared."""
    md = stokes_and_connection(spec, tuple(F(x) for x in point), PHI)
    entry = 2 * math.sin(math.pi * float(d) / 2)
    sign = 1.0 if md.stokes[1, 0].real >= 0 else -1.0
    assert np.abs(md.stokes - np.array([[1, 0], [sign * entry, 1]])).max() < 1e-12


@pytest.mark.parametrize("point", [(0, 2), (0, 3), (1, 4)])
def test_p1_at_wide_spread(point):
    """Canonical spreads 10.9, 17.9 and 29.6: the matching radii are scaled by
    4 / spread, and the invariant and residuals stay where they are at (0,0)."""
    p1 = load_spec("p1")
    t = build_tensors(p1)
    md = stokes_and_connection(p1, tuple(F(x) for x in point), 3 * math.pi / 4, tensors=t)
    assert md.conventions["radius_scale"] < 0.4
    s = md.stokes
    assert abs(2 - np.trace(np.linalg.inv(s) @ s.T) - 4) < 1e-10
    assert max(md.residuals.values()) < 1e-9
    ids = monodromy_identities(md, t.eta)
    assert max(ids["monodromy_residual"], ids["stokes_from_central_residual"]) < 1e-9


def test_inadmissible_line_rejected():
    p1 = load_spec("p1")
    with pytest.raises(MatchingError):
        stokes_and_connection(p1, (F(0), F(0)), math.pi / 2)


def test_tensor_monodromy_printed_matrices():
    mu = [F(-1, 2), F(1, 2)]
    r = [[F(0), F(0)], [F(2), F(0)]]
    s = [[F(1), F(2)], [F(0), F(1)]]
    c = [[F(1), F(0)], [F(0), F(1)]]
    out = tensor_monodromy(mu, r, s, c, 1, mu, r, s, c, 1)
    assert [out["mu"][i][i] for i in range(4)] == [-1, 0, 0, 1]
    assert out["R"] == [[0, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [0, 2, 2, 0]]
    assert out["S"] == [[1, 2, 2, 4], [0, 1, 0, 2], [0, 0, 1, 2], [0, 0, 0, 1]]
    assert out["marked"] == (1, 1)


def test_hamiltonian_reports():
    assert hamiltonians_and_closedness(load_spec("a2"), (0.0, 3.0))["pass"]
    assert hamiltonians_and_closedness(load_spec("p1"), (0.0, 0.0))["pass"]
    one = FrobeniusSpec(name="pt", varnames=("v1",),
                        unity=1, potential=cf_mono(F(1, 6), {"v1": 3}),
                        charge=F(0), mu=(F(0),))
    rep = hamiltonians_and_closedness(one, (0.5,))
    assert rep["pass"] and rep["closedness_residual"] == 0.0


HAMILTONIAN_POINTS = [("a2", (0, 3), 1e-12), ("p1", (0, 0), 1e-12),
                      ("p1orb", (0, F(3, 10), F(1, 5)), 1e-8),
                      ("p1xp1", (0, F(2, 5), F(-3, 10), 0), 1e-8)]


@pytest.mark.parametrize("name, point, bound", HAMILTONIAN_POINTS,
                         ids=[case[0] for case in HAMILTONIAN_POINTS])
def test_hamiltonians_differentiate_in_flat_coordinates(monkeypatch, name, point, bound):
    """One frame at the point and two per flat direction; at n >= 3 neither
    check holds trivially (p1xp1 at v4 = 0, where its truncation is exact)."""
    spec = load_spec(name)
    t = build_tensors(spec)
    calls = []
    frame = monodromy.semisimple_at

    def counted(*args, **kwargs):
        calls.append(args[1])
        return frame(*args, **kwargs)

    monkeypatch.setattr(monodromy, "semisimple_at", counted)
    rep = hamiltonians_and_closedness(spec, point, h=1e-4, tensors=t)
    assert len(calls) == 2 * spec.n + 1
    assert rep["pass"], rep
    assert rep["closedness_residual"] < bound and rep["veq_residual"] < bound


@pytest.mark.parametrize("name, point", [case[:2] for case in HAMILTONIAN_POINTS[2:]],
                         ids=[case[0] for case in HAMILTONIAN_POINTS[2:]])
def test_hamiltonians_catch_a_v_off_the_isomonodromic_flow(monkeypatch, name, point):
    # V_12 += 0.01 v^2 and V_21 -= 0.01 v^2 keep V skew but break both equations
    spec = load_spec(name)
    frame = monodromy.semisimple_at

    def mutant(spec, point, *args, **kwargs):
        ss = frame(spec, point, *args, **kwargs)
        v = ss.v_mat.copy()
        v[0, 1] += 0.01 * complex(point[1])
        v[1, 0] -= 0.01 * complex(point[1])
        return dataclasses.replace(ss, v_mat=v)

    monkeypatch.setattr(monodromy, "semisimple_at", mutant)
    rep = hamiltonians_and_closedness(spec, point, h=1e-4)
    assert not rep["pass"]
    assert rep["closedness_residual"] > 1e-6 and rep["veq_residual"] > 1e-5


def test_identities_on_toy_data():
    # R = 0, S = I and a unitary-normalizer C satisfy both identities when the
    # spectrum is integral
    import numpy as np
    from frobwdvv.monodromy import MonodromyData
    md = MonodromyData(mu=np.diag([-1.0, 1.0]), rmat=np.zeros((2, 2)),
                       stokes=np.eye(2, dtype=complex),
                       central=1j * np.eye(2), marked_index=1)
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    rep = monodromy_identities(md, eye)
    assert rep["pass"]


@pytest.mark.parametrize("name, point", [
    ("a2", (0, 3)), ("p1", (0, 0)), ("p1", (1, F(-1, 2))), ("nls", (1, 0)),
    ("p1orb", (0, 0, 0)), ("p2", (0, 0, 0))])
def test_numeric_theta_matches_exact_calibration(name, point):
    """The float recursion past the resonant levels against the exact
    calibration to level 14, evaluated at the point."""
    spec = load_spec(name)
    t = build_tensors(spec)
    pt = tuple(F(x) for x in point)
    env = {v: complex(x) for v, x in zip(spec.varnames, pt)}
    want = [np.array([[c.evaluate(env) for c in row] for row in m])
            for m in theta_matrix_coefficients(solve_calibration(spec, 14, t))]
    k_res = math.floor(max(spec.mu) - min(spec.mu))
    rmats = {j: np.array(r, dtype=float) for j, r in spec.rmats.items()}
    got = monodromy._theta_levels(semisimple_at(spec, pt, t).umat,
                                  [float(m) for m in spec.mu], rmats, want[:k_res + 1], 14)
    assert len(got) == 15
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("name, point, k_res", [("a2", "0,3", 0), ("a2s2", None, 0),
                                                ("p1", "0,0", 1)])
def test_calibration_stops_at_the_resonant_levels(a2, a2_s2_spec, monkeypatch,
                                                  name, point, k_res):
    """stokes_and_connection asks the exact calibration for floor(max mu -
    min mu) levels only; the other levels of Theta come from the recursion."""
    levels = []
    solve = monodromy.solve_calibration

    def recording(spec, m_max, tensors=None):
        levels.append(m_max)
        return solve(spec, m_max, tensors)

    monkeypatch.setattr(monodromy, "solve_calibration", recording)
    md = _case_md(a2, a2_s2_spec, name, point)
    assert levels == [k_res]
    assert (md.work["theta_exact_levels"], md.work["theta_levels"]) == (k_res, monodromy.M_THETA)


# Stokes and central matrices recorded while every level of Theta came from
# the exact calibration solved to level 14
RECORDED = {
    ("a2", "0,3"): (
        [[0.9999999999999973+2.498291402723162e-16j, 2.5506095018207093e-17+2.7562522954871607e-17j],
         [-0.9999999999998648+1.6158591015460112e-13j, 1.0000000000000027-1.232188347927494e-16j]],
        [[1.5175187823414838e-15-0.54021489868728j, -0.4678398257660166-0.27010744934364633j],
         [1.6217662972332053e-15+1.068741848091576j, -0.9255575905348111+0.5343709240457987j]]),
    ("a2", "0,5"): (
        [[1.0000000000000009+2.862621921306639e-17j, -2.498080860156713e-17-2.7222073664931987e-17j],
         [0.9999999999998546-1.3613467102547316e-13j, 0.9999999999999974-1.7361430436653418e-16j]],
        [[-1.5506425628417983e-15+0.5402148986872788j, -0.46783982576601746-0.2701074493436467j],
         [-1.5311275879929609e-15-1.068741848091574j, -0.9255575905348127+0.5343709240457997j]]),
    ("a2", "1/2,9/4"): (
        [[1.0000000000000007-5.585772517117951e-16j, -1.0536121894145038e-16-4.707131918887751e-16j],
         [-0.9999999999999691+4.281121893856695e-15j, 0.999999999999998+1.0071643929993152e-15j]],
        [[8.905515321976467e-17-0.5402148986873121j, -0.467839825766047-0.2701074493436698j],
         [8.895599180331943e-16+1.0687418480915445j, -0.9255575905347856+0.5343709240458j]]),
    ("p1", "1,-1/2"): (
        [[0.9999999999999993+6.521522101622233e-17j, 3.6160980838401055e-16-5.288140267578908e-16j],
         [-1.999999999999391+1.121662239187159e-15j, 0.9999999999999994+1.041305698946417e-15j]],
        [[9.4031713955778e-14-0.3989422804017692j, 9.688279861176033e-14-0.39894228040177027j],
         [-1.6423241333692193e-12-0.4605514672801529j, -2.506628274632941-0.4605514672801365j]]),
    ("a2s2", None): (
        [[1.0000000000000007+4.169379293695803e-16j, 2.610788259966221e-17+2.738298709440444e-17j],
         [-0.9999999999998597+1.636311441978928e-13j, 0.9999999999999987-1.0409358578548914e-16j]],
        [[1.466839015506443e-15-0.540214898687279j, -0.46783982576601707-0.27010744934364656j],
         [1.5866387392242187e-15+1.068741848091574j, -0.9255575905348121+0.5343709240457992j]]),
}


@pytest.mark.parametrize("case", list(RECORDED), ids=lambda c: f"{c[0]}-{c[1]}")
def test_matrices_agree_with_level_14_calibration(a2, a2_s2_spec, case):
    md = _case_md(a2, a2_s2_spec, *case)
    stokes, central = RECORDED[case]
    assert np.abs(md.stokes - np.array(stokes)).max() < 1e-12
    assert np.abs(md.central - np.array(central)).max() < 1e-12

import cmath
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from frobwdvv import monodromy
from frobwdvv.closedform import cf_mono
from frobwdvv.core import FrobeniusSpec, build_tensors
from frobwdvv.exact import Exact
from frobwdvv.monodromy import (
    MatchingError, NonSemisimpleError, frame_invariance_report,
    hamiltonians_and_closedness, is_admissible, monodromy_identities,
    phi_orthogonality_residual, phi_recursion, semisimple_at,
    stokes_and_connection, tensor_monodromy,
)
from frobwdvv.specs import load_spec

F = Fraction


def a2_s2_spec():
    return FrobeniusSpec(
        name="a2s2", varnames=("v1", "v2"), unity=2,
        potential=(cf_mono(F(1, 2), {"v1": 1, "v2": 2})
                   + cf_mono(F(4, 5) * Exact({6: F(1, 3)}), {"v1": F(5, 2)})),
        charge=F(-1, 3), mu=(F(-1, 6), F(1, 6)), rmats={}, euler_shifts=(F(0), F(0)))


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


def test_a2_central_matrix(a2_md):
    g23, g13 = math.gamma(2 / 3), math.gamma(1 / 3)
    pref = -1j / math.sqrt(2 * math.pi)
    want = pref * np.array([
        [g23, g23 * cmath.exp(5j * math.pi / 3)],
        [g13 * cmath.exp(1j * math.pi), g13 * cmath.exp(4j * math.pi / 3)]])
    assert np.abs(a2_md.central - want).max() < 1e-6


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


def test_a2_matrices_against_mpmath_gamma(a2_md):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        g13, g23 = mpmath.gamma(mpmath.mpf(1) / 3), mpmath.gamma(mpmath.mpf(2) / 3)
        pref = -1j / mpmath.sqrt(2 * mpmath.pi)
        want = [[pref * g23, pref * g23 * mpmath.expjpi(mpmath.mpf(5) / 3)],
                [pref * g13 * mpmath.expjpi(1), pref * g13 * mpmath.expjpi(mpmath.mpf(4) / 3)]]
        want = np.array([[complex(x) for x in row] for row in want])
    assert np.abs(a2_md.central - want).max() < 1e-10
    assert np.abs(a2_md.stokes - np.array([[1.0, 0.0], [-1.0, 1.0]])).max() < 1e-10


@pytest.mark.parametrize("kwargs, message", [
    ({"rtol": 1e-6}, "Stokes matrix unstable"),
    ({"r_small": 0.9}, "central connection matrix unstable"),
])
def test_stability_checks_raise(a2, kwargs, message):
    spec, t = a2
    with pytest.raises(MatchingError, match=message):
        stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4, tensors=t, **kwargs)


@pytest.fixture(scope="module")
def a2_ivp_calls(a2):
    """One a2 call at (0,3) with every solve_ivp call recorded as (rhs, nfev)."""
    spec, t = a2
    calls = []
    solve_ivp = monodromy.solve_ivp

    def recording(fun, *args, **kwargs):
        sol = solve_ivp(fun, *args, **kwargs)
        calls.append((fun, sol.nfev))
        return sol

    monodromy.solve_ivp = recording
    try:
        md = stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4, tensors=t)
    finally:
        monodromy.solve_ivp = solve_ivp
    return md, calls


def _radial_segment(fun):
    """(z_from, dz, shifted U) of a radial right-hand side; None for an arc."""
    cells = dict(zip(fun.__code__.co_freevars, (c.cell_contents for c in fun.__closure__)))
    if "dz" not in cells:
        return None
    return cells["z_from"], cells["dz"], cells["shifted"]


def test_work_counts_every_rhs_evaluation(a2_ivp_calls):
    md, calls = a2_ivp_calls
    work = md.work
    assert work["rhs_evals_total"] == sum(nfev for _, nfev in calls)
    assert work["rhs_evals_total"] == sum(map(sum, work["rhs_evals"].values()))
    assert [len(work["rhs_evals"][side]) for side in ("right", "left")] == [2, 2]
    radial = sum(_radial_segment(fun) is not None for fun, _ in calls)
    assert work["radial_segments"] == radial
    assert work["arc_segments"] == len(calls) - radial
    assert not set(work) & set(md.residuals)


def test_each_column_ray_is_integrated_once(a2_ivp_calls):
    _, calls = a2_ivp_calls
    z_far = 30.0
    rays = defaultdict(list)
    for fun, _ in calls:
        seg = _radial_segment(fun)
        if seg is not None:
            z_from, dz, shifted = seg
            key = (round(cmath.phase(z_from), 9), tuple(np.round(np.diag(shifted), 9)))
            rays[key].append((abs(z_from), abs(z_from + dz), abs(dz)))
    # two columns on each of the two sectors
    assert len(rays) == 4
    ends = []
    for segs in rays.values():
        segs.sort(reverse=True)
        assert segs[0][0] == pytest.approx(z_far)
        for (_, r_to, _), (r_from, _, _) in zip(segs, segs[1:]):
            assert r_from == pytest.approx(r_to)
        r_min = segs[-1][1]
        assert sum(length for _, _, length in segs) == pytest.approx(z_far - r_min)
        ends.append(r_min)
    # right sector down to r_small = 0.35, left sector down to r_match = 1.5
    assert sorted(ends) == pytest.approx([0.35, 0.35, 1.5, 1.5])


def test_sign_flip_conjugates_everything(a2):
    spec, t = a2
    md_pp = stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4,
                                  tensors=t, sign_choices=(1, 1))
    md_pm = stokes_and_connection(spec, (F(0), F(3)), 3 * math.pi / 4,
                                  tensors=t, sign_choices=(1, -1))
    eps = np.diag([1.0, -1.0])
    assert np.abs(eps @ md_pp.stokes @ eps - md_pm.stokes).max() < 1e-9
    assert np.abs(md_pp.central @ eps - md_pm.central).max() < 1e-9


def test_transform_invariance_s2_a2(a2, a2_md):
    spec, t = a2
    hat = a2_s2_spec()
    th = build_tensors(hat)
    inv = frame_invariance_report(spec, hat, (F(0), F(3)), 2, t, th)
    assert inv["pass"]
    ss = semisimple_at(spec, (F(0), F(3)), t)
    ss_hat = semisimple_at(hat, inv["hat_point"], th, sign_reference=(1, ss.psi[:, 1]))
    mdh = stokes_and_connection(hat, inv["hat_point"], 3 * math.pi / 4,
                                tensors=th, sign_choices=ss_hat.sign_choices)
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

"""Numeric monodromy data of semisimple points: canonical coordinates and
frames, the formal asymptotic series at the irregular point, Stokes and
central connection matrices by sectorial asymptotic matching, the standard
matrix identities, tensor products, and the closedness of the isomonodromic
hamiltonians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .calibration import solve_calibration, theta_matrix_coefficients
from .core import FrobeniusSpec, Tensors, build_tensors, hat_point, u_matrix
from .linalg import kron

__all__ = [
    "NonSemisimpleError", "IntegrationError", "MatchingError",
    "SemisimplePoint", "MonodromyData", "semisimple_at", "phi_recursion",
    "phi_orthogonality_residual", "is_admissible", "stokes_and_connection",
    "monodromy_identities", "tensor_monodromy", "hamiltonians_and_closedness",
    "frame_invariance_report",
]

# sectorial matching; see `stokes_and_connection` for how the radii scale
Z_FAR = 12.0    # seed radius of the truncated asymptotics at spread 4
R_MATCH = 1.5   # Stokes matching radius, repeated at twice it
R_SMALL = 0.35  # central matching radius, repeated at 1.6 times it
KMAX = 20       # terms of the formal series at the seed radius
M_THETA = 14    # levels of the Fuchsian-point solution, numeric past the resonant ones
ADMISSIBLE_MARGIN = 1e-8    # least |Re(e^{i phi}(u_i - u_j))| of an admissible line
# Taylor steps of the sectorial columns; see `solve_ivp`
STEP_RHO = 0.35   # |t| <= STEP_RHO |z0|: the pole at z = 0 bounds the series
STEP_TAU = 2.5    # |t| max|u_i - u_j| <= STEP_TAU: the exponentials bound it too
TERM_GATE = 1.0   # a step's sum stops at terms below TERM_GATE units of roundoff
TERM_CAP = 80     # terms of one step before IntegrationError


class NonSemisimpleError(ArithmeticError):
    pass


class IntegrationError(RuntimeError):
    pass


class MatchingError(RuntimeError):
    pass


@dataclass
class SemisimplePoint:
    point: tuple
    u: np.ndarray
    umat: np.ndarray  # U^a_b, multiplication by the Euler field, in the flat frame
    psi: np.ndarray
    v_mat: np.ndarray
    eta: np.ndarray
    sign_choices: tuple
    residual_frame: float  # max of |Psi^T Psi - eta| and |V + V^T|


@dataclass
class MonodromyData:
    mu: np.ndarray
    rmat: np.ndarray
    stokes: np.ndarray
    central: np.ndarray
    marked_index: int
    conventions: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    # work: Taylor terms (operator applications) and stack width per stacked
    # integration, their total, the numbers of radial and arc segments, and
    # the levels of Theta from the exact calibration and in all
    work: dict = field(default_factory=dict)


def _at_point(spec: FrobeniusSpec, mats, point) -> np.ndarray:
    pt = {v: complex(x) for v, x in zip(spec.varnames, point)}
    factors: dict = {}
    return np.array([[m.evaluate(pt, factors) for m in row] for row in mats])


def semisimple_at(spec: FrobeniusSpec, point, tensors: Tensors | None = None,
                  sign_choices=None, sign_reference=None) -> SemisimplePoint:
    """Canonical coordinates and the orthonormal-frame transition matrix.

    Rows of psi are the eta-pairings of the normalized idempotent directions.
    The square-root branches are pinned deterministically: eigenvector phases
    are fixed first (largest entry rotated to the positive real axis), then each
    row is flipped so that its leading entry has nonpositive real part (positive
    imaginary part on the boundary).  Overrides: `sign_choices` forces absolute
    multipliers on the phase-fixed rows, `sign_reference` aligns one column
    against recorded values (transform matching)."""
    t = tensors or build_tensors(spec)
    n = spec.n
    umat = _at_point(spec, u_matrix(spec, t), point)
    w, vecs = np.linalg.eig(umat)
    order = sorted(range(n), key=lambda i: (round(w[i].real, 10), round(w[i].imag, 10), i))
    u = w[order]
    vecs = vecs[:, order]
    gaps = [abs(u[i] - u[j]) for i in range(n) for j in range(i + 1, n)]
    if gaps and min(gaps) < 1e-8:
        raise NonSemisimpleError(f"eigenvalues nearly collide: {u}")
    eta = np.array([[float(x) for x in row] for row in t.eta])
    rows = []
    signs = []
    for i in range(n):
        wv = vecs[:, i]
        top = int(np.argmax(np.abs(wv)))
        wv = wv * (abs(wv[top]) / wv[top])  # deterministic phase
        norm2 = wv @ eta @ wv
        if abs(norm2) < 1e-14:
            raise NonSemisimpleError("idempotent direction is eta-null")
        f = wv / np.sqrt(norm2)
        s = 1
        if sign_choices is not None:
            s = sign_choices[i]
        elif sign_reference is not None:
            # match the recorded column entries (index, values)
            cand = (eta @ f)
            if abs(cand[sign_reference[0]] - sign_reference[1][i]) > \
               abs(-cand[sign_reference[0]] - sign_reference[1][i]):
                s = -1
        else:
            cand = (eta @ f)
            mags = np.abs(cand)
            top = int(np.nonzero(mags >= mags.max() * (1 - 1e-9))[0][0])
            lead = cand[top]
            if lead.real > 1e-12 or (abs(lead.real) <= 1e-12 and lead.imag < 0):
                s = -1
        f = f * s
        signs.append(s)
        rows.append(eta @ f)
    psi = np.array(rows)
    mu = np.diag([float(x) for x in spec.mu])
    v_mat = psi @ mu @ np.linalg.inv(psi)
    res = max(np.abs(psi.T @ psi - eta).max(), np.abs(v_mat + v_mat.T).max())
    if res > 1e-9:
        raise NonSemisimpleError(f"frame residual too large: {res}")
    return SemisimplePoint(tuple(point), u, umat, psi, v_mat, eta, tuple(signs), float(res))


def phi_recursion(ss: SemisimplePoint, kmax: int) -> list:
    """Asymptotic matrix coefficients at the irregular point: off-diagonal parts
    from the commutator equation, diagonal parts from its next-order diagonal."""
    n = len(ss.u)
    u, v = ss.u, ss.v_mat
    phis = [np.eye(n, dtype=complex)]
    for k in range(kmax):
        rhs = (k * np.eye(n) + v) @ phis[k]
        nxt = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                if i != j:
                    nxt[i, j] = rhs[i, j] / (u[j] - u[i])
        diag_rhs = v @ nxt
        for i in range(n):
            nxt[i, i] = -diag_rhs[i, i] / (k + 1)
        phis.append(nxt)
    return phis


def phi_orthogonality_residual(phis: list) -> float:
    worst = 0.0
    n = phis[0].shape[0]
    for k in range(1, len(phis)):
        acc = np.zeros((n, n), dtype=complex)
        for a in range(k + 1):
            acc += (-1) ** a * phis[a].T @ phis[k - a]
        worst = max(worst, np.abs(acc).max())
    return worst


def is_admissible(u, phi_angle: float) -> bool:
    z = cmath.exp(1j * phi_angle)
    return all(abs((z * (ui - uj)).real) > ADMISSIBLE_MARGIN
               for i, ui in enumerate(u) for j, uj in enumerate(u) if i < j)


def _seed_radius(spread: float) -> float:
    """Z_FAR * 4 / spread, scaled both ways: z_far times the spread is 48 at
    every point.  The series terms shrink until about the 48th, and the
    KMAX-th is below double rounding there."""
    return Z_FAR * 4 / spread


def _recessive_angle(u, lo: float, hi: float, col: int) -> float:
    """Angle inside (lo, hi) where column `col` decays fastest relative to every
    other exponential.  Seeding there keeps the truncated asymptotics faithful:
    integration noise can only excite dominant solutions with exponentially
    small coefficients, so the column stays clean when carried inward.  The
    angle is the first of lo + (hi - lo) k / 240, 0 < k < 240, with the least
    max_j Re(e^{i th} (u_col - u_j))."""
    th = lo + (hi - lo) * np.arange(1, 240) / 240
    gaps = u[col] - np.delete(u, col)
    vals = (np.exp(1j * th)[:, None] * gaps).real.max(axis=1, initial=-np.inf)
    best = int(np.argmin(vals))
    if vals[best] >= 0:
        raise MatchingError(f"no recessive angle for column {col} in ({lo}, {hi})")
    return float(th[best])


class IvpResult(NamedTuple):
    y: np.ndarray   # the stack at the end of the path
    nfev: int       # Taylor terms: applications of the operator to the stack


def solve_ivp(d, v, path, y0) -> IvpResult:
    """Taylor steps of z w' = (z D + V) w for every column of the n x m stack
    y0, with D = diag(d[:, c]) for column c and V (n x n) shared.  Column c
    goes from path[0, c] to path[-1, c] in straight steps through the
    path[j, c], every column in the same number.

    A step t from z0 sums w(z0 + t) = sum_k a_k with a_0 = w(z0) and
    a_{k+1} = t / (z0 (k+1)) ((z0 D - k) a_k + V a_k + t D a_{k-1}), one
    application of the operator to the stack per term (Corliss & Chang, ACM
    TOMS 8, 1982).  Two consecutive terms fix all later ones, so the sum
    stops once two are below TERM_GATE units of roundoff of the stack's
    largest entry at the step's start.  A step that gets there in no
    TERM_CAP terms, as a NaN stack never does, raises IntegrationError."""
    y = np.asarray(y0, dtype=complex)
    nfev = 0
    for z0, z1 in zip(path[:-1], path[1:]):
        t = z1 - z0
        zd, td, h = z0 * d, t * d, t / z0
        cut = TERM_GATE * 2.0 ** -53 * np.abs(y).max()
        prev, term, out, last = 0, y, y, math.inf
        for k in range(TERM_CAP):
            term, prev = (h / (k + 1)) * ((zd - k) * term + v @ term + td * prev), term
            out = out + term
            size = np.abs(term).max()
            if max(size, last) <= cut:
                break
            last = size
        else:
            raise IntegrationError(f"Taylor step from |z| = {np.abs(z0).min():.3g}: "
                                   f"no term below the gate in {TERM_CAP}")
        nfev += k + 1
        y = out
    return IvpResult(y, nfev)


def _radii(r_from: float, r_to: float, spread: float) -> np.ndarray:
    """The step radii from r_from down to r_to: each step at most STEP_RHO
    times its start radius and STEP_TAU / spread, so the steps are uniform
    far out and geometric near the pole."""
    radii = [r_from]
    while radii[-1] > r_to:
        radii.append(max(radii[-1] - min(STEP_RHO * radii[-1], STEP_TAU / spread), r_to))
    return np.array(radii)


def _sectorial_solutions(ss, phis, sectors, z_far):
    """Fundamental solutions on every sector ((lo, hi), targets) at each
    r * e^{i th} of its targets.

    Column l of a sector solves z w' = (z (U - u_l) + V) w on its own path;
    the exponential e^{z u_l} is carried analytically, which keeps every
    state O(1) and the term gate of `solve_ivp` meaningful.  Each column is
    seeded once from the truncated asymptotics on the ray where it is
    recessive.  All columns of all sectors go inward together, one stacked
    integration per distinct target radius, every column on its ray through
    the same step radii (`_radii`), and a column leaves the stack after its
    sector's smallest radius.  Every radius is a step endpoint.  One last
    stacked integration carries each (column, target) arc from its ray to
    the target angle in equal angle steps along their chords, as many as
    the longest arc needs under the step rule.

    Returns the solutions of each sector keyed by (r, th), and the work:
    Taylor terms and stack width per integration (radial segments in order,
    then the arcs), their total, and the numbers of radial and arc
    segments."""
    n = len(ss.u)
    spread = float(np.abs(np.subtract.outer(ss.u, ss.u)).max())
    cols = [(k, l, _recessive_angle(ss.u, lo, hi, l), min(r for r, _ in targets))
            for k, ((lo, hi), targets) in enumerate(sectors) for l in range(n)]
    shift = np.array([ss.u[l] for _, l, _, _ in cols])
    th_col = np.array([th for _, _, th, _ in cols])
    ray = np.exp(1j * th_col)
    r_min = np.array([r for _, _, _, r in cols])
    d = ss.u[:, None] - shift[None, :]

    def seed(l, z):
        return sum(phis[k][:, l] / z ** k for k in range(len(phis)))

    y = np.column_stack([seed(l, z_far * ray[c]) for c, (_, l, _, _) in enumerate(cols)])
    active = np.arange(len(cols))
    radii = sorted({r for _, targets in sectors for r, _ in targets}, reverse=True)
    at_radius = {}
    evals, widths = [], []
    r_from = z_far
    for r in radii:
        keep = r_min[active] <= r
        active, y = active[keep], y[:, keep]
        path = _radii(r_from, r, spread)[:, None] * ray[active]
        y, nfev = solve_ivp(d[:, active], ss.v_mat, path, y)
        evals.append(nfev)
        widths.append(len(active))
        for j, c in enumerate(active):
            at_radius[c, r] = y[:, j]
        r_from = r

    # a chord of angle a at radius r has length 2 r sin(a / 2)
    arcs = [(c, r, th) for c, (k, _, _, _) in enumerate(cols) for r, th in sectors[k][1]]
    arc_c = np.array([c for c, _, _ in arcs])
    arc_r = np.array([r for _, r, _ in arcs])
    dth = np.array([th for _, _, th in arcs]) - th_col[arc_c]
    reach = 2 * np.arcsin(np.minimum(STEP_RHO, STEP_TAU / (spread * arc_r)) / 2)
    steps = max(1, math.ceil((np.abs(dth) / reach).max()))
    path = arc_r * np.exp(1j * (th_col[arc_c] + np.outer(np.arange(steps + 1) / steps, dth)))
    y, nfev = solve_ivp(d[:, arc_c], ss.v_mat, path,
                        np.column_stack([at_radius[c, r] for c, r, _ in arcs]))
    evals.append(nfev)
    widths.append(len(arcs))

    out = [{tgt: [None] * n for tgt in targets} for _, targets in sectors]
    for j, (c, r, th) in enumerate(arcs):
        k, l, _, _ = cols[c]
        out[k][r, th][l] = y[:, j] * cmath.exp(r * cmath.exp(1j * th) * ss.u[l])
    work = {"rhs_evals": evals, "rhs_evals_total": sum(evals), "stack_widths": widths,
            "radial_segments": len(radii), "arc_segments": 1}
    return [{tgt: np.column_stack(c) for tgt, c in sol.items()} for sol in out], work


def _exponentials(mu_diag, rmat, c) -> tuple:
    """e^{c mu} and e^{c R}.  R is graded by the spectrum of mu, so R^n = 0
    holds exactly in floats and e^{cR} = sum_{k<n} (cR)^k / k! is exact; an R
    with R^n != 0 raises."""
    x = c * np.asarray(rmat)
    term = out = np.eye(len(x), dtype=complex)
    for k in range(1, len(x)):
        term = term @ x / k
        out = out + term
    if (term @ x).any():
        raise ValueError("R is not nilpotent")
    return np.diag(np.exp(c * np.asarray(mu_diag))), out


def _theta_levels(umat, mu_diag, rmats: dict, theta_low: list, depth: int) -> list:
    """Theta_0..Theta_depth of Theta(z) z^mu z^R at one point, continuing theta_low:
    (k - mu_a + mu_b) (Theta_k)_ab = (U Theta_{k-1} - sum_{1<=j<=k} Theta_{k-j} R_j)_ab."""
    gaps = np.subtract.outer(mu_diag, mu_diag)   # mu_a - mu_b
    theta = list(theta_low)
    for k in range(len(theta), depth + 1):
        rhs = umat @ theta[k - 1] - sum(theta[k - j] @ r for j, r in rmats.items() if j <= k)
        theta.append(rhs / (k - gaps))
    return theta


def _matching_sectors(phi: float, r_match: float, r_small: float) -> list:
    """The right and left sectors of the line at angle `phi`, each as
    ((lo, hi), targets): every (radius, angle) that `stokes_and_connection`
    matches at, so each column ray is integrated once."""
    eps = 0.02
    right = ((phi - math.pi + eps, phi - eps),
             [(r_match, phi), (2 * r_match, phi), (r_match, phi - math.pi),
              (r_small, phi), (r_small * 1.6, phi)])
    left = ((phi + eps, phi + math.pi - eps),
            [(r_match, phi), (2 * r_match, phi), (r_match, phi + math.pi)])
    return [right, left]


def stokes_and_connection(spec: FrobeniusSpec, point, phi_angle: float,
                          tensors: Tensors | None = None, sign_choices=None,
                          tol: float = 1e-6) -> MonodromyData:
    """Stokes and central connection matrices subjected to the oriented line at
    angle `phi_angle`, by inward integration from truncated asymptotics and
    outward matching against the Fuchsian-point solution Theta(z) z^mu z^R.
    Theta_0..Theta_{k_res}, k_res = floor(max mu - min mu), come from the exact
    calibration, which fixes the resonant normalization; the float recursion
    `_theta_levels` continues them to level M_THETA at the point.

    Every column is seeded from KMAX terms of the formal series at
    z_far = Z_FAR * 4 / spread, at every spread (`_seed_radius`); a seed
    truncation above `tol` raises MatchingError.  R_MATCH and R_SMALL are
    scaled by 4 / spread only once the canonical spread exceeds 4, so that z
    times the spread stays in the range they were tuned on.  They are not
    scaled up below a spread of 4: larger radii put the central match where
    the truncated Fuchsian-point series is less accurate."""
    t = tensors or build_tensors(spec)
    ss = semisimple_at(spec, point, t, sign_choices=sign_choices)
    if not is_admissible(ss.u, phi_angle):
        raise MatchingError(f"line at angle {phi_angle} is not admissible for u={ss.u}")
    spread = float(max(abs(a - b) for a in ss.u for b in ss.u))
    scale = 4 / max(spread, 4)
    z_far, r_match, r_small = _seed_radius(spread), R_MATCH * scale, R_SMALL * scale
    phis = phi_recursion(ss, KMAX)
    seed_err = np.abs(phis[-1]).max() / z_far ** KMAX
    if seed_err > tol:
        raise MatchingError(f"seed truncation too large at z_far = {z_far}: {seed_err}")
    n = spec.n

    sectors = _matching_sectors(phi_angle, r_match, r_small)
    (yr, yl), work = _sectorial_solutions(ss, phis, sectors, z_far)

    stokes = np.linalg.solve(yr[r_match, phi_angle], yl[r_match, phi_angle])
    # repeat at twice the radius; the mismatch estimates the numerical error
    stokes2 = np.linalg.solve(yr[2 * r_match, phi_angle], yl[2 * r_match, phi_angle])
    s_resid = np.abs(stokes - stokes2).max()
    if s_resid > tol:
        raise MatchingError(f"Stokes matrix unstable across radii: {s_resid}")

    # transposed relation on the opposite narrow sector: the same geometric ray
    # is reached from below by the right solution and from above by the left one
    yr_m = yr[r_match, phi_angle - math.pi]
    yl_m = yl[r_match, phi_angle + math.pi]
    st_resid = np.abs(yl_m - yr_m @ stokes.T).max() / max(1.0, np.abs(yl_m).max())

    # Fuchsian-point solution: the resonant levels from the calibration, the rest numeric
    k_res = math.floor(max(spec.mu) - min(spec.mu))
    theta_low = [_at_point(spec, m, point)
                 for m in theta_matrix_coefficients(solve_calibration(spec, k_res, t))]
    mu_diag = [float(x) for x in spec.mu]
    rmats = {j: np.array(r, dtype=float) for j, r in spec.rmats.items()}
    theta_num = _theta_levels(ss.umat, mu_diag, rmats, theta_low, M_THETA)
    theta_tail = np.abs(theta_num[-1]).max() * r_small ** M_THETA
    rnum = sum(rmats.values(), np.zeros((n, n)))
    work.update(seed_radius=z_far, series_terms=KMAX,
                theta_exact_levels=k_res, theta_levels=M_THETA)

    def y0_at(r):
        z = r * cmath.exp(1j * phi_angle)
        theta_z = sum(theta_num[k] * z ** k for k in range(len(theta_num)))
        # z^mu z^R on the branch log z = ln r + i phi_angle
        z_mu, z_r = _exponentials(mu_diag, rnum, math.log(r) + 1j * phi_angle)
        return ss.psi @ theta_z @ z_mu @ z_r

    def c_at(r):
        return np.linalg.solve(y0_at(r), yr[r, phi_angle])

    central = c_at(r_small)
    central2 = c_at(r_small * 1.6)
    c_resid = np.abs(central - central2).max()
    if c_resid > tol:
        raise MatchingError(f"central connection matrix unstable: {c_resid}")

    # ordering that renders S unipotent triangular for this line
    growth = [(cmath.exp(1j * phi_angle) * ui).real for ui in ss.u]
    perm = sorted(range(n), key=lambda i: growth[i])
    conventions = {
        "phi": phi_angle,
        "canonical_order": [complex(x) for x in ss.u],
        "sign_choices": ss.sign_choices,
        "branch": f"arg z = {phi_angle} on the matching ray",
        "upper_triangular_order": perm,
        "radius_scale": scale,
    }
    residuals = {
        "seed_truncation": float(seed_err),
        "stokes_stability": float(s_resid),
        "stokes_transpose_relation": float(st_resid),
        "central_stability": float(c_resid),
        "theta_tail": float(theta_tail),
        "frame": ss.residual_frame,
        "unipotent": float(np.abs(np.diag(stokes) - 1).max()),
    }
    return MonodromyData(
        mu=np.diag(mu_diag), rmat=rnum, stokes=stokes, central=central,
        marked_index=spec.unity, conventions=conventions, residuals=residuals,
        work=work)


def monodromy_identities(md: MonodromyData, eta) -> dict:
    """The two standard constraints tying (S, C) to the Fuchsian exponents.

    The loop operator of the z^mu z^R solution is the product of the two
    commuting exponentials (the nilpotent part is graded by the spectrum), so
    that is the right-hand side of the first identity."""
    s, c = md.stokes, md.central
    mu_diag = np.diag(md.mu)
    eta_n = np.array([[float(x) for x in row] for row in eta])
    lhs1 = c @ s.T @ np.linalg.inv(s) @ np.linalg.inv(c)
    e_mu, e_r = _exponentials(mu_diag, md.rmat, 2j * math.pi)
    res1 = np.abs(lhs1 - e_mu @ e_r).max()
    cinv = np.linalg.inv(c)
    e_mu, e_r = _exponentials(mu_diag, md.rmat, -1j * math.pi)
    rhs2 = cinv @ e_r @ e_mu @ np.linalg.inv(eta_n) @ cinv.T
    res2 = np.abs(s - rhs2).max()
    return {"monodromy_residual": float(res1), "stokes_from_central_residual": float(res2),
            "pass": bool(res1 < 1e-8 and res2 < 1e-8)}


def tensor_monodromy(mu1, r1, s1, c1, marked1, mu2, r2, s2, c2, marked2) -> dict:
    """Kronecker combination of two sets of monodromy data (exact arithmetic)."""
    n1, n2 = len(mu1), len(mu2)
    eye1 = [[Fraction(int(i == j)) for j in range(n1)] for i in range(n1)]
    eye2 = [[Fraction(int(i == j)) for j in range(n2)] for i in range(n2)]
    mu1d = [[mu1[i] if i == j else Fraction(0) for j in range(n1)] for i in range(n1)]
    mu2d = [[mu2[i] if i == j else Fraction(0) for j in range(n2)] for i in range(n2)]

    def madd(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    return {
        "mu": madd(kron(mu1d, eye2), kron(eye1, mu2d)),
        "R": madd(kron(r1, eye2), kron(eye1, r2)),
        "S": kron(s1, s2),
        "C": kron(c1, c2),
        "marked": (marked1, marked2),
    }


def align_frame(ss: SemisimplePoint, u_ref, psi_ref) -> SemisimplePoint:
    """Permute the canonical labels to track a reference eigenvalue vector, then
    flip row signs toward a reference frame (stencil continuity)."""
    n = len(ss.u)
    taken: set = set()
    perm = []
    for i in range(n):
        j = min((j for j in range(n) if j not in taken),
                key=lambda j: abs(ss.u[j] - u_ref[i]))
        taken.add(j)
        perm.append(j)
    psi = ss.psi[perm, :].copy()
    signs = [ss.sign_choices[p] for p in perm]
    for i in range(n):
        if np.abs(psi[i] - psi_ref[i]).max() > np.abs(-psi[i] - psi_ref[i]).max():
            psi[i] = -psi[i]
            signs[i] = -signs[i]
    v_mat = ss.v_mat[np.ix_(perm, perm)]
    flips = np.diag([1.0 if s == t else -1.0
                     for s, t in zip(signs, (ss.sign_choices[p] for p in perm))])
    v_mat = flips @ v_mat @ flips
    return SemisimplePoint(ss.point, ss.u[perm], ss.umat, psi, v_mat, ss.eta,
                           tuple(signs), ss.residual_frame)


def hamiltonians_and_closedness(spec: FrobeniusSpec, point, h: float = 1e-4,
                                tensors: Tensors | None = None) -> dict:
    """Finite-difference check of the isomonodromic equations in the flat
    coordinates: central differences at v +- h e_a (h is a step in v), each
    frame aligned to the one at v.  With J_ia = du_i/dv^a = psi_ia / psi_i,iota
    at v, the one-form sum_i H_i du_i is closed iff K = (dH/dv)^T J is
    symmetric, and dV/dv^a = sum_i J_ia [V_i, V]."""
    t = tensors or build_tensors(spec)
    n = spec.n
    base = semisimple_at(spec, point, t)
    if n == 1:
        return {"pass": True, "closedness_residual": 0.0, "veq_residual": 0.0,
                "note": "single-point algebra: hamiltonians vanish"}

    def h_vec(ss) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        for i in range(n):
            out[i] = sum(ss.v_mat[i, j] ** 2 / (ss.u[i] - ss.u[j])
                         for j in range(n) if j != i) / 2
        return out

    v0 = np.array([complex(x) for x in point])
    # dH_i/dv^a and dV/dv^a by central differences
    dh = np.zeros((n, n), dtype=complex)
    dv = []
    for a in range(n):
        up, dn = (align_frame(semisimple_at(spec, tuple(v0 + s * h * np.eye(n)[a]), t),
                              base.u, base.psi) for s in (1, -1))
        dh[:, a] = (h_vec(up) - h_vec(dn)) / (2 * h)
        dv.append((up.v_mat - dn.v_mat) / (2 * h))
    jac = base.psi / base.psi[:, [spec.unity - 1]]
    k = dh.T @ jac
    closed = float(np.abs(k - k.T).max())

    # dV/du_i = [V_i, V] with V_i = ad_U^{-1}([E_i, V])
    vm = base.v_mat
    gaps = np.subtract.outer(base.u, base.u)
    np.fill_diagonal(gaps, 1.0)   # [E_i, V] vanishes on the diagonal
    brackets = []
    for e_i in np.eye(n):
        vi = (e_i[:, None] * vm - vm * e_i[None, :]) / gaps
        brackets.append(vi @ vm - vm @ vi)
    veq = float(np.abs(np.array(dv) - np.einsum("ia,ibc->abc", jac, brackets)).max())
    return {"pass": bool(closed < 1e-6 and veq < 1e-5),
            "closedness_residual": closed, "veq_residual": veq}


def frame_invariance_report(spec_m: FrobeniusSpec, spec_hat: FrobeniusSpec,
                            point_m, kappa: int,
                            tensors_m: Tensors | None = None,
                            tensors_hat: Tensors | None = None) -> dict:
    """Psi and V agree between a manifold and its transform at matched points,
    with the hat square-root signs induced by the kappa-column of psi."""
    tm = tensors_m or build_tensors(spec_m)
    th = tensors_hat or build_tensors(spec_hat)
    ss = semisimple_at(spec_m, point_m, tm)
    # matched hat point: second derivatives of the potential in the kappa slot
    names = spec_m.varnames
    pt = {v: complex(x) for v, x in zip(names, point_m)}
    row = [spec_m.potential.diff(names[kappa - 1]).diff(v) for v in names]
    hat_pt = tuple(hat_point(row, tm.eta_inv, pt))
    ss_hat = semisimple_at(spec_hat, hat_pt, th,
                           sign_reference=(kappa - 1, ss.psi[:, kappa - 1]))
    dpsi = float(np.abs(ss.psi - ss_hat.psi).max())
    dv = float(np.abs(ss.v_mat - ss_hat.v_mat).max())
    du = float(np.abs(ss.u - ss_hat.u).max())
    kap_match = float(np.abs(ss.psi[:, kappa - 1] - ss_hat.psi[:, kappa - 1]).max())
    return {"pass": bool(dpsi < 1e-9 and dv < 1e-9 and du < 1e-9),
            "psi_residual": dpsi, "v_residual": dv, "u_residual": du,
            "kappa_column_residual": kap_match,
            "hat_point": hat_pt, "hat_signs": ss_hat.sign_choices}

"""The slot solver: a test oracle for the coefficient tables.

It imposes associativity on a potential ansatz, a fixed part plus unknown
coefficients times explicit slot monomials, collects the residual as
polynomial equations in the unknowns and solves them by levels, with a
rigorous completeness cutoff for the truncated ansatz.  No command runs it:
`frobwdvv.solver` reaches N_{k,l}, c_{k,l} and a_{m1,m2} by scalar WDVV
recursions, and the tests hold each equal to the slot solve of its whole
ansatz here (`p1xp1_family`, `s22_family`, `s21_family`).  It also
reproduces N_d on `p2_family` and the c_k of P2's kappa = 2 reduction on its
hat ansatz (`p2_s2_hat_family`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Optional

from frobwdvv.closedform import ClosedForm, Cutoff, Mono, cf_exp, cf_mono, mono_exp_degree
from frobwdvv.exact import Exact
from frobwdvv.linalg import InconsistentSystemError, _eliminate, mat_inv
from frobwdvv.solver import UnderdeterminedError, _a21_output, _ckl_output

F = Fraction


def solve_affine(rows: list) -> dict:
    """Unknowns pinned by affine rows {(): const, (u,): coef} (each row = 0);
    an underdetermined system yields only the unknowns it fixes."""
    out = {}
    for (u,), row in _eliminate(rows, bool).items():
        if len(row) == 1 + (() in row):
            out[u] = -row.get((), Fraction(0))
    return out


@dataclass
class SlotFamily:
    """Ansatz: fixed closed form plus unknown coefficients on slot monomials.

    `prefactors` expresses flat derivatives in working coordinates
    (d_i = prefactor_i * d/dx_i); `depth` is a linear functional on monomials
    that is additive under products, and `excluded_min_depth` bounds from below
    the depth of any residual contribution involving a slot beyond max_level.
    Both are integers, so the kept depths are those below that bound.
    """
    name: str
    varnames: tuple[str, ...]
    eta: tuple
    fixed: ClosedForm
    slot_gen: Callable[[int], list]      # level -> [(key, mono ClosedForm)]
    depth: Callable[[Mono], int]
    excluded_min_depth: Callable[[int], int]
    prefactors: Optional[dict[str, ClosedForm]] = None
    seeds: dict = field(default_factory=dict)


@dataclass
class SlotSolution:
    values: dict                        # key -> scalar


def _c_rows(f: ClosedForm, varnames, prefactors, depth) -> dict:
    """Nonzero rows of the third 'flat' derivatives c_{rho x y} (with optional
    derivation prefactors), each entry and each row under the least `depth` of
    its terms: {(x, y) with x <= y: (row bound, {rho: (bound, c_{rho x y})})},
    holding only the nonzero entries and the nonempty rows."""
    n = len(varnames)

    def d(i, g):
        out = g.diff(varnames[i])
        if prefactors and varnames[i] in prefactors:
            out = prefactors[varnames[i]] * out
        return out

    firsts = [d(i, f) for i in range(n)]
    c = {}
    for a in range(n):
        seconds = [d(b, firsts[a]) for b in range(a, n)]
        for bi, b in enumerate(range(a, n)):
            for g in range(b, n):
                c[(a, b, g)] = d(g, seconds[bi])
    rows = {}
    for x in range(n):
        for y in range(x, n):
            row = {rho: (min(map(depth, v.terms)), v) for rho in range(n)
                   if (v := c[tuple(sorted((rho, x, y)))])}
            if row:
                rows[(x, y)] = (min(lo for lo, _ in row.values()), row)
    return rows


@lru_cache(maxsize=None)
def _quad_pairings(n: int) -> tuple:
    """For every index multiset (a, b, g, d), the keys of its three pairings
    (ab|gd), (ag|bd), (ad|bg); a key is the sorted pair of sorted index pairs."""
    def key(x, y, z, w):
        return tuple(sorted((tuple(sorted((x, y))), tuple(sorted((z, w))))))
    return tuple((q, (key(*q), key(q[0], q[2], q[1], q[3]), key(q[0], q[3], q[1], q[2])))
                 for q in combinations_with_replacement(range(n), 4))


def _pair_residual(rows1, rows2, eta_nz, n, depth, depth_cap):
    """Polynomial-free residual contribution D(f,g): for every index multiset the
    three pairing differences of A(xy|zw) = c1^s_{xy} c2_{s zw} + (1 <-> 2),
    restricted to monomials with depth <= depth_cap.

    `rows1`, `rows2` are the `_c_rows` tables of f and g; `eta_nz[rho]` lists
    the nonzero (sigma, eta^{rho sigma}).  With eta symmetric, A is symmetric
    under x <-> y, z <-> w and (xy) <-> (zw), so each unordered pair of index
    pairs is summed once, from the products of nonempty rows only.  The depth
    adds up under products, so a row pair or an entry pair whose bounds sum
    past depth_cap yields no kept term and is never handed to the kernel.

    Returns dict[(quad, pairing_slot, mono)] -> scalar."""
    triples: dict = {}
    for p, (lo1, r1) in rows1.items():
        for q, (lo2, r2) in rows2.items():
            if lo1 + lo2 > depth_cap:
                continue
            prods = [(e, f, t[1]) for rho, (d1, f) in r1.items() for sig, e in eta_nz[rho]
                     if (t := r2.get(sig)) and d1 + t[0] <= depth_cap]
            if prods:
                # the (1 <-> 2) half c2_p c1_q of the pairing at {p, q} is the
                # sum met at (q, p); at p = q both halves are this one sum
                triples.setdefault((p, q) if p <= q else (q, p), []).extend(
                    prods * 2 if p == q else prods)
    cut = Cutoff(depth, depth_cap)
    pairs = {key: ClosedForm.sum_of_products(t, cut) for key, t in triples.items()}

    out = {}
    zero = ClosedForm.zero()
    for quad, (k1, k2, k3) in _quad_pairings(n):
        p1 = pairs.get(k1, zero)
        for slot_id, k in ((0, k2), (1, k3)):
            other = pairs.get(k, zero)
            if k == k1 or not (p1 or other):
                continue
            for m, c in (p1 - other).terms.items():
                out[(quad, slot_id, m)] = c
    return out


def solve_slot_family(fam: SlotFamily, max_level: int, target_levels: int) -> SlotSolution:
    """Impose associativity on the ansatz truncated at `max_level`, keep only
    equations provably unaffected by discarded slots, and solve for all slot
    coefficients at levels <= target_levels."""
    n = len(fam.varnames)
    eta_inv = mat_inv([list(r) for r in fam.eta])
    eta_nz = [[(sig, e) for sig, e in enumerate(row) if e] for row in eta_inv]

    slots = []
    level_of = {}
    for lv in range(0, max_level + 1):
        for key, mono in fam.slot_gen(lv):
            slots.append((key, mono))
            level_of[key] = lv

    c_fixed = _c_rows(fam.fixed, fam.varnames, fam.prefactors, fam.depth)
    c_slots = {key: _c_rows(m, fam.varnames, fam.prefactors, fam.depth) for key, m in slots}

    depth_cap = fam.excluded_min_depth(max_level) - 1

    def bounds(rows):   # each rho's least entry bound over a form's rows; inf where none
        return [min((r[rho][0] for _, r in rows.values() if rho in r), default=math.inf)
                for rho in range(n)]

    def beyond_cap(lo1, lo2):   # every entry pair that eta pairs lies past the cap
        return min((lo1[rho] + lo2[sig] for rho, row in enumerate(eta_nz) for sig, _ in row),
                   default=math.inf) > depth_cap

    lo_fixed = bounds(c_fixed)
    lo_slot = {key: bounds(c) for key, c in c_slots.items()}
    for key, lo in lo_slot.items():
        if min(lo) == math.inf:
            raise InconsistentSystemError(f"{fam.name}: slot {key} has vanishing c-tensor")

    # equations: dict[(quad, pairing, mono)] -> {(sorted key tuple): scalar}
    equations: dict = {}

    def add(contrib: dict, ukeys: tuple, factor: Fraction):
        for ekey, c in contrib.items():
            poly = equations.setdefault(ekey, {})
            s = poly.get(ukeys, F(0)) + c * factor
            if s:
                poly[ukeys] = s
            else:
                poly.pop(ukeys, None)

    # fixed-fixed and slot-slot (i == j) contributions are doubled by the
    # symmetrization
    add(_pair_residual(c_fixed, c_fixed, eta_nz, n, fam.depth, depth_cap), (), F(1, 2))
    for key, c in c_slots.items():
        if beyond_cap(lo_fixed, lo_slot[key]):
            continue
        add(_pair_residual(c_fixed, c, eta_nz, n, fam.depth, depth_cap), (key,), F(1))
    for i, (ki, _) in enumerate(slots):
        for j in range(i, len(slots)):
            kj, _ = slots[j]
            if beyond_cap(lo_slot[ki], lo_slot[kj]):
                continue
            add(_pair_residual(c_slots[ki], c_slots[kj], eta_nz, n, fam.depth, depth_cap),
                tuple(sorted((ki, kj))), F(1, 2) if i == j else F(1))

    eq_list = [poly for poly in equations.values() if poly]
    solution = dict(fam.seeds)
    unknown_keys = [key for key, _ in slots if key not in solution]

    solved = _solve_polynomial_equations(fam.name, eq_list, unknown_keys, solution)

    bad = [k for k in unknown_keys if k not in solved and level_of[k] <= target_levels]
    if bad:
        raise UnderdeterminedError(f"{fam.name}: could not determine {bad}")
    return SlotSolution(solved)


def _poly_substitute(poly: dict, known: dict):
    out: dict = {}
    for ukeys, c in poly.items():
        rem = []
        val = c
        for k in ukeys:
            if k in known:
                val = val * known[k]
            else:
                rem.append(k)
        if isinstance(val, (int, Fraction, Exact)) and not val:
            continue
        rkey = tuple(sorted(rem))
        s = out.get(rkey, F(0)) + val
        if s:
            out[rkey] = s
        else:
            out.pop(rkey, None)
    return out


def _solve_polynomial_equations(name: str, eq_list: list, unknown_keys: list,
                                known: dict) -> dict:
    """Iteratively substitute, peel affine equations (exact Gaussian elimination),
    and use pure-square equations u^2 = 0; raises on inconsistency."""
    known = dict(known)
    # each live equation is kept in its last reduced form, which holds no
    # unknown known at the time, so it needs substituting again only when one
    # of its unknowns has been pinned since; known values only accumulate, so
    # an equation that reduced to nothing stays reduced and leaves the loop
    live = eq_list
    for _round in range(60):
        rows = []
        progressed = False
        pending = []
        for sub in live:
            if any(k in known for ukeys in sub for k in ukeys):
                sub = _poly_substitute(sub, known)
                if not sub:
                    continue
            pending.append(sub)
            degs = [len(k) for k in sub]
            if max(degs) == 0:
                raise InconsistentSystemError(
                    f"{name}: residual equation has nonzero constant {sub[()]}")
            if max(degs) == 1:
                rows.append(sub)
            elif len(sub) == 1:
                (ukeys, c), = sub.items()
                if len(ukeys) == 2 and ukeys[0] == ukeys[1]:
                    known[ukeys[0]] = F(0)
                    progressed = True
        if rows:
            try:
                new = solve_affine(rows)
            except InconsistentSystemError as err:
                raise InconsistentSystemError(f"{name}: {err}") from None
            for k, v in new.items():
                if k in known:
                    if known[k] != v:
                        raise InconsistentSystemError(f"{name}: conflicting values for {k}")
                else:
                    known[k] = v
                    progressed = True
        live = pending
        if not progressed:
            break
    # final consistency: every equation whose unknowns are all known must vanish
    for poly in eq_list:
        sub = _poly_substitute(poly, known)
        if sub and max(len(k) for k in sub) == 0:
            raise InconsistentSystemError(f"{name}: unsatisfied equation, residual {sub[()]}")
    return known


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------

def _antidiag_eta(n: int):
    return tuple(tuple(F(int(i + j == n - 1)) for j in range(n)) for i in range(n))


def p1xp1_family(max_level: int) -> SlotFamily:
    """Quadric-surface curve counts: cubic part plus one slot per bidegree."""
    v1, v2, v3, v4 = "v1", "v2", "v3", "v4"
    fixed = cf_mono(F(1, 2), {v1: 2, v4: 1}) + cf_mono(F(1), {v1: 1, v2: 1, v3: 1})

    def gen(level):
        if level < 1:
            return []
        out = []
        for k in range(level + 1):
            l = level - k
            mono = cf_mono(F(1, math.factorial(2 * level - 1)), {v4: 2 * level - 1},
                           None, {v2: k, v3: l})
            out.append((("N", k, l), mono))
        return out

    return SlotFamily(
        name="p1xp1",
        varnames=(v1, v2, v3, v4),
        eta=_antidiag_eta(4),
        fixed=fixed,
        slot_gen=gen,
        depth=mono_exp_degree,
        excluded_min_depth=lambda L: L + 1,
        seeds={("N", 0, 1): F(1), ("N", 1, 0): F(1)},
    )


def p2_family(max_level: int) -> SlotFamily:
    v1, v2, v3 = "v1", "v2", "v3"
    fixed = cf_mono(F(1, 2), {v1: 2, v3: 1}) + cf_mono(F(1, 2), {v1: 1, v2: 2})

    def gen(level):
        if level < 1:
            return []
        mono = cf_mono(F(1, math.factorial(3 * level - 1)), {v3: 3 * level - 1},
                       None, {v2: level})
        return [(("N", level), mono)]

    return SlotFamily(
        name="p2",
        varnames=(v1, v2, v3),
        eta=_antidiag_eta(3),
        fixed=fixed,
        slot_gen=gen,
        depth=mono_exp_degree,
        excluded_min_depth=lambda L: L + 1,
        seeds={("N", 1): F(1)},
    )


def p2_s2_hat_family() -> SlotFamily:
    """Associativity for the kappa=2 transform of the plane example, solved
    directly on the hat-coordinate ansatz (cross-check of the 1d reduction)."""
    h1, h2, h3 = "h1", "h2", "h3"
    fixed = (cf_mono(F(1, 6), {h2: 3}) + cf_mono(F(1), {h1: 1, h2: 1, h3: 1})
             + cf_exp(h3))

    def gen(level):
        if level < 1:
            return []
        mono = cf_mono(F(1, math.factorial(3 * level)), {h1: 3 * level},
                       None, {h3: 1 - 2 * level})
        return [(("C", level), mono)]

    def depth(m: Mono) -> int:
        return m.pow_of(h1)

    return SlotFamily(
        name="p2-s2-hat",
        varnames=(h1, h2, h3),
        eta=_antidiag_eta(3),
        fixed=fixed,
        slot_gen=gen,
        depth=depth,
        excluded_min_depth=lambda L: 3 * L,
        seeds={},
    )


def s22_family() -> SlotFamily:
    """Hat ansatz for the (2,2)-direction transform of the quadric example,
    in coordinates where the first hat variable is a cube: v-hat-1 = w^3."""
    w, y, z, t = "w", "y", "z", "t"
    fixed = (cf_mono(F(1, 2), {t: 2, w: 3})
             + cf_mono(F(1), {y: 1, z: 1, t: 1})
             + cf_mono(F(1), {w: 3, y: 1}, {y: 1})
             + cf_mono(F(1), {w: 3, z: 1}, {z: 1}))
    prefactors = {w: cf_mono(F(1, 3), {w: -2})}

    def gen(level):
        out = []
        for k in range(level + 1):
            l = level - k
            out.append((("C", k, l), cf_mono(F(1), {w: 5 + 2 * level, y: -k, z: -l})))
        return out

    def depth(m: Mono) -> int:
        return m.pow_of(w)

    return SlotFamily(
        name="s22",
        varnames=(w, y, z, t),
        eta=_antidiag_eta(4),
        fixed=fixed,
        slot_gen=gen,
        depth=depth,
        excluded_min_depth=lambda L: 2 * L - 6,
        prefactors=prefactors,
        seeds={},
    )


def s21_family() -> SlotFamily:
    """Hat ansatz for the (2,1)-direction transform; v-hat-1 = w^2 and the
    fourth variable enters through exponentials."""
    w, y, z, t = "w", "y", "z", "t"
    fixed = (cf_mono(F(1, 2), {z: 2, y: 1})
             + cf_mono(F(1), {w: 2, z: 1, t: 1})
             + cf_mono(F(2), {w: 2, y: 1}, {w: 1})
             - cf_mono(F(1), {w: 2, y: 1}))
    prefactors = {w: cf_mono(F(1, 2), {w: -1})}

    def gen(level):
        # level = m1 + 4 m2 with m1, m2 >= 1
        out = []
        for m2 in range(1, level // 4 + 1):
            m1 = level - 4 * m2
            if m1 >= 1:
                out.append((("a", m1, m2),
                            cf_mono(F(1), {w: 3 - m1 - 2 * m2, y: m1}, None, {t: m2})))
        return out

    def depth(m: Mono) -> int:
        return 2 * m.exp_of(t) - m.pow_of(w)

    return SlotFamily(
        name="s21",
        varnames=(w, y, z, t),
        eta=_antidiag_eta(4),
        fixed=fixed,
        slot_gen=gen,
        depth=depth,
        excluded_min_depth=lambda L: L - 2,
        prefactors=prefactors,
        seeds={("a", 1, 1): F(1)},
    )


def slot_ckl(max_level: int):
    """`solver.solve_ckl` by the slot solve of `s22_family`, cut two levels
    past the bound."""
    sol = solve_slot_family(s22_family(), max_level + 2, max_level)
    return _ckl_output({key[1:]: v for key, v in sol.values.items()}, max_level)


def slot_a21(max_level: int):
    """`solver.solve_a21` by the slot solve of `s21_family`.  Slots are
    included up to the next level that is 3 mod 4: a bound such as 9 leaves
    a_{1,2} undetermined until level 11 is in the ansatz."""
    sol = solve_slot_family(s21_family(), max_level + (3 - max_level) % 4, max_level)
    return _a21_output({key[1:]: v for key, v in sol.values.items()}, max_level)

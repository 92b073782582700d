"""Bundled manifold specs and the JSON loader.

Closed-form specs carry their potential inline; the three truncated families
carry a generator name plus a cutoff and are materialized on load, graded by
total exponential degree.  The two-parameter family is built from parameters.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .closedform import ClosedForm, Mono, cf_mono
from .core import FrobeniusSpec, build_tensors, validate_spec
from .solver import gamma_series, recursion_nd, recursion_nkl

__all__ = [
    "SpecParseError", "load_spec", "spec_from_json_obj",
    "deepen_spec", "generator_potential",
    "builtin_spec", "BUILTIN_SPECS", "twodim_spec",
]

F = Fraction

BUILTIN_SPECS = ("p1", "nls", "p1orb", "a2", "p2", "p1xp1", "ccc_a111", "twodim")


class SpecParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# potential generators for the truncated families
# ---------------------------------------------------------------------------

def p2_gw_potential(max_degree: int) -> ClosedForm:
    nd = recursion_nd(max_degree).table()
    import math
    terms = {Mono.make({"v1": 2, "v3": 1}): F(1, 2), Mono.make({"v1": 1, "v2": 2}): F(1, 2)}
    for d in range(1, max_degree + 1):
        terms[Mono.make({"v3": 3 * d - 1}, None, {"v2": d})] = nd[d] / math.factorial(3 * d - 1)
    return ClosedForm(terms)


def p1xp1_gw_potential(max_degree: int) -> ClosedForm:
    import math
    nkl = recursion_nkl(max_degree).table()
    terms = {Mono.make({"v1": 2, "v4": 1}): F(1, 2), Mono.make({"v1": 1, "v2": 1, "v3": 1}): F(1)}
    for (k, l), v in sorted(nkl.items()):
        if v and k + l >= 1:
            s = k + l
            terms[Mono.make({"v4": 2 * s - 1}, None, {"v2": k, "v3": l})] = \
                v / math.factorial(2 * s - 1)
    return ClosedForm(terms)


def ccc_potential(max_degree: int) -> ClosedForm:
    g = gamma_series(max_degree)
    terms = {Mono.make({"v1": 2, "v3": 1}): F(1, 2), Mono.make({"v1": 1, "v2": 2}): F(1, 2)}
    for m, c in sorted(g.items()):
        terms[Mono.make({"v2": 4}, None, {"v3": m} if m else None)] = -c / 16
    return ClosedForm(terms)


_GENERATORS = {
    "p2_gw": p2_gw_potential,
    "p1xp1_gw": p1xp1_gw_potential,
    "ccc_quartic": ccc_potential,
}


def twodim_spec(m: Fraction, c: Fraction, name: str = "twodim") -> FrobeniusSpec:
    """Two-dimensional family (1/2) v^2 u + c u^m; charge (m-3)/(m-1).

    The half-integer member m = 3/2 is resonant (spectrum gap 3) and its
    calibration forces a nilpotent block (R_3)^1_2 = -9 c^2 / 4; other members
    with an integer gap admit R = 0 (even gaps force it by the skew rule)."""
    m, c = F(m), F(c)
    if m in (0, 1, 2) or c == 0:
        raise SpecParseError("parameters must satisfy m not in {0,1,2} and c != 0")
    d = (m - 3) / (m - 1)
    pot = cf_mono(F(1, 2), {"v1": 2, "v2": 1}) + cf_mono(c, {"v2": m})
    rmats = {}
    if m == F(3, 2):
        rmats = {3: ((F(0), -F(9, 4) * c * c), (F(0), F(0)))}
    return FrobeniusSpec(
        name=name, varnames=("v1", "v2"), unity=1, potential=pot,
        charge=d, mu=(-d / 2, d / 2), rmats=rmats, euler_shifts=(F(0), F(0)))


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def _vector(vals, n: int, field: str) -> tuple:
    """The n rationals of the spec field `field`."""
    if len(vals) != n:
        raise SpecParseError(f"{field} needs {n} entries, got {len(vals)}")
    return tuple(F(x) for x in vals)


def spec_from_json_obj(obj: dict, params: dict | None = None) -> FrobeniusSpec:
    try:
        name = obj.get("name", "spec")
        if obj.get("parametric") == "twodim":
            params = params or {}
            if "m" not in params or "c" not in params:
                raise SpecParseError("twodim spec needs --param m=... and c=...")
            return twodim_spec(F(params["m"]), F(params["c"]), name)
        varnames = obj["variables"]
        if not isinstance(varnames, list) or not all(isinstance(v, str) for v in varnames):
            raise SpecParseError(f"variables must be a list of names, got {varnames!r}")
        n = len(varnames)
        pot_obj = obj["potential"]
        generator = None
        if "generator" in pot_obj:
            gen = pot_obj["generator"]
            fn = _GENERATORS.get(gen["name"])
            if fn is None:
                raise SpecParseError(f"unknown generator {gen['name']}")
            generator = (gen["name"], int(gen["max_degree"]))
            potential = fn(generator[1])
        else:
            potential = ClosedForm.from_json_obj(pot_obj)
        mu = _vector(obj["mu"], n, "mu")
        rmats = {}
        for blk in obj.get("R", []):
            s = int(blk["s"])
            mat = [[F(0)] * n for _ in varnames]
            for r, c, v in blk["entries"]:
                if not (1 <= int(r) <= n and 1 <= int(c) <= n):
                    raise SpecParseError(f"R_{s} entry ({r}, {c}) is outside 1..{n}")
                mat[int(r) - 1][int(c) - 1] = F(v)
            rmats[s] = tuple(tuple(row) for row in mat)
        shifts = _vector(obj.get("euler", {}).get("shifts", ["0"] * n), n, "euler.shifts")
        unity = int(obj["unity_index"])
        if not 1 <= unity <= n:
            raise SpecParseError(f"unity_index must be in 1..{n}, got {unity}")
        cutoff = obj.get("grading", {}).get("exp_cutoff")
        spec = FrobeniusSpec(
            name=name, varnames=tuple(varnames), unity=unity,
            potential=potential, charge=F(obj["charge"]), mu=mu, rmats=rmats,
            euler_shifts=shifts,
            exp_cutoff=F(cutoff) if cutoff is not None else None,
            generator=generator)
        if "linear" in obj.get("euler", {}):
            lin = _vector(obj["euler"]["linear"], n, "euler.linear")
            for b in range(1, spec.n + 1):
                if lin[b - 1] != spec.euler_linear(b):
                    raise SpecParseError(f"euler linear part inconsistent with mu at {b}")
        return spec
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, SpecParseError):
            raise
        raise SpecParseError(f"malformed spec: {exc}") from exc


def generator_potential(name: str, degree: int) -> ClosedForm:
    """Materialize a registered truncated-family potential at a given degree."""
    return _GENERATORS[name](degree)


def deepen_spec(spec: FrobeniusSpec, degree: int) -> FrobeniusSpec:
    """Re-materialize a generator-backed spec at a deeper truncation degree."""
    from dataclasses import replace
    if spec.generator is None:
        return spec
    gen_name, cur = spec.generator
    if degree <= cur:
        return spec
    return replace(spec, potential=_GENERATORS[gen_name](degree),
                   exp_cutoff=F(degree), generator=(gen_name, degree))


def builtin_spec(name: str, params: dict | None = None) -> FrobeniusSpec:
    if name not in BUILTIN_SPECS:
        raise SpecParseError(f"unknown builtin spec {name!r}; choose from {BUILTIN_SPECS}")
    text = resources.files("frobwdvv").joinpath(f"specs/{name}.json").read_text()
    return spec_from_json_obj(json.loads(text), params)


def load_spec(path_or_name: str, params: dict | None = None) -> FrobeniusSpec:
    """Load a spec from a file path, or fall back to a bundled name."""
    p = Path(path_or_name)
    if p.exists():
        try:
            obj = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise SpecParseError(f"malformed spec: {exc}") from exc
        spec = spec_from_json_obj(obj, params)
    else:
        stem = p.stem if p.suffix == ".json" else path_or_name
        spec = builtin_spec(stem, params)
    validate_spec(spec, build_tensors(spec))
    return spec

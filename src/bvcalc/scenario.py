"""Declarative scenario files and their runners.

A scenario is an INI file describing one verification run:

    [scenario]
    kind = chainrule-verify      ; one of the six kinds below
    seed = 20240822              ; optional, fixes all randomized choices
    tolerance = 1e-6             ; optional, per-kind default otherwise
    cases = 50                   ; optional, suite size for generated suites
    domain = 0 1                 ; optional ambient interval, default ]0,1[;
                                 ; generated suites accept only 0 1

    [flux]                       ; explicit flux model, term by term
    term1.f = poly 0 1           ; f(w) as ascending coefficients
    term1.K = poly 1 + jump 0.5 1

    [u]                          ; explicit state / initial datum
    component1 = poly 0 1 + jump 0.5 -0.5 + cantor 0 1 0.3
    ; claw kinds use a single key:  initial = ...

    [test_functions]
    phi1 = bump 0.1 0.9 1.0      ; support and amplitude
    ; claw kinds: bump xlo xhi tlo thi amplitude

    [claw]
    cells = 200
    time = 0.5
    range = -2 2                 ; working state interval
    cfl = 0.45                   ; optional
    alpha = 0.5 1.0              ; entropy-check levels

Function expressions are sums of atoms joined by ``+``:

    poly c0 c1 ...        polynomial with ascending coefficients
    jump x0 s0 [x1 s1 ..] Heaviside steps of size s at x
    cantor lo hi coeff    Cantor-function summand on ]lo, hi[

Every runner writes ``report.csv`` with the fixed column order

    scenario, case, lhs, term1..term5, residual, tolerance, status

and ``timing.csv`` (scenario, case, runtime_s) as a sidecar, so that the
report itself is byte-identical across reruns of the same scenario and
seed.  ``claw-run`` additionally writes ``field.csv`` with one row per
(cell, step) and the per-step mass drift; ``approx-demo`` writes the
first case's staircase to ``stairs_case00.csv``.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import cases
from .bvfunction import (
    BVFunction,
    BVVector,
    TestFunction,
    coarea_lhs,
    coarea_rhs,
)
from .chainrule import FluxModel, SmoothFunction, chainrule_terms, levelset_comparison_pwc
from .claw import (
    ScalarFlux,
    SpaceTimeTest,
    adapted_entropy_pair,
    entropy_residual,
    solve_claw,
)
from .errors import ScenarioError
from .pwconst import ExceptionalSet, approximate_vector

KINDS = (
    "chainrule-verify",
    "approx-demo",
    "coarea-check",
    "claw-run",
    "entropy-check",
    "comparison-check",
)

REPORT_COLUMNS = (
    "scenario",
    "case",
    "lhs",
    "term1",
    "term2",
    "term3",
    "term4",
    "term5",
    "residual",
    "tolerance",
    "status",
)

_DEFAULT_TOL = {
    "chainrule-verify": 1e-6,
    "approx-demo": 1e-9,
    "coarea-check": 1e-6,
    "claw-run": 1e-12,
    "entropy-check": 1e-3,
    "comparison-check": 1e-8,
}

_SUITE_SIZES = {
    "chainrule-verify": 50,
    "approx-demo": 20,
    "coarea-check": 20,
    "comparison-check": 10,
}


def _fail(field_name, msg):
    raise ScenarioError(f"{field_name}: {msg}")


def _floats(field_name, text, count=None, at_least=None):
    try:
        vals = [float(tok) for tok in text.split()]
    except ValueError:
        _fail(field_name, f"expected decimal numbers, got {text!r}")
    if not all(math.isfinite(v) for v in vals):
        _fail(field_name, f"expected finite numbers, got {text!r}")
    if count is not None and len(vals) != count:
        _fail(field_name, f"expected {count} numbers, got {len(vals)}")
    if at_least is not None and len(vals) < at_least:
        _fail(field_name, f"expected at least {at_least} numbers, got {len(vals)}")
    return vals


def _parse_bv(field_name, text, lo, hi):
    """Sum-of-atoms expression -> BVFunction on ]lo, hi[."""
    out = None
    for part in text.split("+"):
        toks = part.split()
        if not toks:
            _fail(field_name, "empty summand")
        head, args = toks[0], " ".join(toks[1:])
        if head == "poly":
            piece = BVFunction.from_poly(lo, hi, _floats(field_name, args, at_least=1))
        elif head == "jump":
            vals = _floats(field_name, args, at_least=2)
            if len(vals) % 2:
                _fail(field_name, "jump needs location/size pairs")
            piece = None
            for x0, size in zip(vals[::2], vals[1::2]):
                if not lo < x0 < hi:
                    _fail(field_name, f"jump location {x0} not interior to ]{lo}, {hi}[")
                h = BVFunction.heaviside(lo, hi, x0, 0.0, size)
                piece = h if piece is None else piece + h
        elif head == "cantor":
            s_lo, s_hi, coef = _floats(field_name, args, count=3)
            if not (lo <= s_lo < s_hi <= hi):
                _fail(field_name, f"cantor support ]{s_lo}, {s_hi}[ not inside ]{lo}, {hi}[")
            piece = BVFunction.cantor_fn(lo, hi, support=(s_lo, s_hi), coefficient=coef)
        else:
            _fail(field_name, f"unknown atom {head!r} (want poly / jump / cantor)")
        out = piece if out is None else out + piece
    if out is None:
        _fail(field_name, "empty expression")
    return out


def _parse_state_fn(field_name, text):
    toks = text.split()
    if not toks or toks[0] != "poly":
        _fail(field_name, f"expected 'poly c0 c1 ...', got {text!r}")
    coeffs = _floats(field_name, " ".join(toks[1:]), at_least=1)
    return SmoothFunction.poly1d(tuple(coeffs), label=text)


def _section(cfg, name):
    return cfg[name] if cfg.has_section(name) else None


def _check_keys(section, name, allowed):
    for key in section:
        base = key.split(".")[0]
        if base not in allowed and key not in allowed:
            _fail(f"[{name}] {key}", "unknown key")


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file, ready to run."""

    kind: str
    seed: int
    tolerance: float
    n_cases: int
    domain: tuple
    flux: object = None
    state: object = None  # BVVector (chain rule) or BVFunction (claw initial)
    phis: tuple = ()
    claw: dict = field(default_factory=dict)
    label: str = ""


def parse_scenario(path):
    """Read and validate a scenario file; raises ScenarioError with the
    offending field in the message."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not read:
        _fail(path, "cannot read scenario file")

    if not cfg.has_section("scenario"):
        _fail("[scenario]", "section required")
    meta = cfg["scenario"]
    _check_keys(meta, "scenario", {"kind", "seed", "tolerance", "cases", "domain", "label"})

    kind = meta.get("kind")
    if kind is None:
        _fail("[scenario] kind", "required")
    if kind not in KINDS:
        _fail("[scenario] kind", f"{kind!r} is not one of {', '.join(KINDS)}")

    try:
        seed = int(meta.get("seed", str(cases.DEFAULT_SEED)))
    except ValueError:
        _fail("[scenario] seed", f"expected an integer, got {meta.get('seed')!r}")
    if seed < 0:
        _fail("[scenario] seed", "must be non-negative")
    tol_text = meta.get("tolerance", repr(_DEFAULT_TOL[kind]))
    tolerance = _floats("[scenario] tolerance", tol_text, count=1)[0]
    if tolerance <= 0:
        _fail("[scenario] tolerance", "must be positive")
    try:
        n_cases = int(meta.get("cases", str(_SUITE_SIZES.get(kind, 1))))
    except ValueError:
        _fail("[scenario] cases", f"expected an integer, got {meta.get('cases')!r}")
    if n_cases < 1:
        _fail("[scenario] cases", "must be at least 1")
    lo, hi = _floats("[scenario] domain", meta.get("domain", "0 1"), count=2)
    if not lo < hi:
        _fail("[scenario] domain", "lower bound must precede upper bound")
    label = meta.get("label", os.path.splitext(os.path.basename(path))[0])

    flux = None
    fsec = _section(cfg, "flux")
    if fsec is not None:
        indices = sorted(
            {key.split(".")[0] for key in fsec},
            key=lambda s: (len(s), s),
        )
        terms = []
        for idx in indices:
            if not idx.startswith("term"):
                _fail(f"[flux] {idx}", "keys must look like term1.f / term1.K")
            f_txt = fsec.get(f"{idx}.f")
            k_txt = fsec.get(f"{idx}.k")
            if f_txt is None:
                _fail(f"[flux] {idx}.f", "required")
            if k_txt is None:
                _fail(f"[flux] {idx}.K", "required")
            terms.append(
                (
                    _parse_bv(f"[flux] {idx}.K", k_txt, lo, hi),
                    _parse_state_fn(f"[flux] {idx}.f", f_txt),
                )
            )
        if not terms:
            _fail("[flux]", "no flux terms found (need term1.f and term1.K)")
        flux = FluxModel(tuple(terms), dim=1)

    state = None
    usec = _section(cfg, "u")
    claw_kind = kind in ("claw-run", "entropy-check")
    if usec is not None:
        if claw_kind:
            _check_keys(usec, "u", {"initial"})
            txt = usec.get("initial")
            if txt is None:
                _fail("[u] initial", "required for claw scenarios")
            state = _parse_bv("[u] initial", txt, lo, hi)
        else:
            comps = []
            for key in sorted(usec, key=lambda s: (len(s), s)):
                if not key.startswith("component"):
                    _fail(f"[u] {key}", "keys must look like component1, component2, ...")
                comps.append(_parse_bv(f"[u] {key}", usec[key], lo, hi))
            if not comps:
                _fail("[u]", "no components found")
            state = BVVector(tuple(comps))

    phis = []
    tsec = _section(cfg, "test_functions")
    if tsec is not None:
        for key in sorted(tsec, key=lambda s: (len(s), s)):
            toks = tsec[key].split()
            fld = f"[test_functions] {key}"
            if not toks or toks[0] != "bump":
                _fail(fld, f"expected 'bump ...', got {tsec[key]!r}")
            vals = _floats(fld, " ".join(toks[1:]), at_least=3)
            if claw_kind:
                if len(vals) != 5:
                    _fail(fld, "claw test functions need: bump xlo xhi tlo thi amplitude")
                xlo, xhi, tlo, thi, amp = vals
                if not (xlo < xhi and tlo < thi):
                    _fail(fld, "supports must be nonempty intervals")
                phis.append(SpaceTimeTest.bump((xlo, xhi), (tlo, thi), amp))
            else:
                if len(vals) != 3:
                    _fail(fld, "test functions need: bump lo hi amplitude")
                blo, bhi, amp = vals
                if not lo <= blo < bhi <= hi:
                    _fail(fld, f"support ]{blo}, {bhi}[ not inside ]{lo}, {hi}[")
                phis.append(TestFunction.bump((blo, bhi), amp, label=key))

    claw = {}
    csec = _section(cfg, "claw")
    if csec is not None:
        _check_keys(csec, "claw", {"cells", "time", "range", "cfl", "alpha"})
        if csec.get("cells") is not None:
            try:
                claw["cells"] = int(csec["cells"])
            except ValueError:
                _fail("[claw] cells", f"expected an integer, got {csec['cells']!r}")
            if claw["cells"] < 4:
                _fail("[claw] cells", "need at least 4 cells")
        if csec.get("time") is not None:
            claw["time"] = _floats("[claw] time", csec["time"], count=1)[0]
            if claw["time"] <= 0:
                _fail("[claw] time", "final time must be positive")
        if csec.get("range") is not None:
            w_lo, w_hi = _floats("[claw] range", csec["range"], count=2)
            if not w_lo < w_hi:
                _fail("[claw] range", "lower bound must precede upper bound")
            claw["range"] = (w_lo, w_hi)
        if csec.get("cfl") is not None:
            claw["cfl"] = _floats("[claw] cfl", csec["cfl"], count=1)[0]
            if not 0 < claw["cfl"] <= 0.5:
                _fail("[claw] cfl", "CFL number must lie in ]0, 1/2]")
        if csec.get("alpha") is not None:
            claw["alpha"] = tuple(_floats("[claw] alpha", csec["alpha"], at_least=1))

    if claw_kind:
        if flux is None:
            _fail("[flux]", f"section required for kind {kind!r}")
        if state is None:
            _fail("[u] initial", f"required for kind {kind!r}")
        for need in ("cells", "time", "range"):
            if need not in claw:
                _fail(f"[claw] {need}", f"required for kind {kind!r}")
        if kind == "entropy-check":
            if "alpha" not in claw:
                _fail("[claw] alpha", "required for kind 'entropy-check'")
            if not phis:
                _fail("[test_functions]", "at least one test function required")
    elif kind == "chainrule-verify" and (flux is not None) != (state is not None):
        missing = "[u]" if state is None else "[flux]"
        _fail(missing, "explicit chain-rule scenarios need both [flux] and [u]")
    elif kind == "chainrule-verify" and flux is not None and not phis:
        _fail("[test_functions]", "explicit chain-rule scenarios need test functions")
    generated = not claw_kind and (kind != "chainrule-verify" or flux is None)
    if generated and (lo, hi) != (0.0, 1.0):
        _fail("[scenario] domain", f"generated {kind!r} suites run on ]0, 1[; use '0 1'")

    return Scenario(
        kind=kind,
        seed=seed,
        tolerance=tolerance,
        n_cases=n_cases,
        domain=(lo, hi),
        flux=flux,
        state=state,
        phis=tuple(phis),
        claw=claw,
        label=label,
    )


# ---------------------------------------------------------------------------
# case builders: (case id, thunk) pairs; each thunk returns the row numbers
# (lhs, t1..t5, residual, passed)


def _chainrule_row(B, u, phi, tol):
    # two digits below the gate, at most 1e-8; clamped at 1e-13 so that a
    # gate finer than the quadrature can reach fails cases instead of raising
    rep = chainrule_terms(B, u, phi, tol=min(1e-8, max(1e-2 * tol, 1e-13)))
    residual = abs(rep.residual)
    passed = residual <= tol * (1.0 + abs(rep.lhs))
    return (rep.lhs, *rep.terms, residual, passed)


def _chainrule_cases(sc, seed, tol):
    out = []
    if sc.flux is not None:
        for phi in sc.phis:
            out.append(
                (f"explicit/{phi.label}", lambda B=sc.flux, u=sc.state, p=phi: _chainrule_row(B, u, p, tol))
            )
        return out
    for label, B, u, phis in cases.chainrule_suite(seed, sc.n_cases):
        for i, phi in enumerate(phis):
            out.append(
                (f"{label}/phi{i}", lambda B=B, u=u, p=phi: _chainrule_row(B, u, p, tol))
            )
    return out


def _approx_row(u, n, exc, tol):
    approx = approximate_vector(u, n, exc)
    d = len(u.components)
    bound = 3.0 * np.sqrt(d) / n
    lo, hi = u.components[0].domain.a, u.components[0].domain.b
    xs = np.linspace(lo, hi, 1501)[1:-1]
    err2 = np.zeros(xs.size)
    tv_excess = 0.0
    jump_err = 0.0
    for comp, ap in zip(u.components, approx):
        star = comp.at(xs, "precise")
        err2 += (ap.eval_array(xs) - star) ** 2
        tv_excess = max(tv_excess, ap.total_variation() - comp.total_variation())
        for x, l, r in comp.jumps():
            if abs(r - l) > 3.0 / n:
                jump_err = max(
                    jump_err, abs(ap.left_limit(x) - l), abs(ap.right_limit(x) - r)
                )
    sup_err = float(np.sqrt(err2).max())
    marked_err = 0.0
    for p in exc.points[: exc.prefix_len]:
        for comp, ap in zip(u.components, approx):
            marked_err = max(marked_err, abs(ap(p) - comp.eval(p, "precise")))
    clearance_bad = 0.0
    for ap in approx:
        for node in ap.partition[1:-1]:
            if any(abs(node - p) <= 1e-13 for p in exc.points):
                clearance_bad = 1.0
    residual = max(sup_err - bound, tv_excess, marked_err, clearance_bad, jump_err, 0.0)
    return (sup_err, bound, tv_excess, marked_err, clearance_bad, jump_err, residual, residual <= tol)


def _approx_cases(sc, seed, tol):
    return [
        (label, lambda u=u, n=n, e=exc: _approx_row(u, n, e, tol))
        for label, u, n, exc in cases.pwc_suite(seed, sc.n_cases)
    ]


def _coarea_row(g, u, bps, tol):
    lhs = coarea_lhs(g, u, g_breakpoints=bps)
    rhs = coarea_rhs(g, u, g_breakpoints=bps)
    residual = abs(lhs - rhs)
    return (lhs, rhs, 0.0, 0.0, 0.0, 0.0, residual, residual <= tol * (1.0 + abs(lhs)))


def _coarea_cases(sc, seed, tol):
    return [
        (label, lambda g=g, u=u, b=bps: _coarea_row(g, u, b, tol))
        for label, g, u, bps in cases.coarea_suite(seed, sc.n_cases)
    ]


def _comparison_row(B, u, phi, tol):
    left, right = levelset_comparison_pwc(B, u, phi)
    residual = abs(left - right)
    return (left, right, 0.0, 0.0, 0.0, 0.0, residual, residual <= tol)


def _comparison_cases(sc, seed, tol):
    return [
        (label, lambda B=B, u=u, p=phi: _comparison_row(B, u, p, tol))
        for label, B, u, phi in cases.comparison_suite(seed, sc.n_cases)
    ]


def _claw_solve(sc):
    w_lo, w_hi = sc.claw["range"]
    flux = ScalarFlux(sc.flux, w_lo, w_hi)
    return flux, solve_claw(
        flux, sc.state, sc.claw["time"], sc.claw["cells"], cfl=sc.claw.get("cfl", 0.45)
    )


def _claw_run_cases(sc, seed, tol):
    def run():
        _, fld = _claw_solve(sc)
        defects = fld.mass_defects()
        drift = float(np.abs(defects).max()) if defects.size else 0.0
        final_tv = float(np.abs(np.diff(fld.states[-1])).sum())
        lhs = fld.mass(len(fld.times) - 1)
        row = (lhs, fld.mass(0), drift, float(len(fld.times) - 1), fld.dt, final_tv)
        return (*row, drift, drift <= tol), fld

    return [("run", run)]


def _entropy_cases(sc, seed, tol):
    flux, fld = _claw_solve(sc)
    out = []
    for alpha in sc.claw["alpha"]:
        pair = adapted_entropy_pair(flux, alpha)
        for i, phi in enumerate(sc.phis):
            def thunk(p=pair, f=phi, a=alpha):
                res = entropy_residual(fld, p, f)
                defects = fld.mass_defects()
                drift = float(np.abs(defects).max()) if defects.size else 0.0
                pos = max(res, 0.0)
                return (
                    res,
                    a,
                    drift,
                    float(len(fld.times) - 1),
                    float(fld.states.shape[1]),
                    0.0,
                    pos,
                    res <= tol,
                )
            out.append((f"alpha={alpha:g}/phi{i}", thunk))
    return out


_BUILDERS = {
    "chainrule-verify": _chainrule_cases,
    "approx-demo": _approx_cases,
    "coarea-check": _coarea_cases,
    "comparison-check": _comparison_cases,
    "claw-run": _claw_run_cases,
    "entropy-check": _entropy_cases,
}


def _fmt(v):
    return repr(float(v))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def run_scenario(sc, out_dir, tol=None, seed=None, jobs=1):
    """Execute a parsed scenario and write its reports into ``out_dir``.

    Returns (all passed, number passed, number of cases).  ``tol`` and
    ``seed`` override the scenario file; ``jobs`` parallelizes case
    execution without changing the report order."""
    tol = sc.tolerance if tol is None else float(tol)
    seed = sc.seed if seed is None else int(seed)
    os.makedirs(out_dir, exist_ok=True)

    entries = _BUILDERS[sc.kind](sc, seed, tol)

    def timed(thunk):
        t0 = time.perf_counter()
        result = thunk()
        return result, time.perf_counter() - t0

    if jobs > 1 and len(entries) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(timed, thunk) for _, thunk in entries]
            results = [f.result() for f in futures]
    else:
        results = [timed(thunk) for _, thunk in entries]

    report_rows = []
    timing_rows = []
    claw_field = None
    n_pass = 0
    for (case_id, _), (result, elapsed) in zip(entries, results):
        if sc.kind == "claw-run":
            result, claw_field = result
        *nums, passed = result
        n_pass += bool(passed)
        report_rows.append(
            [sc.label, case_id]
            + [_fmt(v) for v in nums]
            + [_fmt(tol), "pass" if passed else "fail"]
        )
        timing_rows.append([sc.label, case_id, f"{elapsed:.6f}"])

    _write_csv(os.path.join(out_dir, "report.csv"), REPORT_COLUMNS, report_rows)
    _write_csv(os.path.join(out_dir, "timing.csv"), ("scenario", "case", "runtime_s"), timing_rows)

    if claw_field is not None:
        _write_field_csv(os.path.join(out_dir, "field.csv"), claw_field)
    if sc.kind == "approx-demo":
        _write_stairs_csv(os.path.join(out_dir, "stairs_case00.csv"), sc, seed)

    return n_pass == len(entries), n_pass, len(entries)


def _write_field_csv(path, fld):
    """One row per (cell, step): x, t, u and the step's mass drift."""
    centers = 0.5 * (fld.edges[:-1] + fld.edges[1:])
    defects = fld.mass_defects()
    rows = []
    for n in range(1, len(fld.times)):
        drift = _fmt(abs(defects[n - 1]))
        t = _fmt(fld.times[n])
        for x, u in zip(centers, fld.states[n]):
            rows.append([_fmt(x), t, _fmt(u), drift])
    _write_csv(path, ("x", "t", "u", "mass_drift"), rows)


def _write_stairs_csv(path, sc, seed):
    label, u, n, exc = cases.pwc_suite(seed, sc.n_cases)[0]
    approx = approximate_vector(u, n, exc)
    lo, hi = u.components[0].domain.a, u.components[0].domain.b
    xs = np.linspace(lo, hi, 801)[1:-1]
    columns = [xs]
    for comp, ap in zip(u.components, approx):
        columns += [comp.at(xs, "precise"), ap.eval_array(xs)]
    rows = [[_fmt(v) for v in row] for row in zip(*(c.tolist() for c in columns))]
    header = ["x"]
    for i in range(len(u.components)):
        header += [f"exact{i + 1}", f"approx{i + 1}"]
    _write_csv(path, header, rows)

"""Declarative scenario files and their runners.

A scenario is an INI file describing one verification run.  Its
``[scenario]`` section names the ``kind`` and may set ``tolerance`` (a
per-kind default otherwise) and ``label`` (the file's name otherwise).
Each kind reads the sections and ``[scenario]`` keys below and rejects
every other one, naming it:

    kind              sections read                       [scenario] keys
    chainrule-verify  none (a generated suite), or        seed, cases
                      [flux] [u] [test_functions]         domain
    approx-demo       none (a generated suite)            seed, cases
    coarea-check      none (a generated suite)            seed, cases
    comparison-check  none (a generated suite)            seed, cases
    claw-run          [flux] [u] [claw]                   domain
    entropy-check     [flux] [u] [claw] [test_functions]  domain

Generated suites run on ]0, 1[ with ``cases`` members drawn from ``seed``;
``domain`` (default ``0 1``) is the ambient interval of explicit inputs.

    [flux]                       ; B(x, w) as a sum of K_i(x) f_i(w) terms
    term1.f = poly 0 1           ; f(w) as ascending coefficients
    term1.K = poly 1 + jump 0.5 1

    [u]                          ; explicit state
    component1 = poly 0 1 + jump 0.5 -0.5 + cantor 0 1 0.3
    ; claw kinds read one key, the initial datum:  initial = ...

    [test_functions]
    phi1 = bump 0.1 0.9 1.0      ; support and amplitude
    ; claw kinds: bump xlo xhi tlo thi amplitude

    [claw]
    cells = 200                  ; at least 4
    time = 0.5                   ; final time
    range = -2 2                 ; working state interval
    cfl = 0.45                   ; optional, in ]0, 1/2]
    alpha = 0.5 1.0              ; entropy levels, entropy-check only

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
from collections import namedtuple
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
from .errors import DomainError, RangeError, ScenarioError
from .pwconst import approximate_vector

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


# -- field parsers: (field name, text) -> value, or a ScenarioError naming it


def _int(least):
    def parse(name, text):
        try:
            value = int(text)
        except ValueError:
            _fail(name, f"expected an integer, got {text!r}")
        if value < least:
            _fail(name, f"must be at least {least}")
        return value

    return parse


def _number(ok, why):
    def parse(name, text):
        value = _floats(name, text, count=1)[0]
        if not ok(value):
            _fail(name, why)
        return value

    return parse


def _interval(name, text):
    lo, hi = _floats(name, text, count=2)
    if not lo < hi:
        _fail(name, "lower bound must precede upper bound")
    return lo, hi


def _text(name, text):
    return text


_SEED = _int(0)
_TOLERANCE = _number(lambda v: v > 0, "must be positive")
_CLAW_KEYS = {
    "cells": _int(4),
    "time": _number(lambda v: v > 0, "final time must be positive"),
    "range": _interval,
    "cfl": _number(lambda v: 0 < v <= 0.5, "CFL number must lie in ]0, 1/2]"),
    "alpha": lambda name, text: tuple(_floats(name, text, at_least=1)),
}


def _read_keys(sec, parsers, what):
    """Every key of ``sec`` through its parser; a key without one is not
    read by ``what`` and is rejected."""
    values = {}
    for key in sec:
        name = f"[{sec.name}] {key}"
        if key not in parsers:
            _fail(name, f"not read by {what}")
        values[key] = parsers[key](name, sec[key])
    return values


def _require(values, section, keys):
    for key in keys:
        if key not in values:
            _fail(f"[{section}] {key}", "required")
    return values


def _in_order(key):
    return len(key), key


def _numbered(key, stem):
    return key.startswith(stem) and key[len(stem):].isdecimal()


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


# -- section parsers: (section, what reads it, domain lo, hi) -> value


def _flux(sec, what, lo, hi):
    for key in sec:
        idx, _, part = key.partition(".")
        if not (_numbered(idx, "term") and part in ("f", "k")):
            _fail(f"[flux] {key}", f"not read by {what} (keys look like term1.f / term1.K)")
    terms = []
    for idx in sorted({key.partition(".")[0] for key in sec}, key=_in_order):
        for part in ("f", "K"):
            if f"{idx}.{part}" not in sec:
                _fail(f"[flux] {idx}.{part}", "required")
        K = _parse_bv(f"[flux] {idx}.K", sec[f"{idx}.K"], lo, hi)
        terms.append((K, _parse_state_fn(f"[flux] {idx}.f", sec[f"{idx}.f"])))
    if not terms:
        _fail("[flux]", "no flux terms found (need term1.f and term1.K)")
    return FluxModel(tuple(terms), dim=1)


def _components(sec, what, lo, hi):
    comps = []
    for key in sorted(sec, key=_in_order):
        if not _numbered(key, "component"):
            _fail(f"[u] {key}", f"not read by {what} (keys look like component1, component2, ...)")
        comps.append(_parse_bv(f"[u] {key}", sec[key], lo, hi))
    if not comps:
        _fail("[u]", "no components found")
    return BVVector(tuple(comps))


def _initial(sec, what, lo, hi):
    parsers = {"initial": lambda name, text: _parse_bv(name, text, lo, hi)}
    return _require(_read_keys(sec, parsers, what), "u", ("initial",))["initial"]


def _claw(*required):
    parsers = {key: _CLAW_KEYS[key] for key in (*required, "cfl")}

    def parse(sec, what, lo, hi):
        return _require(_read_keys(sec, parsers, what), "claw", required)

    return parse


def _bumps(space_time):
    """``bump lo hi amplitude`` lines, or ``bump xlo xhi tlo thi amplitude``
    for the space-time test functions of the claw kinds."""

    def parse(sec, what, lo, hi):
        phis = []
        for key in sorted(sec, key=_in_order):
            name = f"[test_functions] {key}"
            toks = sec[key].split()
            if not toks or toks[0] != "bump":
                _fail(name, f"expected 'bump ...', got {sec[key]!r}")
            vals = _floats(name, " ".join(toks[1:]))
            if space_time:
                if len(vals) != 5:
                    _fail(name, "claw test functions need: bump xlo xhi tlo thi amplitude")
                xlo, xhi, tlo, thi, amp = vals
                if not (xlo < xhi and tlo < thi):
                    _fail(name, "supports must be nonempty intervals")
                phis.append(SpaceTimeTest.bump((xlo, xhi), (tlo, thi), amp))
            else:
                if len(vals) != 3:
                    _fail(name, "test functions need: bump lo hi amplitude")
                blo, bhi, amp = vals
                if not lo <= blo < bhi <= hi:
                    _fail(name, f"support ]{blo}, {bhi}[ not inside ]{lo}, {hi}[")
                phis.append(TestFunction.bump((blo, bhi), amp, label=key))
        if not phis:
            _fail("[test_functions]", "at least one test function required")
        return tuple(phis)

    return parse


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

    kind = cfg["scenario"].get("kind")
    if kind not in KINDS:
        why = "required" if kind is None else f"{kind!r} is not one of {', '.join(KINDS)}"
        _fail("[scenario] kind", why)
    spec = KINDS[kind]
    given = [name for name in spec.sections if cfg.has_section(name)]
    generated = spec.suite is not None and not given
    what = f"{'generated' if generated else 'explicit'} {kind!r} scenarios"
    for name in cfg.sections():
        if name != "scenario" and name not in spec.sections:
            _fail(f"[{name}]", f"section not read by {what}")

    keys = {"kind": _text, "tolerance": _TOLERANCE, "label": _text}
    keys.update({"seed": _SEED, "cases": _int(1)} if generated else {"domain": _interval})
    meta = _read_keys(cfg["scenario"], keys, what)
    lo, hi = meta.get("domain", (0.0, 1.0))
    inputs = {name: spec.sections[name](cfg[name], what, lo, hi) for name in given}
    for name in spec.sections:
        if name not in inputs and not generated:
            _fail(f"[{name}]", f"section required for {what}")

    return Scenario(
        kind=kind,
        seed=meta.get("seed", cases.DEFAULT_SEED),
        tolerance=meta.get("tolerance", spec.tolerance),
        n_cases=meta.get("cases", spec.suite or 1),
        domain=(lo, hi),
        flux=inputs.get("flux"),
        state=inputs.get("u"),
        phis=inputs.get("test_functions", ()),
        claw=inputs.get("claw", {}),
        label=meta.get("label", os.path.splitext(os.path.basename(path))[0]),
    )


# ---------------------------------------------------------------------------
# case builders: (sc, seed, tol, out_dir) -> (case id, thunk) pairs; each
# thunk writes its case's sidecar files, if any, and returns the row numbers
# (lhs, t1..t5, residual, passed).  Builders run before out_dir exists and
# do the work that can reject an input (the claw solve, the level checks).


def _chainrule_rows(B, u, phis, tol):
    """One thunk per phi of a case.  The first computes every phi's report
    in one ``chainrule_terms`` call, so the case's shared evaluation is
    timed on its first row."""
    reports = []

    def row(i):
        if not reports:
            # two digits below the gate, at most 1e-8; clamped at 1e-13 so that a
            # gate finer than the quadrature can reach fails cases instead of raising
            reports.extend(chainrule_terms(B, u, tuple(phis), tol=min(1e-8, max(1e-2 * tol, 1e-13))))
        rep = reports[i]
        residual = abs(rep.residual)
        passed = residual <= tol * (1.0 + abs(rep.lhs))
        return (rep.lhs, *rep.terms, residual, passed)

    return [lambda i=i: row(i) for i in range(len(phis))]


def _chainrule_cases(sc, seed, tol, out_dir):
    if sc.flux is not None:
        rows = _chainrule_rows(sc.flux, sc.state, sc.phis, tol)
        return [(f"explicit/{phi.label}", r) for phi, r in zip(sc.phis, rows)]
    out = []
    for label, B, u, phis in cases.chainrule_suite(seed, sc.n_cases):
        rows = _chainrule_rows(B, u, phis, tol)
        out.extend((f"{label}/phi{i}", r) for i, r in enumerate(rows))
    return out


def _approx_row(u, n, exc, tol, stairs):
    approx = approximate_vector(u, n, exc)
    if stairs is not None:
        _write_stairs_csv(stairs, u, approx)
    d = len(u.components)
    bound = 3.0 * np.sqrt(d) / n
    lo, hi = u.components[0].domain.a, u.components[0].domain.b
    xs = np.linspace(lo, hi, 1501)[1:-1]
    err2 = np.zeros(xs.shape)
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
    marked = np.asarray(exc.points, dtype=float)
    for ap in approx:
        nodes = np.asarray(ap.partition[1:-1], dtype=float)
        if (np.abs(nodes[:, None] - marked) <= 1e-13).any():
            clearance_bad = 1.0
    residual = max(sup_err - bound, tv_excess, marked_err, clearance_bad, jump_err, 0.0)
    return (sup_err, bound, tv_excess, marked_err, clearance_bad, jump_err, residual, residual <= tol)


def _approx_cases(sc, seed, tol, out_dir):
    stairs = os.path.join(out_dir, "stairs_case00.csv")
    return [
        (label, lambda u=u, n=n, e=exc, s=stairs if i == 0 else None: _approx_row(u, n, e, tol, s))
        for i, (label, u, n, exc) in enumerate(cases.pwc_suite(seed, sc.n_cases))
    ]


def _coarea_row(g, u, bps, tol):
    lhs = coarea_lhs(g, u, g_breakpoints=bps)
    rhs = coarea_rhs(g, u, g_breakpoints=bps)
    residual = abs(lhs - rhs)
    return (lhs, rhs, 0.0, 0.0, 0.0, 0.0, residual, residual <= tol * (1.0 + abs(lhs)))


def _coarea_cases(sc, seed, tol, out_dir):
    return [
        (label, lambda g=g, u=u, b=bps: _coarea_row(g, u, b, tol))
        for label, g, u, bps in cases.coarea_suite(seed, sc.n_cases)
    ]


def _comparison_row(B, u, phi, tol):
    left, right = levelset_comparison_pwc(B, u, phi)
    residual = abs(left - right)
    return (left, right, 0.0, 0.0, 0.0, 0.0, residual, residual <= tol)


def _comparison_cases(sc, seed, tol, out_dir):
    return [
        (label, lambda B=B, u=u, p=phi: _comparison_row(B, u, p, tol))
        for label, B, u, phi in cases.comparison_suite(seed, sc.n_cases)
    ]


def _claw_solve(sc):
    """Flux and solved field; fails on [claw] values that [flux] or [u] refute."""
    w_lo, w_hi = sc.claw["range"]
    try:
        flux = ScalarFlux(sc.flux, w_lo, w_hi)
    except DomainError as exc:
        _fail("[claw] range", str(exc))
    try:
        return flux, solve_claw(
            flux, sc.state, sc.claw["time"], sc.claw["cells"], cfl=sc.claw.get("cfl", 0.45)
        )
    except RangeError as exc:
        _fail("[u] initial", f"{exc} ([claw] range = {w_lo:g} {w_hi:g})")
    except DomainError as exc:
        # past the parsed checks (time > 0, cells >= 4, a BV datum) the
        # solver's DomainError is the grid's: flux jumps sharing an edge
        _fail("[claw] cells", str(exc))


def _claw_run_cases(sc, seed, tol, out_dir):
    _, fld = _claw_solve(sc)

    def run():
        _write_field_csv(os.path.join(out_dir, "field.csv"), fld)
        defects = fld.mass_defects()
        drift = float(np.abs(defects).max()) if defects.size else 0.0
        final_tv = float(np.abs(np.diff(fld.states[-1])).sum())
        lhs = fld.mass(len(fld.times) - 1)
        row = (lhs, fld.mass(0), drift, float(len(fld.times) - 1), fld.dt, final_tv)
        return (*row, drift, drift <= tol)

    return [("run", run)]


def _entropy_cases(sc, seed, tol, out_dir):
    flux, fld = _claw_solve(sc)
    out = []
    for alpha in sc.claw["alpha"]:
        try:
            pair = adapted_entropy_pair(flux, alpha)
        except RangeError as exc:
            _fail("[claw] alpha", f"{alpha:g}: {exc}")
        for i, phi in enumerate(sc.phis):
            def thunk(p=pair, f=phi, a=alpha):
                res = entropy_residual(fld, p, f)
                defects = fld.mass_defects()
                drift = float(np.abs(defects).max()) if defects.size else 0.0
                shape = (float(len(fld.times) - 1), float(fld.states.shape[1]))
                return (res, a, drift, *shape, 0.0, max(res, 0.0), res <= tol)
            out.append((f"alpha={alpha:g}/phi{i}", thunk))
    return out


# kind -> its default tolerance, its generated-suite size (None: explicit
# inputs only), the sections it reads (name -> section parser, the [claw]
# parser holding the keys the kind requires) and its case builder.  A kind
# with a suite runs it when the file gives none of the kind's sections, and
# needs every one of them otherwise.
_Kind = namedtuple("_Kind", "tolerance suite sections build")
_CHAINRULE_INPUTS = {"flux": _flux, "u": _components, "test_functions": _bumps(space_time=False)}
_CLAW_INPUTS = {"flux": _flux, "u": _initial, "claw": _claw("cells", "time", "range")}
_ENTROPY_INPUTS = {
    **_CLAW_INPUTS,
    "claw": _claw("cells", "time", "range", "alpha"),
    "test_functions": _bumps(space_time=True),
}
KINDS = {
    "chainrule-verify": _Kind(1e-6, 50, _CHAINRULE_INPUTS, _chainrule_cases),
    "approx-demo": _Kind(1e-9, 20, {}, _approx_cases),
    "coarea-check": _Kind(1e-6, 20, {}, _coarea_cases),
    "claw-run": _Kind(1e-12, None, _CLAW_INPUTS, _claw_run_cases),
    "entropy-check": _Kind(1e-3, None, _ENTROPY_INPUTS, _entropy_cases),
    "comparison-check": _Kind(1e-8, 10, {}, _comparison_cases),
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
    ``seed`` override the scenario file.  They are checked like its fields,
    named as the ``--tol`` / ``--seed`` flags that carry them, and the cases
    are built before ``out_dir`` is created.  ``jobs`` accepts only 1."""
    if jobs != 1:
        _fail("jobs", f"cases run in order, so only 1 is accepted, got {jobs!r}")
    tol = sc.tolerance if tol is None else _TOLERANCE("--tol", str(tol))
    seed = sc.seed if seed is None else _SEED("--seed", str(seed))
    built = KINDS[sc.kind].build(sc, seed, tol, out_dir)
    os.makedirs(out_dir, exist_ok=True)

    report_rows = []
    timing_rows = []
    n_pass = 0
    for case_id, thunk in built:
        t0 = time.perf_counter()
        *nums, passed = thunk()
        elapsed = time.perf_counter() - t0
        n_pass += bool(passed)
        report_rows.append(
            [sc.label, case_id]
            + [_fmt(v) for v in nums]
            + [_fmt(tol), "pass" if passed else "fail"]
        )
        timing_rows.append([sc.label, case_id, f"{elapsed:.6f}"])

    _write_csv(os.path.join(out_dir, "report.csv"), REPORT_COLUMNS, report_rows)
    _write_csv(os.path.join(out_dir, "timing.csv"), ("scenario", "case", "runtime_s"), timing_rows)
    return n_pass == len(report_rows), n_pass, len(report_rows)


def _write_field_csv(path, fld):
    """One row per (cell, step): x, t, u and the step's mass drift.  The
    fields are float reprs, which ``csv`` never quotes, so lines are joined,
    one string and one write per step.  Only the u of cells whose float64
    bits changed (-0.0 is not 0.0) are repr'd again; where all change, that
    test costs about 5% more."""
    xs = [repr(x) for x in (0.5 * (fld.edges[:-1] + fld.edges[1:])).tolist()]
    defects = fld.mass_defects()
    states, bits = fld.states, np.ascontiguousarray(fld.states, dtype=float).view(np.int64)
    us = list(map(repr, states[0].tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("x,t,u,mass_drift\n")
        for n in range(1, len(fld.times)):
            changed = np.flatnonzero(bits[n] != bits[n - 1])
            for i, v in zip(changed.tolist(), states[n, changed].tolist()):
                us[i] = repr(v)
            drift = "," + _fmt(abs(defects[n - 1])) + "\n"
            t = "," + _fmt(fld.times[n]) + ","
            fh.write(drift.join(map(t.join, zip(xs, us))) + drift)


def _write_stairs_csv(path, u, approx):
    lo, hi = u.components[0].domain.a, u.components[0].domain.b
    xs = np.linspace(lo, hi, 801)[1:-1]
    columns, header = [xs], ["x"]
    for i, (comp, ap) in enumerate(zip(u.components, approx), 1):
        columns += [comp.at(xs, "precise"), ap.eval_array(xs)]
        header += [f"exact{i}", f"approx{i}"]
    lines = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join((",".join(header), *lines, "")))

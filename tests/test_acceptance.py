"""Acceptance gate: nine numbered criteria, each with its stated tolerance.

Criteria 1-8 exercise the library end to end on the worked examples and on
randomized families with known answers.  Criterion 9 re-runs all of them at
doubled precision parameters and demands congruence with the originals
modulo the original precision.  Each test appends one PASS/FAIL line to the
terminal summary (see conftest).

Tolerances are exact unless a criterion states a gauge or runtime bound;
runtime bounds are asserted with time.perf_counter around the computation.
"""

import functools
import random
import time
from fractions import Fraction

import conftest

import frobkit as fk
from frobkit import (
    AtLeast,
    EisensteinE,
    FrobLift,
    KisinModule,
    TowerSpec,
    USeries,
    apf_constant,
    check_E_reduction,
    counterexample_module,
    e_order,
    e_reduction_report,
    eisenstein_preset,
    elementary_level,
    f_fixed_point_report,
    fil1_rank,
    frob_preset,
    frobenius,
    gauge_alpha,
    hypothesis_check,
    mat_adj,
    mat_det,
    mat_make,
    mat_mul,
    mat_sub,
    qp_spec,
    ramification_polygon,
    s_compose,
    solve_intertwiner,
    verify_height,
    verify_intertwine,
    xi_iterate,
)
from frobkit.scalars import FieldSpec
from frobkit.series import PRESET_NAMES
from frobkit.tower import imin
from frobkit.witt import (
    _ghost_poly,
    _pi_powers,
    _poly_add,
    _poly_from_exact,
    _poly_mul,
    _poly_pow,
    _poly_scale,
    ghost_trials,
    witt_polys,
)

Q3 = qp_spec(3)
RAM3 = FieldSpec(3, (-3, 0, 1))

_BASE: dict = {}


def criterion(n: int, tolerance: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                detail = fn()
            except BaseException as exc:
                conftest.CRITERION_LINES.append(
                    f"criterion {n}: FAIL ({type(exc).__name__}: {exc}) "
                    f"[tolerance: {tolerance}]")
                raise
            dt = time.perf_counter() - t0
            conftest.CRITERION_LINES.append(
                f"criterion {n}: PASS in {dt:.2f}s -- {detail} "
                f"[tolerance: {tolerance}]")
        return wrapper
    return deco


# --- shared builders ----------------------------------------------------


def rand_unimod(spec, rng, absprec, d=2):
    lower = [[0] * d for _ in range(d)]
    upper = [[0] * d for _ in range(d)]
    for i in range(d):
        lower[i][i] = rng.choice((1, 2)) + spec.p * rng.randrange(3)
        upper[i][i] = 1
        for j in range(i):
            lower[i][j] = [rng.randrange(spec.p) for _ in range(3)]
            upper[j][i] = [rng.randrange(spec.p) for _ in range(3)]
    return mat_mul(mat_make(spec, lower, absprec=absprec),
                   mat_make(spec, upper, absprec=absprec))


def conjugated_diag(rng, E, d, n_units, absprec):
    """U * diag(1..1, E..E) * V with unimodular U, V."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in range(n_units, d):
        rows[i][i] = list(E.coeffs)
    return mat_mul(mat_mul(rand_unimod(Q3, rng, absprec, d),
                           mat_make(Q3, rows, absprec=absprec)),
                   rand_unimod(Q3, rng, absprec, d))


def xi_family(absprec):
    """The 20 random height-1 modules of criterion 7b, reproducibly."""
    rng = random.Random(77)
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    return [KisinModule(Q3, f, E, 1, conjugated_diag(rng, E, 2, 1, absprec))
            for _ in range(20)]


def random_eisenstein(spec, rng):
    p = spec.p
    e0 = rng.randint(1, 3)
    c0 = -p * (rng.randrange(1, p) + p * rng.randrange(3))
    mids = [p * rng.randrange(-2, 3) for _ in range(e0 - 1)]
    return EisensteinE.make(spec, [c0, *mids, 1])


def series_pow(x: USeries, k: int, cap: int) -> USeries:
    acc = USeries.one(x.spec, absprec=max(c.absprec for c in x.coeffs))
    for _ in range(k):
        acc = (acc * x).truncate(cap)
    return acc


def lambda_oracle(E, f, n, cap, absprec):
    """Truncated product E * phi(E) * ... * phi^n(E), built with public
    calls only; the xi iteration never sees this code path."""
    E_ser = E.as_series(absprec=absprec)
    lam = E_ser.truncate(cap)
    for j in range(1, n + 1):
        lam = (lam * frobenius(E_ser, f, j, absprec=absprec).truncate(cap)
               ).truncate(cap)
    return lam


def gauge_floor(mat, e0):
    vals = []
    for row in mat:
        for entry in row:
            g = gauge_alpha(entry, e0)
            if g is not None:
                vals.append(g.bound if isinstance(g, AtLeast) else g)
    return min(vals)


def witt_symbolic_ok(spec, n) -> bool:
    """w_m(S(x,y)) = w_m(x) + w_m(y) and the product analogue, as exact
    polynomial identities in 2n variables (integer coordinates over one
    denominator in lowest terms, so equal polynomials are equal pairs)."""
    ps = witt_polys(n, spec)
    for m in range(n):
        wx = _ghost_poly(spec, n, m, 0)
        wy = _ghost_poly(spec, n, m, n)
        for polys, target in ((ps.sums, _poly_add(spec, wx, wy)),
                              (ps.prods, _poly_mul(spec, wx, wy))):
            acc = ({}, 1)
            for j, c in enumerate(_pi_powers(spec, m + 1)):
                acc = _poly_add(spec, acc, _poly_scale(spec, _poly_pow(
                    spec, _poly_from_exact(spec, polys[j]), spec.p ** (m - j)), c))
            if acc != target:
                return False
    return True


def perf_congruent(a, b) -> bool:
    """Term-by-term agreement below the weaker bound, with the p-power
    exponents compared as exact rationals so differing root budgets J
    still line up."""
    da = {Fraction(k, a.p**a.J): c for k, c in a.terms}
    db = {Fraction(k, b.p**b.J): c for k, c in b.terms}
    bounds = [Fraction(x.bound, x.p**x.J) for x in (a, b) if x.bound is not None]
    cut = min(bounds) if bounds else None
    fa = {k: c for k, c in da.items() if cut is None or k < cut}
    fb = {k: c for k, c in db.items() if cut is None or k < cut}
    return fa == fb


def witt_congruent(a, b) -> bool:
    return a.length == b.length and all(
        perf_congruent(x, y) for x, y in zip(a.comps, b.comps))


# --- the criteria -------------------------------------------------------


@criterion(1, "exact rationals, runtime < 1 s")
def test_criterion_1_cyclotomic_tower():
    t0 = time.perf_counter()
    t = TowerSpec(frob_preset(Q3, "cyclotomic"), 2)
    assert t.e == 1
    assert imin(t) == 1
    levels = [elementary_level(t, n) for n in range(1, 7)]
    assert levels == [Fraction(3**n - 1) for n in range(1, 7)]
    c = apf_constant(t)
    assert c == Fraction(2, 3)
    polys = [ramification_polygon(t, n) for n in range(1, 5)]
    for n, rep in zip(range(1, 5), polys):
        assert rep.single_segment
        assert rep.drop == (3**n - 1) * (3 - 1) == rep.expected_drop
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _BASE[1] = {"levels": levels, "c": c,
                "polys": [r.to_json() for r in polys]}
    return (f"imin = 1, i_n = 3^n - 1 for n = 1..6, c = 2/3, "
            f"single segments with drop i_n(p-1), {elapsed:.3f}s")


@criterion(2, "exact verdicts, runtime < 1 s")
def test_criterion_2_hypothesis_verdicts():
    t0 = time.perf_counter()
    verdicts = {}
    for p in (3, 5):
        spec = qp_spec(p)
        res = hypothesis_check(frob_preset(spec, "cyclotomic"),
                               eisenstein_preset(spec, "cyclotomic"), 6)
        assert (res.n, res.k) == (0, 1)
        res = hypothesis_check(frob_preset(spec, "twisted"),
                               eisenstein_preset(spec, "twisted"), 6)
        assert (res.n, res.k) == (1, p - 1)
        rng = random.Random(20 + p)
        f = frob_preset(spec, "classical")
        for _ in range(5):
            assert hypothesis_check(f, random_eisenstein(spec, rng), 6) is None
        verdicts[p] = {"cyclotomic": (0, 1), "twisted": (1, p - 1),
                       "classical": None}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _BASE[2] = verdicts
    return (f"cyclotomic (0,1), twisted (1,p-1) for p in {{3,5}}, classical "
            f"none to N = 6 vs 5 random E each, {elapsed:.3f}s")


def _check_counterexample_window(f, E, w, M, N):
    E_ser = E.as_series(absprec=N + 2)
    lhs = (w.A * series_pow(E_ser, w.l, M)).truncate(M)
    rhs = frobenius(w.A, f, absprec=N + 2).truncate(M)
    diff = lhs - rhs
    for k in range(M):
        c = diff.coeff(k)
        assert c.absprec >= N and c.is_zero_at_prec()


def _counterexample_ints(w, M, N, p):
    mod = p**N
    out = []
    for k in range(M):
        c = w.A.coeff(k)
        out.append(0 if c.is_zero_at_prec()
                   else c.unit.vec[0] * p**c.shift % mod)
    return out


@criterion(3, "identity exact mod (u^40, pi^10); both heights verified at r = l")
def test_criterion_3_counterexample_identity():
    M, N = 40, 10
    ints = {}
    for p in (3, 5):
        spec = qp_spec(p)
        for name, n_level, l_want in (("cyclotomic", 0, 1),
                                      ("twisted", 1, p - 1)):
            f = frob_preset(spec, name)
            E = eisenstein_preset(spec, name)
            w = counterexample_module(f, E, n_level, absprec=N + 2)
            assert w.l == l_want
            assert w.module.r == w.ambient.r == l_want
            _check_counterexample_window(f, E, w, M, N)
            assert verify_height(w.module) and verify_height(w.ambient)
            ints[(p, name)] = _counterexample_ints(w, M, N, p)
    _BASE[3] = ints
    return ("A*E^l = phi(A) mod (u^40, pi^10) for cyclotomic (A = u, l = 1) "
            "and twisted (A = f, l = p-1), p in {3,5}; heights pass at r = l")


@criterion(4, "integral, verified at (x^25, 3^10); composition at min bounds; "
              "runtime < 10 s")
def test_criterion_4_intertwiner():
    t0 = time.perf_counter()
    M, N = 25, 10
    f = frob_preset(Q3, "cyclotomic")
    f2 = FrobLift.make(Q3, [3, 0, 1])
    f3 = FrobLift.make(Q3, [3, 3, 1])
    r12 = solve_intertwiner(f, f2, 1, M, N)
    assert r12.integral is True  # theorem-backed: v(a_1) = v(pi)
    assert verify_intertwine(f, f2, r12.xi, M, N)

    r23 = solve_intertwiner(f2, f3, 1, M, N)
    r13 = solve_intertwiner(f, f3, 1, M, N)
    n_min = min(r12.verified_to[1], r23.verified_to[1], r13.verified_to[1])
    comp = s_compose(r12.xi.truncate(M), r23.xi.truncate(M)).truncate(M)
    diff = comp - r13.xi.truncate(M)
    for k in range(M):
        c = diff.coeff(k)
        assert c.absprec >= n_min and c.is_zero_at_prec()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _BASE[4] = {"xi": r12.xi, "triple": (r12.xi, r23.xi, r13.xi)}
    return (f"solver integral and verified at (x^25, 3^10); triple "
            f"composition agrees mod (x^25, 3^{n_min}), {elapsed:.2f}s")


@criterion(5, "symbolic identities and integrality exact; 100/100 random "
              "ghost evaluations exact per length; runtime < 60 s")
def test_criterion_5_witt_selftest():
    t0 = time.perf_counter()
    results = {}
    for spec in (Q3, RAM3):
        for n in range(1, 5):
            witt_polys(n, spec)  # integrality enforced in construction
            assert witt_symbolic_ok(spec, n)
            good = ghost_trials(spec, n, 100, random.Random(1000 * n + spec.e_F))
            assert good == 100
            results[(spec.e_F, n)] = good
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _BASE[5] = results
    return (f"lengths 1..4 over (p=3, pi=p) and (p=3, pi^2=3): symbolic "
            f"ghost compatibility, integrality, 100/100 exact evaluations "
            f"per length, {elapsed:.1f}s")


@criterion(6, "stabilizes within 6 iterations; exact identities; exact "
              "rational valuations")
def test_criterion_6_fixed_points():
    us = {}
    for name in PRESET_NAMES:
        f = frob_preset(Q3, name)
        E = eisenstein_preset(Q3, name)
        rep = f_fixed_point_report(f, 4)
        assert rep["iterations"] <= 6
        assert rep["frob_matches_f"] is True
        assert rep["reduces_to_ubar"] is True
        red = e_reduction_report(E, rep["u"])
        assert red["ok"] is True and check_E_reduction(E, rep["u"])
        assert Fraction(red["v_R_E_mod_pi"]) == Fraction(red["v_pi"])
        us[name] = rep["u"]
    _BASE[6] = us
    return ("all four presets at Witt length 4: fixed point within 6 "
            "iterations, phi(u) = f(u) and u = [ubar] exact, "
            "v_R(E(u) mod pi) = v(pi)")


def _xi_rank_one(absprec, u_order, max_n):
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    m = KisinModule.make(f, E, 1, [[[-3, 1]]], absprec=absprec)
    rep = xi_iterate(m, max_n, u_order=u_order)
    lam = lambda_oracle(E, f, max_n, u_order, absprec)
    defect = rep.numerator[0][0] * E.as_series(absprec=absprec) - lam
    g = gauge_alpha(defect, 1)
    shifted = (g.bound if isinstance(g, AtLeast) else g) - rep.den.val()
    return rep, shifted


def _xi_relation_floor(m, rep, max_n, u_order):
    A0 = m.constant_matrix()
    f_ser = m.f.as_series(40).truncate(u_order)
    lhs = mat_mul(rep.numerator, A0)
    phiA = tuple(tuple(s_compose(x, f_ser) for x in row)
                 for row in fk.mat_truncate(m.A, u_order))
    phiN = tuple(tuple(s_compose(x, f_ser) for x in row)
                 for row in rep.numerator)
    defect = mat_sub(lhs, mat_mul(phiA, phiN))
    v0 = mat_det(A0).vlow()
    return gauge_floor(defect, m.E.e0) - max_n * v0


@criterion(7, "(a) oracle gauge >= 8 at u-order 40; (b) 20 modules with "
              "strictly increasing gauges, Y = I mod u, relation at "
              "available gauge; runtime < 60 s")
def test_criterion_7_xi_iteration():
    t0 = time.perf_counter()
    rep_a, shifted = _xi_rank_one(16, 40, 4)
    assert list(rep_a.gauges) == [0, 2, 4, 6]
    assert shifted >= 8

    reps = []
    for m in xi_family(16):
        rep = xi_iterate(m, 6, u_order=54)
        tail = rep.gauges[1:]  # readings for n = 2..6
        assert all(isinstance(g, int) for g in tail)
        assert all(b > a for a, b in zip(tail, tail[1:]))
        den = rep.den
        for i, row in enumerate(rep.numerator):
            for j, entry in enumerate(row):
                want = den if i == j else den - den
                assert (entry.constant() - want).is_zero_at_prec()
        assert _xi_relation_floor(m, rep, 6, 54) >= rep.gauges[-1]
        reps.append(rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _BASE[7] = {"a": rep_a, "shifted": shifted, "b": reps}
    return (f"(a) Y*E matches the truncated product oracle to gauge "
            f"{shifted} >= 8; (b) 20/20 modules: strict gauge climb for "
            f"n = 2..6, Y = I mod u, relation defect above the last gauge, "
            f"{elapsed:.1f}s")


@criterion(8, "fil1_rank = e_order(det A) = construction count, 50/50 exact")
def test_criterion_8_filtration_rank():
    rng = random.Random(88)
    E = eisenstein_preset(Q3, "cyclotomic")
    f = frob_preset(Q3, "cyclotomic")
    cases = []
    for _ in range(50):
        d = rng.choice((2, 3))
        s = rng.randint(0, d)
        A = conjugated_diag(rng, E, d, d - s, absprec=12)
        m = KisinModule(Q3, f, E, 1, A)
        got = fil1_rank(m)
        det_order, _ = e_order(mat_det(A), E)
        assert got == det_order == s
        cases.append((d, s))
    _BASE[8] = cases
    return "50/50 modules U*diag(1..1,E..E)*V: fil1_rank = e_order(det) = s"


@criterion(9, "criteria 1-8 re-run at doubled N, M; outputs congruent to "
              "the originals modulo the original precision; full suite "
              "< 3 minutes")
def test_criterion_9_precision_refinement():
    assert set(_BASE) == {1, 2, 3, 4, 5, 6, 7, 8}, \
        "criteria 1-8 must pass first"
    notes = []

    # 1: exact invariants recomputed over a doubled window must extend the old
    t = TowerSpec(frob_preset(Q3, "cyclotomic"), 2)
    levels12 = [elementary_level(t, n) for n in range(1, 13)]
    assert levels12[:6] == _BASE[1]["levels"]
    assert apf_constant(t) == _BASE[1]["c"]
    polys8 = [ramification_polygon(t, n) for n in range(1, 9)]
    assert [r.to_json() for r in polys8[:4]] == _BASE[1]["polys"]
    assert all(r.matches for r in polys8)
    notes.append("tower levels 1..12 extend 1..6 exactly")

    # 2: doubled scan budget, same verdicts, same random E draws
    for p in (3, 5):
        spec = qp_spec(p)
        res = hypothesis_check(frob_preset(spec, "cyclotomic"),
                               eisenstein_preset(spec, "cyclotomic"), 12)
        assert (res.n, res.k) == _BASE[2][p]["cyclotomic"]
        res = hypothesis_check(frob_preset(spec, "twisted"),
                               eisenstein_preset(spec, "twisted"), 12)
        assert (res.n, res.k) == _BASE[2][p]["twisted"]
        rng = random.Random(20 + p)
        f = frob_preset(spec, "classical")
        for _ in range(5):
            assert hypothesis_check(f, random_eisenstein(spec, rng), 12) is None
    notes.append("hypothesis verdicts stable at N = 12")

    # 3: (M, N) = (80, 20); digits reduce to the (40, 10) run
    for p in (3, 5):
        spec = qp_spec(p)
        for name, n_level in (("cyclotomic", 0), ("twisted", 1)):
            f = frob_preset(spec, name)
            E = eisenstein_preset(spec, name)
            w = counterexample_module(f, E, n_level, absprec=22)
            _check_counterexample_window(f, E, w, 80, 20)
            assert (_counterexample_ints(w, 40, 10, p)
                    == _BASE[3][(p, name)])
    notes.append("counterexample identity at (80, 20), digits congruent")

    # 4: (M, N) = (50, 20); xi congruent mod (x^25, 3^10)
    f = frob_preset(Q3, "cyclotomic")
    f2 = FrobLift.make(Q3, [3, 0, 1])
    r_dbl = solve_intertwiner(f, f2, 1, 50, 20)
    assert r_dbl.integral and verify_intertwine(f, f2, r_dbl.xi, 50, 20)
    diff = r_dbl.xi.truncate(25) - _BASE[4]["xi"].truncate(25)
    for k in range(25):
        c = diff.coeff(k)
        assert c.absprec >= 10 and c.is_zero_at_prec()
    notes.append("xi at (50, 20) congruent mod (x^25, 3^10)")

    # 5: doubled trial count, still 100% exact (outputs are exact rationals)
    for spec in (Q3, RAM3):
        for n in range(1, 5):
            assert ghost_trials(spec, n, 200,
                                random.Random(1000 * n + spec.e_F)) == 200
    notes.append("witt ghost trials exact at 200 per length")

    # 6: doubled root/exponent budget; components agree below the old bound
    for name in PRESET_NAMES:
        f = frob_preset(Q3, name)
        rep = f_fixed_point_report(f, 4, budget=(12, 64))
        assert rep["frob_matches_f"] and rep["reduces_to_ubar"]
        assert witt_congruent(rep["u"], _BASE[6][name])
    notes.append("fixed points at budget (12, 64) agree with (6, 32)")

    # 7: doubled absprec and u-order
    rep_a, shifted = _xi_rank_one(32, 80, 4)
    assert list(rep_a.gauges) == list(_BASE[7]["a"].gauges)
    assert shifted >= _BASE[7]["shifted"]
    diff = rep_a.numerator[0][0] - _BASE[7]["a"].numerator[0][0]
    for k in range(40):
        c = diff.coeff(k)
        assert c.absprec >= 16 and c.is_zero_at_prec()
    for m, rep_base in zip(xi_family(32), _BASE[7]["b"]):
        rep = xi_iterate(m, 6, u_order=108)
        assert list(rep.gauges) == list(rep_base.gauges)
        for row_d, row_b in zip(rep.numerator, rep_base.numerator):
            for e_d, e_b in zip(row_d, row_b):
                d_entry = e_d - e_b
                for k in range(54):
                    c = d_entry.coeff(k)
                    assert c.absprec >= 16 and c.is_zero_at_prec()
    notes.append("xi runs at (absprec 32, u-order 108) congruent mod "
                 "(u^54, 3^16) with identical gauge traces")

    # 8: doubled working precision, same 50 ranks
    rng = random.Random(88)
    E = eisenstein_preset(Q3, "cyclotomic")
    f = frob_preset(Q3, "cyclotomic")
    for d_want, s_want in _BASE[8]:
        d = rng.choice((2, 3))
        s = rng.randint(0, d)
        assert (d, s) == (d_want, s_want)
        A = conjugated_diag(rng, E, d, d - s, absprec=24)
        assert fil1_rank(KisinModule(Q3, f, E, 1, A)) == s_want
    notes.append("filtration ranks stable at absprec 24")

    return "; ".join(notes)

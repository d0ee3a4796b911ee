"""Tests for conjugation between polynomial Frobenius lifts.

The frozen cases re-check the solved series with an independent oracle:
plain integer polynomial composition mod (x^M, p^N), no library
arithmetic involved beyond reading off coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.errors import NoRootError, PrecisionError, SpecMismatchError
from frobkit.intertwine import (
    IntertwineResult,
    _common_degree,
    _f2_powers,
    _running_divisors,
    _start_prec,
    _triples,
    _XiPowers,
    check_compatible,
    compute_mu0,
    solve_intertwiner,
    solve_intertwiner_all,
    verify_intertwine,
)
from frobkit.scalars import FElement, FieldSpec, OFExact, _dot1, qp_spec
from frobkit.series import (FrobLift, USeries, _as_felement, _flat, _powers, frob_preset,
                            s_compose)

Q3 = qp_spec(3)
Q5 = qp_spec(5)

CYC3 = frob_preset(Q3, "cyclotomic")  # (1+u)^3 - 1 = u^3 + 3u^2 + 3u


def reference_solve(f, f2, mu0, M, N):
    """The solver loop before the power table and the xi-power columns:
    at every degree d, rebuild xi and read coefficient d+s-1 of the two
    full compositions f(xi) and xi(f2)."""
    spec = f.spec
    s = _common_degree(f, f2)
    a_s = f.coeffs[s - 1]
    n_start = _start_prec(f, M, N)
    mu0 = _as_felement(spec, mu0, n_start)
    if mu0.is_zero_at_prec() or mu0.vlow() != 0:
        raise ValueError("mu0 must be a unit")
    fs = f.as_series(absprec=n_start)
    f2s = f2.as_series(absprec=n_start)
    coeffs = [FElement.zero_at(spec, n_start), mu0]
    losses = []
    if s > 1:
        base = FElement.from_exact(OFExact.make(spec, s) * a_s, n_start)
        div_const = base * mu0 ** (s - 1)
    for d in range(2, M + 1):
        xi = USeries.make(spec, coeffs, absprec=n_start)
        length = d + s
        lhs = s_compose(fs, xi).truncate(length)
        rhs = s_compose(xi, f2s).truncate(length)
        lam = (lhs - rhs).coeff(d + s - 1)
        if s == 1:
            div = FElement.from_exact(f.coeffs[0] - f2.coeffs[0] ** d, n_start)
        else:
            div = div_const
        if not lam.is_zero_at_prec() and lam.vlow() < 1:
            raise SpecMismatchError(
                f"internal inconsistency: residual at degree {d} is a unit")
        try:
            mu_d = -(lam / div)
        except PrecisionError as exc:
            raise PrecisionError(f"precision exhausted at degree {d}") from exc
        losses.append(div.vlow())
        coeffs.append(mu_d)
    achieved = min(c.absprec for c in coeffs[1:])
    return IntertwineResult(USeries.make(spec, coeffs, absprec=n_start), mu0, s,
                            all(c.is_integral() for c in coeffs),
                            (M, min(N, achieved)), tuple(losses))


def reference_f2_table(f2s: USeries, M: int) -> list:
    """The solver's f2 table before the recurrence: by_n[n][k - 1] =
    [f2^k]_n for k = 1..M-1 (k = 1 alone when M = 1), from M-2 series
    products of the capped f2s."""
    return list(zip(*map(_triples, _powers(f2s, M - 1, len(f2s)))))


def reference_columns(spec, s: int, xis: list, M: int):
    """The solver's xi-power columns before the settled sums: at each
    degree d = 2..M, [xi^i]_(d+s-1), i = 2..p, with xi = xis[:d], every
    entry m = d..d+s-1 rebuilt from all its terms."""
    pad = [(0, (0,) * spec.e_F, None)] * s  # exact zeros
    cols: list[list] = [[] for _ in range(2, spec.p + 1)]
    for d in range(2, M + 1):
        xi = xis[:d]
        n = d + s - 1
        prev = xi + pad
        at_n = []
        for col in cols:
            col.extend(_dot1(spec, xi, prev[m::-1]) for m in range(len(col), d))
            prev = col + [_dot1(spec, xi, prev[m:m - d:-1]) for m in range(d, n + 1)]
            at_n.append(prev[n])
        yield at_n


def ints_of(xs: USeries, m: int, n_prec: int) -> list:
    """First m coefficients of xs as plain ints mod p**n_prec.

    Only valid over an unramified spec with integral coefficients.
    """
    p = xs.spec.p
    mod = p**n_prec
    out = []
    for k in range(m):
        c = xs.coeff(k)
        assert c.absprec >= n_prec
        if c.is_zero_at_prec():
            out.append(0)
        else:
            assert c.shift >= 0
            out.append(c.unit.vec[0] * p**c.shift % mod)
    return out


def compose_ints(outer: list, inner: list, m: int, mod: int) -> list:
    # sum_i outer[i] * inner**i  truncated mod (x**m, mod)
    inner = (list(inner) + [0] * m)[:m]
    res = [0] * m
    power = [1] + [0] * (m - 1)
    for c in outer:
        if c:
            for k in range(m):
                res[k] = (res[k] + c * power[k]) % mod
        nxt = [0] * m
        for a in range(m):
            if power[a]:
                for b in range(m - a):
                    if inner[b]:
                        nxt[a + b] = (nxt[a + b] + power[a] * inner[b]) % mod
        power = nxt
    return res


# ---------------------------------------------------------------- compatibility


def test_compat_frozen_linear_pair():
    rep = check_compatible(CYC3, FrobLift.make(Q3, [3, 0, 1]))
    assert rep.ok
    assert (rep.s, rep.s2) == (1, 1)
    assert rep.v == rep.v2 == 1
    assert rep.to_json() == {"ok": True, "s": 1, "s2": 1, "v": 1, "v2": 1}


def test_compat_lowest_index_mismatch():
    f = FrobLift.make(Q3, [3, 0, 1])
    f2 = FrobLift.make(Q3, [0, 3, 1])
    assert not check_compatible(f, f2).ok


def test_compat_valuation_mismatch():
    f = FrobLift.make(Q3, [3, 0, 1])
    f2 = FrobLift.make(Q3, [9, 0, 1])
    rep = check_compatible(f, f2)
    assert not rep.ok
    assert (rep.v, rep.v2) == (1, 2)


# ------------------------------------------------------------------ mu0 choice


def test_mu0_linear_defaults_to_one():
    (mu,) = compute_mu0(CYC3, FrobLift.make(Q3, [3, 0, 1]))
    assert mu.congruent(FElement.from_int(Q3, 1, 8), 8)


def test_mu0_linear_accepts_any_unit_choice():
    (mu,) = compute_mu0(CYC3, FrobLift.make(Q3, [3, 0, 1]), choice=5)
    assert mu.congruent(FElement.from_int(Q3, 5, 8), 8)


def test_mu0_linear_terms_must_agree_exactly():
    with pytest.raises(SpecMismatchError):
        compute_mu0(FrobLift.make(Q3, [3, 0, 1]), FrobLift.make(Q3, [6, 0, 1]))


def test_solve_rejects_unequal_linear_terms():
    # the same check as compute_mu0: with s = 1 no xi exists unless
    # a_1 = a_1', so the solver must not return an unverified series
    with pytest.raises(SpecMismatchError):
        solve_intertwiner(CYC3, FrobLift.make(Q3, [6, 0, 1]), 1, 12, N=6)


def test_mu0_incompatible_pair_rejected():
    with pytest.raises(SpecMismatchError):
        compute_mu0(FrobLift.make(Q3, [3, 0, 1]), FrobLift.make(Q3, [0, 3, 1]))


def test_mu0_quadratic_lowest_term():
    # ratio of quadratic coefficients is 4; the unique 1st root is 4 itself
    cands = compute_mu0(FrobLift.make(Q3, [0, 3, 1]), FrobLift.make(Q3, [0, 12, 1]))
    assert len(cands) == 1
    assert cands[0].congruent(FElement.from_int(Q3, 4, 6), 6)


def test_mu0_choice_rejected_when_roots_are_forced():
    with pytest.raises(ValueError):
        compute_mu0(
            FrobLift.make(Q3, [0, 3, 1]), FrobLift.make(Q3, [0, 12, 1]), choice=2
        )


def test_mu0_no_root_in_residue_field():
    # square root of 2 mod 5 does not exist
    f = FrobLift.make(Q5, [0, 0, 5, 0, 1])
    f2 = FrobLift.make(Q5, [0, 0, 10, 0, 1])
    with pytest.raises(NoRootError):
        compute_mu0(f, f2)


# -------------------------------------------------------------- frozen solves


def test_identity_conjugation_is_x():
    res = solve_intertwiner(CYC3, CYC3, 1, 12, N=8)
    assert res.integral
    assert ints_of(res.xi, 12, 8) == [0, 1] + [0] * 10
    assert verify_intertwine(CYC3, CYC3, res.xi, 12, 8)


def test_known_automorphism_of_cyclotomic_lift():
    # (1+u)^2 - 1 conjugates the cyclotomic lift to itself: both composites
    # equal (1+u)^6 - 1.  The solver must recover exactly 2u + u^2.
    res = solve_intertwiner(CYC3, CYC3, 2, 15, N=8)
    assert res.integral
    assert ints_of(res.xi, 15, 8) == [0, 2, 1] + [0] * 12
    assert verify_intertwine(CYC3, CYC3, res.xi, 15, 8)


def test_cyclotomic_vs_pure_cubic_oracle():
    f2 = FrobLift.make(Q3, [3, 0, 1])
    res = solve_intertwiner(CYC3, f2, 1, 25, N=10)
    assert res.integral
    assert res.verified_to == (25, 10)
    assert res.losses == (1,) * 24
    assert verify_intertwine(CYC3, f2, res.xi, 25, 10)

    # independent check in plain integers
    mod = 3**10
    xi = ints_of(res.xi, 25, 10)
    lhs = compose_ints([0, 3, 3, 1], xi, 25, mod)
    rhs = compose_ints(xi, [0, 3, 0, 1], 25, mod)
    assert lhs == rhs
    assert xi[1] == 1


def test_quadratic_lowest_term_pair():
    f = FrobLift.make(Q3, [0, 3, 1])
    f2 = FrobLift.make(Q3, [0, 12, 1])
    results = solve_intertwiner_all(f, f2, 15, N=8)
    assert len(results) == 1
    res = results[0]
    assert res.mu0.congruent(FElement.from_int(Q3, 4, 6), 6)
    assert res.integral
    assert verify_intertwine(f, f2, res.xi, 15, 8)

    mod = 3**8
    xi = ints_of(res.xi, 15, 8)
    assert compose_ints([0, 0, 3, 1], xi, 15, mod) == compose_ints(
        xi, [0, 0, 12, 1], 15, mod
    )


def test_scaling_conjugates_pure_frobenius_power():
    # f = f2 = u^3: xi = c*x works iff c^3 = c, so both square roots of 1
    # appear.  The lowest term sits at s = p, exercising the extra
    # ramified loss in the start-precision budget.
    f = frob_preset(Q3, "classical")
    results = solve_intertwiner_all(f, f, 10, N=6)
    assert len(results) == 2
    seen = set()
    for res in results:
        assert res.integral
        assert verify_intertwine(f, f, res.xi, 10, 6)
        xi = ints_of(res.xi, 10, 6)
        assert xi[2:] == [0] * 8
        seen.add(xi[1])
    assert seen == {1, 3**6 - 1}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_pure_frobenius_power_at_small_order(p, M):
    # s = p and f2 = u^p, so f2^(M-1) is a polynomial that stops short of
    # u^(M+s); the solver still reads coefficient M+s-1 of every power
    f = frob_preset(qp_spec(p), "classical")
    results = solve_intertwiner_all(f, f, M, N=6)
    assert results
    for res in results:
        assert verify_intertwine(f, f, res.xi, M, 6)
        assert outcome(solve_intertwiner, f, f, res.mu0, M, 6) == \
            outcome(reference_solve, f, f, res.mu0, M, 6)


# ------------------------------------------------------------------ properties


def test_round_trip_small_family():
    # all compatible pairs with shared linear coefficient 3 and quadratic
    # coefficients in 3*{0,1,2}; every solve must verify
    lifts = [FrobLift.make(Q3, [3, 3 * t, 1]) for t in range(3)]
    for f in lifts:
        for f2 in lifts:
            res = solve_intertwiner(f, f2, 1, 10, N=6)
            assert res.integral
            assert verify_intertwine(f, f2, res.xi, 10, 6)


def test_composability_of_solutions():
    f2 = FrobLift.make(Q3, [3, 0, 1])
    f3 = FrobLift.make(Q3, [3, 9, 1])
    r12 = solve_intertwiner(CYC3, f2, 1, 12, N=6)
    r23 = solve_intertwiner(f2, f3, 1, 12, N=6)
    chained = s_compose(r12.xi, r23.xi).truncate(12)
    assert verify_intertwine(CYC3, f3, chained, 12, 6)


def test_determinism_across_target_precision():
    f2 = FrobLift.make(Q3, [3, 0, 1])
    lo = solve_intertwiner(CYC3, f2, 1, 12, N=6)
    hi = solve_intertwiner(CYC3, f2, 1, 12, N=12)
    for k in range(12):
        assert lo.xi.coeff(k).congruent(hi.xi.coeff(k), 6)


# ------------------------------------------------------------------- negatives


def test_wrong_series_rejected_by_verifier():
    classical = frob_preset(Q3, "classical")
    bad = USeries.make(Q3, [0, 1, 1], absprec=12)
    assert verify_intertwine(classical, classical, bad, 5, 6) is False


def test_verifier_raises_when_precision_runs_out():
    f2 = FrobLift.make(Q3, [3, 0, 1])
    res = solve_intertwiner(CYC3, f2, 1, 10, N=4)
    with pytest.raises(PrecisionError):
        verify_intertwine(CYC3, f2, res.xi, 10, 16)


def test_non_unit_mu0_rejected():
    with pytest.raises(ValueError):
        solve_intertwiner(CYC3, FrobLift.make(Q3, [3, 0, 1]), 3, 8, N=6)


def test_constant_term_must_vanish_in_verifier():
    shifted = USeries.make(Q3, [1, 1], absprec=10)
    with pytest.raises(ValueError):
        verify_intertwine(CYC3, CYC3, shifted, 5, 5)


def test_result_report_shape():
    res = solve_intertwiner(CYC3, CYC3, 1, 6, N=6)
    data = res.to_json()
    assert data["s"] == 1
    assert data["integral"] is True
    assert data["verified_to"] == {"M": 6, "N": 6}
    assert data["mu0"] == res.mu0.to_json()
    assert data["xi"] == res.xi.to_json()


# ------------------------------------------------- against the reference loop

SPECS = {
    "Z3": Q3,
    "Z5": Q5,
    "Z3-6": FieldSpec(3, (6, 1)),  # e_F = 1 with pi = -6, not p
    "Z3pi": FieldSpec(3, (-3, 0, 1)),  # pi^2 = 3
    "Z5-e3": FieldSpec(5, (10, 5, 0, 1)),  # e_F = 3, mixed lower coefficients
    "Z2pi": FieldSpec(2, (2, 2, 1)),  # p = 2, e_F = 2
}
# the lowest degree s of a lift lies below p
CASES = [(name, s) for name in sorted(SPECS) for s in range(1, SPECS[name].p)]


def unit_of(draw, spec):
    coords = draw(st.lists(st.integers(-40, 40), min_size=spec.e_F,
                           max_size=spec.e_F))
    coords[0] = draw(st.integers(1, 40).filter(lambda c: c % spec.p))
    return OFExact.make(spec, coords)


@st.composite
def compatible_pairs(draw, spec, s):
    """Lifts f, f2 whose lowest terms sit in degree s with one valuation
    (1 mostly, 2 at times, where xi need not be integral); equal linear
    terms when s = 1, and a ratio of lowest terms that is an (s-1)-th
    power of a unit when s > 1, so that mu0 exists; the terms above
    degree s drawn independently."""
    pi = OFExact.pi(spec)
    v = draw(st.sampled_from((1, 1, 1, 2)))

    def lift(lead):
        upper = [unit_of(draw, spec) * pi ** draw(st.integers(1, 2))
                 if draw(st.booleans()) else OFExact.zero(spec)
                 for _ in range(s + 1, spec.p)]
        return FrobLift.make(spec, [0] * (s - 1) + [lead, *upper, 1])

    lead = unit_of(draw, spec) * pi ** v
    return lift(lead), lift(lead if s == 1 else lead * unit_of(draw, spec) ** (s - 1))


def mu0_candidates(draw, f, f2, s, M, N):
    if s == 1:
        return [draw(st.integers(-20, 20).filter(lambda c: c % f.spec.p))]
    return compute_mu0(f, f2, prec=_start_prec(f, M, N))


def outcome(solve, f, f2, mu0, M, N):
    """Every digit and label of a solve, or the error it raised."""
    try:
        res = solve(f, f2, mu0, M, N)
    except (PrecisionError, SpecMismatchError) as exc:
        return type(exc), str(exc)
    return ([(c.unit.prec, c.unit.vec, c.shift) for c in res.xi.coeffs],
            res.xi.cap, res.losses, res.verified_to, res.integral, res.mu0)


@pytest.mark.parametrize("name,s", CASES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_solver_matches_reference_loop(name, s, data):
    spec = SPECS[name]
    f, f2 = data.draw(compatible_pairs(spec, s))
    M = data.draw(st.integers(1, 20))
    N = data.draw(st.integers(1, 20))
    for mu0 in mu0_candidates(data.draw, f, f2, s, M, N):
        assert outcome(solve_intertwiner, f, f2, mu0, M, N) == \
            outcome(reference_solve, f, f2, mu0, M, N)


@pytest.mark.parametrize("name,s", CASES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_raising_M_or_N_never_lowers_a_label(name, s, data):
    spec = SPECS[name]
    f, f2 = data.draw(compatible_pairs(spec, s))
    M = data.draw(st.integers(2, 20))
    N = data.draw(st.integers(1, 20))
    M2 = M + data.draw(st.integers(0, 6))
    N2 = N + data.draw(st.integers(0, 6))
    choice = data.draw(st.integers(1, 20).filter(lambda c: c % spec.p)) \
        if s == 1 else None
    try:
        lo = solve_intertwiner_all(f, f2, M, N, choice=choice)
        hi = solve_intertwiner_all(f, f2, M2, N2, choice=choice)
    except (PrecisionError, SpecMismatchError):
        return
    for a, b in zip(lo, hi, strict=True):
        for k in range(1, M + 1):
            assert b.xi.coeff(k).absprec >= a.xi.coeff(k).absprec


# ------------------------------------------------ each solver stage, old loop

@pytest.mark.parametrize("name,s", CASES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_f2_table_matches_series_powers(name, s, data):
    # a row of the recurrence stops at k = n // s (or M - 1); the old
    # row's entries past it are exact zeros
    spec = SPECS[name]
    f, f2 = data.draw(compatible_pairs(spec, s))
    M = data.draw(st.integers(1, 24))
    f2s = f2.as_series(absprec=_start_prec(f, M, data.draw(st.integers(1, 20))))
    f2s = f2s.truncate(M + s)
    new = _f2_powers(spec, _triples(f2s), M - 1)
    old = reference_f2_table(f2s, M)
    assert len(new) == len(old) == M + s
    for row_new, row_old in zip(new, old):
        assert row_new == list(row_old[:len(row_new)])
        assert all(c[2] is None for c in row_old[len(row_new):])


@st.composite
def coefficient(draw, spec):
    """A (shift, unit, label) coefficient: visible, at times of negative
    valuation, or a zero at its label, or the exact zero."""
    kind = draw(st.sampled_from(("unit", "unit", "unit", "zero", "exact")))
    if kind == "exact":
        return (0, (0,) * spec.e_F, None)
    label = draw(st.integers(-2, 30))
    if kind == "zero":
        return (label, (0,) * spec.e_F, label)
    c = unit_of(draw, spec).times_pi(draw(st.integers(-2, 6)))
    return _flat(spec, c, label)


@pytest.mark.parametrize("name,s", CASES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_columns_match_rebuild_every_degree(name, s, data):
    spec = SPECS[name]
    M = data.draw(st.integers(1, 16))
    xis = data.draw(st.lists(coefficient(spec), min_size=M, max_size=M))
    powers = _XiPowers(spec, s)
    for d, at_n in zip(range(2, M + 1), reference_columns(spec, s, xis, M),
                       strict=True):
        assert powers.at(xis[:d]) == at_n


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_running_divisor_is_the_exact_difference(name, data):
    # the solver's s = 1 pairs have a_1 = a_1'; an independent a_1' (zero
    # at times) checks the running power on its own
    spec = SPECS[name]
    f, f2 = data.draw(compatible_pairs(spec, 1))
    a_1 = f.coeffs[0]
    b_1 = data.draw(st.sampled_from(
        (a_1, OFExact.zero(spec), unit_of(data.draw, spec) * OFExact.pi(spec))))
    M = data.draw(st.integers(1, 24))
    n_start = _start_prec(f, M, data.draw(st.integers(1, 20)))
    divs = _running_divisors(spec, a_1, b_1, n_start)
    for d in range(2, M + 1):
        assert next(divs) == _flat(spec, a_1 - b_1 ** d, n_start)

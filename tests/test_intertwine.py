"""Tests for conjugation between polynomial Frobenius lifts.

The frozen cases re-check the solved series with an independent oracle:
plain integer polynomial composition mod (x^M, p^N), no library
arithmetic involved beyond reading off coefficients.
"""

from fractions import Fraction

import pytest

from frobkit.errors import NoRootError, PrecisionError, SpecMismatchError
from frobkit.intertwine import (
    check_compatible,
    compute_mu0,
    solve_intertwiner,
    solve_intertwiner_all,
    verify_intertwine,
)
from frobkit.scalars import FElement, FieldSpec, qp_spec
from frobkit.series import FrobLift, USeries, frob_preset, s_compose

Q3 = qp_spec(3)
Q5 = qp_spec(5)

CYC3 = frob_preset(Q3, "cyclotomic")  # (1+u)^3 - 1 = u^3 + 3u^2 + 3u


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

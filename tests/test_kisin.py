"""Frobenius-module layer: height checks, the scalar obstruction scan,
witness construction, and the Y_n iteration.

Oracles here are deliberately primitive: polynomial identities are
recomputed with plain integer coefficient lists (no frobkit series
arithmetic), heights come from hand-factored determinants, and the
lambda-product comparison builds its truncated product with the public
frobenius/truncate calls only.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobkit as fk
import frobkit.kisin as kisin
from frobkit import (
    AtLeast,
    EisensteinE,
    FElement,
    FieldSpec,
    FrobLift,
    IndeterminateError,
    KisinModule,
    OFExact,
    SpecMismatchError,
    USeries,
    check_counterexample,
    counterexample_module,
    eisenstein_preset,
    fil1_rank,
    frob_preset,
    frobenius,
    gauge_alpha,
    hypothesis_check,
    mat_adj,
    mat_det,
    mat_frob,
    mat_identity,
    mat_make,
    mat_mul,
    mat_scale,
    mat_sub,
    minimal_height_rank1,
    qp_spec,
    verify_height,
    xi_iterate,
)
from frobkit.scalars import DEFAULT_PREC
from frobkit.series import _compose_powers, _powers, s_compose

Q3 = qp_spec(3)
Q5 = qp_spec(5)


# --- plain-integer polynomial helpers (the independent oracle layer) --------


def ipoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ipoly_compose(outer, inner):
    acc = [outer[-1]]
    for c in outer[-2::-1]:
        acc = ipoly_mul(acc, inner)
        acc[0] += c
    return acc


def ipoly_pow(base, k):
    acc = [1]
    for _ in range(k):
        acc = ipoly_mul(acc, base)
    return acc


def int_coeffs(obj):
    """Exact integer coefficients of a preset lift or Eisenstein poly."""
    out = [int(c.vec[0]) for c in obj.coeffs]
    assert all(c.vec[0] == out[i] for i, c in enumerate(obj.coeffs))
    return out


def ints_of(xs: USeries, m: int, n_prec: int):
    p = xs.spec.p
    mod = p**n_prec
    out = []
    for k in range(m):
        c = xs.coeff(k)
        if c.is_zero_at_prec():
            out.append(0)
        else:
            assert c.absprec >= n_prec and c.shift >= 0
            out.append(c.unit.vec[0] * p**c.shift % mod)
    return out


def mat_is_zero(M):
    return all(e.is_zero_at_prec() for row in M for e in row)


def rand_unimod(spec, rng, absprec=16, d=2):
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


def diag_with_E(spec, E, d, positions, absprec=16):
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for i in positions:
        rows[i][i] = list(E.coeffs)
    return mat_make(spec, rows, absprec=absprec)


# --- matrix layer ------------------------------------------------------------


def test_mat_identity_is_neutral():
    rng = random.Random(0)
    A = rand_unimod(Q3, rng)
    I = mat_identity(Q3, 2)
    assert mat_is_zero(mat_sub(mat_mul(A, I), A))
    assert mat_is_zero(mat_sub(mat_mul(I, A), A))


def test_mat_det_frozen_2x2():
    A = mat_make(Q3, [[[1, 1], [0, 1]], [[0, 1], 1]])
    got = mat_det(A)  # (1+u) - u^2
    want = USeries.make(Q3, [1, 1, -1])
    assert (got - want).is_zero_at_prec()


def test_mat_adjugate_identity():
    rng = random.Random(1)
    for d in (2, 3):
        rows = [[[rng.randrange(-4, 5) for _ in range(3)] for _ in range(d)]
                for _ in range(d)]
        A = mat_make(Q3, rows)
        prod = mat_mul(A, mat_adj(A))
        det = mat_det(A)
        for i in range(d):
            for j in range(d):
                want = det if i == j else det - det
                assert (prod[i][j] - want).is_zero_at_prec()


def test_adjugate_of_a_scalar_is_one_at_a_finite_label():
    # the 1x1 adjugate is one known modulo pi^max(label, DEFAULT_PREC); an
    # exact entry gets the DEFAULT_PREC one instead of a one modulo pi^inf
    for x, label in ((FElement.zero(Q3), DEFAULT_PREC),
                     (FElement.zero_at(Q3, 5), DEFAULT_PREC),
                     (FElement.from_int(Q3, 2, 20), 20)):
        (one,), = mat_adj(((x,),))
        assert one == FElement.one(Q3, label)
        assert (one.low, one.coords, one.label) == (0, (1,), label)
    with pytest.raises(ValueError, match="precision must be an integer"):
        FElement.one(Q3, float("inf"))
    with pytest.raises(ValueError, match="precision must be an integer"):
        FElement.from_int(Q3, 1, 2.0)


def test_mat_det_multiplicative():
    rng = random.Random(2)
    A = rand_unimod(Q3, rng)
    B = rand_unimod(Q3, rng)
    lhs = mat_det(mat_mul(A, B))
    rhs = mat_det(A) * mat_det(B)
    assert (lhs - rhs).is_zero_at_prec()


def test_mat_frob_matches_entrywise_substitution():
    f = frob_preset(Q3, "cyclotomic")
    A = mat_make(Q3, [[[0, 1], 1], [[1, 0, 1], [0, 0, 1]]])
    F = mat_frob(A, f, 2)
    for i in range(2):
        for j in range(2):
            assert (F[i][j] - frobenius(A[i][j], f, 2)).is_zero_at_prec()


def test_mat_make_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mat_make(Q3, [[1, 0]])
    with pytest.raises(SpecMismatchError):
        mat_make(Q3, [[USeries.one(Q5), 0], [0, 1]])


# --- module construction ------------------------------------------------


def test_module_basic_fields():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    m = KisinModule.make(f, E, 1, [[1, 0], [0, list(E.coeffs)]])
    assert m.d == 2 and m.r == 1
    j = m.to_json()
    assert j["d"] == 2 and j["r"] == 1 and len(j["A"]) == 2


def test_module_rejects_nonintegral_entries():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    third = fk.FElement.from_exact(fk.OFExact.make(Q3, [Fraction(1, 3)]), 12)
    bad = USeries.make(Q3, [third])
    with pytest.raises(ValueError):
        KisinModule(Q3, f, E, 1, ((bad,),))


def test_module_rejects_negative_height_and_mixed_specs():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    with pytest.raises(ValueError):
        KisinModule.make(f, E, -1, [[1]])
    with pytest.raises(SpecMismatchError):
        KisinModule(Q5, frob_preset(Q5, "classical"), E, 1,
                    mat_identity(Q5, 1))


# --- verify_height -----------------------------------------------------------


def test_height_identity_module_any_r():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    for r in (0, 1, 3):
        assert verify_height(KisinModule.make(f, E, r, [[1, 0], [0, 1]]))


def test_height_rank_one_powers_of_E():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    e_row = [[list(E.coeffs)]]
    assert verify_height(KisinModule.make(f, E, 1, e_row))
    assert not verify_height(KisinModule.make(f, E, 0, e_row))
    esq = ipoly_mul(int_coeffs(E), int_coeffs(E))
    assert verify_height(KisinModule.make(f, E, 2, [[esq]]))
    assert not verify_height(KisinModule.make(f, E, 1, [[esq]]))


def test_height_conjugated_diagonal():
    rng = random.Random(3)
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    A = mat_mul(mat_mul(rand_unimod(Q3, rng), diag_with_E(Q3, E, 2, [1])),
                rand_unimod(Q3, rng))
    assert verify_height(KisinModule(Q3, f, E, 1, A))
    assert not verify_height(KisinModule(Q3, f, E, 0, A))


def test_height_nonunit_cofactor_is_false_for_every_r():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    for r in (0, 1, 5):
        assert not verify_height(KisinModule.make(f, E, r, [[3]]))


def test_height_jordan_block_needs_r_two():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    rows = [[list(E.coeffs), 1], [0, list(E.coeffs)]]
    assert not verify_height(KisinModule.make(f, E, 1, rows))
    assert verify_height(KisinModule.make(f, E, 2, rows))


def test_height_block_diagonal_is_max_of_blocks():
    # diag(E, E^2): height r holds iff r >= 2
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    esq = ipoly_mul(int_coeffs(E), int_coeffs(E))
    rows = [[list(E.coeffs), 0], [0, esq]]
    assert not verify_height(KisinModule.make(f, E, 1, rows))
    assert verify_height(KisinModule.make(f, E, 2, rows))


def test_height_indeterminate_when_cap_too_short():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    short = USeries.make(Q3, list(E.coeffs)).truncate(2)
    with pytest.raises(IndeterminateError):
        verify_height(KisinModule(Q3, f, E, 1, ((short,),)))


def test_height_singular_matrix_rejected():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    with pytest.raises(ValueError):
        verify_height(KisinModule.make(f, E, 1, [[1, 1], [1, 1]]))


# --- minimal height (rank one) -----------------------------------------------


def test_minimal_height_frozen_values():
    E = eisenstein_preset(Q3, "cyclotomic")
    assert minimal_height_rank1(USeries.make(Q3, list(E.coeffs)), E).m == 1
    assert minimal_height_rank1(USeries.make(Q3, [2, 1]), E).m == 0
    esq = ipoly_mul([2, 0, 1], int_coeffs(E))
    esq = ipoly_mul(esq, int_coeffs(E))
    got = minimal_height_rank1(USeries.make(Q3, esq), E)
    assert got.m == 2
    assert got.unit_cofactor.constant().vlow() == 0


def test_minimal_height_of_cyclotomic_lift_over_u():
    # phi(u)/u for the cyclotomic lift IS the cyclotomic Eisenstein poly
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    got = minimal_height_rank1(f.f0_series(), E)
    assert got.m == 1
    one = USeries.one(Q3)
    assert (got.unit_cofactor - one).is_zero_at_prec()


def test_minimal_height_rejects_non_unit_cofactors():
    E = eisenstein_preset(Q3, "cyclotomic")
    u_times_e = USeries.make(Q3, [0, *int_coeffs(E)])
    with pytest.raises(ValueError):
        minimal_height_rank1(u_times_e, E)
    pi_times_e = USeries.make(Q3, [3 * c for c in int_coeffs(E)])
    with pytest.raises(ValueError):
        minimal_height_rank1(pi_times_e, E)
    with pytest.raises(ValueError):
        minimal_height_rank1(USeries.make(Q3, [0]), E)


# --- fil1 rank ---------------------------------------------------------------


def test_fil1_rank_frozen_and_matches_minimal_height():
    rng = random.Random(4)
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    I3 = mat_identity(Q3, 3)
    assert fil1_rank(KisinModule(Q3, f, E, 1, I3)) == 0
    assert fil1_rank(KisinModule.make(f, E, 1, [[list(E.coeffs)]])) == 1
    A = mat_mul(mat_mul(rand_unimod(Q3, rng, d=3),
                        diag_with_E(Q3, E, 3, [0, 2])),
                rand_unimod(Q3, rng, d=3))
    m = KisinModule(Q3, f, E, 1, A)
    assert fil1_rank(m) == 2
    assert fil1_rank(m) == minimal_height_rank1(mat_det(m.A), E).m


def test_fil1_rank_requires_declared_height_one():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    with pytest.raises(ValueError):
        fil1_rank(KisinModule.make(f, E, 2, [[1]]))
    esq = ipoly_mul(int_coeffs(E), int_coeffs(E))
    with pytest.raises(ValueError):
        fil1_rank(KisinModule.make(f, E, 1, [[esq]]))


# --- hypothesis scan ----------------------------------------------------


@pytest.mark.parametrize("spec", [Q3, Q5])
def test_hypothesis_preset_verdicts(spec):
    p = spec.p
    want = {"cyclotomic": (0, 1), "lubin-tate": (0, 1),
            "twisted": (1, p - 1), "classical": None}
    for name, expect in want.items():
        E = eisenstein_preset(spec, name)
        f = frob_preset(spec, name)
        got = hypothesis_check(f, E, 6)
        if expect is None:
            assert got is None
        else:
            assert (got.n, got.k) == expect


def test_hypothesis_twisted_verified_by_integer_oracle():
    # phi(f/u) == E^(p-1) recomputed with plain integer polynomials
    for spec in (Q3, Q5):
        E = eisenstein_preset(spec, "twisted")
        f = frob_preset(spec, "twisted")
        res = hypothesis_check(f, E, 6)
        assert (res.n, res.k) == (1, spec.p - 1)
        fpoly = [0, *int_coeffs(f)]
        f_over_u = int_coeffs(f)
        assert ipoly_compose(f_over_u, fpoly) == ipoly_pow(int_coeffs(E), spec.p - 1)


def test_hypothesis_zero_a1_shortcut():
    E = eisenstein_preset(Q3, "classical")
    assert hypothesis_check(frob_preset(Q3, "classical"), E, 500) is None
    f = FrobLift.make(Q3, [0, 3, 1])  # a1 = 0, a2 = 3
    assert hypothesis_check(f, E, 500) is None


def test_hypothesis_negative_case_with_full_compare():
    f = FrobLift.make(Q3, [3, 0, 1])  # u^3 + 3u: right degree/valuation at n=0
    E = eisenstein_preset(Q3, "cyclotomic")
    assert hypothesis_check(f, E, 6) is None


def test_hypothesis_rejects_negative_budget():
    with pytest.raises(ValueError):
        hypothesis_check(frob_preset(Q3, "cyclotomic"),
                         eisenstein_preset(Q3, "cyclotomic"), -1)


def test_hypothesis_json_shape():
    res = hypothesis_check(frob_preset(Q3, "cyclotomic"),
                           eisenstein_preset(Q3, "cyclotomic"), 2)
    assert res.to_json() == {"found": True, "n": 0, "k": 1}


def reference_scan(f, E, N):
    """The level-by-level scan hypothesis_check ran before it computed its
    one candidate level: phi^n(f/u) is composed at every n <= N and
    compared, padded to one length, with E^k wherever degrees and
    constant-term valuations allow."""
    spec = f.spec
    if f.a1.is_zero():
        return None
    z = OFExact.zero(spec)
    fpoly = [z, *f.coeffs]
    g = list(f.coeffs)
    va1, vc0 = f.a1.val(), E.c0.val()
    for n in range(N + 1):
        if n:
            g = kisin._xp_compose(g, fpoly, spec)
        k, rem = divmod((spec.p - 1) * spec.p**n, E.e0)
        if rem == 0 and va1 == k * vc0:
            Ek = kisin._xp_pow(list(E.coeffs), k, spec)
            width = max(len(g), len(Ek))
            if g + [z] * (width - len(g)) == Ek + [z] * (width - len(Ek)):
                return kisin.HypothesisResult(n, k)
    return None


SCAN_SPECS = {
    "Z3": Q3,
    "Z5": Q5,
    "Z3-6": FieldSpec(3, (6, 1)),  # e_F = 1 with pi = -6, not p
    "Z3pi": FieldSpec(3, (-3, 0, 1)),  # pi^2 = 3
}
PRESETS = ("classical", "cyclotomic", "lubin-tate", "twisted")


def rand_pi_multiple(rng, spec, v):
    """pi^v times a random unit with small coordinates."""
    unit = [rng.randrange(1, spec.p) + spec.p * rng.randint(-2, 2)]
    unit += [rng.randint(-4, 4) for _ in range(spec.e_F - 1)]
    return OFExact.make(spec, unit) * OFExact.pi(spec) ** v


def rand_lift(rng, spec, v1):
    a1 = OFExact.zero(spec) if v1 is None else rand_pi_multiple(rng, spec, v1)
    mid = [rand_pi_multiple(rng, spec, rng.randint(1, 2)) if rng.random() < 0.6
           else OFExact.zero(spec) for _ in range(spec.p - 2)]
    return FrobLift.make(spec, [a1, *mid, OFExact.one(spec)])


def rand_eisenstein(rng, spec, e0):
    mid = [rand_pi_multiple(rng, spec, rng.randint(1, 2)) if rng.random() < 0.5
           else OFExact.zero(spec) for _ in range(e0 - 1)]
    return EisensteinE.make(spec, [rand_pi_multiple(rng, spec, 1), *mid,
                                   OFExact.one(spec)])


def iterate(f, n, poly):
    """poly composed with the n-fold iterate of f, as exact coefficient lists."""
    fpoly = [OFExact.zero(f.spec), *f.coeffs]
    for _ in range(n):
        poly = kisin._xp_compose(poly, fpoly, f.spec)
    return poly


def scan_cases(rng, spec):
    """(f, E, N): every preset pair that is defined over spec; random lifts
    and E, with e0 often of a degree that makes some level a candidate;
    and built witnesses of level n with a perturbed copy of each, at a
    budget N that mostly reaches n."""
    p, pi = spec.p, OFExact.pi(spec)
    top = 3 if p == 3 else 2  # the reference composes every level up to N
    for fname in PRESETS:
        for ename in PRESETS:
            try:
                yield (frob_preset(spec, fname), eisenstein_preset(spec, ename),
                       rng.randint(0, top))
            except ValueError:  # p has valuation 2 over Z_3[pi]
                pass
    for _ in range(20):
        f = rand_lift(rng, spec, rng.choice((None, 1, 1, 2, 3)))
        e0 = rng.choice((1, 2, p - 1, p, (p - 1) * p, (p - 1) * p // 2))
        yield f, rand_eisenstein(rng, spec, e0), rng.randint(0, top)
    witnesses = []
    for n in range(top):
        # E = phi^n(f/u) is Eisenstein when v(a_1) = 1: k = 1
        f = rand_lift(rng, spec, 1)
        witnesses.append((f, iterate(f, n, list(f.coeffs)), n))
        # f = u*(u - c)^(p-1) gives phi^n(f/u) = (f^(n)(u) - c)^(p-1), so
        # E = f(f(...f(u))) - c witnesses level n with k = p - 1
        c = rand_pi_multiple(rng, spec, 1)
        f = FrobLift.make(spec, kisin._xp_pow([-c, OFExact.one(spec)], p - 1, spec))
        E = iterate(f, n, [OFExact.zero(spec), OFExact.one(spec)])
        E[0] = E[0] - c
        witnesses.append((f, E, n))
    for f, E, n in witnesses:
        N = rng.randint(max(n - 1, 0), top)
        yield f, EisensteinE.make(spec, E), N
        bent = list(E)
        if len(bent) > 2:
            j = rng.randrange(1, len(bent) - 1)
            bent[j] = bent[j] + pi
        else:
            bent[0] = bent[0] + pi**2
        yield f, EisensteinE.make(spec, bent), N


@pytest.mark.parametrize("name", SCAN_SPECS)
def test_hypothesis_scan_matches_reference_scan(name):
    spec = SCAN_SPECS[name]
    rng = random.Random(f"scan/{name}")
    found = 0
    for f, E, N in scan_cases(rng, spec):
        want = reference_scan(f, E, N)
        assert hypothesis_check(f, E, N) == want, (f, E, N)
        found += want is not None
    assert found >= 4


def test_hypothesis_scan_composes_only_its_candidate_level(monkeypatch):
    calls = []
    compose = kisin._xp_compose

    def counted(*args):
        calls.append(1)
        return compose(*args)

    monkeypatch.setattr(kisin, "_xp_compose", counted)
    E = eisenstein_preset(Q3, "cyclotomic")
    assert hypothesis_check(FrobLift.make(Q3, [3, 0, 1]), E, 6) is None
    assert len(calls) == 0
    res = hypothesis_check(frob_preset(Q3, "twisted"),
                           eisenstein_preset(Q3, "twisted"), 6)
    assert (res.n, res.k) == (1, 2)
    assert len(calls) == 1


# --- counterexample construction ---------------------------------------------


def test_counterexample_cyclotomic_base_case():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    w = counterexample_module(f, E, 0, absprec=16)
    assert w.l == 1
    assert ints_of(w.A, 3, 10) == [0, 1, 0]
    assert verify_height(w.module) and verify_height(w.ambient)
    assert w.module.r == w.ambient.r == 1
    assert check_counterexample(f, E, w.A, w.l)


def test_counterexample_twisted_is_f_itself():
    for spec in (Q3, Q5):
        f = frob_preset(spec, "twisted")
        E = eisenstein_preset(spec, "twisted")
        w = counterexample_module(f, E, 1, absprec=16)
        assert w.l == spec.p - 1
        mod = spec.p**10
        assert ints_of(w.A, spec.p + 1, 10) == [c % mod for c in [0, *int_coeffs(f)]]
        assert verify_height(w.module) and verify_height(w.ambient)
        assert check_counterexample(f, E, w.A, w.l)


def test_counterexample_deeper_level_verified_by_integer_oracle():
    # the twisted lift pairs with E' = f(f(u)) - p to witness level n = 2
    f = frob_preset(Q3, "twisted")
    fpoly = [0, *int_coeffs(f)]
    e_int = ipoly_compose(fpoly, fpoly)
    e_int[0] -= 3
    E2 = EisensteinE.make(Q3, e_int)
    assert E2.e0 == 9
    res = hypothesis_check(f, E2, 3)
    assert (res.n, res.k) == (2, 2)

    w = counterexample_module(f, E2, 2, absprec=24)
    assert w.l == 2
    h = int_coeffs(f)
    a_int = ipoly_mul(fpoly, ipoly_compose(h, fpoly))
    mod = 3**20
    coeffs = ints_of(w.A, 3**2 + 1, 20)
    assert coeffs[3**2] == 1
    assert coeffs == [c % mod for c in a_int]
    assert ipoly_mul(a_int, ipoly_pow(e_int, 2)) == ipoly_compose(a_int, fpoly)
    assert verify_height(w.module) and verify_height(w.ambient)
    assert check_counterexample(f, E2, w.A, w.l)


def test_counterexample_rejects_non_witness_inputs():
    with pytest.raises(SpecMismatchError):
        counterexample_module(frob_preset(Q3, "classical"),
                              eisenstein_preset(Q3, "classical"), 0)
    # twisted e0 = p does not divide (p-1) at n = 0
    with pytest.raises(SpecMismatchError):
        counterexample_module(frob_preset(Q3, "twisted"),
                              eisenstein_preset(Q3, "twisted"), 0)
    # cyclotomic at n = 2 clears the divisibility gate but not the identity
    with pytest.raises(SpecMismatchError):
        counterexample_module(frob_preset(Q3, "cyclotomic"),
                              eisenstein_preset(Q3, "cyclotomic"), 2)


def test_check_counterexample_flags_wrong_series():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    assert not check_counterexample(f, E, USeries.make(Q3, [0, 1, 1]), 1)
    with pytest.raises(ValueError):
        check_counterexample(f, E, USeries.make(Q3, [0, 1]), -1)


# --- the Y_n iteration -------------------------------------------------------


def xi_test_module(rng, absprec=16):
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    A = mat_mul(mat_mul(rand_unimod(Q3, rng, absprec=absprec),
                        diag_with_E(Q3, E, 2, [1], absprec=absprec)),
                rand_unimod(Q3, rng, absprec=absprec))
    return KisinModule(Q3, f, E, 1, A)


def test_xi_requires_deep_enough_a1():
    E = eisenstein_preset(Q3, "cyclotomic")
    f = frob_preset(Q3, "cyclotomic")  # v(a1) = 1
    m = KisinModule.make(f, E, 1, [[list(E.coeffs)]])
    with pytest.raises(ValueError):
        xi_iterate(m, 2)
    with pytest.raises(ValueError):
        xi_iterate(m, 0)


def test_xi_rejects_singular_constant_matrix():
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    m = KisinModule.make(f, E, 1, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        xi_iterate(m, 2)


def test_xi_constant_matrix_gives_identity():
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    m = KisinModule.make(f, E, 1, [[1, 0], [3, 2]])
    rep = xi_iterate(m, 3, u_order=30)
    # no visible movement: every gauge reading is only a tail bound
    assert all(isinstance(g, AtLeast) for g in rep.gauges)
    den = rep.den
    for i, row in enumerate(rep.numerator):
        for j, entry in enumerate(row):
            want = den if i == j else den - den
            assert (entry.constant() - want).is_zero_at_prec()
            assert all(c.is_zero_at_prec() for c in entry.coeffs[1:])


def test_xi_reports_every_entry_to_the_u_order():
    # entries of u-order 0, 1 and 2 and an exact zero: a polynomial of
    # u-order k composes to a longer series, cut back to the u-order
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    m = KisinModule.make(f, E, 1, [[1, [0, 0, 1]], [0, list(E.coeffs)]],
                         absprec=16)
    rep = xi_iterate(m, 3, u_order=30)
    for mat in (rep.numerator, rep.Y):
        assert [[x.cap for x in row] for row in mat] == [[30, 30], [30, 30]]


def test_xi_rank_one_matches_lambda_product_oracle():
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    m = KisinModule.make(f, E, 1, [[list(E.coeffs)]], absprec=16)
    max_n, u_order = 3, 30
    rep = xi_iterate(m, max_n, u_order=u_order)
    assert [g for g in rep.gauges] == [0, 2, 4]

    E_ser = E.as_series(absprec=16)
    lam = E_ser.truncate(u_order)
    for j in range(1, max_n + 1):
        lam = (lam * frobenius(E_ser, f, j).truncate(u_order)).truncate(u_order)
    defect = rep.numerator[0][0] * E_ser - lam
    g = gauge_alpha(defect, E.e0)
    assert isinstance(g, AtLeast) and g.bound - rep.den.val() >= 6


def test_xi_gauge_trace_climbs_for_height_one_modules():
    rng = random.Random(11)
    for _ in range(2):
        m = xi_test_module(rng)
        rep = xi_iterate(m, 5, u_order=45)
        assert len(rep.gauges) == 5
        ints = [g for g in rep.gauges[1:] if isinstance(g, int)]
        assert len(ints) == 4
        assert all(b > a for a, b in zip(ints, ints[1:]))


def test_xi_y_is_identity_mod_u():
    rng = random.Random(12)
    m = xi_test_module(rng)
    rep = xi_iterate(m, 4, u_order=36)
    den = rep.den
    for i, row in enumerate(rep.numerator):
        for j, entry in enumerate(row):
            want = den if i == j else den - den
            assert (entry.constant() - want).is_zero_at_prec()


def test_xi_limit_relation_holds_at_available_gauge():
    # Y*A0 - phi(A)*phi(Y) should be small in the gauge, numerator side
    rng = random.Random(13)
    m = xi_test_module(rng)
    u_order = 45
    rep = xi_iterate(m, 5, u_order=u_order)
    A0 = m.constant_matrix()
    f_ser = m.f.as_series(20).truncate(u_order)
    lhs = mat_mul(rep.numerator, A0)
    phiA = tuple(tuple(fk.s_compose(x, f_ser) for x in row)
                 for row in fk.mat_truncate(m.A, u_order))
    phiN = tuple(tuple(fk.s_compose(x, f_ser) for x in row)
                 for row in rep.numerator)
    defect = mat_sub(lhs, mat_mul(phiA, phiN))
    readings = [gauge_alpha(e, m.E.e0) for row in defect for e in row]
    floor = min(r.bound if isinstance(r, AtLeast) else r
                for r in readings if r is not None)
    v0 = fk.mat_det(A0).vlow()
    assert floor - 5 * v0 >= rep.gauges[-1]


def test_xi_restart_rebase_identity():
    # N_(n0+k) * det0^n0 == N_n0 * A0^n0 * phi^n0(N_k) * adj0^n0
    rng = random.Random(14)
    m = xi_test_module(rng)
    n0 = k = 2
    rep_full = xi_iterate(m, n0 + k, u_order=48)
    rep_n0 = xi_iterate(m, n0, u_order=48)
    rep_k = xi_iterate(m, k, u_order=48)
    A0 = m.constant_matrix()
    adj0 = mat_adj(A0)
    det0 = mat_det(A0)
    A0p = mat_mul(A0, A0)
    adj0p = mat_mul(adj0, adj0)
    lhs = mat_scale(rep_full.numerator, det0**n0)
    phiNk = mat_frob(rep_k.numerator, m.f, n0)
    rhs = mat_mul(mat_mul(mat_mul(rep_n0.numerator, A0p), phiNk), adj0p)
    assert mat_is_zero(mat_sub(lhs, rhs))


def test_xi_default_u_order_runs():
    rng = random.Random(15)
    m = xi_test_module(rng)
    rep = xi_iterate(m, 2)
    assert len(rep.gauges) == 2


def test_xi_report_json_deterministic():
    rng1, rng2 = random.Random(16), random.Random(16)
    blobs = []
    for rng in (rng1, rng2):
        rep = xi_iterate(xi_test_module(rng), 3, u_order=30)
        blobs.append(json.dumps(rep.to_json(), sort_keys=True))
    assert blobs[0] == blobs[1]
    obj = json.loads(blobs[0])
    assert set(obj) == {"Y", "den", "gauges"}
    for g in obj["gauges"]:
        assert g is None or isinstance(g, int) or set(g) == {"at_least"}


def test_xi_report_keeps_exact_coefficients_exact(monkeypatch):
    # the first `kisin xi` job of the xi-rank2 benchmark stream at seed 1:
    # Y = N / det(A0)^6 scales exact zeros of N by pi^-6, and an exact zero
    # stays exact instead of turning into a zero labelled 10**6 - 6
    import frobkit.cli as cli
    monkeypatch.delenv("FROBKIT_PRECISION", raising=False)
    argv = ["kisin", "xi", "--p", "3", "--f", "[9, 0, 1]", "--E", "[-3, 1]",
            "--r", "1", "--max-n", "6", "--M", "54", "--N", "16", "--matrix",
            "[[[28, -24, -52, -52, 0, 8], [0, -120, 36, -28, -104, -104, 0, 16]],"
            " [[-15, -25, -6, -2, -26, -26, 0, 4],"
            " [-75, 25, -30, -110, -22, 6, -52, -52, 0, 8]]]"]
    args = cli._parser().parse_args(argv)
    spec = cli._field(args, {})
    prec = cli._precision(args, {})
    m, _ = cli._kisin_module(spec, args, {}, prec, 1)
    rep = kisin.xi_iterate(m, 6, u_order=prec["u_order"])
    exact = 0
    for y in (entry for row in rep.Y for entry in row):
        for n in range(len(y)):
            if y.labels[n] is None:
                exact += 1
            else:
                assert y.coeff(n).absprec < 999000
    assert exact > 0


def _rank1_xi_module(rng, absprec):
    E = eisenstein_preset(Q3, "classical")
    f = FrobLift.make(Q3, [9, 0, 1])
    unit = [rng.choice((1, 2)) + 3 * rng.randrange(3),
            rng.randrange(3), rng.randrange(3)]
    A = mat_mul(mat_make(Q3, [[unit]], absprec=absprec),
                diag_with_E(Q3, E, 1, [0], absprec=absprec))
    return KisinModule(Q3, f, E, 1, A)


def _label_not_lower(old, new) -> bool:
    """new >= old for labels, an exact None above every number."""
    return new is None or (old is not None and new >= old)


@given(rank=st.sampled_from((1, 2)), seed=st.integers(0, 10 ** 6),
       max_n=st.integers(1, 3), N=st.integers(6, 16), dN=st.integers(0, 6),
       M=st.integers(8, 24), dM=st.integers(0, 8))
@settings(max_examples=16, deadline=None)
def test_xi_labels_never_drop_when_N_or_M_rise(rank, seed, max_n, N, dN, M, dM):
    # the same integer module read at absprec N and N + dN, iterated to
    # u-order M and M + dM: every label of den and of the entries of Y that
    # both runs hold is at least as high in the second
    make = _rank1_xi_module if rank == 1 else xi_test_module
    reps = []
    for absprec, u_order in ((N, M), (N + dN, M + dM)):
        try:
            reps.append(xi_iterate(make(random.Random(seed), absprec), max_n,
                                   u_order=u_order))
        except (ArithmeticError, IndeterminateError):
            return
    lo, hi = reps
    assert _label_not_lower(lo.den.label, hi.den.label)
    for row_lo, row_hi in zip(lo.Y, hi.Y, strict=True):
        for y_lo, y_hi in zip(row_lo, row_hi, strict=True):
            for a, b in zip(y_lo.labels, y_hi.labels):
                assert _label_not_lower(a, b)


# --- the power-table composition of xi_iterate against Horner ----------------
#
# xi_iterate composes every entry of A with g_n from one power table
# g_n, ..., g_n^D (series._powers, series._compose_powers).  Horner's
# s_compose is the reference: on the same inputs no label may be lower and
# every value must be congruent modulo the Horner label.

Z3PI = FieldSpec(3, (-3, 0, 1))  # pi^2 = 3


def _xi_field_module(name, rank, rng, absprec=16):
    """A rank-1 unit*E or rank-2 U*diag(1, E)*V module over Z_3 (E = u - 3)
    or over Z_3[pi] (E = u + pi), with f = u^3 + 9u."""
    if name == "Z3":
        spec, E = Q3, eisenstein_preset(Q3, "classical")
    else:
        spec, E = Z3PI, EisensteinE.make(Z3PI, [OFExact.pi(Z3PI), 1])
    f = FrobLift.make(spec, [9, 0, 1])
    if rank == 1:
        unit = [rng.choice((1, 2)) + 3 * rng.randrange(3),
                rng.randrange(3), rng.randrange(3)]
        A = mat_mul(mat_make(spec, [[unit]], absprec=absprec),
                    diag_with_E(spec, E, 1, [0], absprec=absprec))
    else:
        A = mat_mul(mat_mul(rand_unimod(spec, rng, absprec=absprec),
                            diag_with_E(spec, E, 2, [1], absprec=absprec)),
                    rand_unimod(spec, rng, absprec=absprec))
    return KisinModule(spec, f, E, 1, A)


def _assert_refines(old: USeries, new: USeries) -> int:
    """new has old's cap and length, no lower label and a congruent value
    at every coefficient; returns the number of labels that rose."""
    assert (new.cap, len(new)) == (old.cap, len(old))
    rose = 0
    for a, b in zip(old.coeffs, new.coeffs):
        assert _label_not_lower(a.label, b.label)
        if a.label is not None:
            assert b.congruent(a, a.label)
            rose += b.label is None or b.label > a.label
    return rose


@given(name=st.sampled_from(("Z3", "Z3pi")), rank=st.sampled_from((1, 2)),
       seed=st.integers(0, 10 ** 6), absprec=st.integers(6, 16),
       L=st.integers(6, 30))
@settings(max_examples=30, deadline=None)
def test_power_table_composition_refines_horner(name, rank, seed, absprec, L):
    m = _xi_field_module(name, rank, random.Random(seed), absprec)
    f_ser = m.f.as_series(absprec + m.spec.e_F + 2)
    top = max(len(x) for row in m.A for x in row) - 1
    g = f_ser.truncate(L)
    for _ in range(3):
        powers = _powers(g, top, L)
        for x in (entry for row in m.A for entry in row):
            _assert_refines(s_compose(x, g).truncate(L),
                            _compose_powers(x, powers).truncate(L))
        g = s_compose(f_ser, g).truncate(L)


@pytest.mark.parametrize("name", ["Z3", "Z3pi"])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("seed", [0, 3])
def test_xi_gauges_match_the_horner_route(monkeypatch, name, rank, seed):
    # the whole iteration with every entry composed by Horner: the same
    # gauges and den, and Y refined label by label
    m = _xi_field_module(name, rank, random.Random(seed))
    new = xi_iterate(m, 4, u_order=36)
    monkeypatch.setattr(kisin, "_powers", lambda g, top, length: [g])
    monkeypatch.setattr(kisin, "_compose_powers",
                        lambda h, powers: s_compose(h, powers[0]))
    old = xi_iterate(m, 4, u_order=36)
    assert new.gauges == old.gauges
    assert new.den == old.den
    rose = sum(_assert_refines(a, b) for row_a, row_b in zip(old.Y, new.Y)
               for a, b in zip(row_a, row_b))
    # the rank-2 modules over Z_3, as in the xi-rank2 benchmark, gain labels
    assert (name, rank) != ("Z3", 2) or rose > 0

"""Witt layer checks.

The symbolic sum/product polynomials are validated against exact ghost
arithmetic in the torsion-free coefficient ring, where the identities are
meaningful; vector arithmetic over the perfected residue model is then
checked against the symbolic layer and on frozen examples.
"""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from frobkit.errors import BudgetError, IntegralityError
from frobkit.scalars import FieldSpec, OFExact, qp_spec
from frobkit.series import (
    PRESET_NAMES,
    EisensteinE,
    FrobLift,
    eisenstein_preset,
    frob_preset,
)
from frobkit.witt import (
    PerfSeries,
    WittVec,
    _div_pi,
    _eval_reduced,
    _int_tries,
    _reduced_polys,
    _ring,
    _trie,
    check_E_reduction,
    e_reduction_report,
    eval_poly_exact,
    f_fixed_point,
    f_fixed_point_report,
    ghost_map,
    ghost_trials,
    pi_shift,
    scalar_mul,
    teich,
    witt_add,
    witt_frob,
    witt_frob_inv,
    witt_mul,
    witt_neg,
    witt_polys,
)

Q2 = qp_spec(2)
Q3 = qp_spec(3)
Q5 = qp_spec(5)
RAM3 = FieldSpec(3, (-3, 0, 1))  # pi^2 = 3
Z6 = FieldSpec(3, (6, 1))  # pi = -6: S_m and P_m carry denominators 2^k
CUBIC3 = FieldSpec(3, (3, 3, 0, 1))  # pi^3 = -3 pi - 3: the generic product

ALL_SPECS = [Q2, Q3, Q5, RAM3]


def ex(spec, coords):
    return OFExact.make(spec, coords)


def rand_exact(spec, rng):
    return ex(spec, [Fraction(rng.randint(-2, 2)) for _ in range(spec.e_F)])


def ps_of(spec, terms, J=6):
    return PerfSeries.make(spec.p, J, terms)


def rand_perf(spec, rng, J=6):
    # small integral exponents so products stay far from the ceiling
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[rng.randint(0, 4) * spec.p ** (J - 1)] = rng.randint(1, spec.p - 1)
    return PerfSeries.make(spec.p, J, terms)


def rand_witt(spec, n, rng):
    return WittVec(spec, tuple(rand_perf(spec, rng) for _ in range(n)))


# --- symbolic layer ----------------------------------------------------------

def test_sum_and_product_polys_degree_zero():
    for spec in ALL_SPECS:
        ps = witt_polys(2, spec)
        one = OFExact.one(spec)
        assert ps.sums[0] == {(1, 0, 0, 0): one, (0, 0, 1, 0): one}
        assert ps.prods[0] == {(1, 0, 1, 0): one}


def test_first_sum_poly_p2():
    # S_1 = x_1 + y_1 + (x_0^2 + y_0^2 - (x_0+y_0)^2)/2 = x_1 + y_1 - x_0 y_0
    ps = witt_polys(2, Q2)
    assert ps.sums[1] == {
        (0, 1, 0, 0): OFExact.one(Q2),
        (0, 0, 0, 1): OFExact.one(Q2),
        (1, 0, 1, 0): ex(Q2, [-1]),
    }


def test_first_sum_poly_p3():
    ps = witt_polys(2, Q3)
    m1 = ex(Q3, [-1])
    assert ps.sums[1] == {
        (0, 1, 0, 0): OFExact.one(Q3),
        (0, 0, 0, 1): OFExact.one(Q3),
        (2, 0, 1, 0): m1,
        (1, 0, 2, 0): m1,
    }


def test_witt_polys_memoized():
    assert witt_polys(3, Q3) is witt_polys(3, Q3)


def test_witt_polys_length_bound():
    with pytest.raises(ValueError):
        witt_polys(6, Q3)
    with pytest.raises(ValueError):
        witt_polys(0, Q3)


def test_witt_polys_term_budget():
    # the top length is reachable at p = 2 but blows the term budget at
    # p = 3, which must be a loud failure rather than a hang
    ps = witt_polys(5, Q2)
    assert len(ps.sums) == 5
    with pytest.raises(BudgetError):
        witt_polys(5, Q3)


@pytest.mark.parametrize("spec", [Q2, Q3, RAM3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ghost_homomorphism_on_random_points(spec, n):
    """Exact check that S and P carry ghost coordinates to sum and product."""
    ps = witt_polys(n, spec)
    rng = random.Random(1000 * n + spec.p)
    for _ in range(100):
        xs = [rand_exact(spec, rng) for _ in range(n)]
        ys = [rand_exact(spec, rng) for _ in range(n)]
        pt = xs + ys
        scomp = [eval_poly_exact(ps.sums[m], pt, spec) for m in range(n)]
        pcomp = [eval_poly_exact(ps.prods[m], pt, spec) for m in range(n)]
        gx, gy = ghost_map(spec, xs), ghost_map(spec, ys)
        gs, gp = ghost_map(spec, scomp), ghost_map(spec, pcomp)
        for m in range(n):
            assert gs[m] == gx[m] + gy[m]
            assert gp[m] == gx[m] * gy[m]


COMPILED_CASES = ([(s, n) for s in (Q2, Q3, RAM3, Z6) for n in (1, 2, 3, 4)]
                  + [(CUBIC3, n) for n in (1, 2, 3)])
BASE_NAMES = {Q2: "Z2", Q3: "Z3", RAM3: "Z3pi", Z6: "Z3-x+6", CUBIC3: "Z3-cubic"}


def int_point(spec, coords):
    return [_ring(spec).make(tuple(c)) for c in coords]


@pytest.mark.parametrize("spec, n", COMPILED_CASES,
                         ids=[f"{BASE_NAMES[s]}-{n}" for s, n in COMPILED_CASES])
def test_compiled_evaluation_matches_exact_reference(spec, n):
    """Each compiled S_m, P_m, read as its numerator over the common
    denominator, equals eval_poly_exact at random integral points."""
    ps = witt_polys(n, spec)
    cp = _int_tries(n, spec)
    assert (cp.den > 1) == (spec is Z6 and n > 1)
    coords = _ring(spec).coords
    den = ex(spec, cp.den)
    rng = random.Random(100 * n + len(spec.eisenstein))
    for _ in range(6):
        pt = [[rng.randint(-4, 4) for _ in range(spec.e_F)] for _ in range(2 * n)]
        tables = cp.tables(int_point(spec, pt))
        exact = [ex(spec, c) for c in pt]
        for polys, tries in ((ps.sums, cp.sums), (ps.prods, cp.prods)):
            for poly, trie in zip(polys, tries):
                got = ex(spec, list(coords(cp.evaluate(trie, tables))))
                assert got == eval_poly_exact(poly, exact, spec) * den


@pytest.mark.parametrize("spec", [Q3, RAM3, Z6])
@pytest.mark.parametrize("which", ["sums", "prods"])
def test_int_ghost_check_rejects_a_corrupted_coefficient(spec, which):
    """One coefficient of S_2 or P_2 off by one: at points with no zero
    coordinate its monomial does not vanish, so w_2 of the sum or product
    is off by pi^2 times a nonzero value and every trial must fail."""
    n = 3
    cp = _int_tries(n, spec)
    ring = _ring(spec)
    tries = list(getattr(cp, which))
    # S_2 or P_2 over the compiled denominator, from the integer pairs the
    # tries were compiled from
    terms, den = witt_polys(n, spec).ints[2 if which == "sums" else n + 2]
    scale = ring.of_int(cp.den // den)
    terms = {k: ring.mul(scale, c) for k, c in terms.items()}
    assert _trie(terms, 2 * n) == tries[2]
    key = max(terms)
    terms[key] = ring.add(terms[key], ring.one)
    tries[2] = _trie(terms, 2 * n)
    bad = dataclasses.replace(cp, **{which: tuple(tries)})
    rng = random.Random(53)
    nonzero = [c for c in range(-4, 5) if c]
    for _ in range(20):
        pt = int_point(spec, [[rng.choice(nonzero) for _ in range(spec.e_F)]
                              for _ in range(2 * n)])
        assert cp.holds_at(pt)
        assert not bad.holds_at(pt)


@pytest.mark.parametrize("spec, max_len", [(Z6, 4), (CUBIC3, 3)])
def test_ghost_trials_exact_with_denominators_and_generic_g(spec, max_len):
    rng = random.Random(59)
    for n in range(1, max_len + 1):
        assert ghost_trials(spec, n, 10, rng) == 10


# sha256 of random.Random(0).getstate() after ghost_trials(spec, n, 4, rng)
# on the two witt-selftest bases, recorded before the compiled evaluation:
# witt-selftest threads one stream through all its trials, so its reports
# depend on each trial drawing exactly 2 n e_F integers
RNG_AFTER_TRIALS = {
    ((-3, 1), 1): "d40254d43cb25a37", ((-3, 1), 2): "be39586c9240d033",
    ((-3, 1), 3): "2dc6b459fa10e1aa", ((-3, 1), 4): "f7da783dc8311bcd",
    ((-3, 0, 1), 1): "be39586c9240d033", ((-3, 0, 1), 2): "f7da783dc8311bcd",
    ((-3, 0, 1), 3): "f46063196dc897e1", ((-3, 0, 1), 4): "e1740c7f3619ec7c",
}


@pytest.mark.parametrize("g, n", list(RNG_AFTER_TRIALS))
def test_ghost_trials_rng_stream_is_pinned(g, n):
    rng = random.Random(0)
    assert ghost_trials(FieldSpec(3, g), n, 4, rng) == 4
    state = hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]
    assert state == RNG_AFTER_TRIALS[(g, n)]


# sha256 over (key, coefficient to_json) of S_0..S_{n-1} then P_0..P_{n-1},
# keys in sorted order; recorded before the integer exact layer
POLY_DIGESTS = {
    (Q3, 1): "6b1ebc70f6508a9f26cde760276c5852ec96db4d9c53892fa0daf2f5b7b103a8",
    (Q3, 2): "efd440374e2cb0a892cab3561755f820fceae60ac5e2c8290bc13862f00e9ca2",
    (Q3, 3): "fb7ab8bba5b8bd71fd39aa963f7c0da1930cb00d1fdadc83084e5517c15038f4",
    (Q3, 4): "e8922a779b267efa2ec39e3bd8cccd7aea5db434cb291e8f953dfb05543708c6",
    (RAM3, 1): "5bf6a6446f13bea971dc7defaebc8d1b67b467d90856b7257a3998860e20f16b",
    (RAM3, 2): "083e6e3347e23f0e42d1cd1b2bc6f36a8a232d8374c95cc8a354d7004ef87ba4",
    (RAM3, 3): "58b40fa3bcbdedd29dc316983959e1e2b28b224b0b31c5e0cd3e87141e5d36c1",
    (RAM3, 4): "6229a2ddd71c4dedb96dd8822535fdfd9335fe38b85886ec77614d1bf8146a8e",
}


@pytest.mark.parametrize("spec, n", list(POLY_DIGESTS),
                         ids=[f"{'Z3' if s is Q3 else 'Z3pi'}-{n}"
                              for s, n in POLY_DIGESTS])
def test_witt_polys_are_pinned(spec, n):
    ps = witt_polys(n, spec)
    h = hashlib.sha256()
    for polys in (ps.sums, ps.prods):
        for poly in polys:
            for key in sorted(poly):
                h.update(json.dumps([list(key), poly[key].to_json()]).encode())
    assert h.hexdigest() == POLY_DIGESTS[(spec, n)]


def test_division_by_pi_names_the_first_non_integral_monomial():
    # (3 x_0 + y_0 + 5 x_0^2) / 3 over Z_3: y_0 / 3 is the first of the two
    # coefficients off O_F
    with pytest.raises(IntegralityError,
                       match=r"^integrality failure at level 1, monomial \(0, 1\)$"):
        _div_pi(Q3, ({(1, 0): 3, (0, 1): 1, (2, 0): 5}, 1), 1)


def test_integrality_holds_for_all_specs():
    # construction itself asserts exact pi^m-divisibility at every level
    for spec in ALL_SPECS:
        witt_polys(3, spec)


# --- the perfected residue model ---------------------------------------------

def test_perf_add_mul_basics():
    u = PerfSeries.ubar(3)
    two = PerfSeries.const(3, 2)
    assert (u + u).terms == ((3 ** 6, 2),)
    assert (u + u + u).is_zero()
    assert (two * two).terms == ((0, 1),)
    assert (u * u).min_alpha() == 2


def test_perf_frob_root_inverse():
    rng = random.Random(5)
    for spec in (Q2, Q3):
        for _ in range(20):
            x = rand_perf(spec, rng)
            assert x.frob().root() == x
            assert x.root().frob() == x


def test_perf_root_budget_exhausts():
    x = PerfSeries.make(3, 6, {1: 1})  # exponent 1/3^6 already
    with pytest.raises(BudgetError):
        x.root()


def test_perf_truncation_is_reported():
    x = PerfSeries.make(3, 6, {16 * 3 ** 6: 1})
    assert not x.is_truncated()
    y = x.frob()  # exponent 48 exceeds A_max = 32
    assert y.is_truncated()
    assert y.is_zero()
    # the lost tail stays lost through further arithmetic
    assert (y + PerfSeries.ubar(3)).is_truncated()


def test_perf_pow_matches_repeated_mul():
    rng = random.Random(11)
    for _ in range(10):
        x = rand_perf(Q3, rng)
        acc = x.const_like(1)
        for e in range(1, 8):
            acc = acc * x
            assert x.pow(e).agrees(acc)


def test_perf_json_roundtrip():
    x = PerfSeries.make(3, 6, {3 ** 6: 1, 3 ** 4: 2, 0: 1})
    back = PerfSeries.from_json(3, x.to_json())
    assert back == x
    assert x.to_json()[0] == {"num": 0, "den_pow": 0, "coeff": 1}
    with pytest.raises(BudgetError):
        PerfSeries.from_json(3, [{"num": 1, "den_pow": 7, "coeff": 1}])


# --- vector arithmetic -------------------------------------------------------

def test_teich_sum_doubles_p2():
    u = PerfSeries.ubar(2)
    t = teich(u, 2, Q2)
    s = witt_add(t, t)
    assert s.comps[0].is_zero()
    assert s.comps[1] == u * u


def test_teich_multiplicative():
    rng = random.Random(23)
    for spec in (Q2, Q3, RAM3):
        for _ in range(10):
            a, b = rand_perf(spec, rng), rand_perf(spec, rng)
            lhs = witt_mul(teich(a, 3, spec), teich(b, 3, spec))
            assert lhs.agrees(teich(a * b, 3, spec))


@pytest.mark.parametrize("spec", [Q2, Q3, RAM3])
def test_ring_axioms_on_samples(spec):
    rng = random.Random(29 + spec.p)
    n = 3
    for _ in range(12):
        a, b, c = (rand_witt(spec, n, rng) for _ in range(3))
        assert witt_add(a, b).agrees(witt_add(b, a))
        assert witt_mul(a, b).agrees(witt_mul(b, a))
        assert witt_add(witt_add(a, b), c).agrees(witt_add(a, witt_add(b, c)))
        assert witt_mul(witt_mul(a, b), c).agrees(witt_mul(a, witt_mul(b, c)))
        assert witt_mul(a, witt_add(b, c)).agrees(
            witt_add(witt_mul(a, b), witt_mul(a, c)))
        assert witt_add(a, witt_neg(a)).agrees(WittVec.zero(spec, n))


def test_reduced_evaluation_matches_exact_layer():
    # constants embed through both evaluation paths identically
    rng = random.Random(31)
    for spec in (Q2, Q3, RAM3):
        n = 3
        ps = witt_polys(n, spec)
        for _ in range(20):
            xs = [rng.randrange(spec.p) for _ in range(n)]
            ys = [rng.randrange(spec.p) for _ in range(n)]
            a = WittVec(spec, tuple(PerfSeries.const(spec.p, v) for v in xs))
            b = WittVec(spec, tuple(PerfSeries.const(spec.p, v) for v in ys))
            pt = [ex(spec, v) for v in xs + ys]
            for op, polys in ((witt_add, ps.sums), (witt_mul, ps.prods)):
                got = op(a, b)
                for m in range(n):
                    want = eval_poly_exact(polys[m], pt, spec).residue()
                    have = got.comps[m]
                    assert have.terms == (((0, want),) if want else ())


def eval_through(poly, point, model):
    """The term-by-term loop the residue tries replaced: every term of a
    dict of F_p residues multiplied through every factor, exact zeros too;
    the zero polynomial is a zero bounded by the least bound of the point."""
    if not poly:
        bounds = [x.bound for x in point if x.bound is not None]
        return PerfSeries(model.p, model.J, (), min(bounds, default=None),
                          model.full)
    acc = None
    for key, c in poly.items():
        term = model.const_like(1)
        for idx, e in enumerate(key):
            if e:
                term = term * point[idx].pow(e)
        acc = term.scale(c) if acc is None else acc + term.scale(c)
    return acc


def test_exact_zero_factor_ends_its_term():
    # the residue tries, by Horner with exact-zero branches skipped, against
    # the term-by-term loop on the OFExact residues, at exact zeros,
    # truncated zeros and bounded values: the same terms below the lower
    # bound, exact where the loop is exact, and otherwise a bound never lower
    # than the loop's (a factored sum may cancel below the loop's bound);
    # all-zero points give an exact zero
    rng = random.Random(7)
    for spec in (Q2, Q3, RAM3):
        p = spec.p
        model = PerfSeries.ubar(p)
        kinds = [model.zero_like(),
                 PerfSeries.make(p, model.J, {}, bound=3 * p ** model.J),
                 PerfSeries.make(p, model.J, {p ** model.J: 1, 2 * p ** model.J: 1},
                                 bound=5 * p ** model.J),
                 model, model.const_like(1)]
        for n in (2, 3, 4):
            ps = witt_polys(n, spec)
            red_s, red_p = _reduced_polys(n, spec)
            refs = [{k: r for k, c in poly.items() if (r := c.residue())}
                    for poly in ps.sums + ps.prods]
            for _ in range(30):
                point = [rng.choice(kinds) for _ in range(2 * n)]
                for trie, ref in zip(red_s + red_p, refs):
                    got = _eval_reduced(trie, point, model)
                    want = eval_through(ref, point, model)
                    assert got.agrees(want)
                    assert (got.bound is None) == (want.bound is None)
                    if want.bound is not None:
                        assert got.bound >= want.bound
            zeros = [model.zero_like()] * (2 * n)
            for trie in red_p:
                got = _eval_reduced(trie, zeros, model)
                assert got.is_zero() and got.bound is None


def test_frob_is_ring_hom_and_invertible():
    rng = random.Random(37)
    for _ in range(10):
        a, b = rand_witt(Q3, 3, rng), rand_witt(Q3, 3, rng)
        assert witt_frob(witt_frob_inv(a)).agrees(a)
        assert witt_frob(witt_add(a, b)).agrees(
            witt_add(witt_frob(a), witt_frob(b)))
        assert witt_frob(witt_mul(a, b)).agrees(
            witt_mul(witt_frob(a), witt_frob(b)))


def test_scalar_mul_by_pi_is_shift():
    rng = random.Random(41)
    for spec in (Q3, RAM3):
        x = rand_witt(spec, 4, rng)
        lhs = scalar_mul(OFExact.pi(spec), x)
        assert lhs.agrees(pi_shift(x, 1))
        # pi^length kills the vector
        assert scalar_mul(OFExact.pi(spec) ** 4, x).agrees(
            WittVec.zero(spec, 4))


def test_scalar_mul_additive_in_scalar():
    rng = random.Random(43)
    for _ in range(6):
        x = rand_witt(Q3, 3, rng)
        c = ex(Q3, rng.randint(0, 8))
        d = ex(Q3, rng.randint(0, 8))
        lhs = scalar_mul(c + d, x)
        rhs = witt_add(scalar_mul(c, x), scalar_mul(d, x))
        assert lhs.agrees(rhs)


# --- fixed points ------------------------------------------------------------

def test_classical_fixed_point_is_teichmueller():
    f = frob_preset(Q3, "classical")
    u = f_fixed_point(f, 4)
    ubar = PerfSeries.ubar(3)
    assert u.comps[0] == ubar
    assert all(c.is_zero() for c in u.comps[1:])


@pytest.mark.parametrize("spec,name", [
    (Q3, "classical"),
    (Q3, "cyclotomic"),
    (Q3, "twisted"),
    (RAM3, "lubin-tate"),
    (Q2, "cyclotomic"),
])
def test_fixed_point_postconditions(spec, name):
    f = frob_preset(spec, name)
    rep = f_fixed_point_report(f, 4)
    assert rep["iterations"] <= 5
    assert rep["frob_matches_f"]
    assert rep["reduces_to_ubar"]
    # the iterates stay exact: stabilization was literal equality
    assert all(not c.is_truncated() for c in rep["u"].comps)


def test_cyclotomic_fixed_point_frozen_p3():
    u = f_fixed_point(frob_preset(Q3, "cyclotomic"), 3)
    s = 3 ** 6
    assert [c.terms for c in u.comps] == [
        ((s, 1),),
        ((s, 1), (2 * s, 1)),
        ((s, 1), (2 * s, 1), (4 * s, 1), (5 * s, 1), (7 * s, 1), (8 * s, 1)),
    ]


def test_lubin_tate_fixed_point_frozen_len2():
    u = f_fixed_point(frob_preset(RAM3, "lubin-tate"), 2)
    ubar = PerfSeries.ubar(3)
    assert u.comps == (ubar, ubar)


def test_fixed_point_unique_under_perturbation():
    # start the iteration away from [ubar] (but congruent mod pi):
    # it must land on the same fixed point
    f = frob_preset(Q3, "cyclotomic")
    n = 3
    u = f_fixed_point(f, n)
    ubar = PerfSeries.ubar(3)
    x = witt_add(teich(ubar, n, Q3),
                 pi_shift(teich(ubar * ubar, n, Q3), 1))
    assert x.comps[0] == ubar and not x.comps[1].is_zero()
    fcoeffs = [OFExact.zero(Q3), *f.coeffs]
    from frobkit.witt import eval_poly_on_witt
    for _ in range(2 * n):
        x = eval_poly_on_witt(fcoeffs, witt_frob_inv(x))
    assert x.agrees(u)


def test_fixed_point_respects_budget():
    # J = 0 leaves no room for the very first root
    with pytest.raises(BudgetError):
        f_fixed_point(frob_preset(Q3, "cyclotomic"), 3, budget=(0, 32))


# --- Eisenstein reduction of the fixed point ----------------------------------

@pytest.mark.parametrize("spec,name,e0", [
    (Q3, "classical", 1),
    (Q3, "cyclotomic", 2),
    (Q3, "twisted", 3),
    (RAM3, "lubin-tate", 2),
])
def test_E_reduction_at_fixed_points(spec, name, e0):
    f = frob_preset(spec, name)
    E = eisenstein_preset(spec, name, e0=e0)
    assert E.e0 == e0
    u = f_fixed_point(f, 4)
    assert check_E_reduction(E, u)
    rep = e_reduction_report(E, u)
    assert rep["ok"]
    assert rep["v_R_E_mod_pi"] == rep["v_pi"]
    assert Fraction(rep["v_R_ubar"]) == Fraction(1, e0 * spec.e_F)


def test_E_reduction_rejects_non_eisenstein():
    u = f_fixed_point(frob_preset(Q3, "cyclotomic"), 3)
    # u^2 + 1 has a unit constant term; its value at u is a unit
    bad = [OFExact.one(Q3), OFExact.zero(Q3), OFExact.one(Q3)]
    assert not check_E_reduction(bad, u)


def test_witt_json_roundtrip():
    u = f_fixed_point(frob_preset(Q3, "cyclotomic"), 3)
    blobs = u.to_json()
    back = WittVec(Q3, tuple(PerfSeries.from_json(3, b) for b in blobs))
    assert back.agrees(u)


# --- an independent model of W_{O_F}(R) --------------------------------------
#
# For R = F_p[[u^(1/p^oo)]], W_{O_F}(R) = O_F (x) W(R): the pi-typical vector
# (x_0, x_1, ...) is sum_j pi^j [x_j^(1/p^j)], the Teichmueller lift of a
# monomial is that monomial, [y] = (any lift of y^(1/p^k))^(p^k) modulo
# pi^(k+1), and Frobenius multiplies exponents by p and fixes O_F.  So the
# fixed point of phi(u) = f(u) is plain polynomial arithmetic over O_F/pi^n,
# iterated as U <- f(phi^-1(U)) from U = u, with no S_m or P_m.  The A_max
# cut of the value layer leaves it trustworthy below A_max/p^(n-1).

class TeichModel:
    """O_F[u^(1/p^oo)] modulo (pi^n, exponents >= cut): dicts from Fraction
    exponents to elements of witt._ring(spec), coordinate i reduced modulo
    p^ceil((n - i)/e_F), zeros dropped (pi^e_F = p times a unit here)."""

    def __init__(self, spec, n, cut):
        self.spec, self.n, self.cut = spec, n, cut
        self.ring = _ring(spec)
        self.mods = [spec.p ** -((i - n) // spec.e_F) for i in range(spec.e_F)]

    def clean(self, d):
        make, coords, zero = self.ring.make, self.ring.coords, self.ring.zero
        out = {}
        for k, c in d.items():
            c = make(tuple(x % m for x, m in zip(coords(c), self.mods)))
            if k < self.cut and c != zero:
                out[k] = c
        return out

    def add(self, a, b):
        out = dict(a)
        for k, c in b.items():
            out[k] = self.ring.add(out[k], c) if k in out else c
        return self.clean(out)

    def mul(self, a, b):
        add, mul = self.ring.add, self.ring.mul
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k, c = ka + kb, mul(ca, cb)
                if k < self.cut:
                    out[k] = add(out[k], c) if k in out else c
        return self.clean(out)

    def pth(self, a):
        out = a
        for _ in range(self.spec.p - 1):
            out = self.mul(out, a)
        return out

    def const(self, c: OFExact):
        inv = pow(c.den, -1, self.spec.p ** self.n)
        return self.clean({Fraction(0): self.ring.make(tuple(x * inv for x in c.num))})

    def poly(self, coeffs, x):
        """sum_i coeffs[i] x^i by Horner."""
        acc = {}
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.const(c))
        return acc

    def teich_sum(self, u: WittVec, J: int):
        """sum_j pi^j [x_j^(1/p^j)] of a value-layer vector, with [y] taken
        as (the lift of y^(1/p^k))^(p^k) modulo pi^(k+1), k = n - 1 - j."""
        p, ring = self.spec.p, self.ring
        acc, pi_j = {}, ring.one
        for j, x in enumerate(u.comps):
            k = self.n - 1 - j
            t = self.clean({Fraction(a, p ** (J + j + k)): ring.of_int(c)
                            for a, c in x.terms})
            for _ in range(k):
                t = self.pth(t)
            acc = self.add(acc, self.mul({Fraction(0): pi_j}, t))
            pi_j = ring.mul(pi_j, ring.pi)
        return acc


def model_fixed_point(f, n, A_max):
    """The model and its fixed point of U <- f(phi^-1(U)) from U = u."""
    model = TeichModel(f.spec, n, A_max)
    coeffs = [OFExact.zero(f.spec), *f.coeffs]
    U = {Fraction(1): model.ring.one}
    for _ in range(2 * n + 2):
        nxt = model.poly(coeffs, {k / f.spec.p: c for k, c in U.items()})
        if nxt == U:
            return model, U
        U = nxt
    raise AssertionError("the model iteration did not stabilize")


def below(d, cut):
    return {k: c for k, c in d.items() if k < cut}


def oracle_lifts(spec, rng):
    """The presets and three random lifts u^p + sum_{i<p} pi c_i u^i, the
    c_i with denominators prime to p."""
    p, pi = spec.p, OFExact.pi(spec)
    out = [frob_preset(spec, name) for name in PRESET_NAMES]
    for _ in range(3):
        cs = [pi * ex(spec, [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                             for _ in range(spec.e_F)]) for _ in range(p - 1)]
        out.append(FrobLift.make(spec, cs + [OFExact.one(spec)]))
    return out


@pytest.mark.parametrize("spec", [Q3, RAM3], ids=["Z3", "Z3pi"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fixed_point_matches_the_teichmueller_model(spec, n):
    # the value layer's fixed point, read as sum_j pi^j [x_j^(1/p^j)], is
    # the model's below A_max/p^(n-1), with the default budget and with an
    # A_max cut that truncates; its frob_matches_f verdict is the model's,
    # and the lowest exponent of E(u) mod pi is the model's
    rng = random.Random(61 + 10 * n + spec.e_F)
    p = spec.p
    E = EisensteinE.make(spec, [OFExact.pi(spec), 0, 1])  # u^2 + pi
    compared = 0
    for f in oracle_lifts(spec, rng):
        for J, A_max in ((6, 32), (6, 12)):
            rep = f_fixed_point_report(f, n, (J, A_max))
            model, U = model_fixed_point(f, n, A_max)
            cut = Fraction(A_max, p ** (n - 1))
            got = TeichModel(spec, n, cut).teich_sum(rep["u"], J)
            assert got == below(U, cut)
            compared += len(got)
            fU = model.poly([OFExact.zero(spec), *f.coeffs], U)
            phiU = {p * k: c for k, c in U.items()}
            assert rep["frob_matches_f"] == (below(fU, cut) == below(phiU, cut))
            mod_pi = TeichModel(spec, 1, A_max)
            alpha = min(mod_pi.poly(list(E.coeffs), mod_pi.clean(U)))
            assert alpha == E.e0
            assert e_reduction_report(E, rep["u"])["v_R_E_mod_pi"] == \
                str(alpha * Fraction(1, E.e0 * spec.e_F))
    assert compared >= 2 * len(PRESET_NAMES) + 6


def test_teichmueller_model_catches_every_corruption():
    # one coefficient of one component x_j of a Z_3 fixed point changed to
    # the other nonzero residue: at exponent alpha with alpha/p^j below the
    # compared range, sum_j pi^j [x_j^(1/p^j)] moves by pi^j times a unit
    # there, so the model must see every such change
    rng = random.Random(67)
    p, J, A_max = 3, 6, 32
    caught = tried = 0
    for f in oracle_lifts(Q3, rng):
        for n in (2, 3, 4):
            u = f_fixed_point(f, n)
            _, U = model_fixed_point(f, n, A_max)
            cut = Fraction(A_max, p ** (n - 1))
            model = TeichModel(Q3, n, cut)
            want = below(U, cut)
            assert model.teich_sum(u, J) == want
            for j, x in enumerate(u.comps):
                for i, (a, c) in enumerate(x.terms):
                    if Fraction(a, p ** (J + j)) >= cut:
                        continue
                    terms = dict(x.terms)
                    terms[a] = 3 - c
                    bad = WittVec(Q3, u.comps[:j] + (PerfSeries.make(p, J, terms),)
                                  + u.comps[j + 1:])
                    tried += 1
                    caught += model.teich_sum(bad, J) != want
    assert tried >= 100
    assert caught == tried

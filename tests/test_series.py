"""Series layer: products, composition, Frobenius, Weierstrass data, gauge."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit import (
    FElement,
    FieldSpec,
    IndeterminateError,
    OFElement,
    OFExact,
    qp_spec,
)
from frobkit.series import (
    EisensteinE,
    FrobLift,
    USeries,
    e_order,
    eisenstein_preset,
    frob_preset,
    frobenius,
    gauge_alpha,
    gauge_low,
    newton_hull,
    s_compose,
    s_mul,
    wdeg,
    _product,
    _series,
    _weierstrass_divide,
    _window,
)
from frobkit.scalars import DEFAULT_PREC, _add1, _mul1, _neg1
from test_series_kernel import DOT_SPECS, dot_series, fields_of, refine, with_cap

Q3 = qp_spec(3)
RAM3 = FieldSpec(3, (-3, 0, 1))


def series_close(a: USeries, b: USeries) -> bool:
    d = a - b
    return all(c.is_zero_at_prec() for c in d.coeffs)


def digits_at(x: USeries, n: int):
    c = x.coeff(n)
    return None if c.is_zero_at_prec() else (c.shift, c.unit.digits()[:3])


# --- products and composition ------------------------------------------------

def test_mul_one_identity():
    x = USeries.make(Q3, [2, 7, 1], cap=10)
    assert series_close(USeries.one(Q3) * x, x)


def test_u_times_u():
    u = USeries.u_pow(Q3, 1)
    assert series_close(u * u, USeries.u_pow(Q3, 2))


def test_one_plus_u_times_one_minus_u():
    prod = USeries.make(Q3, [1, 1]) * USeries.make(Q3, [1, -1])
    assert series_close(prod, USeries.make(Q3, [1, 0, -1]))


def test_compose_identity():
    h = USeries.make(Q3, [5, 1, 2], cap=9)
    assert series_close(s_compose(h, USeries.u_pow(Q3, 1)), h)


def test_compose_square_of_u_plus_u2():
    out = s_compose(USeries.u_pow(Q3, 2), USeries.make(Q3, [0, 1, 1]))
    assert series_close(out, USeries.make(Q3, [0, 0, 1, 2, 1]))


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        s_compose(USeries.u_pow(Q3, 2), USeries.one(Q3))


def test_double_compose_is_ninth_binomial():
    # ((1+x)^3 - 1) o ((1+x)^3 - 1) has the (1+u)^9 - 1 coefficients
    f = frob_preset(Q3, "cyclotomic").as_series(24)
    ff = s_compose(f, f)
    from math import comb
    assert series_close(ff, USeries.make(Q3, [comb(9, k) if k else 0
                                              for k in range(10)], absprec=24))


# --- frobenius ---------------------------------------------------------------

def test_frobenius_of_u_is_f():
    f = frob_preset(Q3, "cyclotomic")
    assert series_close(frobenius(USeries.u_pow(Q3, 1), f), f.as_series())


def test_frobenius_zero_iterations():
    f = frob_preset(Q3, "cyclotomic")
    x = USeries.make(Q3, [4, 1], cap=7)
    assert frobenius(x, f, 0) is x


def test_cyclotomic_lift_p3():
    f = frob_preset(Q3, "cyclotomic")
    phi_u = frobenius(USeries.u_pow(Q3, 1), f)
    assert digits_at(phi_u, 1) == (1, (1, 0, 0))   # 3u
    assert digits_at(phi_u, 2) == (1, (1, 0, 0))   # 3u^2
    assert digits_at(phi_u, 3) == (0, (1, 0, 0))   # u^3
    assert phi_u.coeff(0).is_zero_at_prec()


@given(a=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       b=st.lists(st.integers(-20, 20), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_frobenius_ring_homomorphism(a, b):
    f = frob_preset(Q3, "cyclotomic")
    x = USeries.make(Q3, a, cap=12)
    y = USeries.make(Q3, b, cap=12)
    assert series_close(frobenius(x * y, f), frobenius(x, f) * frobenius(y, f))
    assert series_close(frobenius(x + y, f), frobenius(x, f) + frobenius(y, f))


@given(a=st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       n=st.integers(0, 2), m=st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_frobenius_iterates_compose(a, n, m):
    f = frob_preset(Q3, "lubin-tate")
    x = USeries.make(Q3, a, cap=10)
    assert series_close(frobenius(frobenius(x, f, n), f, m), frobenius(x, f, n + m))


# --- Weierstrass degree and E-divisibility -----------------------------------

def test_wdeg_of_eisenstein_is_e0():
    for name in ("cyclotomic", "lubin-tate", "twisted"):
        E = eisenstein_preset(Q3, name)
        assert wdeg(E.as_series()) == E.e0
    E = eisenstein_preset(RAM3, "lubin-tate")
    assert wdeg(E.as_series()) == E.e0


def test_wdeg_unit_and_pi_multiple():
    assert wdeg(USeries.make(Q3, [1, 5], cap=8)) == 0
    assert wdeg(USeries.make(Q3, [0, 3], cap=8)) is None


def test_wdeg_indeterminate_on_precision_zero_coefficient():
    xs = USeries.make(Q3, [FElement.zero_at(Q3, 0)] * 3, cap=3)
    with pytest.raises(IndeterminateError):
        wdeg(xs)


@given(a=st.lists(st.integers(-40, 40), min_size=1, max_size=6),
       b=st.lists(st.integers(-40, 40), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_wdeg_multiplicative(a, b):
    x = USeries.make(Q3, a, cap=16)
    y = USeries.make(Q3, b, cap=16)
    wx, wy = wdeg(x), wdeg(y)
    if wx is None or wy is None or wx + wy >= 16:
        return
    assert wdeg(x * y) == wx + wy


def test_e_order_of_e_squared():
    E = eisenstein_preset(Q3, "cyclotomic")
    Es = E.as_series(20).truncate(40)
    k, cof = e_order(Es * Es, E)
    assert k == 2
    assert series_close(cof, USeries.one(Q3, 5).truncate(cof.cap))


def test_e_order_of_unit_is_zero():
    E = eisenstein_preset(Q3, "cyclotomic")
    k, cof = e_order(USeries.make(Q3, [1, 1], cap=40), E)
    assert k == 0


def test_cyclotomic_f_is_E_times_u():
    f = frob_preset(Q3, "cyclotomic")
    E = eisenstein_preset(Q3, "cyclotomic")
    k, cof = e_order(f.as_series(20).truncate(40), E)
    assert k == 1
    assert series_close(cof, USeries.u_pow(Q3, 1).truncate(cof.cap))


@given(c0=st.integers(0, 2), tail=st.lists(st.integers(-30, 30), max_size=4),
       k=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_e_order_shifts_by_k(c0, tail, k):
    E = eisenstein_preset(Q3, "cyclotomic")
    x = USeries.make(Q3, [1 + 3 * c0, *tail], cap=40, absprec=14)
    Ek = E.as_series(16).truncate(40)
    prod = x
    for _ in range(k):
        prod = prod * Ek
    kk, cof = e_order(prod, E)
    assert kk == k
    assert series_close(cof, x.truncate(cof.cap))


def test_e_order_rejects_invisible_series():
    E = eisenstein_preset(Q3, "cyclotomic")
    with pytest.raises(ValueError):
        e_order(USeries.make(Q3, [0], cap=6, absprec=4), E)


def test_e_order_indeterminate_when_precision_gone():
    E = eisenstein_preset(Q3, "cyclotomic")
    cs = [FElement.zero_at(Q3, 0), FElement.zero_at(Q3, 0),
          FElement.from_int(Q3, 1, 8)] + [FElement.zero_at(Q3, 8)] * 5
    x = USeries.make(Q3, cs, cap=8)
    with pytest.raises(IndeterminateError):
        e_order(x, E)


# e_order on capped input: the cofactor's cap and every coefficient's
# (unit prec, unit vec, shift), as recorded before the capped Weierstrass
# division ran through the series product kernel.  The CLI only ever
# divides polynomials, so these pins and the tests of the next section are
# what hold division under an unknown tail.

def _cofactor_rows(spec, e, ys, k, cap, absprec):
    E = EisensteinE.make(spec, e)
    x = USeries.make(spec, ys, cap=cap, absprec=absprec)
    Es = E.as_series(absprec + 4).truncate(cap)
    for _ in range(k):
        x = x * Es
    kk, cof = e_order(x, E)
    return kk, cof.cap, [(c.unit.prec, c.unit.vec, c.shift) for c in cof.coeffs]


PI3 = OFExact.pi(RAM3)

E_ORDER_PINS = [
    # e0 = 1 over Z_3, E^2 divides
    ((Q3, [-3, 1], [1, 2, 5, 0, 7], 2, 14, 12),
     (2, 12, [(12, (1,), 0), (11, (2,), 0), (10, (5,), 0), (9, (0,), 0),
              (8, (7,), 0), (7, (0,), 0), (6, (0,), 0), (5, (0,), 0),
              (4, (0,), 0), (3, (0,), 0), (2, (0,), 0), (1, (0,), 0)])),
    # e0 = 2 over Z_3, input labels 100
    ((Q3, [3, 0, 1], [1, 4, 0, 2], 1, 12, 100),
     (1, 10, [(5, (1,), 0), (5, (4,), 0), (4, (0,), 0), (4, (2,), 0),
              (3, (0,), 0), (3, (0,), 0), (2, (0,), 0), (2, (0,), 0),
              (1, (0,), 0), (1, (0,), 0)])),
    # e0 = 3 over Z_3
    ((Q3, [-3, 0, 0, 1], [2, 1, 9, 4, 0, 1], 1, 15, 10),
     (1, 12, [(4, (2,), 0), (4, (1,), 0), (2, (1,), 2), (3, (4,), 0),
              (3, (0,), 0), (3, (1,), 0), (2, (0,), 0), (2, (0,), 0),
              (2, (0,), 0), (1, (0,), 0), (1, (0,), 0), (1, (0,), 0)])),
    # e0 = 2 over Z_3[pi], pi^2 = 3: E = u^2 + pi
    ((RAM3, [PI3, 0, 1], [1, 2, PI3, 1], 1, 12, 10),
     (1, 10, [(5, (1, 0), 0), (5, (2, 0), 0), (3, (1, 0), 1), (4, (1, 0), 0),
              (3, (0, 0), 0), (3, (0, 0), 0), (2, (0, 0), 0), (2, (0, 0), 0),
              (1, (0, 0), 0), (1, (0, 0), 0)])),
]


@pytest.mark.parametrize("args, want", E_ORDER_PINS,
                         ids=["e0=1", "e0=2", "e0=3", "ramified-e0=2"])
def test_e_order_capped_cofactor_is_pinned(args, want):
    assert _cofactor_rows(*args) == want


def test_e_order_capped_cofactor_above_64_digits_is_pinned():
    # E = u^2 + 3 at input labels 100 and cap 240: E is materialized at the
    # greatest label of a coefficient that is not exact (100) plus 3, so
    # q_0 and q_1 keep all 100 digits
    E = EisensteinE.make(Q3, [3, 0, 1])
    x = (USeries.make(Q3, [1, 1, 1, 1], cap=240, absprec=100)
         * USeries.make(Q3, [3, 0, 1], absprec=100))
    k, cof = e_order(x, E)
    rows = [(c.unit.prec, c.unit.vec, c.shift) for c in cof.coeffs]
    assert (k, cof.cap) == (1, 238)
    assert rows[:4] == [(100, (1,), 0), (100, (1,), 0), (100, (1,), 0),
                        (100, (1,), 0)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "c4eeeae4f7f0b027fb9468a7279dd92ea78558381d9cc63dce7e742aacef721d")


# --- Weierstrass division against its two earlier loops -----------------------
#
# reference_divide is the division as it was before one top-down recurrence
# served both kinds of input: polynomial long division, which subtracts
# q_m * E from the running remainder for m from the top down, and for a
# capped x the iteration q -> shift_down(x + q*(u^e0 - E)) through the
# series product kernel, run from q = 0 until it repeats.

def reference_divide(x: USeries, E: EisensteinE) -> tuple[USeries, USeries]:
    spec = x.spec
    e0 = E.e0
    maxp = max((m for m in x.labels if m is not None), default=DEFAULT_PREC)
    Es = E.as_series(maxp + spec.e_F + 2)
    if x.cap is None:
        ecs = list(zip(Es.shifts, Es.units, Es.labels))
        rem = list(zip(x.shifts, x.units, x.labels))
        qlen = max(len(rem) - e0, 0)
        q = [(0, (0,) * spec.e_F, None)] * max(qlen, 1)
        for m in range(qlen - 1, -1, -1):
            q[m] = c = rem[m + e0]
            neg = _neg1(spec, *c)
            for i in range(e0 + 1):
                rem[m + i] = _add1(spec, *rem[m + i], *_mul1(spec, *neg, *ecs[i]))
        return _series(spec, q, None), _series(spec, rem[:e0], None)
    L = x.cap
    d = -USeries(spec, Es.shifts[:e0], Es.units[:e0], Es.labels[:e0], None)
    xs = USeries(spec, *_window(x, L + e0), None)
    q = USeries(spec, *_window(USeries.zero(spec), L), None)
    for _ in range(L + 1):
        y = xs + _product(q, d, L + e0, None)
        q_new = USeries(spec, y.shifts[e0:], y.units[e0:], y.labels[e0:], None)
        if q_new == q:
            break
        q = q_new
    return (USeries(spec, q_new.shifts, q_new.units, q_new.labels, L),
            USeries(spec, y.shifts[:e0], y.units[:e0], y.labels[:e0], None))


def random_eisenstein(rng, spec) -> EisensteinE:
    """A monic E of degree 1-4: pi times a unit at u^0, and pi times an
    integral value, or an exact zero, below u^e0."""
    pi = OFExact.pi(spec)

    def integral(unit):
        coords = [rng.randrange(-spec.p ** 4, spec.p ** 4) for _ in range(spec.e_F)]
        if unit and not coords[0] % spec.p:
            coords[0] += 1
        return OFExact.make(spec, coords)
    e0 = rng.randint(1, 4)
    low = [pi * integral(True)] + [pi * integral(False) if rng.random() < 0.7
                                   else OFExact.zero(spec) for _ in range(e0 - 1)]
    return EisensteinE.make(spec, [*low, 1])


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(DOT_SPECS)), seed=st.integers(0, 10 ** 9))
def test_weierstrass_divide_matches_its_earlier_loops(name, seed):
    # polynomial and capped x with negative shifts and labels: every field
    # of q and r as the long division or the fixed-point iteration gave it
    spec = DOT_SPECS[name]
    rng = random.Random(seed)
    x, E = dot_series(rng, spec), random_eisenstein(rng, spec)
    got, want = _weierstrass_divide(x, E), reference_divide(x, E)
    assert [fields_of(s) for s in got] == [fields_of(s) for s in want]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(DOT_SPECS)), seed=st.integers(0, 10 ** 9))
def test_capped_division_does_not_overclaim(name, seed):
    # a polynomial that a capped x stands for (digits added past every
    # label, a random integral tail past the cap) divides to a q and an r
    # that agree with the capped division's at each of its labels
    spec = DOT_SPECS[name]
    rng = random.Random(seed)
    x = dot_series(rng, spec)
    x = with_cap(x, x.cap or len(x))
    E = random_eisenstein(rng, spec)
    q, r = _weierstrass_divide(x, E)
    for _ in range(4):
        qx, rx = _weierstrass_divide(refine(rng, x, x.cap + E.e0 + 3, False), E)
        for got, fine in ((q, qx), (r, rx)):
            for n in range(len(got)):
                c, want = got.coeff(n), fine.coeff(n)
                if c.label is None:
                    assert want.label is None
                else:
                    assert c.congruent(want, min(c.label, want.absprec))


def test_div_u_past_a_cap_is_the_unknown_tail():
    # u^0 of x/u^3 is x_3: beyond a cap of 2 it is unknown, in a
    # polynomial it is an exact zero
    x = USeries.make(Q3, [0, 0], cap=2).div_u(3)
    assert (x.coeff(0).label, x.coeff(0).is_zero_at_prec(), x.cap) == (0, True, 1)
    y = USeries.make(Q3, [0, 0]).div_u(3)
    assert (y.labels, y.cap) == ((None,), None)


# --- Newton polygon ----------------------------------------------------------

def test_hull_single_point():
    assert newton_hull([(3, Fraction(1, 2))]).vertices == ((3, Fraction(1, 2)),)


def test_hull_vee():
    h = newton_hull([(0, 2), (1, 0), (2, 2)])
    assert h.vertices == ((0, Fraction(2)), (1, Fraction(0)), (2, Fraction(2)))
    assert h.slopes() == [Fraction(-2), Fraction(2)]


def test_hull_collinear_drops_interior():
    h = newton_hull([(0, 0), (1, 1), (2, 2)])
    assert h.vertices == ((0, Fraction(0)), (2, Fraction(2)))


def test_hull_keeps_lowest_y_per_x():
    h = newton_hull([(0, 5), (0, 1), (2, 1), (2, 7)])
    assert h.vertices == ((0, Fraction(1)), (2, Fraction(1)))


def test_hull_empty_rejected():
    with pytest.raises(ValueError):
        newton_hull([])


@given(pts=st.lists(st.tuples(st.integers(0, 8), st.fractions(
    min_value=-5, max_value=5, max_denominator=6)), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_hull_slopes_increase_and_lie_below(pts):
    h = newton_hull(pts)
    slopes = h.slopes()
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))
    # every input point lies on or above the hull
    vs = h.vertices
    for x, y in pts:
        for (x1, y1), (x2, y2) in zip(vs, vs[1:]):
            if x1 <= x <= x2:
                assert (y - y1) * (x2 - x1) >= (y2 - y1) * (x - x1)


# --- gauge -------------------------------------------------------------------

def test_gauge_generator_is_zero():
    # u^(e0 p)/pi with e0 = 2, p = 3
    x = USeries.make(Q3, [0] * 6 + [Fraction(1, 3)])
    assert gauge_alpha(x, 2) == 0


def test_gauge_pi_is_one():
    assert gauge_alpha(USeries.make(Q3, [3]), 2) == 1


def test_gauge_u_is_zero():
    assert gauge_alpha(USeries.u_pow(Q3, 1), 2) == 0


def test_gauge_empty_is_infinite():
    assert gauge_alpha(USeries.zero(Q3), 2) is None


@given(a=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
       b=st.lists(st.integers(-30, 30), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_gauge_superadditive(a, b):
    x = USeries.make(Q3, a, absprec=20)
    y = USeries.make(Q3, b, absprec=20)
    wx, wy = gauge_low(x, 2), gauge_low(y, 2)
    if wx is None or wy is None:
        return
    wxy = gauge_low(x * y, 2)
    assert wxy is None or wxy >= wx + wy
    ws = gauge_low(x + y, 2)
    assert ws is None or ws >= min(wx, wy)


@pytest.mark.parametrize("spec,name,cap", [
    (Q3, "cyclotomic", 40), (Q3, "twisted", 120), (RAM3, "lubin-tate", 40),
])
def test_iterates_drift_to_zero_in_gauge(spec, name, cap):
    # with v_F(a1) >= r+1, w(f^(n)(u)) - r*n keeps strictly climbing
    # (the twisted step e0*p = 9 needs a wider window than the default cap)
    f = frob_preset(spec, name)
    e0 = eisenstein_preset(spec, name).e0
    r_max = f.a1.val() - 1
    fs = f.as_series(40)
    x = fs.truncate(cap)  # f^(1); iterate f^(n) = f o f^(n-1)
    gauges = []
    for n in range(1, 7):
        w = gauge_alpha(x, e0)
        assert isinstance(w, int)
        gauges.append(w)
        x = s_compose(fs, x)
    # strict climb at r = 0; at the maximal admissible r the first step can
    # be flat (twisted p=3 gives -1,-1,0,1,2,3) but never drops, and the
    # tail is strictly increasing
    assert all(b > a for a, b in zip(gauges, gauges[1:]))
    top = [w - r_max * n for n, w in enumerate(gauges, start=1)]
    assert all(b >= a for a, b in zip(top, top[1:]))
    assert all(b > a for a, b in zip(top[1:], top[2:]))


# --- presets and serialization ----------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["classical", "cyclotomic", "lubin-tate", "twisted"])
def test_presets_satisfy_invariants(p, name):
    spec = qp_spec(p)
    f = frob_preset(spec, name)          # validation in the constructors
    if name == "classical":
        E = eisenstein_preset(spec, name, e0=2)
        assert E.e0 == 2
        return
    E = eisenstein_preset(spec, name)
    fs, Es = f.as_series(16), E.as_series(16)
    if name in ("cyclotomic", "lubin-tate"):
        assert series_close(Es * USeries.u_pow(spec, 1, 16), fs)  # E = f/u
    if name == "twisted":
        assert series_close(Es, fs - USeries.make(spec, [p], absprec=16))


def test_lift_rejects_unit_low_coefficient():
    with pytest.raises(ValueError):
        FrobLift.make(Q3, [1, 0, 1])
    with pytest.raises(ValueError):
        FrobLift.make(Q3, [3, 3])           # wrong arity
    with pytest.raises(ValueError):
        FrobLift.make(Q3, [3, 3, 2])        # not monic


def test_eisenstein_rejects_bad_constant():
    with pytest.raises(ValueError):
        EisensteinE.make(Q3, [0, 3, 1])
    with pytest.raises(ValueError):
        EisensteinE.make(Q3, [3, 1, 1])
    with pytest.raises(ValueError):
        EisensteinE.make(Q3, [9, 3, 1])     # constant term not valuation 1
    with pytest.raises(ValueError):
        EisensteinE.make(RAM3, [3, 0, 1])   # 3 = pi^2 over the ramified base


def test_froblift_json_roundtrip():
    # coefficients in the one JSON form of exact data, OFExact.to_json
    for name in ("classical", "cyclotomic", "lubin-tate", "twisted"):
        f = frob_preset(RAM3, name)
        obj = f.to_json()
        assert obj["coeffs"] == [a.to_json() for a in f.coeffs]
        assert FrobLift.from_json(RAM3, obj) == f
    # the CLI's inputs: integers and "a/b" strings read the same
    cyclotomic = FrobLift.from_json(Q3, {"coeffs": [3, "3", "1/1"]})
    assert cyclotomic == frob_preset(Q3, "cyclotomic")


def test_eisenstein_json_roundtrip():
    # the p-constant presets are only Eisenstein over an unramified base;
    # lubin-tate covers the ramified serialization path
    for name in ("cyclotomic", "twisted"):
        E = eisenstein_preset(Q3, name)
        assert E.to_json()["coeffs"] == [str(c.vec[0]) for c in E.coeffs]
        assert EisensteinE.from_json(Q3, E.to_json()) == E
    E = eisenstein_preset(RAM3, "lubin-tate")
    obj = E.to_json()
    assert obj["e0"] == 2 and obj["coeffs"][0] == ["0", "1"]  # pi
    assert EisensteinE.from_json(RAM3, obj) == E


def test_useries_json_shape():
    x = USeries.make(Q3, [1, 3], cap=4)
    obj = x.to_json()
    assert obj["cap"] == 4 and len(obj["coeffs"]) == 4
    assert obj["coeffs"][1]["shift"] == 1


# --- division round trip under honest labels ---------------------------------

def test_divide_back_congruent_at_claimed_labels():
    E = eisenstein_preset(Q3, "cyclotomic")
    y = USeries.make(Q3, [1, 2, 1], cap=12, absprec=10)
    prod = y * E.as_series(16).truncate(12)
    k, cof = e_order(prod, E)
    assert k == 1
    for n in range(cof.cap):
        d = cof.coeff(n) - y.coeff(n)
        assert d.is_zero_at_prec()
        assert d.absprec >= 1


# --- raising input labels never lowers an output label -------------------------

def _labels(x: USeries) -> list:
    return [float("inf") if m is None else m for m in x.labels]


def _not_lower(old: USeries, new: USeries) -> bool:
    return all(b >= a for a, b in zip(_labels(old), _labels(new)))


@st.composite
def _refined_pair(draw, g_of_zero=False):
    """Two series over one field, each twice: exact values known to labels
    N_n, then to N_n + d_n (d_n >= 0), a 0 being an exact zero in both;
    with g_of_zero the second series has constant term 0."""
    spec = draw(st.sampled_from((Q3, RAM3)))

    def refined(min_len, constant):
        n = draw(st.integers(min_len, 8))
        vals = draw(st.lists(st.sampled_from((0, 1, 2, 3, 9, 27, 5, -4, 81, 7))
                             | st.fractions(-20, 20, max_denominator=9),
                             min_size=n, max_size=n))
        if constant is not None:
            vals[0] = constant
        labels = draw(st.lists(st.integers(-2, 30), min_size=n, max_size=n))
        ups = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        cap = draw(st.one_of(st.none(), st.integers(n, n + 4)))
        def known_to(extra):
            return [FElement.from_exact(OFExact.make(spec, v), m + d * extra)
                    if v else 0 for v, m, d in zip(vals, labels, ups)]
        return [USeries.make(spec, known_to(extra), cap) for extra in (0, 1)]
    return refined(1, None), refined(2 if g_of_zero else 1, 0 if g_of_zero else None)


@given(pair=_refined_pair())
@settings(max_examples=60, deadline=None)
def test_product_labels_never_drop_when_inputs_refine(pair):
    (x, x2), (y, y2) = pair
    assert _not_lower(x * y, x2 * y2)


@given(pair=_refined_pair(g_of_zero=True))
@settings(max_examples=40, deadline=None)
def test_compose_labels_never_drop_when_inputs_refine(pair):
    (h, h2), (g, g2) = pair
    assert _not_lower(s_compose(h, g), s_compose(h2, g2))


@given(c0=st.integers(0, 2), tail=st.lists(st.integers(-30, 30), max_size=4),
       k=st.integers(0, 3), N=st.integers(8, 90), up=st.integers(0, 40))
@settings(max_examples=30, deadline=None)
def test_e_order_labels_never_drop_when_inputs_refine(c0, tail, k, N, up):
    E = EisensteinE.make(Q3, [3, 0, 1])
    out = []
    for absprec in (N, N + up):
        x = USeries.make(Q3, [1 + 3 * c0, *tail], cap=30, absprec=absprec)
        for _ in range(k):
            x = x * E.as_series(absprec).truncate(30)
        out.append(e_order(x, E))
    (k1, cof1), (k2, cof2) = out
    assert k1 == k2 == k
    assert _not_lower(cof1, cof2)

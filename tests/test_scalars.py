"""Scalar kernel tests: truncated O_F arithmetic against an exact oracle."""

from fractions import Fraction
from functools import reduce

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit import (
    AtLeast,
    EisensteinE,
    FElement,
    FieldSpec,
    NoRootError,
    OFElement,
    PrecisionError,
    of_div,
    of_root,
    of_val,
    qp_spec,
)
from frobkit.scalars import OFExact, _canon, _dot1, _pk, field_spec
from frobkit.series import USeries

# Oracle: schoolbook rational-polynomial arithmetic mod g, written bottom-up
# so it shares no code path with the package reduction.

SPECS = [
    qp_spec(3),
    FieldSpec(3, (-3, 0, 1)),        # pi = sqrt(3)
    FieldSpec(5, (10, 5, 0, 1)),     # e_F = 3, mixed lower coefficients
    FieldSpec(2, (2, 2, 1)),         # p = 2, e_F = 2
    FieldSpec(3, (6, 1)),            # e_F = 1 with pi = -6, not p
]


def oracle_reduce(spec, coeffs):
    g = [Fraction(c) for c in spec.eisenstein]
    e = len(g) - 1
    out = [Fraction(c) for c in coeffs]
    while len(out) > e:
        top = out.pop()
        if top:
            for i in range(e):
                out[-e + i] -= top * g[i]
    out += [Fraction(0)] * (e - len(out))
    return out


def oracle_mul(spec, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += Fraction(x) * Fraction(y)
    return oracle_reduce(spec, conv)


def oracle_vp(q, p):
    q = Fraction(q)
    if q == 0:
        return None
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def oracle_val(spec, coeffs):
    e, p = spec.e_F, spec.p
    vals = [
        e * oracle_vp(c, p) + i for i, c in enumerate(coeffs) if Fraction(c) != 0
    ]
    return min(vals) if vals else None


def agree_mod(spec, vec, frac_coeffs, prec):
    """Truncated coordinates match the exact ones mod the stored moduli."""
    for i, (a, b) in enumerate(zip(vec, frac_coeffs)):
        k = spec.coeff_modulus_exp(prec, i)
        if k == 0:
            continue
        m = spec.p ** k
        b = Fraction(b)
        assert b.denominator % spec.p != 0
        bi = b.numerator * pow(b.denominator, -1, m) % m
        assert a % m == bi, f"coordinate {i} differs mod p^{k}"


coord_lists = st.lists(st.integers(-400, 400), min_size=1, max_size=5)


# --- frozen cases -----------------------------------------------------------

def test_pi_squared_sqrt3():
    spec = FieldSpec(3, (-3, 0, 1))
    sq = OFElement.pi(spec) * OFElement.pi(spec)
    assert sq.val() == 2
    assert sq.digits()[:4] == (0, 0, 1, 0)
    assert sq == OFElement.from_int(spec, 3, sq.prec)


def test_p_over_pi_and_back():
    spec = FieldSpec(3, (-3, 0, 1))
    q = of_div(OFElement.from_int(spec, 3), OFElement.pi(spec))
    assert q.val() == 1
    assert q.unit.digits()[0] == 1
    r = of_div(OFElement.pi(spec), OFElement.from_int(spec, 3))
    assert r.val() == -1
    assert (q * r - FElement.one(spec, 8)).is_zero_at_prec()


def test_sqrt4_two_lifts_p5():
    spec = qp_spec(5)
    a = OFElement.from_int(spec, 4)
    roots = of_root(a, 2)
    assert [r.residue() for r in roots] == [2, 3]
    for r in roots:
        assert (r ** 2 - a).is_zero_at_prec()


def test_sqrt2_no_root_p3():
    with pytest.raises(NoRootError):
        of_root(OFElement.from_int(qp_spec(3), 2), 2)


def test_root_of_one_lists_one_first():
    spec = qp_spec(7)
    roots = of_root(OFElement.one(spec), 3)
    assert roots[0].residue() == 1
    assert len(roots) == 3  # 3 | 7 - 1


def test_val_of_p_is_ramification_index():
    for spec in SPECS:
        assert OFElement.from_int(spec, spec.p).val() == spec.e_F


def test_eisenstein_validation():
    with pytest.raises(ValueError):
        FieldSpec(3, (9, 0, 1))      # v_p(g_0) = 2
    with pytest.raises(ValueError):
        FieldSpec(3, (-3, 1, 1))     # middle coefficient a unit
    with pytest.raises(ValueError):
        FieldSpec(4, (-4, 1))        # p not prime


# --- oracle-backed properties ----------------------------------------------

@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists, b=coord_lists)
@settings(max_examples=60, deadline=None)
def test_mul_matches_oracle(spec, a, b):
    ea = OFElement.from_coords(spec, a)
    eb = OFElement.from_coords(spec, b)
    prod = ea * eb
    exact = oracle_mul(spec, a, b)
    agree_mod(spec, prod.vec, exact, prod.prec)


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists, b=coord_lists)
@settings(max_examples=60, deadline=None)
def test_add_matches_oracle(spec, a, b):
    s = OFElement.from_coords(spec, a) + OFElement.from_coords(spec, b)
    width = max(len(a), len(b))
    pad = lambda v: list(v) + [0] * (width - len(v))
    exact = oracle_reduce(spec, [x + y for x, y in zip(pad(a), pad(b))])
    agree_mod(spec, s.vec, exact, s.prec)


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists)
@settings(max_examples=60, deadline=None)
def test_val_matches_oracle(spec, a):
    el = OFElement.from_coords(spec, a)
    v = oracle_val(spec, oracle_reduce(spec, a))
    if v is not None and v < el.prec:
        assert el.val() == v
    else:
        assert isinstance(of_val(el), AtLeast)


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists, b=coord_lists)
@settings(max_examples=40, deadline=None)
def test_val_additive_on_products(spec, a, b):
    ea = OFElement.from_coords(spec, a)
    eb = OFElement.from_coords(spec, b)
    va, vb = ea.val(), eb.val()
    if va is None or vb is None:
        return
    prod = ea * eb
    if va + vb < prod.prec:
        assert prod.val() == va + vb


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists)
@settings(max_examples=40, deadline=None)
def test_unit_inverse(spec, a):
    el = OFElement.from_coords(spec, a)
    if not el.is_unit():
        return
    inv = el.inverse()
    assert (el * inv - OFElement.one(spec, el.prec)).is_zero_at_prec()


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists, k=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_div_pi_inverts_shift(spec, a, k):
    el = OFElement.from_coords(spec, a)
    back = el.shift_pi(k).div_pi(k)
    assert back == el


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists)
@settings(max_examples=40, deadline=None)
def test_exact_vs_truncated_div_pi(spec, a):
    ex = OFExact.make(spec, a)
    v = ex.val()
    if v is None or v == 0:
        return
    el = OFElement.from_coords(spec, a)
    if v >= el.prec:
        # the truncated side carries no divisibility witness this deep
        return
    tr = el.div_pi(v)
    shifted = ex.times_pi(-v)
    assert shifted.is_integral()
    agree_mod(spec, tr.vec, shifted.vec, tr.prec)


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists)
@settings(max_examples=40, deadline=None)
def test_digits_roundtrip(spec, a):
    el = OFElement.from_coords(spec, a)
    back = OFElement.from_json(spec, el.to_json())
    assert back == el
    assert all(0 <= d < spec.p for d in el.digits())


def test_field_spec_is_one_object_per_pair():
    # elements over interned specs pass _check_spec by identity, and
    # witt_polys, cached on the spec, returns them over the same object
    assert field_spec(3, (-3, 0, 1)) is field_spec(3, (-3, 0, 1))
    assert qp_spec(5) is qp_spec(5) is field_spec(5, (-5, 1))
    assert field_spec(3, (6, 1)) == FieldSpec(3, (6, 1))


def reference_digits(el: OFElement) -> tuple[int, ...]:
    """The digit loop before the int version: strip the residue as an
    OFElement and divide by pi with div_pi, once per digit."""
    if el.is_zero_at_prec():
        return (0,) * el.prec
    out = []
    cur = el
    for _ in range(el.prec):
        d = cur.residue()
        out.append(d)
        cur = (cur - OFElement.from_int(el.spec, d, cur.prec)).div_pi(1)
    return tuple(out)


@pytest.mark.parametrize("spec", SPECS)
@given(a=st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=5),
       prec=st.integers(0, 70), k=st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_digits_match_reference_loop(spec, a, prec, k):
    el = OFElement.from_coords(spec, a, prec).shift_pi(k)
    want = list(reference_digits(el))
    assert list(el.digits()) == want
    while want and want[-1] == 0:
        want.pop()
    assert el.to_json() == {"digits": want, "prec": el.prec}


@pytest.mark.parametrize("spec", SPECS)
def test_exact_json_roundtrip(spec):
    # "a/b" strings, one per coordinate unless e_F = 1
    rest = list(range(2, spec.e_F + 1))
    x = OFExact.make(spec, [Fraction(-7, 9), *rest])
    obj = x.to_json()
    assert obj == ("-7/9" if spec.e_F == 1 else ["-7/9", *map(str, rest)])
    assert OFExact.from_json(spec, obj) == x


def test_exact_json_errors_name_the_path():
    spec = qp_spec(3)
    with pytest.raises(ValueError, match=r"^f\[1\]: expected an integer"):
        OFExact.from_json(spec, [1, True], "f")
    with pytest.raises(ValueError, match=r"^c: "):
        OFExact.from_json(spec, "1/0", "c")


# --- OFExact against the oracle -------------------------------------------

def exact_coords(p):
    """Fraction coordinate lists; each denominator is 1, prime to p, or
    divisible by p."""
    den = st.one_of(st.just(1),
                    st.integers(2, 40).filter(lambda d: d % p),
                    st.integers(1, 40).map(lambda d: d * p))
    return st.lists(st.builds(Fraction, st.integers(-400, 400), den),
                    min_size=1, max_size=5)


def exact_of(spec, coords):
    """OFExact.make, with the lowest-terms form checked on the way."""
    x = OFExact.make(spec, coords)
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert len(x.num) == spec.e_F
    assert x.vec == tuple(oracle_reduce(spec, coords))
    return x


def oracle_pow(spec, a, k):
    out = oracle_reduce(spec, [1])
    for _ in range(k):
        out = oracle_mul(spec, out, a)
    return out


def padded_op(spec, a, b, op):
    width = max(len(a), len(b))
    pad = lambda v: list(v) + [Fraction(0)] * (width - len(v))
    return oracle_reduce(spec, [op(x, y) for x, y in zip(pad(a), pad(b))])


@pytest.mark.parametrize("spec", SPECS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exact_arithmetic_matches_oracle(spec, data):
    a = data.draw(exact_coords(spec.p))
    b = data.draw(exact_coords(spec.p))
    k = data.draw(st.integers(0, 12))
    x, y = exact_of(spec, a), exact_of(spec, b)
    ra, rb = oracle_reduce(spec, a), oracle_reduce(spec, b)
    for got, want in (
        (x + y, padded_op(spec, a, b, lambda u, v: u + v)),
        (x - y, padded_op(spec, a, b, lambda u, v: u - v)),
        (-x, [-c for c in ra]),
        (x * y, oracle_mul(spec, ra, rb)),
        (x ** k, oracle_pow(spec, ra, k)),
    ):
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1
        assert got.vec == tuple(want)


@pytest.mark.parametrize("spec", SPECS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exact_times_pi_matches_oracle(spec, data):
    a = data.draw(exact_coords(spec.p))
    k = data.draw(st.integers(-4, 4))
    x = exact_of(spec, a)
    pi_k = oracle_pow(spec, [0, 1], abs(k))
    got = x.times_pi(k)
    if k >= 0:
        assert got.vec == tuple(oracle_mul(spec, oracle_reduce(spec, a), pi_k))
    else:  # pi^|k| times the result gives x back
        assert tuple(oracle_mul(spec, got.vec, pi_k)) == x.vec
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1


@pytest.mark.parametrize("spec", SPECS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_exact_queries_match_oracle(spec, data):
    a = data.draw(exact_coords(spec.p))
    prec = data.draw(st.integers(0, 12))
    x = exact_of(spec, a)
    ra = oracle_reduce(spec, a)
    assert x.val() == oracle_val(spec, ra)
    integral = all(c == 0 or oracle_vp(c, spec.p) >= 0 for c in ra)
    assert x.is_integral() == integral
    if integral:
        c0 = ra[0]
        assert x.residue() == c0.numerator * pow(c0.denominator, -1, spec.p) % spec.p
        el = x.at_prec(prec)
        assert el.prec == prec
        agree_mod(spec, el.vec, ra, prec)
    assert OFExact.from_json(spec, x.to_json()) == x
    if not x.is_zero():
        assert x * x.inv() == OFExact.one(spec)


@pytest.mark.parametrize("spec", SPECS)
def test_exact_equality_is_value_equality(spec):
    half = OFExact.make(spec, [Fraction(1, 2)])
    assert OFExact.make(spec, [Fraction(2, 4)]) == half
    assert hash(OFExact.make(spec, [Fraction(2, 4)])) == hash(half)
    assert OFExact.make(spec, Fraction(1, 2)) == half  # a scalar Fraction
    zero = OFExact.zero(spec)
    # g / 7 reduces to 0; x - x for x over 7 cancels
    via_g = OFExact.make(spec, [Fraction(c, 7) for c in spec.eisenstein])
    x = OFExact.make(spec, [Fraction(3, 7)] * spec.e_F)
    for z in (via_g, x - x, x + (-x), x * zero):
        assert z == zero and hash(z) == hash(zero) and z.den == 1
        assert z.is_zero() and z.val() is None


def test_exact_make_rejects_inexact_coordinates():
    spec = qp_spec(3)
    with pytest.raises(TypeError):
        OFExact.make(spec, [0.1])
    with pytest.raises(TypeError):
        OFExact.make(spec, 0.5)
    with pytest.raises(TypeError):
        OFExact.make(spec, [1, True])
    with pytest.raises(TypeError):
        EisensteinE.make(spec, [-3.0, True])


@pytest.mark.parametrize("spec", SPECS)
@given(a=coord_lists, m=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_root_powers_back(spec, a, m):
    el = OFElement.from_coords(spec, a)
    if el.val() != 0 or m % spec.p == 0:
        return
    try:
        roots = of_root(el, m)
    except NoRootError:
        return
    for r in roots:
        assert (r ** m - el).is_zero_at_prec()
    assert len(set(r.residue() for r in roots)) == len(roots)


# --- F-element / precision semantics ----------------------------------------

def test_felement_normalization():
    spec = FieldSpec(3, (-3, 0, 1))
    x = FElement.make(OFElement.from_coords(spec, [9, 3]))  # val 3
    assert x.shift == 3 and x.unit.val() == 0


def test_zero_at_prec_absorbs():
    spec = FieldSpec(3, (-3, 0, 1))
    z = FElement.zero_at(spec, 5)
    u = FElement.from_int(spec, 2)
    assert (z * u).absprec == 5
    assert (z * FElement.make(OFElement.pi(spec))).absprec == 6
    assert isinstance(z.val(), AtLeast) and z.val().bound == 5


def test_zero_product_at_a_huge_label_builds_no_huge_power():
    # a zero product is reduced by nothing: a label of 10**6 must not turn
    # into a 10**6-digit power of p
    spec = qp_spec(3)
    z = OFElement.zero(spec, 10**6)
    u = OFElement.from_int(spec, 7, 20)
    _pk.cache_clear()
    prod = z * u
    assert prod.is_zero_at_prec() and prod.prec == 10**6
    assert _pk.cache_info().currsize == 0


def test_addition_cancellation_keeps_absprec():
    spec = qp_spec(3)
    a = FElement.from_int(spec, 7, 8)
    d = a - a
    assert d.is_zero_at_prec() and d.absprec == 8


def test_zero_below_label_0_keeps_its_label_in_any_order():
    # x = 3^-2 + O(3^-1), z = 3^-1 + O(3^5): x - x is O(3^-1), so both
    # groupings of x - x + z know nothing beyond O(3^-1)
    spec = qp_spec(3)
    x = FElement.make(OFElement.from_int(spec, 1, 1), -2)
    z = FElement.make(OFElement.from_int(spec, 1, 6), -1)
    assert (x.absprec, z.absprec) == (-1, 5)
    for got in ((x - x) + z, x + (-x + z)):
        assert got.is_zero_at_prec() and got.absprec == -1
    assert (x - x) + z == x + (-x + z) == FElement.zero_at(spec, -1)


def test_division_by_zero_at_prec_raises():
    spec = qp_spec(3)
    with pytest.raises(PrecisionError):
        of_div(OFElement.one(spec), OFElement.zero(spec, 6))


def test_congruent_raises_when_undecidable():
    spec = qp_spec(3)
    a = FElement.from_int(spec, 1, 4)
    b = FElement.from_int(spec, 1, 4)
    assert a.congruent(b, 4)
    with pytest.raises(PrecisionError):
        a.congruent(b, 9)


def test_precision_cannot_be_raised():
    spec = qp_spec(3)
    el = OFElement.from_int(spec, 5, 6)
    with pytest.raises(PrecisionError):
        el.at_prec(10)
    assert el.at_prec(3).prec == 3


def test_mul_precision_gains_with_valuation():
    spec = FieldSpec(3, (-3, 0, 1))
    pi = OFElement.pi(spec, 12)
    assert (pi * pi).prec == 13  # ... = min(12 + 1, 12 + 1)


def test_from_exact_materialization():
    spec = FieldSpec(3, (-3, 0, 1))
    x = OFExact.make(spec, [0, 3])  # val 3
    f = FElement.from_exact(x, 10)
    assert f.shift == 3 and f.absprec == 10
    y = OFExact.make(spec, [Fraction(1, 3)])  # val -2
    fy = FElement.from_exact(y, 10)
    assert fy.shift == -2 and fy.absprec == 10


@pytest.mark.parametrize("spec", [qp_spec(3), FieldSpec(3, (-3, 0, 1))],
                         ids=["Z3", "Z3pi"])
def test_scaling_by_pi_inverse_keeps_an_exact_coefficient_exact(spec):
    # an exact coefficient as a series hands it out, scaled by pi^-k: the
    # label stays None instead of reading a huge number less k
    z = USeries.make(spec, [0, 1]).coeff(0)
    assert z.label is None and z == FElement.zero(spec)
    x = FElement.from_int(spec, 5, 8)
    for k in range(1, 7):
        pik = FElement.from_exact(OFExact.pi(spec) ** k, 10)
        inv = FElement.from_exact(OFExact.pi(spec) ** -k, 10)
        assert inv.shift == -k
        for got in (z * inv, inv * z, z / pik):
            assert got.label is None and got == z
        assert USeries.make(spec, [z * inv, 1]).labels[0] is None
        assert USeries.make(spec, [0, 1]).scalar_mul(inv).labels[0] is None
        assert USeries.make(spec, [z, x]).scalar_mul(inv).labels[0] is None
    assert z + x == x + z == x and z - x == -x
    assert z + z == z * x == z and z.is_integral()
    assert z.cap_absprec(64) == FElement.zero_at(spec, 64)
    assert z.cap_absprec(64).to_json() == {"digits": [], "prec": 64, "shift": 0}
    assert USeries.make(spec, [0, 1]).to_json()["coeffs"][0] == {
        "digits": [], "prec": 64, "shift": 0}
    with pytest.raises(PrecisionError):
        x / z


def old_canon(spec, s, vec, m):
    """(shift, unit) by the OFElement route: reduce as OFElement, read the
    valuation, divide the unit by pi^v with div_pi."""
    unit = OFElement._norm(spec, m - s, vec)
    v = unit.val()
    if v is None:
        return m, unit.vec
    if v:
        unit = unit.div_pi(v)
    return s + v, unit.vec


@pytest.mark.parametrize("spec", [FieldSpec(3, (-3, 0, 1)), FieldSpec(2, (2, 2, 1)),
                                  FieldSpec(3, (3, 3, 0, 1)), FieldSpec(3, (-6, 3, 1)),
                                  FieldSpec(5, (10, 5, 0, 1))],
                         ids=["Z3pi", "Z2-x2+2x+2", "Z3-x3+3x+3", "Z3-x2+3x-6",
                              "Z5-x3+5x+10"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_int_canon_matches_the_ofelement_route(spec, data):
    # any number of coordinates (a product has 2e - 1 before reduction mod
    # g), with large or negative entries and factors of p that put the
    # valuation anywhere below the label
    e, p = spec.e_F, spec.p
    n = data.draw(st.integers(1, 2 * e - 1))
    vec = [data.draw(st.integers(-p ** 30, p ** 30)) * p ** data.draw(st.integers(0, 8))
           for _ in range(n)]
    s = data.draw(st.integers(-5, 5))
    m = s + data.draw(st.integers(-2, 40))
    assert _canon(spec, s, vec, m) == old_canon(spec, s, vec, m)


# --- the dot primitive, division and powers on the fields --------------------

@st.composite
def felements(draw, spec):
    """An exact zero, a zero at a label (below 0 at times), or a value
    pi^shift * unit known modulo pi^label with a shift below 0 at times
    (whose unit may itself hide further factors of pi)."""
    kind = draw(st.sampled_from(("exact", "zero", "value", "value", "value")))
    if kind == "exact":
        return FElement.zero(spec)
    if kind == "zero":
        return FElement.zero_at(spec, draw(st.integers(-6, 30)))
    coords = draw(st.lists(st.integers(-spec.p ** 12, spec.p ** 12),
                           min_size=spec.e_F, max_size=spec.e_F))
    unit = OFElement.from_coords(spec, coords, draw(st.integers(1, 30)))
    return FElement.make(unit, draw(st.integers(-6, 6)))


def fields(x: FElement) -> tuple:
    return x.low, x.coords, x.label


@pytest.mark.parametrize("spec", SPECS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_dot_matches_the_fold_of_products(spec, data):
    n = data.draw(st.integers(1, 8))
    xs = [data.draw(felements(spec)) for _ in range(n)]
    ys = [data.draw(felements(spec)) for _ in range(n + data.draw(st.integers(0, 2)))]
    want = reduce(operator.add, map(operator.mul, xs, ys))
    got = _dot1(spec, map(fields, xs), map(fields, ys))
    assert FElement(spec, *got) == want


def ref_div(a: FElement, b: FElement) -> FElement:
    """Division by the OFElement route: a Newton inverse of b's unit."""
    if b.is_zero_at_prec():
        raise PrecisionError("divisor indistinguishable from 0")
    if a.label is None:
        return a
    return FElement.make(a.unit * b.unit.inverse(), a.shift - b.shift)


def ref_pow(a: FElement, n: int) -> FElement:
    if n < 0:
        return ref_div(FElement.one(a.spec, a.unit.prec), ref_pow(a, -n))
    if a.label is None:
        # the exact zero, which the OFElement route reads as a zero known
        # modulo pi^0: its powers are exact
        return a if n else FElement.one(a.spec)
    return FElement.make(a.unit ** n, a.shift * n)


def outcome(op, *args):
    try:
        return op(*args)
    except PrecisionError:
        return PrecisionError


@pytest.mark.parametrize("spec", SPECS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_division_and_powers_match_the_ofelement_route(spec, data):
    # zero-at-precision and exact numerators keep their own precision (a
    # zero's label is its label less the divisor's shift), which a rule
    # written for visible numerators alone would not give
    a, b = data.draw(felements(spec)), data.draw(felements(spec))
    z = FElement.zero_at(spec, data.draw(st.integers(-6, 40)))
    for x in (a, z, FElement.zero(spec)):
        assert outcome(operator.truediv, x, b) == outcome(ref_div, x, b)
    n = data.draw(st.integers(-4, 7))
    assert outcome(operator.pow, a, n) == outcome(ref_pow, a, n)


@pytest.mark.parametrize("spec", SPECS)
def test_powers_of_the_exact_zero_are_exact(spec):
    zero = FElement.zero(spec)
    assert zero ** 0 == FElement.one(spec)
    for n in (1, 2, 5):
        assert zero ** n == zero
    with pytest.raises(PrecisionError):
        zero ** -1

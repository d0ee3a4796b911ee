"""The integer series kernels of USeries against coefficient loops.

reference_mul is the per-coefficient FElement loop that USeries.__mul__
ran before the Kronecker kernel: every live pair a_i * b_j is multiplied
and added, in order of i or in reverse, exact zeros skipped.  Sums and
scalar multiples are checked against FElement loops the same way.  The
loops add and multiply on the OFElement units of the FElements (ref_add,
ref_mul: OFElement arithmetic, then division of the unit by its valuation
with OFElement's val and div_pi) and build each result from its fields,
so they run neither _canon nor the integer arithmetic (_add1, _mul1) that
FElement and the kernels share.  An exact coefficient is an FElement with
label None, so "live" below means "label is not None".  The kernels must
return the same FElement tuples (values, shifts and precision labels) and
the same cap on random series over Z_3, Z_5, Z_3[pi] with pi^2 = 3, and
Z_3 with uniformizer -6.
"""

import operator
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkit.scalars import FElement, FieldSpec, OFElement, _add1, qp_spec
from frobkit import series
from frobkit.series import USeries, _block_size, _compose_powers, s_compose, s_dot

SPECS = {
    "Z3": qp_spec(3),
    "Z5": qp_spec(5),
    "Z3pi": FieldSpec(3, (-3, 0, 1)),
    "Z3-6": FieldSpec(3, (6, 1)),  # e_F = 1 with pi = -6, not p
}


def ref_normalize(unit: OFElement, shift: int) -> FElement:
    """unit * pi^shift with the valuation of unit moved into the shift."""
    spec, m = unit.spec, unit.prec + shift
    v = unit.val()
    if v is None:
        return FElement(spec, m, (0,) * spec.e_F, m)
    return FElement(spec, shift + v, (unit.div_pi(v) if v else unit).vec, m)


def live(c: FElement) -> bool:
    return c.label is not None


def ref_add(a: FElement, b: FElement) -> FElement:
    # a zero carrying at least the other label is additively inert, and an
    # exact zero (absprec infinite) carries every label
    if a.absprec >= b.absprec and a.is_zero_at_prec():
        return b
    if b.absprec >= a.absprec and b.is_zero_at_prec():
        return a
    s = min(a.shift, b.shift)
    return ref_normalize(a.unit.shift_pi(a.shift - s) + b.unit.shift_pi(b.shift - s), s)


def ref_mul(a: FElement, b: FElement) -> FElement:
    if not (live(a) and live(b)):
        return FElement.zero(a.spec)
    return ref_normalize(a.unit * b.unit, a.shift + b.shift)


def ref_neg(a: FElement) -> FElement:
    return ref_normalize(-a.unit, a.shift) if live(a) else a


def window(x: USeries, length: int) -> list[FElement]:
    return [x.coeff(n) for n in range(length)]


def reference_mul(x: USeries, y: USeries, reverse: bool = False) -> USeries:
    if x.cap is None and y.cap is None:
        length = len(x.coeffs) + len(y.coeffs) - 1
        cap = None
    else:
        cands = []
        if x.cap is not None:
            cands.append(x.cap + y._order_for_cap())
        if y.cap is not None:
            cands.append(y.cap + x._order_for_cap())
        cap = length = min(cands)
    av = [(i, c) for i, c in enumerate(window(x, length)) if live(c)]
    bv = [(j, c) for j, c in enumerate(window(y, length)) if live(c)]
    out = [FElement.zero(x.spec)] * length
    for i, ca in (reversed(av) if reverse else av):
        for j, cb in bv:
            if i + j >= length:
                break
            out[i + j] = ref_add(out[i + j], ref_mul(ca, cb))
    return USeries.make(x.spec, out, cap)


def reference_add(x: USeries, y: USeries) -> USeries:
    caps = [c for c in (x.cap, y.cap) if c is not None]
    length = min(caps) if caps else max(len(x), len(y))
    out = [ref_add(x.coeff(n), y.coeff(n)) for n in range(length)]
    return USeries.make(x.spec, out, min(caps) if caps else None)


def reference_scale(x: USeries, c: FElement) -> USeries:
    # exact stays exact on either side
    out = [ref_mul(c, a) for a in x.coeffs]
    return with_cap(USeries.make(x.spec, out), x.cap) if out else x


def with_cap(poly: USeries, cap) -> USeries:
    """poly's coefficients under cap, which may lie past them."""
    return USeries(poly.spec, poly.shifts, poly.units, poly.labels, cap)


def random_coeff(rng, spec, min_shift):
    kind = rng.random()
    if kind < 0.12:
        return FElement.zero(spec)
    if kind < 0.25:
        # zero-at-precision placeholders, label-0 tails among them
        return FElement.zero_at(spec, rng.choice((0, 0, 1, 3, 8, 15)))
    prec = rng.randint(1, 20)
    coords = [rng.randrange(spec.p ** 25) for _ in range(spec.e_F)]
    unit = OFElement.from_coords(spec, coords, prec)
    return ref_normalize(unit, rng.randint(min_shift, 4))


def random_series(rng, spec, min_shift):
    n = rng.randint(1, 24)
    cs = [random_coeff(rng, spec, min_shift) for _ in range(n)]
    kind = rng.random()
    poly = USeries.make(spec, cs)
    if kind < 0.35:
        return poly
    # a cap past the stored coefficients reads as label-0 unknown tails
    return with_cap(poly, n + rng.choice((0, 0, 0, 2, 5)))


@pytest.mark.parametrize("min_shift", [0, -3], ids=["integral", "negative-shift"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_matches_reference_loop(name, min_shift):
    spec = SPECS[name]
    rng = random.Random(f"{name}/{min_shift}")
    for _ in range(150):
        x = random_series(rng, spec, min_shift)
        y = random_series(rng, spec, min_shift)
        got, want = x * y, reference_mul(x, y)
        assert got.cap == want.cap
        assert got.coeffs == want.coeffs
        # a scalar operand scales coefficientwise: exact zeros,
        # placeholders and caps as scalar_mul leaves them
        c = y.coeff(0)
        assert x * c == x.scalar_mul(c)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_matches_reference_on_placeholders_only(name):
    spec = SPECS[name]
    zeros = USeries.make(spec, [FElement.zero_at(spec, 4), FElement.zero(spec),
                                FElement.zero_at(spec, 0)], 3)
    one = USeries.make(spec, [1, 0, 2], absprec=6)
    for x, y in ((zeros, one), (one, zeros), (zeros, zeros),
                 (USeries.zero(spec), one)):
        got, want = x * y, reference_mul(x, y)
        assert (got.coeffs, got.cap) == (want.coeffs, want.cap)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_matches_both_fold_orders_below_label_0(name):
    # a zero-at-precision label below 0 is kept as it is, so the fold
    # gives the same coefficient whichever way round the terms are added
    spec = SPECS[name]
    rng = random.Random(f"{name}/below-0")
    seen = 0
    for _ in range(150):
        x = random_series(rng, spec, -3)
        y = random_series(rng, spec, -3)
        got = x * y
        for want in (reference_mul(x, y), reference_mul(x, y, reverse=True)):
            assert got.cap == want.cap
            assert got.coeffs == want.coeffs
        seen += sum(c.absprec < 0 for c in got.coeffs)
    assert seen > 0


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), seed=st.integers(0, 10 ** 9),
       min_shift=st.sampled_from((0, -3)))
def test_flat_kernels_match_felement_loops(name, seed, min_shift):
    spec = SPECS[name]
    rng = random.Random(seed)
    x = random_series(rng, spec, min_shift)
    y = random_series(rng, spec, min_shift)
    neg_y = USeries.make(spec, [ref_neg(c) for c in y.coeffs])
    for got, want in ((x * y, reference_mul(x, y)), (x + y, reference_add(x, y)),
                      (x - y, reference_add(x, with_cap(neg_y, y.cap)))):
        assert (got.coeffs, got.cap) == (want.coeffs, want.cap)
    for c in (random_coeff(rng, spec, min_shift), FElement.zero(spec)):
        got, want = x.scalar_mul(c), reference_scale(x, c)
        assert (got.coeffs, got.cap) == (want.coeffs, want.cap)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), seed=st.integers(0, 10 ** 9))
def test_felement_ops_match_ofelement_reference(name, seed):
    spec = SPECS[name]
    rng = random.Random(seed)
    for _ in range(20):
        a, b = (random_coeff(rng, spec, rng.choice((0, -3))) for _ in range(2))
        assert a + b == ref_add(a, b)
        assert a * b == ref_mul(a, b)
        assert -a == ref_neg(a)


# --- the sum-of-products kernel against the fold of products -----------------
#
# s_dot forms sum x_k * y_k in one kernel call; its reference is the fold
# of USeries.__mul__ (the kernel's one-pair call, checked above against
# the FElement loop) and USeries.__add__, in either order.  The fields
# must match label by label, over e_F = 1, 2 and 3 and over p = 2.

DOT_SPECS = {
    **SPECS,
    "Z2": qp_spec(2),
    "Z2pi": FieldSpec(2, (2, 2, 1)),
    "Z3pi3": FieldSpec(3, (3, 3, 0, 1)),
}


def dot_coeff(rng, spec):
    """An exact zero, a zero at a label (below 0 at times), or a visible
    value with a shift below 0 at times."""
    kind = rng.random()
    if kind < 0.15:
        return FElement.zero(spec)
    if kind < 0.3:
        return FElement.zero_at(spec, rng.randint(-4, 12))
    coords = [rng.randrange(-spec.p ** 15, spec.p ** 15) for _ in range(spec.e_F)]
    unit = OFElement.from_coords(spec, coords, rng.randint(1, 14))
    return FElement.make(unit, rng.randint(-3, 4))


def dot_series(rng, spec):
    """A polynomial or a capped series whose order (its leading exact or
    placeholder zeros) and cap vary."""
    lead = [rng.choice((FElement.zero(spec),
                        FElement.zero_at(spec, rng.randint(-2, 9))))
            for _ in range(rng.choice((0, 0, 1, 3)))]
    cs = lead + [dot_coeff(rng, spec) for _ in range(rng.randint(1, 14))]
    poly = USeries.make(spec, cs)
    if rng.random() < 0.4:
        return poly
    return with_cap(poly, len(cs) + rng.choice((0, 0, 1, 4)))


def fields_of(x: USeries) -> tuple:
    return x.shifts, x.units, x.labels, x.cap


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(DOT_SPECS)), seed=st.integers(0, 10 ** 9))
def test_sum_of_products_matches_the_fold(name, seed):
    spec = DOT_SPECS[name]
    rng = random.Random(seed)
    scalars = rng.random() < 0.4
    pairs = [(dot_series(rng, spec),
              dot_coeff(rng, spec) if scalars else dot_series(rng, spec))
             for _ in range(rng.randint(1, 5))]
    got = fields_of(s_dot(pairs))
    products = [x * y for x, y in pairs]
    assert got == fields_of(reduce(operator.add, products))
    assert got == fields_of(reduce(operator.add, reversed(products)))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(DOT_SPECS)), seed=st.integers(0, 10 ** 9))
def test_an_felement_factor_is_scalar_mul(name, seed):
    # a constant factor keeps the length and cap of the series, and an
    # exact zero gives exact zeros, as scalar_mul does
    spec = DOT_SPECS[name]
    rng = random.Random(seed)
    x = dot_series(rng, spec)
    for c in (dot_coeff(rng, spec), FElement.zero(spec), FElement.zero_at(spec, -2)):
        assert fields_of(s_dot([(x, c)])) == fields_of(x.scalar_mul(c))


# --- composition by baby steps and giant steps against Horner ---------------
#
# horner_compose is s_compose as it was before the giant steps: one product
# acc * g per coefficient of h, top down, each at its own length and cap,
# with h_n added exactly at u^0.  It stays here as the reference.  Block
# size 1 must give its fields exactly.  At the block size s_compose picks,
# every value must be congruent to Horner's at the lower label, and on
# integral inputs no label may be lower.  Horner cuts each running sum
# h_n + h_(n+1) g + ... at its cap and reads the cut-off tail as integral,
# which it is not when h has negative shifts; there a label of Horner's can
# overclaim, and one below it is checked against exact compositions of
# refined inputs instead.  Horner's cap follows the visible orders of its
# running sums, which the giant steps never form, so the (length, cap) may
# differ on these inputs; the CLI examples pin it to Horner's
# (tests/test_golden_reports.py).


def horner_compose(h: USeries, g: USeries) -> USeries:
    if g.order() == 0:
        raise ValueError("composition needs g(0) = 0")
    spec = h.spec
    top = len(h) - 1
    acc = USeries(spec, h.shifts[top:], h.units[top:], h.labels[top:], None)
    for n in range(top - 1, -1, -1):
        prod = acc * g
        c0 = _add1(spec, prod.shifts[0], prod.units[0], prod.labels[0],
                   h.shifts[n], h.units[n], h.labels[n])
        acc = USeries(spec, (c0[0],) + prod.shifts[1:], (c0[1],) + prod.units[1:],
                      (c0[2],) + prod.labels[1:], prod.cap)
    if h.cap is not None:
        acc = acc.truncate(h.cap * max(g._order_for_cap(), 1))
    return acc


def compose_coeff(rng, spec, integral: bool) -> FElement:
    return random_coeff(rng, spec, 0) if integral else dot_coeff(rng, spec)


def compose_inner(rng, spec, integral: bool) -> USeries:
    """A polynomial or capped g with constant term zero at precision: its
    leading coefficients are exact or placeholder zeros."""
    lead = [rng.choice((FElement.zero(spec), FElement.zero_at(spec, rng.randint(0, 9))))
            for _ in range(rng.choice((1, 1, 2)))]
    cs = lead + [compose_coeff(rng, spec, integral) for _ in range(rng.randint(1, 14))]
    poly = USeries.make(spec, cs)
    if rng.random() < 0.4:
        return poly
    return with_cap(poly, len(cs) + rng.choice((0, 0, 1, 4)))


def compose_outer(rng, spec, integral: bool) -> USeries:
    """A polynomial or capped h, long enough for giant steps at times."""
    cs = [compose_coeff(rng, spec, integral)
          for _ in range(rng.choice((1, 4, 6, 9, 12, 17, 26)))]
    poly = USeries.make(spec, cs)
    if rng.random() < 0.4:
        return poly
    return with_cap(poly, len(cs) + rng.choice((0, 0, 1, 3)))


def label_not_lower(old, new) -> bool:
    """new >= old for labels, an exact None above every number."""
    return new is None or (old is not None and new >= old)


def compare_with_horner(h: USeries, g: USeries) -> tuple[USeries, USeries, list]:
    """(s_compose, horner_compose, the indices where s_compose's label is
    lower), after checking that the values are congruent at the lower label
    on their common length."""
    new, old = s_compose(h, g), horner_compose(h, g)
    fell = []
    for n, (a, b) in enumerate(zip(old.coeffs, new.coeffs)):
        labels = [m for m in (a.label, b.label) if m is not None]
        if labels:
            assert b.congruent(a, min(labels))
        if not label_not_lower(a.label, b.label):
            fell.append(n)
    return new, old, fell


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(DOT_SPECS)), seed=st.integers(0, 10 ** 9),
       integral=st.booleans())
def test_block_size_one_is_horner(name, seed, integral):
    spec = DOT_SPECS[name]
    rng = random.Random(seed)
    h, g = compose_outer(rng, spec, integral), compose_inner(rng, spec, integral)
    want = fields_of(horner_compose(h, g))
    assert fields_of(_compose_powers(h, [g], 1)) == want
    if _block_size(len(h)) == 1:
        assert fields_of(s_compose(h, g)) == want


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(DOT_SPECS)), seed=st.integers(0, 10 ** 9),
       integral=st.booleans())
def test_giant_steps_refine_horner(name, seed, integral):
    spec = DOT_SPECS[name]
    rng = random.Random(seed)
    h, g = compose_outer(rng, spec, integral), compose_inner(rng, spec, integral)
    _, _, fell = compare_with_horner(h, g)
    assert not (integral and fell)


def refine(rng, x: USeries, length: int, inner: bool) -> USeries:
    """A polynomial of length coefficients that x stands for: each value
    plus a random multiple of pi^label, exact zeros kept, and integral
    values for the unknown tail of a capped x (0 at u^0 for an inner g)."""
    spec, prec = x.spec, 60
    out = []
    for n in range(length):
        c = x.coeff(n) if n < len(x) or x.cap is not None else FElement.zero(spec)
        if c.label is None or (inner and n == 0):
            out.append(FElement.zero(spec))
            continue
        noise = OFElement.from_coords(
            spec, [rng.randrange(spec.p ** 8) for _ in range(spec.e_F)], prec)
        value = FElement.make(noise, c.label)
        if c.coords[0]:
            value = value + FElement.make(
                OFElement.from_coords(spec, list(c.coords), prec), c.low)
        out.append(value)
    return USeries.make(spec, out)


def refuted(rng, h: USeries, g: USeries, result: USeries, n: int) -> bool:
    """Whether one of 24 refinements of h and g composes to a value that
    coefficient n of result, at its label, does not allow."""
    length = len(result) + 2
    for _ in range(24):
        exact = horner_compose(refine(rng, h, length, False),
                               refine(rng, g, length, True)).coeff(n)
        c = result.coeff(n)
        if not c.congruent(exact, min(c.label, exact.absprec)):
            return True
    return False


def test_a_label_below_horners_is_one_horner_overclaims():
    # negative shifts: wherever a label falls below Horner's, some exact
    # composition of refined inputs contradicts Horner's value at its own
    # label, and none of the same draws contradicts the giant steps' value
    rng = random.Random("horner-overclaims")
    falls = 0
    for _ in range(120):
        for name in sorted(DOT_SPECS):
            spec = DOT_SPECS[name]
            h, g = compose_outer(rng, spec, False), compose_inner(rng, spec, False)
            if _block_size(len(h)) == 1:
                continue
            new, old, fell = compare_with_horner(h, g)
            for n in fell:
                falls += 1
                assert refuted(random.Random(n), h, g, old, n)
                assert not refuted(random.Random(n), h, g, new, n)
    assert falls > 0


def test_giant_steps_raise_labels_on_random_capped_inputs():
    # the scheme is not Horner's: over many integral cases labels rise,
    # none falls, and the values stay congruent
    rng = random.Random("giant-steps")
    rose = 0
    for name in sorted(DOT_SPECS):
        for _ in range(40):
            spec = DOT_SPECS[name]
            h, g = compose_outer(rng, spec, True), compose_inner(rng, spec, True)
            if _block_size(len(h)) > 1:
                new, old, fell = compare_with_horner(h, g)
                assert not fell
                rose += sum(a.label != b.label for a, b in zip(old.coeffs, new.coeffs))
    assert rose > 0


@pytest.mark.parametrize("m", range(1, 40))
def test_giant_steps_make_fewer_kernel_calls(monkeypatch, m):
    # k = ceil(sqrt(m)) where that makes fewer kernel calls than Horner's
    # m - 1 (every product and every sum of products is one call), else 1
    calls = []
    kernel = series._sum_products
    monkeypatch.setattr(series, "_sum_products",
                        lambda *args: calls.append(1) or kernel(*args))
    spec = qp_spec(3)
    h = USeries.make(spec, range(1, m + 1), absprec=8)
    g = USeries.make(spec, [0, 3, 1], cap=12, absprec=8)
    s_compose(h, g)
    k = _block_size(m)
    assert k in (1, next(j for j in range(1, m + 1) if j * j >= m))
    assert len(calls) < m - 1 if k > 1 else len(calls) == max(m - 1, 0)
    assert k > 1 or m <= 5

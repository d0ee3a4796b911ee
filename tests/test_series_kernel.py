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

from frobkit.scalars import (FElement, FieldSpec, OFElement, _add1, _canon, _times_pi,
                             qp_spec)
from frobkit import series
from frobkit.series import (USeries, _Live, _block_size, _compose_all, _compose_powers,
                            _from_int, _swar_masks, _to_int, s_compose, s_dot)

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


# --- the kernel against its first form ---------------------------------------
#
# reference_sum_products is _sum_products as it was before its read-back
# went to one pass: operands gathered by three comprehensions, the label
# merge through a vmax closure per live triple, every Kronecker image
# from a list of slots, and one _canon per output coefficient on coords
# read back as a list.  It shares with the kernel only _Live and the
# byte packing of _to_int and _from_int.  The kernel must give its
# fields exactly, with the cap passed through.


class RefOperand:
    def __init__(self, spec, shifts, units, labels, cap):
        self.size, self.cap = len(labels), cap
        self.live = [(i, m, s) for i, (s, m) in enumerate(zip(shifts, labels))
                     if m is not None]
        nz = [(i, s, u, m) for i, (s, u, m) in enumerate(zip(shifts, units, labels))
              if u[0]]
        self.s0 = min((s for _, s, _, _ in nz), default=0)
        self.aligned = [(i, _times_pi(spec, u, s - self.s0)) for i, s, u, _ in nz]
        self.top_shift = max((s for _, s, _, _ in nz), default=0)
        self.top_label = max((m for _, _, _, m in nz), default=0)

    def view(self, length, pad=True):
        live = [t for t in self.live if t[0] < length]
        if pad and self.cap is not None and self.size < length:
            live = live + [(i, 0, 0) for i in range(self.size, length)]
        return _Live(live)


def ref_product_labels(pairs, length):
    pairs = [(a, b) if len(a.entries) <= len(b.entries) else (b, a)
             for a, b in pairs if a.entries and b.entries]
    if not pairs:
        return [None] * length
    K = max(max(a.nmax + b.vmax, a.vmax + b.nmax) for a, b in pairs) + 1
    top = max(K - min(a.nmin + b.vmin, a.vmin + b.nmin) for a, b in pairs)
    nbytes = (top.bit_length() + 8) // 8
    w = 8 * nbytes
    guard, low = _swar_masks(length, nbytes)

    def vmax(x, y):
        g = ((x | guard) - y) & guard
        m = g - (g >> (w - 1))
        return (x & m) | (y & (m ^ low))

    out = 0
    for a, b in pairs:
        pn, pv, lb = b.fields(nbytes)
        q1 = (K - a.nmin - b.vmin) * lb - pv
        q2 = (K - a.vmin - b.nmin) * lb - pn
        for i, n, v in a.entries:
            out = vmax(out, vmax(q1 - (n - a.nmin) * lb, q2 - (v - a.vmin) * lb)
                       << (w * i))
    return [K - f if f else None for f in _from_int(out, length, nbytes)]


def ref_image(spec, op, length, stride, pk, nbytes, t):
    aligned = [(i, _times_pi(spec, vec, t)) for i, vec in op.aligned if i < length]
    slots = [0] * ((aligned[-1][0] + 1) * stride)
    for i, vec in aligned:
        for r, c in enumerate(vec):
            slots[i * stride + r] = c % pk
    return _to_int(slots, nbytes)


def reference_sum_products(spec, pairs, length, cap):
    e = spec.e_F
    label_pairs, value_pairs = [], []
    for x, y in pairs:
        opa = RefOperand(spec, x.shifts, x.units, x.labels, x.cap)
        if isinstance(y, FElement):
            opb = RefOperand(spec, (y.low,), (y.coords,), (y.label,), None)
            label_pairs.append((opa.view(length, pad=False), opb.view(length)))
            if x.cap is not None and len(x.labels) < length:
                tail = [(i, 0, 0) for i in range(len(x.labels), length)]
                label_pairs.append((_Live(tail), _Live([(0, 0, 0)])))
        else:
            opb = RefOperand(spec, y.shifts, y.units, y.labels, y.cap)
            label_pairs.append((opa.view(length), opb.view(length)))
        if (opa.aligned and opb.aligned
                and opa.aligned[0][0] + opb.aligned[0][0] < length):
            value_pairs.append((opa, opb))
    labels = ref_product_labels(label_pairs, length)
    coords = None
    if value_pairs:
        s0 = min(a.s0 + b.s0 for a, b in value_pairs)
        digits = max(min(a.top_label + b.top_shift, a.top_shift + b.top_label)
                     for a, b in value_pairs) - s0
        pk = spec.p ** max(-(-digits // e), 1)
        stride = 2 * e - 1
        terms = sum(min(len(a.aligned), len(b.aligned)) for a, b in value_pairs)
        nbytes = (2 * (pk - 1).bit_length() + (terms * e).bit_length() + 7) // 8
        count = length * stride
        total = 0
        for a, b in value_pairs:
            if len(a.aligned) > len(b.aligned):
                a, b = b, a
            total += (ref_image(spec, a, length, stride, pk, nbytes, a.s0 + b.s0 - s0)
                      * ref_image(spec, b, length, stride, pk, nbytes, 0))
        coords = _from_int(total & ((1 << (8 * nbytes * count)) - 1), count, nbytes)
    zero = (0,) * e
    shifts, units = [], []
    for k, m in enumerate(labels):
        if m is None:
            shifts.append(0)
            units.append(zero)
        elif coords is None or m <= s0:
            shifts.append(m)
            units.append(zero)
        else:
            s, u = _canon(spec, s0, coords[k * stride:(k + 1) * stride], m)
            shifts.append(s)
            units.append(u)
    return USeries(spec, tuple(shifts), tuple(units), tuple(labels), cap)


def kernel_series(rng, spec, n):
    """n coefficients of dot_coeff's kinds, mostly visible, or labels high
    enough for long Kronecker slots at times; a polynomial, or capped at
    or past its end."""
    cs = [dot_coeff(rng, spec) if rng.random() < 0.8
          else random_coeff(rng, spec, rng.choice((0, -3))) for _ in range(n)]
    poly = USeries.make(spec, cs)
    if rng.random() < 0.4:
        return poly
    return with_cap(poly, n + rng.choice((0, 0, 1, 4, 9)))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)), seed=st.integers(0, 10 ** 9))
def test_kernel_matches_its_first_form(name, seed):
    # 1-6 pairs of series with negative shifts, zeros at labels (below 0
    # at times) and capped tails, against series or FElements, one series
    # at times in two pairs; each sum at two lengths up to 60, the second
    # reading the operands the first one cached
    spec = SPECS[name]
    rng = random.Random(seed)
    size = rng.choice((3, 12, 30, 60))
    pool = [kernel_series(rng, spec, rng.randint(1, size)) for _ in range(4)]
    pairs = []
    for _ in range(rng.randint(1, 6)):
        x = rng.choice(pool) if rng.random() < 0.3 else kernel_series(
            rng, spec, rng.randint(1, size))
        y = (dot_coeff(rng, spec) if rng.random() < 0.35
             else kernel_series(rng, spec, rng.randint(1, size)))
        pairs.append((x, y))
    for length in (rng.randint(1, 60), rng.randint(1, 60)):
        cap = rng.choice((None, length))
        got = series._sum_products(spec, pairs, length, cap)
        assert fields_of(got) == fields_of(
            reference_sum_products(spec, pairs, length, cap))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_reads_back_every_valuation(name):
    # a product whose coefficient k is 7 pi^k + pi^(k+20): every valuation
    # 0..11 above the least shift, each well below its label, so the
    # read-back divides out p^k (and over Z3-6, where pi = 3 * -2, the
    # unit also by (-2)^k)
    spec = SPECS[name]
    pi = FElement.make(OFElement.from_coords(spec, [0, 1] if spec.e_F > 1 else [
        -spec.eisenstein[0]], 60), 0)
    seven = FElement.from_int(spec, 7, 60)
    x = USeries.make(spec, [pi ** k * seven + pi ** (k + 20) for k in range(12)])
    one = USeries.one(spec, absprec=60)
    for y in (one, one.constant()):
        got = series._sum_products(spec, [(x, y)], 12, None)
        assert fields_of(got) == fields_of(
            reference_sum_products(spec, [(x, y)], 12, None))
        assert got.shifts == tuple(range(12))
        assert got == x


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
    if _block_size(len(h)) == 1 and h.is_integral():
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


def refutations(rng, h: USeries, g: USeries, result: USeries) -> set:
    """The n at which one of 24 refinements of h and g composes to a value
    that coefficient n of result, at its label, does not allow."""
    length = len(result) + 2
    out = set()
    for _ in range(24):
        exact = horner_compose(refine(rng, h, length, False),
                               refine(rng, g, length, True))
        for n in range(len(result)):
            c, want = result.coeff(n), exact.coeff(n)
            if c.label is not None and not c.congruent(
                    want, min(c.label, want.absprec)):
                out.add(n)
    return out


def refuted(rng, h: USeries, g: USeries, result: USeries, n: int) -> bool:
    return n in refutations(rng, h, g, result)


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


def short_inner(rng, spec) -> USeries:
    """A capped g of at most 5 coefficients, g(0) exactly 0, whose others
    are zeros at labels (below 0 at times) or dot_coeff's values."""
    cs = [FElement.zero(spec)] + [
        FElement.zero_at(spec, rng.randint(-3, 6)) if rng.random() < 0.5
        else dot_coeff(rng, spec) for _ in range(rng.randint(1, 4))]
    return with_cap(USeries.make(spec, cs), len(cs) + rng.choice((0, 0, 1)))


def test_short_compositions_with_negative_shifts_do_not_overclaim():
    # an h of 5 or fewer coefficients with a negative shift runs its
    # block-size-1 steps at the result's extent.  No exact composition of
    # refined inputs contradicts a label of s_compose; where a label is
    # below Horner's, one contradicts Horner's value there at times
    rng = random.Random("short-negative-shift")
    cases = horner_refuted = 0
    while cases < 400:
        spec = DOT_SPECS[rng.choice(sorted(DOT_SPECS))]
        h = USeries.make(spec, [dot_coeff(rng, spec) for _ in range(rng.randint(2, 5))])
        g = short_inner(rng, spec)
        if h.is_integral() or g.order() == 0:
            continue
        cases += 1
        new, old, fell = compare_with_horner(h, g)
        if fell or cases % 4 == 0:
            assert not refutations(random.Random(cases), h, g, new)
        if fell:
            horner_refuted += bool(set(fell)
                                   & refutations(random.Random(cases), h, g, old))
    assert horner_refuted > 0


@pytest.mark.parametrize("name", sorted(DOT_SPECS))
def test_compose_all_shares_one_table_per_block_size_and_length(monkeypatch, name):
    # each h(g) is s_compose's, field for field, and no power table of g
    # is formed twice
    spec = DOT_SPECS[name]
    rng = random.Random(f"compose-all/{name}")
    tables = []
    powers = series._powers
    shared = 0
    for _ in range(12):
        g = compose_inner(rng, spec, True)
        hs = [compose_outer(rng, spec, rng.random() < 0.7)
              for _ in range(rng.randint(1, 8))]
        want = [fields_of(s_compose(h, g)) for h in hs]
        tables.clear()
        monkeypatch.setattr(series, "_powers",
                            lambda g, k, n: tables.append((k, n)) or powers(g, k, n))
        assert [fields_of(c) for c in _compose_all(hs, g)] == want
        monkeypatch.undo()
        assert len(tables) == len(set(tables))
        shared += sum(_block_size(len(h)) > 1 or not h.is_integral()
                      for h in hs) - len(tables)
    assert shared > 0


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

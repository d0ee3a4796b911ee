"""The integer product kernel of USeries against the coefficient loop.

reference_mul is the per-coefficient FElement loop that USeries.__mul__
ran before the Kronecker kernel: every live pair a_i * b_j is multiplied
and added, in order of i or in reverse, exact zeros skipped.  The kernel
must return the same FElement tuples (values, shifts and precision
labels) and the same cap on random series over Z_3, Z_5, Z_3[pi] with
pi^2 = 3, and Z_3 with uniformizer -6.
"""

import random

import pytest

from frobkit.scalars import FElement, FieldSpec, OFElement, qp_spec
from frobkit.series import _EXACT_ZERO_PREC, USeries, _exact_zero

SPECS = {
    "Z3": qp_spec(3),
    "Z5": qp_spec(5),
    "Z3pi": FieldSpec(3, (-3, 0, 1)),
    "Z3-6": FieldSpec(3, (6, 1)),  # e_F = 1 with pi = -6, not p
}


def window(x: USeries, length: int) -> list[FElement]:
    cs = list(x.coeffs[:length])
    if len(cs) < length:
        pad = _exact_zero(x.spec) if x.cap is None else FElement.zero_at(x.spec, 0)
        cs += [pad] * (length - len(cs))
    return cs


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
    live = lambda c: not (c.is_zero_at_prec() and c.absprec >= _EXACT_ZERO_PREC)
    av = [(i, c) for i, c in enumerate(window(x, length)) if live(c)]
    bv = [(j, c) for j, c in enumerate(window(y, length)) if live(c)]
    out = [_exact_zero(x.spec)] * length
    for i, ca in (reversed(av) if reverse else av):
        for j, cb in bv:
            if i + j >= length:
                break
            out[i + j] = out[i + j] + ca * cb
    return USeries(x.spec, tuple(out), cap)


def random_coeff(rng, spec, min_shift):
    kind = rng.random()
    if kind < 0.12:
        return _exact_zero(spec)
    if kind < 0.25:
        # zero-at-precision placeholders, label-0 tails among them
        return FElement.zero_at(spec, rng.choice((0, 0, 1, 3, 8, 15)))
    prec = rng.randint(1, 20)
    coords = [rng.randrange(spec.p ** 25) for _ in range(spec.e_F)]
    unit = OFElement.from_coords(spec, coords, prec)
    return FElement.make(unit, rng.randint(min_shift, 4))


def random_series(rng, spec, min_shift):
    n = rng.randint(1, 24)
    cs = [random_coeff(rng, spec, min_shift) for _ in range(n)]
    kind = rng.random()
    if kind < 0.35:
        return USeries(spec, tuple(cs), None)
    # a cap past the stored coefficients reads as label-0 unknown tails
    cap = n + rng.choice((0, 0, 0, 2, 5))
    return USeries(spec, tuple(cs), cap)


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
    zeros = USeries(spec, (FElement.zero_at(spec, 4), _exact_zero(spec),
                           FElement.zero_at(spec, 0)), 3)
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

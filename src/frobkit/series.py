"""Truncated power series in u over F, with the Frobenius lift u -> f(u).

A USeries stores coefficients c_0..c_{L-1} as FElements.  cap = None means
the remaining coefficients are exactly zero (the series is a polynomial);
cap = L means coefficients of u^L and beyond are unknown integral tails.
Unknown tails enter arithmetic as explicit zero-at-absprec-0 placeholders,
so the scalar precision labels of every output coefficient degrade honestly
instead of silently overclaiming.  In particular dividing by an Eisenstein
E(u) and multiplying back round-trips with believable labels.

The u-adic order used in cap propagation is the visible order: the index of
the first coefficient distinguishable from zero at its recorded precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb
from operator import add

from .errors import IndeterminateError
from .scalars import (
    DEFAULT_PREC,
    AtLeast,
    FElement,
    FieldSpec,
    OFElement,
    OFExact,
    _pk,
    _reduce_poly,
)

# absprec sentinel for coefficients that are exactly zero
_EXACT_ZERO_PREC = 10 ** 6


def _exact_zero(spec: FieldSpec) -> FElement:
    return FElement.zero_at(spec, _EXACT_ZERO_PREC)


def _as_felement(spec: FieldSpec, c, absprec: int) -> FElement:
    if isinstance(c, FElement):
        return c
    if isinstance(c, OFElement):
        return FElement.make(c)
    ex = c if isinstance(c, OFExact) else OFExact.make(spec, c)
    if ex.is_zero():
        return _exact_zero(spec)
    return FElement.from_exact(ex, absprec)


# --- the series product kernel ------------------------------------------------
#
# Coefficient k of a product is the sum over i + j = k of a_i * b_j, with
# exact zeros skipped and every other term, zero-at-precision placeholders
# included, entering the label.  The label of a_i * b_j is
# min(N_a_i + v(b_j), N_b_j + v(a_i)) (N the label, v the valuation, v = N
# for a zero), below 0 as well as above; the label of a sum is the least
# label of its terms.  So the labels come from a min-plus pass on plain
# ints, and the values from one Kronecker-packed integer product.

# label and valuation of an exact zero inside the min-plus pass: a pair with
# one sums to more than the exact-zero label (real labels are far below
# 2^27), so it never lowers an output label, as if the pair were skipped
_SKIPPED = 1 << 28


def _kernel_inputs(x: "USeries", length: int):
    """Labels, valuations and nonzero (index, shift, unit vec) of the first
    length coefficients of x, padded as USeries.coeff pads."""
    labels, vals, nonzero = [], [], []
    for i, c in enumerate(x.coeffs[:length]):
        unit, shift = c.unit, c.shift
        n = unit.prec + shift
        if any(unit.vec):
            labels.append(n)
            vals.append(shift)
            nonzero.append((i, shift, unit.vec))
        elif n >= _EXACT_ZERO_PREC:
            labels.append(_SKIPPED)
            vals.append(_SKIPPED)
        else:
            labels.append(n)
            vals.append(n)
    pad = length - len(labels)
    if pad > 0:
        # past the list: exact zeros, or label-0 unknown tails under a cap
        n = _SKIPPED if x.cap is None else 0
        labels += [n] * pad
        vals += [n] * pad
    return labels, vals, nonzero


def _product_labels(na, va, nb, vb) -> list[int]:
    """min over i + j = k of min(na_i + vb_j, va_i + nb_j), capped at the
    exact-zero label (the value of an empty sum)."""
    live_a = [i for i, n in enumerate(na) if n != _SKIPPED]
    live_b = [j for j, n in enumerate(nb) if n != _SKIPPED]
    if len(live_a) < len(live_b):
        na, va, nb, vb, live_b = nb, vb, na, va, live_a
    out = [_EXACT_ZERO_PREC] * len(na)
    for j in live_b:
        rest = len(na) - j
        out[j:] = map(min, out[j:], map(add, na, repeat(vb[j], rest)),
                      map(add, va, repeat(nb[j], rest)))
    return out


def _pack(spec: FieldSpec, nonzero, s0: int, length: int, stride: int,
          pk: int, nbytes: int) -> int:
    """Kronecker image of sum_i pi^(shift_i - s0) unit_i u^i: coordinate r
    of coefficient i, reduced mod pk, in slot i*stride + r of nbytes."""
    slots = [0] * (length * stride)
    pi = -spec.eisenstein[0]  # the uniformizer itself when e_F = 1
    for i, shift, vec in nonzero:
        t = shift - s0
        if t and stride == 1:
            vec = (vec[0] * pow(pi, t, pk),)
        elif t:
            vec = _reduce_poly(spec, [0] * t + list(vec))
        for r, c in enumerate(vec):
            slots[i * stride + r] = c % pk
    return int.from_bytes(
        b"".join(c.to_bytes(nbytes, "little") for c in slots), "little")


def _product(x: "USeries", y: "USeries", length: int) -> tuple[FElement, ...]:
    """Coefficients 0..length-1 of x*y, identical to summing the FElement
    products x_i * y_j in any order."""
    spec = x.spec
    e = spec.e_F
    na, va, nza = _kernel_inputs(x, length)
    nb, vb, nzb = _kernel_inputs(y, length)
    labels = _product_labels(na, va, nb, vb)
    coords = None
    if nza and nzb:
        s0a = min(s for _, s, _ in nza)
        s0b = min(s for _, s, _ in nzb)
        s0 = s0a + s0b
        # a nonzero term of coefficient k bounds its label m_k, so working
        # mod p^K with e*K >= m_k - s0 loses nothing wherever there is one;
        # where there is none the sum is exactly 0
        digits = min(
            max(na[i] for i, _, _ in nza) - s0a + max(s for _, s, _ in nzb) - s0b,
            max(s for _, s, _ in nza) - s0a + max(nb[j] for j, _, _ in nzb) - s0b)
        pk = _pk(spec.p, max(-(-digits // e), 1))  # p^K
        stride = 2 * e - 1
        bits = 2 * (pk - 1).bit_length() + (min(len(nza), len(nzb)) * e).bit_length()
        nbytes = (bits + 7) // 8
        prod = (_pack(spec, nza, s0a, length, stride, pk, nbytes)
                * _pack(spec, nzb, s0b, length, stride, pk, nbytes))
        raw = prod.to_bytes(2 * length * stride * nbytes, "little")
        width = stride * nbytes
        coords = [
            [int.from_bytes(raw[k * width + r * nbytes:k * width + (r + 1) * nbytes],
                            "little") for r in range(stride)]
            for k in range(length)
        ]
    out = []
    zeros = {}
    for k, m in enumerate(labels):
        if coords is None or m <= s0 or not any(coords[k]):
            if m not in zeros:
                zeros[m] = FElement.zero_at(spec, m)
            out.append(zeros[m])
        else:
            prec = m - s0
            if e == 1:  # _norm without its reduction mod g
                unit = OFElement(spec, prec, (coords[k][0] % _pk(spec.p, prec),))
            else:
                unit = OFElement._norm(spec, prec, coords[k])
            out.append(FElement.make(unit, s0))
    return tuple(out)


@dataclass(frozen=True, slots=True)
class USeries:
    """Power series truncated at order cap (None: exactly a polynomial)."""

    spec: FieldSpec
    coeffs: tuple[FElement, ...]
    cap: int | None

    @classmethod
    def make(cls, spec: FieldSpec, coeffs, cap: int | None = None,
             absprec: int = DEFAULT_PREC) -> "USeries":
        cs = [_as_felement(spec, c, absprec) for c in coeffs]
        if cap is None:
            if not cs:
                cs = [_exact_zero(spec)]
            return cls(spec, tuple(cs), None)
        if len(cs) > cap:
            cs = cs[:cap]
        while len(cs) < cap:
            cs.append(FElement.zero_at(spec, absprec))
        return cls(spec, tuple(cs), cap)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "USeries":
        return cls.make(spec, [0])

    @classmethod
    def one(cls, spec: FieldSpec, absprec: int = DEFAULT_PREC) -> "USeries":
        return cls.make(spec, [1], absprec=absprec)

    @classmethod
    def u_pow(cls, spec: FieldSpec, k: int, absprec: int = DEFAULT_PREC) -> "USeries":
        return cls.make(spec, [0] * k + [1], absprec=absprec)

    def __len__(self) -> int:
        return len(self.coeffs)

    def coeff(self, n: int) -> FElement:
        """Coefficient of u^n; beyond the list it is an exact zero for
        polynomials and a fully unknown integral tail otherwise."""
        if n < len(self.coeffs):
            return self.coeffs[n]
        if self.cap is None:
            return _exact_zero(self.spec)
        return FElement.zero_at(self.spec, 0)

    def constant(self) -> FElement:
        return self.coeff(0)

    def order(self) -> int | None:
        """Index of the first coefficient visible at its precision."""
        for n, c in enumerate(self.coeffs):
            if any(c.unit.vec):  # c.is_zero_at_prec(), inlined: a hot path
                return n
        return None

    def _order_for_cap(self) -> int:
        v = self.order()
        if v is not None:
            return v
        return len(self.coeffs) if self.cap is None else self.cap

    def is_zero_at_prec(self) -> bool:
        return self.order() is None

    def is_integral(self) -> bool:
        return all(c.is_integral() for c in self.coeffs)

    def truncate(self, cap: int) -> "USeries":
        """Weaken to a capped series of order precision cap."""
        if self.cap is not None and self.cap <= cap:
            return self
        cs = [self.coeff(n) for n in range(cap)]
        return USeries(self.spec, tuple(cs), cap)

    def __add__(self, other: "USeries") -> "USeries":
        caps = [c for c in (self.cap, other.cap) if c is not None]
        if not caps:
            length = max(len(self.coeffs), len(other.coeffs))
            cap = None
        else:
            cap = length = min(caps)
        cs = tuple(self.coeff(n) + other.coeff(n) for n in range(length))
        return USeries(self.spec, cs, cap)

    def __neg__(self) -> "USeries":
        return USeries(self.spec, tuple(-c for c in self.coeffs), self.cap)

    def __sub__(self, other: "USeries") -> "USeries":
        return self + (-other)

    def __mul__(self, other: "USeries | FElement") -> "USeries":
        if isinstance(other, FElement):
            return self.scalar_mul(other)
        if self.cap is None and other.cap is None:
            length = len(self.coeffs) + len(other.coeffs) - 1
            cap = None
        else:
            cands = []
            if self.cap is not None:
                cands.append(self.cap + other._order_for_cap())
            if other.cap is not None:
                cands.append(other.cap + self._order_for_cap())
            cap = length = min(cands)
        return USeries(self.spec, _product(self, other, length), cap)

    def scalar_mul(self, c) -> "USeries":
        c = _as_felement(self.spec, c, DEFAULT_PREC)
        return USeries(self.spec, tuple(c * x for x in self.coeffs), self.cap)

    def times_u(self, k: int) -> "USeries":
        cs = (_exact_zero(self.spec),) * k + self.coeffs
        cap = None if self.cap is None else self.cap + k
        return USeries(self.spec, cs, cap)

    def div_u(self, k: int) -> "USeries":
        """Exact division by u^k; the dropped low coefficients must be zero
        at their precision and are trusted to be exactly zero."""
        if any(not c.is_zero_at_prec() for c in self.coeffs[:k]):
            raise ValueError("series not divisible by u^k")
        cs = self.coeffs[k:]
        if not cs:
            cs = (_exact_zero(self.spec),)
        cap = None if self.cap is None else max(self.cap - k, 1)
        return USeries(self.spec, cs, cap)

    def to_json(self) -> dict:
        cs = [c.cap_absprec(min(c.absprec, 64)).to_json() for c in self.coeffs]
        return {"coeffs": cs, "cap": self.cap}

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if not c.is_zero_at_prec():
                terms.append(f"({c.unit.vec}*pi^{c.shift})u^{n}")
        tail = "" if self.cap is None else f" + O(u^{self.cap})"
        return "USeries[" + (" + ".join(terms) or "0") + tail + "]"


def s_mul(a: USeries, b: USeries) -> USeries:
    return a * b


def s_compose(h: USeries, g: USeries) -> USeries:
    """h(g(u)) by Horner; g must have constant term zero at precision."""
    if not g.constant().is_zero_at_prec():
        raise ValueError("composition needs g(0) = 0")
    spec = h.spec
    acc = USeries.make(spec, [h.coeff(len(h.coeffs) - 1)])
    for n in range(len(h.coeffs) - 2, -1, -1):
        # acc * g + h_n: only the constant term changes, since adding an
        # exact zero leaves every other coefficient as it is
        prod = acc * g
        cs = list(prod.coeffs)
        cs[0] = cs[0] + h.coeff(n)
        acc = USeries(spec, tuple(cs), prod.cap)
    if h.cap is not None:
        # the unknown tail of h enters at order cap_h * ord(g)
        acc = acc.truncate(h.cap * max(g._order_for_cap(), 1))
    return acc


@dataclass(frozen=True)
class FrobLift:
    """Frobenius lift u -> f(u) = u^p + a_{p-1}u^{p-1} + ... + a_1 u.

    Coefficients are exact; f(u) must reduce to u^p mod pi.
    """

    spec: FieldSpec
    coeffs: tuple[OFExact, ...]  # a_1 .. a_p

    def __post_init__(self) -> None:
        p = self.spec.p
        if len(self.coeffs) != p:
            raise ValueError(f"need coefficients a_1..a_{p}")
        if self.coeffs[-1] != OFExact.one(self.spec):
            raise ValueError("lift must be monic of degree p")
        for i, a in enumerate(self.coeffs[:-1], start=1):
            if not a.is_zero() and (not a.is_integral() or a.val() < 1):
                raise ValueError(f"a_{i} must be divisible by pi")

    @classmethod
    def make(cls, spec: FieldSpec, coeffs) -> "FrobLift":
        return cls(spec, tuple(c if isinstance(c, OFExact) else OFExact.make(spec, c)
                               for c in coeffs))

    @property
    def a1(self) -> OFExact:
        return self.coeffs[0]

    def as_series(self, absprec: int = DEFAULT_PREC) -> USeries:
        return USeries.make(self.spec, [0, *self.coeffs], absprec=absprec)

    def f0_series(self, absprec: int = DEFAULT_PREC) -> USeries:
        """f(u)/u, exact since f has no constant term."""
        return USeries.make(self.spec, list(self.coeffs), absprec=absprec)

    def to_json(self) -> dict:
        return {"coeffs": [a.to_json() for a in self.coeffs]}

    @classmethod
    def from_json(cls, spec: FieldSpec, obj: dict) -> "FrobLift":
        return cls(spec, tuple(OFExact.from_json(spec, a) for a in obj["coeffs"]))


def frobenius(x: USeries, f: FrobLift, n: int = 1, absprec: int | None = None) -> USeries:
    """phi^n(x): scalars fixed, u replaced by the n-fold iterate of f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if absprec is None:
        absprec = max(
            [c.absprec for c in x.coeffs if not c.is_zero_at_prec()],
            default=DEFAULT_PREC,
        )
        absprec = max(absprec, DEFAULT_PREC) + x.spec.e_F
    fs = f.as_series(absprec)
    for _ in range(n):
        x = s_compose(x, fs)
    return x


@dataclass(frozen=True)
class EisensteinE:
    """Monic E(u) of degree e0 over O_F with E = u^e0 mod pi."""

    spec: FieldSpec
    coeffs: tuple[OFExact, ...]  # c_0 .. c_{e0}, monic

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2 or self.coeffs[-1] != OFExact.one(self.spec):
            raise ValueError("E must be monic of degree >= 1")
        for i, c in enumerate(self.coeffs[:-1]):
            if not c.is_zero() and (not c.is_integral() or c.val() < 1):
                raise ValueError(f"coefficient of u^{i} must be divisible by pi")
        # exact valuation 1 keeps E irreducible, which the height
        # criteria downstream rely on
        if self.coeffs[0].is_zero() or self.coeffs[0].val() != 1:
            raise ValueError("E(0) must have valuation exactly 1")

    @classmethod
    def make(cls, spec: FieldSpec, coeffs) -> "EisensteinE":
        return cls(spec, tuple(c if isinstance(c, OFExact) else OFExact.make(spec, c)
                               for c in coeffs))

    @property
    def e0(self) -> int:
        return len(self.coeffs) - 1

    @property
    def c0(self) -> OFExact:
        return self.coeffs[0]

    def as_series(self, absprec: int = DEFAULT_PREC) -> USeries:
        return USeries.make(self.spec, list(self.coeffs), absprec=absprec)

    def to_json(self) -> dict:
        return {"e0": self.e0, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, spec: FieldSpec, obj: dict) -> "EisensteinE":
        return cls(spec, tuple(OFExact.from_json(spec, c) for c in obj["coeffs"]))


def wdeg(x: USeries) -> int | None:
    """Weierstrass degree: least n with v_F(c_n) = 0; None when the whole
    series vanishes mod pi out to its cap."""
    for n, c in enumerate(x.coeffs):
        if c.val() == 0:
            return n
        if c.is_zero_at_prec() and c.absprec < 1:
            raise IndeterminateError(
                f"coefficient of u^{n} carries no information mod pi"
            )
    return None


def _poly_longdiv(x: USeries, e_coeffs: list[FElement]) -> tuple[USeries, list[FElement]]:
    """Exact-tail division x = q*E + r by monic E, top down."""
    spec = x.spec
    e0 = len(e_coeffs) - 1
    rem = list(x.coeffs)
    qlen = max(len(rem) - e0, 0)
    q = [_exact_zero(spec)] * max(qlen, 1)
    for m in range(qlen - 1, -1, -1):
        c = rem[m + e0]
        q[m] = c
        for i in range(e0 + 1):
            rem[m + i] = rem[m + i] - c * e_coeffs[i]
    return USeries(spec, tuple(q), None), rem[:e0]


def _weierstrass_divide(x: USeries, E: EisensteinE) -> tuple[USeries, list[FElement]]:
    """x = q*E + r with deg r < e0, honest labels under unknown tails.

    For a capped x the quotient is found as the fixed point of
    q -> shift_down(x + q*(u^e0 - E)); u^e0 - E has coefficients divisible
    by pi, so the iteration contracts pi-adically and the placeholder tails
    of x degrade the labels of the top quotient coefficients on their own.
    Coefficient k of the new q depends only on the coefficients above k of
    the old one, so with cap L the fixed point is reached after at most L
    passes and confirmed by pass L + 1.
    """
    spec = x.spec
    e0 = E.e0
    maxp = max((c.absprec for c in x.coeffs), default=DEFAULT_PREC)
    maxp = min(maxp, 4 * DEFAULT_PREC + 16)
    ecoeffs = [
        _as_felement(spec, c, maxp + spec.e_F + 2) for c in E.coeffs
    ]
    if x.cap is None:
        return _poly_longdiv(x, ecoeffs)
    L = x.cap
    d = USeries(spec, tuple(-c for c in ecoeffs[:e0]), None)  # u^e0 - E
    xs = [x.coeff(n) for n in range(L + e0)]  # top e0 entries: unknown tail
    q = [_exact_zero(spec)] * L
    for _ in range(L + 1):
        qd = _product(USeries(spec, tuple(q), None), d, L + e0)
        y = list(map(add, xs, qd))
        q_new = y[e0:]
        if all((a - b).is_zero_at_prec() and a.absprec == b.absprec
               for a, b in zip(q_new, q)):
            break
        q = q_new
    return USeries(spec, tuple(q_new), L), y[:e0]


def _divisible_verdict(rem: list[FElement]) -> bool:
    """True: remainder is zero with >= 1 digit of confidence everywhere.
    False: some coefficient is visibly nonzero.  Otherwise indeterminate."""
    if any(not c.is_zero_at_prec() for c in rem):
        return False
    weak = [c.absprec for c in rem if c.absprec < 1]
    if weak:
        raise IndeterminateError(
            "remainder vanishes only because precision is exhausted"
        )
    return True


def e_divides(x: USeries, E: EisensteinE) -> bool:
    """Single-division verdict: does E divide x at available precision?

    Unlike e_order this never under-reports silently; when the data runs
    out before the remainder can be judged it raises IndeterminateError.
    """
    if x.is_zero_at_prec():
        if any(c.absprec < 1 for c in x.coeffs):
            raise IndeterminateError(
                "series vanishes only because precision is exhausted"
            )
        return True
    if x.cap is not None and x.cap < E.e0 + 1:
        raise IndeterminateError("u-order cap too small to divide by E")
    _, rem = _weierstrass_divide(x, E)
    return _divisible_verdict(rem)


def e_order(x: USeries, E: EisensteinE) -> tuple[int, USeries]:
    """Largest k with E^k | x exactly, together with the cofactor x/E^k."""
    if x.is_zero_at_prec():
        raise ValueError("E-order of a series indistinguishable from zero")
    k = 0
    cof = x
    bound = (len(x.coeffs) if x.cap is None else x.cap) // E.e0
    while k < bound:
        if cof.cap is not None and cof.cap < E.e0 + 1:
            break
        q, rem = _weierstrass_divide(cof, E)
        if not _divisible_verdict(rem):
            break
        trimmed = q if q.cap is None else USeries(
            x.spec, q.coeffs[: q.cap - E.e0], q.cap - E.e0
        )
        k += 1
        cof = trimmed
    return k, cof


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull vertices, x strictly increasing."""

    vertices: tuple[tuple[int, Fraction], ...]

    def slopes(self) -> list[Fraction]:
        vs = self.vertices
        return [
            Fraction(vs[i + 1][1] - vs[i][1], vs[i + 1][0] - vs[i][0])
            for i in range(len(vs) - 1)
        ]

    def to_json(self) -> dict:
        return {
            "vertices": [[x, str(y)] for x, y in self.vertices],
            "slopes": [str(s) for s in self.slopes()],
        }


def newton_hull(points) -> NewtonPolygon:
    """Lower convex hull; lowest y kept per x, collinear interior dropped."""
    best: dict[int, Fraction] = {}
    for x, y in points:
        y = Fraction(y)
        if x not in best or y < best[x]:
            best[x] = y
    if not best:
        raise ValueError("no points to hull")
    pts = sorted(best.items())
    hull: list[tuple[int, Fraction]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only strict right turns: drop collinear middles
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return NewtonPolygon(tuple(hull))


def _gauge_combine(values):
    """Minimum of gauge readings (None = no visible difference): the least
    visible value, unless an AtLeast bound could undercut it."""
    visible = None
    bound = None
    for v in values:
        if v is None:
            continue
        if isinstance(v, AtLeast):
            bound = v.bound if bound is None else min(bound, v.bound)
        else:
            visible = v if visible is None else min(visible, v)
    if visible is None:
        return None if bound is None else AtLeast(bound)
    if bound is not None and bound < visible:
        return AtLeast(bound)
    return visible


def gauge_alpha(x: USeries, e0: int) -> int | AtLeast | None:
    """min_n (v_F(c_n) + floor(n/(e0*p))) over represented coefficients.

    None means every coefficient vanishes at its precision; an AtLeast
    bound is returned when hidden (zero-at-precision) coefficients could
    undercut the visible minimum.
    """
    step = e0 * x.spec.p
    readings = []
    for n, c in enumerate(x.coeffs):
        v = c.val()
        if not isinstance(v, AtLeast):
            readings.append(v + n // step)
        elif v.bound < _EXACT_ZERO_PREC:
            readings.append(AtLeast(v.bound + n // step))
    if x.cap is not None:
        # unknown integral tail could contribute from order cap onward
        readings.append(AtLeast(x.cap // step))
    return _gauge_combine(readings)


def gauge_low(x: USeries, e0: int) -> int | None:
    """Numeric lower bound from gauge_alpha (None = infinity)."""
    w = gauge_alpha(x, e0)
    return w.bound if isinstance(w, AtLeast) else w


# --- named lifts and Eisenstein polynomials ---------------------------------

PRESET_NAMES = ("classical", "cyclotomic", "lubin-tate", "twisted")


def frob_preset(spec: FieldSpec, name: str) -> FrobLift:
    p = spec.p
    if name == "classical":
        return FrobLift.make(spec, [0] * (p - 1) + [1])
    if name == "cyclotomic":
        return FrobLift.make(spec, [comb(p, i) for i in range(1, p + 1)])
    if name == "lubin-tate":
        pi = OFExact.pi(spec)
        return FrobLift.make(spec, [pi] + [OFExact.zero(spec)] * (p - 2)
                             + [OFExact.one(spec)])
    if name == "twisted":
        # (u - p)^(p-1) * u
        cs = [comb(p - 1, j) * (-p) ** (p - 1 - j) for j in range(p)]
        return FrobLift.make(spec, cs)
    raise ValueError(f"unknown preset {name!r}")


def eisenstein_preset(spec: FieldSpec, name: str, e0: int = 1) -> EisensteinE:
    p = spec.p
    if name == "classical":
        return EisensteinE.make(spec, [-p] + [0] * (e0 - 1) + [1])
    if name == "cyclotomic":
        # E = f(u)/u
        return EisensteinE.make(spec, [comb(p, i) for i in range(1, p + 1)])
    if name == "lubin-tate":
        pi = OFExact.pi(spec)
        return EisensteinE.make(spec, [pi] + [0] * (p - 2) + [1])
    if name == "twisted":
        cs = [comb(p - 1, j) * (-p) ** (p - 1 - j) for j in range(p)]
        return EisensteinE.make(spec, [-p, *cs])
    raise ValueError(f"unknown preset {name!r}")

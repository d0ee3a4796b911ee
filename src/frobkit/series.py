"""Truncated power series in u over F, with the Frobenius lift u -> f(u).

A USeries holds coefficients c_0..c_{L-1} as plain ints with jagged
precision (Caruso, Roe, Vaccon, "Tracking p-adic precision", 2014): per
coefficient a shift (v_F(c_n), or the label of a zero), its unit's
coordinates on 1, pi, ..., pi^(e_F-1) (all 0 for a zero), and a label (c_n
is known modulo pi^label; None: c_n is exactly zero).  These are the
fields of the FElement that coeff(n) hands out, exact slots included, and
every operation gives the fields the matching FElement operation would,
by running the same integer arithmetic on them.  cap = None means the
remaining coefficients are exactly zero (the series is a polynomial);
cap = L means coefficients of u^L and beyond are unknown integral tails.
Unknown tails enter arithmetic as label-0 zeros, so the precision labels
of every output coefficient degrade honestly instead of silently
overclaiming.  In particular dividing by an Eisenstein E(u) and
multiplying back round-trips with believable labels.

The u-adic order used in cap propagation is the visible order: the index of
the first coefficient distinguishable from zero at its recorded precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

from .errors import IndeterminateError
from .scalars import (
    DEFAULT_PREC,
    AtLeast,
    FElement,
    FieldSpec,
    OFElement,
    OFExact,
    _add1,
    _canon,
    _dot1,
    _mul1,
    _neg1,
    _pk,
    _times_pi,
)

def _as_felement(spec: FieldSpec, c, absprec: int) -> FElement:
    """An int, Fraction, OFExact, OFElement or FElement coefficient as an
    FElement; exact data is known modulo pi^absprec, and zero stays exact."""
    if isinstance(c, FElement):
        return c
    if isinstance(c, OFElement):
        return FElement.make(c)
    return FElement.from_exact(c if isinstance(c, OFExact) else OFExact.make(spec, c),
                               absprec)


def _flat(spec: FieldSpec, c, absprec: int):
    """(shift, unit, label) of a coefficient, as _as_felement reads it."""
    c = _as_felement(spec, c, absprec)
    return c.low, c.coords, c.label


def _window(x: "USeries", length: int):
    """shifts, units and labels of coefficients 0..length-1 of x, padded
    as coeff pads: exact zeros for a polynomial, label-0 zeros otherwise."""
    pad = length - len(x.labels)
    if pad <= 0:
        return x.shifts[:length], x.units[:length], x.labels[:length]
    fill = None if x.cap is None else 0
    return (x.shifts + (0,) * pad, x.units + ((0,) * x.spec.e_F,) * pad,
            x.labels + (fill,) * pad)


def _series(spec: FieldSpec, triples, cap: int | None) -> "USeries":
    """A series from (shift, unit, label) triples."""
    return USeries(spec, *(zip(*triples) if triples else ((), (), ())), cap)


# --- the series product kernel ------------------------------------------------
#
# One kernel forms every series product and every sum of products
# sum_k x_k * y_k, a plain product being its one-pair call.  Coefficient n
# of the sum is the sum over the pairs and over i + j = n of x_i * y_j,
# with exact zeros skipped and every other term, zero-at-precision
# placeholders included, entering the label.  The label of x_i * y_j is
# min(N_x_i + v(y_j), N_y_j + v(x_i)) (N the label, v the valuation, v = N
# for a zero); the label of a sum is the least label of its terms.  So the
# labels come from one min-plus pass per pair, merged by minimum, and the
# values from one Kronecker product per pair, all aligned to one shift s0
# and summed into one int.  The values are read back in one pass over
# that int's bytes, each coefficient brought to _canon's normal form at
# its label m: at e_F = 1 it is reduced mod p^(m - s0), a zero or a
# p-free value is done, and otherwise gcd(c, p^(m - s0)) = p^v gives the
# valuation at once, the unit being c / p^v (divided by (-w)^v too when
# pi = p*(-w) is not p); at e_F > 1 it goes through _canon.  Every
# _canon of the fold of products and additions reduces modulo a label no
# lower than the final one, so the kernel gives the fields of that fold.
# An FElement factor y is the constant series y, except that x*y keeps
# x's length and cap as scalar_mul does: a capped x shorter than the sum
# reads as label-0 zeros past its end, whatever y is.


class _Live:
    """The live (index, label, valuation) triples of a factor below some
    length, sorted by index; the least and greatest label and valuation
    among them; and, by field width, the packed fields label - least
    label, valuation - least valuation and 1 at their indices."""

    __slots__ = ("entries", "nmin", "nmax", "vmin", "vmax", "packed")

    def __init__(self, entries: list):
        self.entries = entries
        if entries:
            ns = [n for _, n, _ in entries]
            vs = [v for _, _, v in entries]
            self.nmin, self.nmax = min(ns), max(ns)
            self.vmin, self.vmax = min(vs), max(vs)
        self.packed = {}

    def fields(self, nbytes: int) -> tuple[int, int, int]:
        got = self.packed.get(nbytes)
        if got is None:
            top = self.entries[-1][0] + 1
            fn, fv, ones = [0] * top, [0] * top, [0] * top
            for j, n, v in self.entries:
                fn[j], fv[j], ones[j] = n - self.nmin, v - self.vmin, 1
            got = self.packed[nbytes] = (_to_int(fn, nbytes), _to_int(fv, nbytes),
                                         _to_int(ones, nbytes))
        return got


class _Operand:
    """What a product reads of a series, gathered once per series in one
    pass: its length and cap; its live (index, label, valuation) triples,
    and their _Live views below a length; (index, unit * pi^(shift - s0))
    for its nonzero coefficients, s0 being their least shift, the unit as
    an int at e_F = 1 and as coordinates otherwise; their greatest shift
    and label; and its last Kronecker images, by key."""

    __slots__ = ("size", "cap", "live", "views", "aligned", "s0", "top_shift",
                 "top_label", "images")

    def __init__(self, spec: FieldSpec, shifts, units, labels, cap: int | None):
        self.size, self.cap, self.views, self.images = len(labels), cap, {}, {}
        self.live = live = []
        nz = []
        s0 = top_shift = top_label = 0
        for i, m in enumerate(labels):
            if m is None:
                continue
            s = shifts[i]
            live.append((i, m, s))
            u = units[i]
            if u[0]:
                if not nz:
                    s0 = top_shift = s
                    top_label = m
                elif s < s0:
                    s0 = s
                elif s > top_shift:
                    top_shift = s
                if m > top_label:
                    top_label = m
                nz.append((i, s, u))
        self.s0, self.top_shift, self.top_label = s0, top_shift, top_label
        if spec.e_F == 1:
            pi = -spec.eisenstein[0]
            self.aligned = [(i, u[0] * _pk(pi, s - s0) if s > s0 else u[0])
                            for i, s, u in nz]
        else:
            self.aligned = [(i, _times_pi(spec, u, s - s0)) for i, s, u in nz]

    def view(self, length: int, pad: bool = True) -> _Live:
        """The live triples below length, with label-0 zeros past the end
        of a capped series when pad is set."""
        key = (length, pad)
        got = self.views.get(key)
        if got is None:
            live = self.live
            if live and live[-1][0] >= length:
                live = [t for t in live if t[0] < length]
            if pad and self.cap is not None and self.size < length:
                live = live + [(i, 0, 0) for i in range(self.size, length)]
            got = self.views[key] = _Live(live)
        return got


def _operand(x: "USeries") -> _Operand:
    if x._op is None:
        object.__setattr__(x, "_op",
                           _Operand(x.spec, x.shifts, x.units, x.labels, x.cap))
    return x._op


def _to_int(fields: list, nbytes: int) -> int:
    if nbytes == 1:
        return int.from_bytes(bytes(fields), "little")
    return int.from_bytes(b"".join([f.to_bytes(nbytes, "little") for f in fields]),
                          "little")


def _from_int(value: int, count: int, nbytes: int) -> list:
    raw = value.to_bytes(count * nbytes, "little")
    if nbytes == 1:
        return list(raw)
    return [int.from_bytes(raw[k:k + nbytes], "little")
            for k in range(0, count * nbytes, nbytes)]


@lru_cache(maxsize=64)
def _swar_masks(length: int, nbytes: int) -> tuple[int, int]:
    """The guard bits (the top bit of every field) and the bits below them."""
    guard = int.from_bytes((bytes(nbytes - 1) + b"\x80") * length, "little")
    return guard, guard - int.from_bytes((b"\x01" + bytes(nbytes - 1)) * length,
                                         "little")


def _product_labels(pairs: list, length: int) -> list:
    """Labels of coefficients 0..length-1 of a sum of products, one pair of
    _Live views (a, b) per product: the least min(N_i + v_j, v_i + N_j)
    over live i + j = k of any pair, None for none.  Each term t is stored
    as K - t >= 1 in a w-bit field of a big int (0: no term), with one K
    for all pairs.  With r_i = N_i - v_i, K - t = B(r_i)_j - (v_i - v_a)
    for v_a the least v_i of a, where B(r) is the fieldwise maximum of
    (K - v_a - r - v_j) and (K - v_a - N_j): multiples of b's ones less its
    packed valuations or labels.  B is formed once per r among a's triples,
    and fields merge by a maximum taken on all fields at once (SIMD within
    a register, the top bit of a field a guard bit)."""
    pairs = [(a, b) if len(a.entries) <= len(b.entries) else (b, a)
             for a, b in pairs if a.entries and b.entries]
    if not pairs:
        return [None] * length
    K = max(max(a.nmax + b.vmax, a.vmax + b.nmax) for a, b in pairs) + 1
    # every field lies in 1..K - v_a - v_b (r >= 0 and v_j <= N_j)
    top = max(K - a.vmin - b.vmin for a, b in pairs)
    nbytes = (top.bit_length() + 8) // 8
    w = 8 * nbytes
    guard, low = _swar_masks(length, nbytes)
    top_bit = w - 1
    # max(x, y) fieldwise: d = (x | guard) - y holds x - y in the fields
    # where its guard bit survives, that is where x >= y, and the maximum
    # is y plus d masked to those fields.  Fields past length may collect
    # garbage, since a carry only moves up; out is masked at the end.
    out = 0
    for a, b in pairs:
        pn, pv, lb = b.fields(nbytes)
        va = a.vmin
        x0 = (K - va - b.vmin) * lb - pv
        y0 = (K - va - b.nmin) * lb - pn
        by_r = {}
        for i, n, v in a.entries:
            r = n - v
            y = by_r.get(r)
            if y is None:
                d = ((x0 - r * lb) | guard) - y0
                g = d & guard
                y = by_r[r] = y0 + (d & (g - (g >> top_bit)))
            if v != va:
                y -= (v - va) * lb
            y <<= w * i
            d = (out | guard) - y
            g = d & guard
            out = y + (d & (g - (g >> top_bit)))
    return [K - f if f else None for f in _from_int(out & low, length, nbytes)]


def _image(spec: FieldSpec, op: _Operand, length: int, stride: int, pk: int,
           nbytes: int, t: int) -> int:
    """Kronecker image of the aligned units of an operand below length, each
    times pi^t: coordinate r of coefficient i, reduced mod pk, in slot
    i*stride + r of nbytes, the bytes of every slot joined from one list.
    The last few images are kept, since a Horner step or a matrix row
    reuses them."""
    key = (length, pk, nbytes, t)
    image = op.images.get(key)
    if image is not None:
        return image
    aligned = op.aligned
    if aligned[-1][0] >= length:
        aligned = [a for a in aligned if a[0] < length]
    slots = [bytes(nbytes)] * ((aligned[-1][0] + 1) * stride)
    if stride == 1:
        if t:
            q = _pk(-spec.eisenstein[0], t)  # pi^t
            for i, c in aligned:
                slots[i] = (c * q % pk).to_bytes(nbytes, "little")
        else:
            for i, c in aligned:
                slots[i] = (c % pk).to_bytes(nbytes, "little")
    else:
        for i, vec in aligned:
            if t:
                vec = _times_pi(spec, vec, t)
            i *= stride
            for r, c in enumerate(vec):
                slots[i + r] = (c % pk).to_bytes(nbytes, "little")
    image = int.from_bytes(b"".join(slots), "little")
    if len(op.images) >= 4:
        op.images.clear()
    op.images[key] = image
    return image


# p^0, p^1, ... for each p in use, and the exponent of each such power,
# filled as far as a product needs them: a gcd with p^k is p^v, and its
# exponent v is one lookup
_P_POWERS: dict[int, list[int]] = {}
_P_EXPONENT: dict[int, int] = {}


def _p_powers(p: int, k: int) -> list[int]:
    """p^0, ..., p^k (and perhaps more)."""
    pows = _P_POWERS.setdefault(p, [1])
    while len(pows) <= k:
        _P_EXPONENT[pows[-1] * p] = len(pows)
        pows.append(pows[-1] * p)
    return pows


@lru_cache(maxsize=None)
def _unit_divisor(p: int, w: int, v: int, k: int) -> int:
    """(-w)^-v mod p^k: dividing by pi^v = p^v (-w)^v, at e_F = 1."""
    return pow(-w, -v, _pk(p, k))


def _sum_products(spec: FieldSpec, pairs, length: int,
                  cap: int | None) -> "USeries":
    """Coefficients 0..length-1 of sum x*y over the (x, y) in pairs, x a
    USeries and y a USeries or an FElement: identical to adding up the
    FElement products x_i * y_j of every pair in any order (an exact
    product adds nothing), each x*y read as its window of length."""
    e = spec.e_F
    label_pairs, value_pairs = [], []
    for x, y in pairs:
        opa = _operand(x)
        if isinstance(y, FElement):
            opb = _Operand(spec, (y.low,), (y.coords,), (y.label,), None)
            label_pairs.append((opa.view(length, pad=False), opb.view(length)))
            if x.cap is not None and len(x.labels) < length:
                # the unknown tail of x stays a label-0 zero, as scalar_mul
                # and the window of its product leave it
                tail = [(i, 0, 0) for i in range(len(x.labels), length)]
                label_pairs.append((_Live(tail), _Live([(0, 0, 0)])))
        else:
            opb = _operand(y)
            label_pairs.append((opa.view(length), opb.view(length)))
        if (opa.aligned and opb.aligned
                and opa.aligned[0][0] + opb.aligned[0][0] < length):
            value_pairs.append((opa, opb))
    labels = _product_labels(label_pairs, length)
    zero = (0,) * e
    if not value_pairs:
        return USeries(spec, tuple(0 if m is None else m for m in labels),
                       (zero,) * length, tuple(labels), cap)
    s0 = min(a.s0 + b.s0 for a, b in value_pairs)
    # a nonzero term of coefficient k bounds its label m_k, so working mod
    # p^K with e*K >= m_k - s0 loses nothing wherever there is one; where
    # there is none the sum is exactly 0
    digits = max(min(a.top_label + b.top_shift, a.top_shift + b.top_label)
                 for a, b in value_pairs) - s0
    p, K = spec.p, max(-(-digits // e), 1)
    pows = _p_powers(p, K)
    pk = pows[K]
    stride = 2 * e - 1
    terms = sum(min(len(a.aligned), len(b.aligned)) for a, b in value_pairs)
    nbytes = (2 * (pk - 1).bit_length() + (terms * e).bit_length() + 7) // 8
    total = 0
    for a, b in value_pairs:
        # the factor with fewer nonzero coefficients takes the alignment
        if len(a.aligned) > len(b.aligned):
            a, b = b, a
        total += (_image(spec, a, length, stride, pk, nbytes, a.s0 + b.s0 - s0)
                  * _image(spec, b, length, stride, pk, nbytes, 0))
    width = nbytes * stride  # the bytes of one output coefficient
    raw = (total & ((1 << (8 * width * length)) - 1)).to_bytes(width * length,
                                                                "little")
    # each coefficient read from its bytes and brought to _canon's normal
    # form at its label m: a zero there, else pi^(s0 + v) times a unit
    shifts, units = [0] * length, [zero] * length  # exact zeros where m is None
    if e == 1:
        w = spec.eisenstein[0] // p  # pi = p*(-w)
        start = 0
        for k, m in enumerate(labels):
            end = start + nbytes
            if m is not None:
                prec = m - s0
                # a nonzero slot has a term, so prec <= K
                c = int.from_bytes(raw[start:end], "little") if prec > 0 else 0
                if c:
                    c %= pows[prec]
                if not c:
                    shifts[k] = m
                elif c % p:
                    shifts[k], units[k] = s0, (c,)
                else:
                    g = gcd(c, pows[prec])
                    v = _P_EXPONENT[g]
                    c //= g
                    if w != -1:
                        c = c * _unit_divisor(p, w, v, prec - v) % pows[prec - v]
                    shifts[k], units[k] = s0 + v, (c,)
            start = end
    else:
        blank = bytes(width)
        for k, m in enumerate(labels):
            if m is None:
                continue
            chunk = raw[k * width:(k + 1) * width]
            if m <= s0 or chunk == blank:
                shifts[k] = m
            else:
                shifts[k], units[k] = _canon(
                    spec, s0, [int.from_bytes(chunk[j:j + nbytes], "little")
                               for j in range(0, width, nbytes)], m)
    return USeries(spec, tuple(shifts), tuple(units), tuple(labels), cap)


def _product(x: "USeries", y: "USeries", length: int,
             cap: int | None) -> "USeries":
    """Coefficients 0..length-1 of x*y: the kernel's one-pair call."""
    return _sum_products(x.spec, ((x, y),), length, cap)


@dataclass(frozen=True, slots=True)
class USeries:
    """Power series truncated at order cap (None: exactly a polynomial)."""

    spec: FieldSpec
    shifts: tuple[int, ...]
    units: tuple[tuple[int, ...], ...]
    labels: tuple[int | None, ...]
    cap: int | None
    _op: _Operand | None = field(default=None, compare=False, repr=False)

    @classmethod
    def make(cls, spec: FieldSpec, coeffs, cap: int | None = None,
             absprec: int = DEFAULT_PREC) -> "USeries":
        cs = [_flat(spec, c, absprec) for c in coeffs]
        if cap is None:
            if not cs:
                cs = [(0, (0,) * spec.e_F, None)]
            return _series(spec, cs, None)
        del cs[cap:]
        cs += [(absprec, (0,) * spec.e_F, absprec)] * (cap - len(cs))
        return _series(spec, cs, cap)

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
        return len(self.labels)

    def coeff(self, n: int) -> FElement:
        """Coefficient of u^n; beyond the list it is an exact zero for
        polynomials and a fully unknown integral tail otherwise."""
        if n < len(self.labels):
            return FElement(self.spec, self.shifts[n], self.units[n], self.labels[n])
        if self.cap is not None:
            return FElement.zero_at(self.spec, 0)
        return FElement.zero(self.spec)

    @property
    def coeffs(self) -> tuple[FElement, ...]:
        return tuple(self.coeff(n) for n in range(len(self.labels)))

    def constant(self) -> FElement:
        return self.coeff(0)

    def order(self) -> int | None:
        """Index of the first coefficient visible at its precision."""
        for n, unit in enumerate(self.units):
            if unit[0]:
                return n
        return None

    def _order_for_cap(self) -> int:
        v = self.order()
        if v is not None:
            return v
        return len(self.labels) if self.cap is None else self.cap

    def is_zero_at_prec(self) -> bool:
        return self.order() is None

    def is_integral(self) -> bool:
        return all(s >= 0 for s, m in zip(self.shifts, self.labels)
                   if m is not None)

    def truncate(self, cap: int) -> "USeries":
        """Weaken to a capped series of order precision cap."""
        if self.cap is not None and self.cap <= cap:
            return self
        return USeries(self.spec, *_window(self, cap), cap)

    def __add__(self, other: "USeries") -> "USeries":
        return self._plus(other, False)

    def __neg__(self) -> "USeries":
        spec = self.spec
        return _series(spec, [_neg1(spec, *t) for t in
                              zip(self.shifts, self.units, self.labels)], self.cap)

    def __sub__(self, other: "USeries") -> "USeries":
        return self._plus(other, True)

    def _plus(self, other: "USeries", negate: bool) -> "USeries":
        """self + other, or self + (-other) in the same pass."""
        caps = [c for c in (self.cap, other.cap) if c is not None]
        if not caps:
            length = max(len(self.labels), len(other.labels))
            cap = None
        else:
            cap = length = min(caps)
        spec = self.spec
        right = zip(*_window(other, length))
        if negate:
            right = (_neg1(spec, *b) for b in right)
        return _series(spec, [_add1(spec, *a, *b)
                              for a, b in zip(zip(*_window(self, length)), right)], cap)

    def __mul__(self, other: "USeries | FElement") -> "USeries":
        if isinstance(other, FElement):
            return self.scalar_mul(other)
        return _product(self, other, *_extent(self, other))

    def scalar_mul(self, c) -> "USeries":
        """c times every coefficient; an exact zero stays exact, and an
        exact c gives exact zeros."""
        spec = self.spec
        c = _flat(spec, c, DEFAULT_PREC)
        return _series(spec, [_mul1(spec, *t, *c) for t in
                              zip(self.shifts, self.units, self.labels)], self.cap)

    def times_u(self, k: int) -> "USeries":
        cap = None if self.cap is None else self.cap + k
        return USeries(self.spec, (0,) * k + self.shifts,
                       ((0,) * self.spec.e_F,) * k + self.units,
                       (None,) * k + self.labels, cap)

    def div_u(self, k: int) -> "USeries":
        """Exact division by u^k; the dropped low coefficients must be zero
        at their precision and are trusted to be exactly zero.  When k
        reaches past the stored coefficients, the result is the single
        coefficient coeff(k): an exact zero for a polynomial, a label-0
        zero (the unknown tail) otherwise."""
        if any(u[0] for u in self.units[:k]):
            raise ValueError("series not divisible by u^k")
        cap = None if self.cap is None else max(self.cap - k, 1)
        if len(self.labels) <= k:
            return _series(self.spec, [_flat(self.spec, self.coeff(k), 0)], cap)
        return USeries(self.spec, self.shifts[k:], self.units[k:],
                       self.labels[k:], cap)

    def to_json(self) -> dict:
        cs = [c.cap_absprec(64).to_json() for c in self.coeffs]
        return {"coeffs": cs, "cap": self.cap}

    def __repr__(self) -> str:
        terms = [f"({u}*pi^{s})u^{n}"
                 for n, (s, u) in enumerate(zip(self.shifts, self.units)) if u[0]]
        tail = "" if self.cap is None else f" + O(u^{self.cap})"
        return "USeries[" + (" + ".join(terms) or "0") + tail + "]"


def _extent(x: USeries, y: "USeries | FElement") -> tuple[int, int | None]:
    """(length, cap) of x*y: x's own for an FElement y, as scalar_mul keeps
    them; the full length of two polynomials; else the least cap_x + ord(y),
    cap_y + ord(x)."""
    if isinstance(y, FElement):
        return len(x.labels), x.cap
    if x.cap is None and y.cap is None:
        return len(x.labels) + len(y.labels) - 1, None
    cands = []
    if x.cap is not None:
        cands.append(x.cap + y._order_for_cap())
    if y.cap is not None:
        cands.append(y.cap + x._order_for_cap())
    cap = min(cands)
    return cap, cap


def s_dot(pairs) -> USeries:
    """sum x*y over the (x, y) in pairs, y a USeries or an FElement, in one
    kernel call: the fields of folding USeries.__add__ over the products,
    in any order.  A sum of two or more terms is a polynomial as long as
    its longest term when every term is one, else capped at the least cap
    of its terms."""
    pairs = list(pairs)
    extents = [_extent(x, y) for x, y in pairs]
    caps = [c for _, c in extents if c is not None]
    if len(pairs) == 1:
        length, cap = extents[0]
    elif caps:
        length = cap = min(caps)
    else:
        length, cap = max(n for n, _ in extents), None
    return _sum_products(pairs[0][0].spec, pairs, length, cap)


def s_mul(a: USeries, b: USeries) -> USeries:
    return a * b


def _block_size(m: int) -> int:
    """The giant step of s_compose for an h of m coefficients: ceil(sqrt(m)),
    or 1 (Horner) where that makes no fewer kernel calls than Horner's
    m - 1.  Blocks of k cost k - 1 powers, one call per block below the
    top one, and one for the top block unless it is a lone constant."""
    k = isqrt(max(m - 1, 0)) + 1
    blocks, top = divmod(max(m - 1, 0), k)
    return k if (k - 1) + blocks + (top > 0) < m - 1 else 1


def _compose_extent(h: USeries, g: USeries) -> tuple[int, int | None]:
    """(length, cap) of h(g) by giant steps.  For a capped g it is the cap
    cap_g + (j - 1) ord(g) of the first visible term h_j g^j (j >= 1; j =
    len(h) when there is none), which Horner's cap equals whenever its
    running sum from h_j on has a visible constant term; for a polynomial
    g, the length of h(g) as a polynomial.  A capped h cuts it at cap_h *
    ord(g), where the unknown tail of h enters."""
    m, r = len(h), g._order_for_cap()
    if g.cap is None:
        length, cap = (m - 1) * (len(g) - 1) + 1, None
    else:
        j = next((j for j in range(1, m) if h.units[j][0]), m)
        length = cap = g.cap + (j - 1) * r
    if h.cap is not None and (cap is None or h.cap * max(r, 1) < cap):
        length = cap = h.cap * max(r, 1)
    return length, cap


def s_compose(h: USeries, g: USeries) -> USeries:
    """h(g(u)); g must have constant term zero at precision.

    Baby steps and giant steps (Paterson, Stockmeyer, SIAM J. Comput. 2,
    1973; Brent, Kung, J. ACM 25, 1978, section 2), with k = _block_size:
    g, ..., g^k are formed once, and from the top block of h down each
    giant step acc * g^k + sum_{0<j<k} h_{ik+j} g^j is one kernel call,
    about 2 sqrt(len(h)) calls in all instead of Horner's len(h) - 1.

    k = 1 is Horner's rule for an integral h, each step acc * g + h_n at
    the length and cap of its product (_extent).  Otherwise every power
    and every step is formed at the length and cap of the result
    (_compose_extent), so that nothing is cut short of it before the end.
    An h with a negative shift takes that path at k = 1 too: Horner cuts
    each running sum at its cap and reads the cut-off tail as integral,
    which it then is not.  The labels follow the evaluation scheme: each
    is honest as any product's is, and a value is congruent to Horner's
    at the lower of the two labels."""
    return _compose_all([h], g)[0]


def _compose_all(hs, g: USeries) -> list[USeries]:
    """[s_compose(h, g) for h in hs], with one power table g, ..., g^k
    for all h of the same block size k and result length."""
    if g.order() == 0:
        raise ValueError("composition needs g(0) = 0")
    tables = {}
    out = []
    for h in hs:
        k = _block_size(len(h))
        if k == 1 and h.is_integral():
            out.append(_compose_powers(h, [g], 1))
            continue
        extent = _compose_extent(h, g)
        key = (k, extent[0])
        if key not in tables:
            tables[key] = _powers(g, k, extent[0])
        out.append(_compose_powers(h, tables[key], k, extent))
    return out


def _powers(g: USeries, top: int, length: int) -> list[USeries]:
    """g, g^2, ..., g^top below u^length, one product each: polynomials
    when g is one and g^top fits below length, else capped at length.  The
    unknown tail of a capped g is held as label-0 zeros up to length, so a
    scalar times g scales it as a product with g does.  g must have
    constant term zero at precision, so a capped power reaches length."""
    if g.cap is not None or top * (len(g) - 1) >= length:
        g = USeries(g.spec, *_window(g, length), length)
    out = [g]
    for _ in range(1, top):
        out.append(_product(out[-1], g, length, g.cap))
    return out


def _compose_powers(h: USeries, powers: list[USeries], k: int | None = None,
                    extent: tuple[int, int | None] | None = None) -> USeries:
    """h(g) from powers = [g, ..., g^k] (see _powers) in blocks of k
    coefficients of h; one block (k >= len(h), powers up to
    g^(len(h) - 1)) by default.  From the top block down, block i is
    h_ik + sum_{0<j<k} h_{ik+j} g^j plus, below the top one, acc * g^k with
    acc the blocks above it: one kernel call at extent (length, cap), or
    at the length and cap s_dot gives its terms when extent is None, and
    h_ik added exactly at u^0.  An exact zero of h adds no term.  The
    unknown tail of a capped h enters at order cap_h * ord(g)."""
    spec = h.spec
    m = len(h)
    k = k or m
    acc = None
    for lo in range(max(m - 1, 0) // k * k, -1, -k):
        terms = [(powers[j - lo - 1], h.coeff(j)) for j in range(lo + 1, min(lo + k, m))
                 if h.labels[j] is not None]
        if acc is not None:
            terms.append((acc, powers[k - 1]))
        if not terms:
            acc = USeries(spec, h.shifts[lo:lo + 1], h.units[lo:lo + 1],
                          h.labels[lo:lo + 1], None)
            continue
        acc = s_dot(terms) if extent is None else _sum_products(spec, terms, *extent)
        c0 = _add1(spec, acc.shifts[0], acc.units[0], acc.labels[0],
                   h.shifts[lo], h.units[lo], h.labels[lo])
        acc = USeries(spec, (c0[0],) + acc.shifts[1:], (c0[1],) + acc.units[1:],
                      (c0[2],) + acc.labels[1:], acc.cap)
    if h.cap is not None:
        acc = acc.truncate(h.cap * max(powers[0]._order_for_cap(), 1))
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
        absprec = max((m for u, m in zip(x.units, x.labels) if u[0]),
                      default=DEFAULT_PREC)
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
    for n, (s, u, m) in enumerate(zip(x.shifts, x.units, x.labels)):
        if u[0]:
            if not s:
                return n
        elif m is not None and m < 1:
            raise IndeterminateError(
                f"coefficient of u^{n} carries no information mod pi"
            )
    return None


def _weierstrass_divide(x: USeries, E: EisensteinE) -> tuple[USeries, USeries]:
    """x = q*E + r with deg r < e0, honest labels under unknown tails.

    With d = u^e0 - E, whose coefficients are divisible by pi, q is solved
    from the top down, q_k = x_(k+e0) + sum_(0<j<=e0) d_(e0-j)*q_(k+j), and
    then r_n = x_n + sum_(i<=n) d_i*q_(n-i), each coefficient one _dot1 and
    one _add1.  A polynomial x has L = len(x) - e0 quotient coefficients
    and exact zeros above them.  A capped x has L = cap, and its window of
    L + e0 coefficients reads the unknown tail as label-0 zeros, which
    degrade the labels of the top quotient coefficients on their own.
    """
    spec = x.spec
    e0 = E.e0
    maxp = max((m for m in x.labels if m is not None), default=DEFAULT_PREC)
    Es = E.as_series(maxp + spec.e_F + 2)
    d = [_neg1(spec, *t) for t in zip(Es.shifts[:e0], Es.units[:e0], Es.labels[:e0])]
    rd = d[::-1]
    L = len(x) - e0 if x.cap is None else x.cap
    xs = list(zip(*_window(x, L + e0)))
    q = [(0, (0,) * spec.e_F, None)] * (max(L, 0) + e0)
    for k in range(L - 1, -1, -1):
        q[k] = _add1(spec, *xs[k + e0], *_dot1(spec, q[k + 1:k + 1 + e0], rd))
    r = [_add1(spec, *xs[n], *_dot1(spec, d[:n + 1], q[n::-1]))
         for n in range(min(e0, len(xs)))]
    return (_series(spec, q[:L if x.cap is not None else max(L, 1)], x.cap),
            _series(spec, r, None))


def _divisible_verdict(rem: USeries) -> bool:
    """True: remainder is zero with >= 1 digit of confidence everywhere.
    False: some coefficient is visibly nonzero.  Otherwise indeterminate."""
    if not rem.is_zero_at_prec():
        return False
    if any(m is not None and m < 1 for m in rem.labels):
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
        if any(m is not None and m < 1 for m in x.labels):
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
    bound = (len(x) if x.cap is None else x.cap) // E.e0
    while k < bound:
        if cof.cap is not None and cof.cap < E.e0 + 1:
            break
        q, rem = _weierstrass_divide(cof, E)
        if not _divisible_verdict(rem):
            break
        k += 1
        cof = q if q.cap is None else q.truncate(q.cap - E.e0)
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
    values = [v for v in values if v is not None]
    visible = min((v for v in values if not isinstance(v, AtLeast)), default=None)
    bound = min((v.bound for v in values if isinstance(v, AtLeast)), default=None)
    if bound is not None and (visible is None or bound < visible):
        return AtLeast(bound)
    return visible


def gauge_alpha(x: USeries, e0: int) -> int | AtLeast | None:
    """min_n (v_F(c_n) + floor(n/(e0*p))) over represented coefficients.

    None means every coefficient vanishes at its precision; an AtLeast
    bound is returned when hidden (zero-at-precision) coefficients could
    undercut the visible minimum.
    """
    step = e0 * x.spec.p
    visible = [s + n // step
               for n, (s, u) in enumerate(zip(x.shifts, x.units)) if u[0]]
    hidden = [m + n // step for n, (u, m) in enumerate(zip(x.units, x.labels))
              if m is not None and not u[0]]
    if x.cap is not None:
        # unknown integral tail could contribute from order cap onward
        hidden.append(x.cap // step)
    return _gauge_combine((min(visible, default=None),
                           AtLeast(min(hidden)) if hidden else None))


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

"""Exact arithmetic in O_F = Z_p[pi] for F/Q_p totally ramified.

The field F is described by a monic Eisenstein polynomial g of degree e_F
over Z_p; pi denotes the class of x in Z_p[x]/(g(x)).  The valuation v_F is
normalized so that v_F(pi) = 1, hence v_F(p) = e_F.  The residue field is
F_p by design.

Three element flavours are provided:

* OFExact   -- an exact element of F, held as integer coordinates on the
               basis 1, pi, ..., pi^(e_F-1) over one common denominator.
               No precision; used for master data (lift coefficients,
               Eisenstein polynomials) and for the symbolic Witt-polynomial
               construction and its ghost checks.
* OFElement -- an integral element known modulo pi^prec.  Coefficient i of
               the basis vector is carried modulo p**ceil((prec-i)/e_F).
* FElement  -- pi^low * unit known modulo pi^label, covering F = O_F[1/p]:
               the fields of one USeries coefficient slot, with label None
               for an exact zero.  Its arithmetic runs on those ints; the
               OFElement unit is only a read-only view for the code outside
               this layer.

Multiplication propagates precision with valuation awareness: for a known
mod pi^Na and b known mod pi^Nb the product is known mod
pi^min(Na + vlow(b), Nb + vlow(a)) where vlow is the exact valuation when
finite and the precision bound otherwise.  This is what makes "zero at
precision k" elements behave as honest O(pi^k) error terms downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import IntegralityError, NoRootError, PrecisionError, SpecMismatchError

DEFAULT_PREC = 12


@lru_cache(maxsize=None)
def _pk(p: int, k: int) -> int:
    return p**k


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class AtLeast:
    """Marker for a quantity only known to be >= bound."""

    bound: int

    def __repr__(self) -> str:
        return f">={self.bound}"


@dataclass(frozen=True)
class FieldSpec:
    """A totally ramified F/Q_p given by p and a monic Eisenstein polynomial.

    eisenstein holds g_0..g_{e_F} with g_{e_F} = 1, v_p(g_0) = 1 and
    v_p(g_i) >= 1 for 0 < i < e_F.
    """

    p: int
    eisenstein: tuple[int, ...]
    e_F: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eisenstein", tuple(int(c) for c in self.eisenstein))
        p, g = self.p, self.eisenstein
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if len(g) < 2 or g[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        if g[0] == 0 or _vp_int(g[0], p) != 1:
            raise ValueError("constant term of g must have p-valuation exactly 1")
        for c in g[1:-1]:
            if c != 0 and _vp_int(c, p) < 1:
                raise ValueError("lower coefficients of g must be divisible by p")
        object.__setattr__(self, "e_F", len(g) - 1)

    @property
    def e(self) -> int:
        """v_F(p); equals e_F since F/Q_p is totally ramified."""
        return self.e_F

    def coeff_modulus_exp(self, prec: int, i: int) -> int:
        """Exponent k such that basis coefficient i is carried mod p**k."""
        if prec <= i:
            return 0
        return -((i - prec) // self.e_F)  # ceil((prec - i)/e_F)


@lru_cache(maxsize=None)
def field_spec(p: int, eisenstein: tuple[int, ...]) -> FieldSpec:
    """The FieldSpec of (p, g), one object per pair: elements over specs
    made here pass _check_spec by identity, and caches keyed on the spec
    (witt_polys) hand back coefficients over the very same object."""
    return FieldSpec(p, eisenstein)


def qp_spec(p: int) -> FieldSpec:
    """F = Q_p itself, with pi = p (g = x - p)."""
    return field_spec(p, (-p, 1))


def _check_spec(a, b) -> None:
    if a.spec is not b.spec and a.spec != b.spec:
        raise SpecMismatchError("operands live over different field specs")


def _reduce_poly(spec: FieldSpec, vec: list) -> list:
    """Reduce a coefficient list (any length) modulo g."""
    g, e = spec.eisenstein, spec.e_F
    vec = list(vec)
    for d in range(len(vec) - 1, e - 1, -1):
        c = vec[d]
        if c:
            vec[d] = 0
            for i in range(e):
                vec[d - e + i] -= c * g[i]
    vec = vec[:e]
    while len(vec) < e:
        vec.append(0)
    return vec


def _conv(a, b) -> list:
    """Product of two coordinate vectors as polynomials in pi, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _det(M: list) -> int:
    """Determinant of a square int matrix, by Laplace expansion on row 0
    (1 for the empty matrix)."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def _adjugate(spec: FieldSpec, num) -> tuple[list[int], int]:
    """(adj(M) e_0, det(M)) for M the matrix of multiplication by num on 1,
    pi, ..., pi^(e_F-1), column j being num*pi^j: 1/num has coordinates
    adj(M) e_0 / det(M) (Cramer's rule over Z).  Minors are taken on the
    columns as rows, which leaves every determinant unchanged."""
    cols = [_reduce_poly(spec, [0] * j + list(num)) for j in range(spec.e_F)]
    adj0 = [(-1) ** i * _det([c[1:] for j, c in enumerate(cols) if j != i])
            for i in range(len(cols))]
    return adj0, _det(cols)


def _fraction_in(v, path: str) -> Fraction:
    """An integer or an "a/b" string as a Fraction; ValueError names path."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"{path}: expected an integer or 'a/b' string")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _exact(spec: FieldSpec, num: tuple[int, ...], den: int) -> "OFExact":
    """num/den in lowest terms: den > 0 and gcd(den, *num) = 1."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return OFExact(spec, num, den)


@dataclass(frozen=True, slots=True)
class OFExact:
    """Exact element of F: integer coordinates num on the basis 1, pi, ...,
    pi^(e_F-1) over one denominator den, in lowest terms (den > 0,
    gcd(den, *num) = 1, so zero has den = 1); equality is value equality."""

    spec: FieldSpec
    num: tuple[int, ...]
    den: int = 1

    @classmethod
    def make(cls, spec: FieldSpec, coords) -> "OFExact":
        """From an int or Fraction, or a list of them on 1, pi, pi^2, ...
        (reduced mod g); any other coordinate type raises TypeError."""
        coords = [coords] if isinstance(coords, (int, Fraction)) else list(coords)
        den = 1
        for c in coords:
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"exact coordinates are int or Fraction, not {type(c).__name__}")
            den = math.lcm(den, c.denominator)
        num = _reduce_poly(spec, [c.numerator * (den // c.denominator)
                                  for c in coords])
        return _exact(spec, tuple(num), den)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "OFExact":
        return cls(spec, (0,) * spec.e_F)

    @classmethod
    def one(cls, spec: FieldSpec) -> "OFExact":
        return cls(spec, (1,) + (0,) * (spec.e_F - 1))

    @classmethod
    def pi(cls, spec: FieldSpec) -> "OFExact":
        if spec.e_F == 1:  # pi = -g_0
            return cls(spec, (-spec.eisenstein[0],))
        return cls(spec, (0, 1) + (0,) * (spec.e_F - 2))

    @property
    def vec(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other: "OFExact") -> "OFExact":
        _check_spec(self, other)
        a, b = self.den, other.den
        if a == 1 and b == 1:
            return OFExact(self.spec, tuple(x + y for x, y in zip(self.num, other.num)))
        num = tuple(x * b + y * a for x, y in zip(self.num, other.num))
        return _exact(self.spec, num, a * b)

    def __sub__(self, other: "OFExact") -> "OFExact":
        return self + (-other)

    def __neg__(self) -> "OFExact":
        return OFExact(self.spec, tuple(-c for c in self.num), self.den)

    def __mul__(self, other: "OFExact") -> "OFExact":
        _check_spec(self, other)
        spec = self.spec
        a, b = self.num, other.num
        if len(a) == 1:
            num = (a[0] * b[0],)
        else:
            num = tuple(_reduce_poly(spec, _conv(a, b)))
        den = self.den * other.den
        return OFExact(spec, num) if den == 1 else _exact(spec, num, den)

    def __pow__(self, n: int) -> "OFExact":
        if n < 0:
            return self.inv() ** (-n)
        out = OFExact.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def is_zero(self) -> bool:
        return not any(self.num)

    def val(self) -> int | None:
        """Exact v_F, None for zero."""
        e, p = self.spec.e_F, self.spec.p
        vals = [e * _vp_int(c, p) + i for i, c in enumerate(self.num) if c]
        if not vals:
            return None
        return min(vals) - e * _vp_int(self.den, p)

    def is_integral(self) -> bool:
        # in lowest terms, p | den leaves some coordinate with a p in its
        # denominator
        return self.den % self.spec.p != 0

    def times_pi(self, k: int) -> "OFExact":
        """Multiply by pi^k for any integer k, exactly."""
        if k == 0:
            return self
        if k > 0:
            return self * OFExact.pi(self.spec) ** k
        g, e = self.spec.eisenstein, self.spec.e_F
        # 1/pi = -(g_1 + g_2 pi + ... + pi^(e-1)) / g_0
        inv_pi = _exact(self.spec, tuple(-g[i + 1] for i in range(e)), g[0])
        return self * inv_pi ** (-k)

    def inv(self) -> "OFExact":
        """1/(num/den) = den * adj(M) e_0 / det(M), M the matrix of
        multiplication by num (_adjugate)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        adj0, det = _adjugate(self.spec, self.num)
        return _exact(self.spec, tuple(self.den * c for c in adj0), det)

    def __truediv__(self, other: "OFExact") -> "OFExact":
        return self * other.inv()

    def residue(self) -> int:
        """Image in the residue field F_p (element must be integral)."""
        if not self.is_integral():
            raise IntegralityError("residue of a non-integral element")
        p = self.spec.p
        return self.num[0] * pow(self.den, -1, p) % p

    def to_json(self) -> str | list[str]:
        """The JSON form of exact data: an "a/b" string when e_F = 1, else
        one such string per coordinate."""
        vec = self.vec
        if len(vec) == 1:
            return str(vec[0])
        return [str(c) for c in vec]

    @classmethod
    def from_json(cls, spec: FieldSpec, obj, path: str = "value") -> "OFExact":
        """Inverse of to_json; integers stand for themselves, and a malformed
        entry raises ValueError naming its path."""
        if isinstance(obj, list):
            return cls.make(spec, [_fraction_in(c, f"{path}[{i}]")
                                   for i, c in enumerate(obj)])
        return cls.make(spec, [_fraction_in(obj, path)])

    def at_prec(self, prec: int) -> "OFElement":
        """Materialize as a truncated integral element known mod pi^prec."""
        if not self.is_integral():
            raise IntegralityError("cannot truncate a non-integral element")
        spec = self.spec
        # coordinate 0 has the largest modulus, which every other divides
        k0 = spec.coeff_modulus_exp(prec, 0)
        inv = pow(self.den, -1, spec.p ** k0) if k0 else 0
        ints = []
        for i, c in enumerate(self.num):
            k = spec.coeff_modulus_exp(prec, i)
            ints.append(c * inv % spec.p ** k if k else 0)
        return OFElement(spec, max(prec, 0), tuple(ints))


@dataclass(frozen=True, slots=True)
class OFElement:
    """Integral element of O_F known modulo pi^prec."""

    spec: FieldSpec
    prec: int
    vec: tuple[int, ...]

    @classmethod
    def _norm(cls, spec: FieldSpec, prec: int, coords) -> "OFElement":
        prec = max(prec, 0)
        vec = _reduce_poly(spec, [int(c) for c in coords])
        out = []
        for i, c in enumerate(vec):
            k = spec.coeff_modulus_exp(prec, i)
            out.append(c % _pk(spec.p, k) if k and c else 0)
        return cls(spec, prec, tuple(out))

    @classmethod
    def zero(cls, spec: FieldSpec, prec: int = DEFAULT_PREC) -> "OFElement":
        return _ofelt_zero(spec, max(prec, 0))

    @classmethod
    def one(cls, spec: FieldSpec, prec: int = DEFAULT_PREC) -> "OFElement":
        return cls._norm(spec, prec, [1])

    @classmethod
    def from_int(cls, spec: FieldSpec, n: int, prec: int = DEFAULT_PREC) -> "OFElement":
        return cls._norm(spec, prec, [n])

    @classmethod
    def pi(cls, spec: FieldSpec, prec: int = DEFAULT_PREC) -> "OFElement":
        return cls._norm(spec, prec, [0, 1])

    @classmethod
    def from_coords(cls, spec: FieldSpec, coords, prec: int = DEFAULT_PREC) -> "OFElement":
        return cls._norm(spec, prec, coords)

    def __add__(self, other: "OFElement") -> "OFElement":
        _check_spec(self, other)
        prec = min(self.prec, other.prec)
        return OFElement._norm(
            self.spec, prec, [a + b for a, b in zip(self.vec, other.vec)]
        )

    def __sub__(self, other: "OFElement") -> "OFElement":
        return self + (-other)

    def __neg__(self) -> "OFElement":
        return OFElement._norm(self.spec, self.prec, [-a for a in self.vec])

    def __mul__(self, other: "OFElement") -> "OFElement":
        _check_spec(self, other)
        prec = min(self.prec + other.vlow(), other.prec + self.vlow())
        if prec <= 0:
            return OFElement.zero(self.spec, 0)
        return OFElement._norm(self.spec, prec, _conv(self.vec, other.vec))

    def __pow__(self, n: int) -> "OFElement":
        out = OFElement.one(self.spec, self.prec)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def val(self) -> int | None:
        """Exact v_F if < prec, else None (meaning >= prec)."""
        e, p = self.spec.e_F, self.spec.p
        best = None
        for i, c in enumerate(self.vec):
            if c:
                v = e * _vp_int(c, p) + i
                if best is None or v < best:
                    best = v
        return best

    def vlow(self) -> int:
        v = self.val()
        return self.prec if v is None else v

    def is_zero_at_prec(self) -> bool:
        return not any(self.vec)

    def is_unit(self) -> bool:
        return self.prec >= 1 and self.vec[0] % self.spec.p != 0

    def at_prec(self, prec: int) -> "OFElement":
        if prec > self.prec:
            raise PrecisionError("cannot raise precision of a truncated element")
        return OFElement._norm(self.spec, prec, self.vec)

    def shift_pi(self, k: int) -> "OFElement":
        """Multiply by pi^k (k >= 0), gaining k digits of absolute precision."""
        if k < 0:
            raise ValueError("shift_pi takes k >= 0; use div_pi for division")
        if k == 0:
            return self
        coords = [0] * k + list(self.vec)
        return OFElement._norm(self.spec, self.prec + k, coords)

    def div_pi(self, k: int = 1) -> "OFElement":
        """Divide exactly by pi^k; requires vlow() >= k."""
        if k == 0:
            return self
        if self.vlow() < k:
            raise ValueError("element not divisible by pi^k")
        spec = self.spec
        p, e, g = spec.p, spec.e_F, spec.eisenstein
        w = g[0] // p  # p-adic unit with g_0 = p*w
        vec, prec = list(self.vec), self.prec
        for _ in range(k):
            k0 = spec.coeff_modulus_exp(prec, 0)
            if k0 >= 2:
                mod = p ** (k0 - 1)
                t = (vec[0] % p ** k0) // p
                s = t * pow(w, -1, mod) % mod
            else:
                # no usable information on the carried coefficient
                s = 0
            # value/pi = sum_{i>=1} c_i pi^(i-1) - s*(g_1 + ... + g_e pi^(e-1))
            nxt = [vec[i + 1] - s * g[i + 1] for i in range(e - 1)]
            nxt.append(-s)
            vec, prec = nxt, prec - 1
            if prec <= 0:
                return OFElement.zero(spec, 0)
        return OFElement._norm(spec, prec, vec)

    def residue(self) -> int:
        if self.prec < 1:
            raise PrecisionError("no residue information at precision 0")
        return self.vec[0] % self.spec.p

    def inverse(self) -> "OFElement":
        """Inverse of a unit, exact at the same precision."""
        if not self.is_unit():
            raise PrecisionError("precision exhausted: not a visible unit")
        x = OFElement.from_int(self.spec, pow(self.residue(), -1, self.spec.p), self.prec)
        for _ in range(64):
            err = OFElement.one(self.spec, self.prec) - self * x
            if err.is_zero_at_prec():
                return x
            x = x + x * err
        raise ArithmeticError("unit inversion failed to converge")

    def digits(self) -> tuple[int, ...]:
        """Base-pi digit expansion d_0..d_{prec-1}, each in 0..p-1."""
        prec = self.prec
        if self.is_zero_at_prec():
            return (0,) * prec
        spec = self.spec
        p, e, g = spec.p, spec.e_F, spec.eisenstein
        w = g[0] // p  # p-adic unit with g_0 = p*w
        out = []
        if e == 1:
            # pi = p*(-w): strip a digit, divide by p, then by the unit -w;
            # c is only ever read mod p^(digits left), so mod p^prec is enough
            c, mod = self.vec[0], _pk(p, prec)
            inv = pow(-w, -1, mod)
            for _ in range(prec):
                c, d = divmod(c, p)
                out.append(d)
                if inv != 1:
                    c = c * inv % mod
            return tuple(out)
        # value/pi = sum_{i>=1} c_i pi^(i-1) - t*(g_1 + ... + g_e pi^(e-1))
        # once c_0 = p*w*t, as in div_pi
        vec = list(self.vec)
        w_inv = pow(w, -1, _pk(p, spec.coeff_modulus_exp(prec, 0)))
        for left in range(prec - 1, -1, -1):
            d = vec[0] % p
            out.append(d)
            t = (vec[0] - d) // p * w_inv
            vec = [vec[i + 1] - t * g[i + 1] for i in range(e - 1)] + [-t]
            vec = [c % _pk(p, spec.coeff_modulus_exp(left, i))
                   for i, c in enumerate(vec)]
        return tuple(out)

    def to_json(self) -> dict:
        # trailing zero digits carry nothing beyond prec, so they are dropped
        ds = list(self.digits())
        while ds and ds[-1] == 0:
            ds.pop()
        return {"digits": ds, "prec": self.prec}

    @classmethod
    def from_json(cls, spec: FieldSpec, obj: dict) -> "OFElement":
        prec = int(obj["prec"])
        out = cls.zero(spec, prec)
        for i, d in enumerate(int(x) for x in obj["digits"]):
            out = out + cls.from_int(spec, d, prec - i).shift_pi(i)
        return out


@lru_cache(maxsize=None)
def _ofelt_zero(spec: FieldSpec, prec: int) -> "OFElement":
    return OFElement(spec, prec, (0,) * spec.e_F)


# --- coefficient arithmetic on ints ------------------------------------------
#
# A coefficient as (shift, unit, label): its valuation (the label for a
# zero, 0 for an exact zero), the coordinates of its unit, and its
# precision label (None: exactly zero).  These are the fields of an
# FElement and of a USeries slot, both run their arithmetic on them, and
# _canon brings every result to the one normal form.

def _canon(spec: FieldSpec, s: int, vec, m: int) -> tuple[int, tuple]:
    """(shift, unit) of pi^s * vec known modulo pi^m, vec any integral
    coordinates on 1, pi, pi^2, ...: (m, 0) when it vanishes there, else
    its valuation and its unit reduced as OFElement reduces (whose first
    coordinate is never 0)."""
    prec = m - s
    p, e = spec.p, spec.e_F
    if e > 1:
        ks = [spec.coeff_modulus_exp(prec, i) for i in range(e)]
        vec = [c % _pk(p, k) for c, k in zip(_reduce_poly(spec, vec), ks)]
        if vec[0] % p:
            return s, tuple(vec)
        v = min((e * _vp_int(c, p) + i for i, c in enumerate(vec) if c), default=None)
        if v is None:
            return m, tuple(vec)
        if v:
            # divide by pi^v as div_pi does: with c_0 = p*w*t,
            # value/pi = sum_{i>=1} c_i pi^(i-1) - t*(g_1 + ... + g_e pi^(e-1))
            g = spec.eisenstein
            mod = _pk(p, ks[0])
            w_inv = pow(g[0] // p, -1, mod)
            for _ in range(v):
                t = vec[0] // p * w_inv % mod
                vec = [vec[i + 1] - t * g[i + 1] for i in range(e - 1)] + [-t]
            vec = [c % _pk(p, spec.coeff_modulus_exp(prec - v, i))
                   for i, c in enumerate(vec)]
        return s + v, tuple(vec)
    c = vec[0] % _pk(p, prec) if prec > 0 else 0
    if not c:
        return m, (0,)
    if c % p:
        return s, (c,)
    v = 0
    while not c % p:
        c //= p
        v += 1
    w = spec.eisenstein[0] // p  # pi = -g_0 = p*(-w)
    if w != -1:
        mod = _pk(p, prec - v)
        c = c * pow(-w, -v, mod) % mod
    return s + v, (c,)


def _times_pi(spec: FieldSpec, vec, t: int):
    """vec * pi^t for t >= 0, as coordinates not reduced modulo p."""
    if not t:
        return vec
    if spec.e_F == 1:
        return (vec[0] * _pk(-spec.eisenstein[0], t),)
    return _reduce_poly(spec, [0] * t + list(vec))


def _add1(spec: FieldSpec, s1, u1, n1, s2, u2, n2):
    """The sum of two coefficients: a zero at a label no lower than the
    other's adds nothing, and an exact one (label None) never does."""
    if n1 is None or (not u1[0] and n2 is not None and n1 >= n2):
        return s2, u2, n2
    if n2 is None or (not u2[0] and n2 >= n1):
        return s1, u1, n1
    m = min(n1, n2)
    if not u1[0]:
        return (*_canon(spec, s2, u2, m), m)
    if not u2[0]:
        return (*_canon(spec, s1, u1, m), m)
    s = min(s1, s2)
    vec = [a + b for a, b in zip(_times_pi(spec, u1, s1 - s),
                                 _times_pi(spec, u2, s2 - s))]
    return (*_canon(spec, s, vec, m), m)


def _neg1(spec: FieldSpec, s, u, m):
    if not u[0]:
        return s, u, m
    return (*_canon(spec, s, [-c for c in u], m), m)


def _mul1(spec: FieldSpec, s1, u1, n1, s2, u2, n2):
    """The product of two coefficients: label min(n1 + s2, n2 + s1), and
    exact (label None) when either factor is."""
    if n1 is None or n2 is None:
        return 0, (0,) * spec.e_F, None
    n = min(n1 + s2, n2 + s1)
    if not (u1[0] and u2[0]):
        return n, (0,) * spec.e_F, n
    vec = (u1[0] * u2[0],) if spec.e_F == 1 else _conv(u1, u2)
    return (*_canon(spec, s1 + s2, vec, n), n)


def _dot1(spec: FieldSpec, xs, ys):
    """sum_k x_k * y_k over two sequences of coefficients, the shorter one
    setting the length: what folding _add1 over the _mul1 products gives,
    with one _canon.  Its label is the least product label
    min(n_x + s_y, n_y + s_x) over the pairs with no exact factor (exact
    when every pair has one); its value is one int sum of the products of
    the visible units, aligned to the least shift s0 by pi^(s - s0), brought
    to normal form at that label (a zero there when no pair has two visible
    units).  Every intermediate _canon of the fold reduces modulo a label
    no lower than the final one, so both give the same fields."""
    m = None
    terms = []
    for (s1, u1, n1), (s2, u2, n2) in zip(xs, ys):
        if n1 is None or n2 is None:
            continue
        n = n1 + s2
        if n2 + s1 < n:
            n = n2 + s1
        if m is None or n < m:
            m = n
        if u1[0] and u2[0]:
            terms.append((s1 + s2, u1, u2))
    e = spec.e_F
    if m is None:
        return 0, (0,) * e, None
    # a term at or above the label vanishes there
    terms = [t for t in terms if t[0] < m]
    if not terms:
        return m, (0,) * e, m
    s0 = min(t[0] for t in terms)
    if e == 1:
        q = -spec.eisenstein[0]  # pi
        c = sum(u1[0] * u2[0] * _pk(q, s - s0) for s, u1, u2 in terms)
        return (*_canon(spec, s0, (c,), m), m)
    vec = [0] * (2 * e - 1 + max(t[0] for t in terms) - s0)
    for s, u1, u2 in terms:
        t = s - s0
        for i, x in enumerate(u1):
            if x:
                for j, y in enumerate(u2):
                    vec[t + i + j] += x * y
    return (*_canon(spec, s0, vec, m), m)


def _div1(spec: FieldSpec, s1, u1, n1, s2, u2, n2):
    """The quotient of two coefficients, as the OFElement route
    unit1 * unit2.inverse() at shift s1 - s2 gives it.  The divisor must be
    visible.  An exact dividend stays exact; a zero keeps its own
    precision, label n1 - s2; a visible one has label
    min(n1 - s1, n2 - s2) + s1 - s2.  The inverse of the unit is
    pow(c, -1, p^k) when e_F = 1, else its adjugate column over one
    inverted determinant."""
    if not u2[0]:
        raise PrecisionError("precision exhausted: divisor indistinguishable from 0")
    e = spec.e_F
    if n1 is None:
        return s1, u1, n1
    if not u1[0]:
        m = n1 - s2
        return m, (0,) * e, m
    prec = min(n1 - s1, n2 - s2)
    s = s1 - s2
    if e == 1:
        pk = _pk(spec.p, prec)
        return s, (u1[0] * pow(u2[0], -1, pk) % pk,), prec + s
    pk = _pk(spec.p, spec.coeff_modulus_exp(prec, 0))
    adj0, det = _adjugate(spec, u2)
    d = pow(det, -1, pk)
    return (*_canon(spec, s, _conv(u1, [c * d % pk for c in adj0]), prec + s),
            prec + s)


def _pow1(spec: FieldSpec, s, u, m, n: int):
    """x^n for n >= 0, as the OFElement route unit ** n at shift n * shift
    gives it.  A visible x = pi^s * unit has its unit known modulo
    pi^(m - s), and so has x^n = pi^(n*s) * unit^n.  For a zero at label
    m, x^n is a zero at label n*m when n >= 1, and x^0 is 1 known modulo
    pi^max(m, 0).  The exact zero's powers are exact: 0^n = 0 for n >= 1,
    and 0^0 is the one FElement.one gives."""
    e = spec.e_F
    if m is None:
        if n:
            return s, u, m
        return (*_canon(spec, 0, [1], DEFAULT_PREC), DEFAULT_PREC)
    if not u[0]:
        if n:
            return n * m, (0,) * e, n * m
        return (*_canon(spec, 0, [1], max(m, 0)), max(m, 0))
    prec = m - s
    if e == 1:
        vec = [pow(u[0], n, _pk(spec.p, prec))]
    else:
        pk = _pk(spec.p, spec.coeff_modulus_exp(prec, 0))
        vec, base, k = [1], u, n
        while k:
            if k & 1:
                vec = [c % pk for c in _reduce_poly(spec, _conv(vec, base))]
            k >>= 1
            if k:
                base = [c % pk for c in _reduce_poly(spec, _conv(base, base))]
    return (*_canon(spec, s * n, vec, prec + s * n), prec + s * n)


@dataclass(frozen=True, slots=True)
class FElement:
    """pi^low * unit known modulo pi^label, stored as a USeries slot is:
    low is v_F of the value, or the label of a zero (0 for an exact zero);
    coords are the unit's coordinates, reduced as OFElement reduces them
    (all 0 for a zero); label None means exactly zero."""

    spec: FieldSpec
    low: int
    coords: tuple[int, ...]
    label: int | None

    @classmethod
    def make(cls, unit: OFElement, shift: int = 0) -> "FElement":
        m = unit.prec + shift
        return cls(unit.spec, *_canon(unit.spec, shift, unit.vec, m), m)

    @classmethod
    def from_int(cls, spec: FieldSpec, n: int, prec: int = DEFAULT_PREC) -> "FElement":
        if not isinstance(prec, int):
            raise ValueError(f"precision must be an integer, not {prec!r}")
        return cls.make(OFElement.from_int(spec, n, prec))

    @classmethod
    def one(cls, spec: FieldSpec, prec: int = DEFAULT_PREC) -> "FElement":
        return cls.from_int(spec, 1, prec)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "FElement":
        """The exact zero."""
        return cls(spec, 0, (0,) * spec.e_F, None)

    @classmethod
    def zero_at(cls, spec: FieldSpec, absprec: int) -> "FElement":
        return cls(spec, absprec, (0,) * spec.e_F, absprec)

    @classmethod
    def from_exact(cls, x: OFExact, absprec: int = DEFAULT_PREC) -> "FElement":
        """Materialize an exact element, known modulo pi^absprec; zero stays
        exact."""
        v = x.val()
        if v is None:
            return cls.zero(x.spec)
        if v >= absprec:
            return cls.zero_at(x.spec, absprec)
        return cls(x.spec, v, x.times_pi(-v).at_prec(absprec - v).vec, absprec)

    @property
    def shift(self) -> int:
        """The exponent in unit * pi^shift: v_F of a visible value; for a
        zero, the part of its label below 0."""
        return self.low if self.coords[0] else min(self.label or 0, 0)

    @property
    def unit(self) -> OFElement:
        """The unit, known modulo pi^(absprec - shift); an exact zero reads
        as known modulo pi^0."""
        prec = 0 if self.label is None else self.label - self.shift
        return OFElement(self.spec, prec, self.coords)

    def is_zero_at_prec(self) -> bool:
        return not self.coords[0]

    @property
    def absprec(self) -> int | float:
        """Value is known modulo pi^absprec (math.inf when exact)."""
        return math.inf if self.label is None else self.label

    def val(self) -> int | AtLeast:
        if self.is_zero_at_prec():
            return AtLeast(self.absprec)
        return self.shift

    def vlow(self) -> int:
        return self.low

    def is_integral(self) -> bool:
        """True when the value is in O_F as far as the precision can tell."""
        return self.vlow() >= 0

    def __add__(self, other: "FElement") -> "FElement":
        _check_spec(self, other)
        spec = self.spec
        return FElement(spec, *_add1(spec, self.low, self.coords, self.label,
                                     other.low, other.coords, other.label))

    def __sub__(self, other: "FElement") -> "FElement":
        return self + (-other)

    def __neg__(self) -> "FElement":
        spec = self.spec
        return FElement(spec, *_neg1(spec, self.low, self.coords, self.label))

    def __mul__(self, other: "FElement") -> "FElement":
        _check_spec(self, other)
        spec = self.spec
        return FElement(spec, *_mul1(spec, self.low, self.coords, self.label,
                                     other.low, other.coords, other.label))

    def __truediv__(self, other: "FElement") -> "FElement":
        _check_spec(self, other)
        spec = self.spec
        return FElement(spec, *_div1(spec, self.low, self.coords, self.label,
                                     other.low, other.coords, other.label))

    def __pow__(self, n: int) -> "FElement":
        if n < 0:
            return FElement.one(self.spec, self.unit.prec) / self ** (-n)
        return FElement(self.spec, *_pow1(self.spec, self.low, self.coords,
                                          self.label, n))

    def cap_absprec(self, absprec: int) -> "FElement":
        """Truncate the precision label to at most absprec, or to the
        valuation of a visible value above it."""
        if self.absprec <= absprec:
            return self
        m = max(absprec, self.shift)
        return FElement(self.spec, *_canon(self.spec, self.shift, self.coords, m), m)

    def congruent(self, other: "FElement", k: int) -> bool:
        """True iff self - other is zero mod pi^k (raises if undecidable)."""
        d = self - other
        if d.is_zero_at_prec():
            if d.absprec < k:
                raise PrecisionError(
                    f"cannot compare modulo pi^{k} at absprec {d.absprec}"
                )
            return True
        return d.vlow() >= k

    def to_json(self) -> dict:
        out = self.unit.to_json()
        out["shift"] = self.shift
        return out


# --- spec-level operation names -------------------------------------------

def of_add(a: OFElement, b: OFElement) -> OFElement:
    return a + b


def of_val(a: OFElement) -> int | AtLeast:
    v = a.val()
    return AtLeast(a.prec) if v is None else v


def of_div(a: OFElement, b: OFElement) -> FElement:
    _check_spec(a, b)
    if b.val() is None:
        raise PrecisionError("precision exhausted: divisor indistinguishable from 0")
    return FElement.make(a) / FElement.make(b)


def of_root(a: OFElement, m: int) -> list[OFElement]:
    """All m-th roots of a unit a obtained by Hensel lifting residue roots.

    The list is sorted by residue root, so 1 comes first whenever it is a
    root.  Raises NoRootError when the residue class has no m-th root in
    F_p, and ValueError for p | m (outside the simple Hensel regime; every
    use in this library has m < p).
    """
    p = a.spec.p
    if m < 1:
        raise ValueError("m must be >= 1")
    if a.val() != 0:
        raise ValueError("of_root requires a unit")
    if m % p == 0:
        raise ValueError("p divides m: simple Hensel lifting unavailable")
    r0 = a.residue()
    residue_roots = [r for r in range(1, p) if pow(r, m, p) == r0]
    if not residue_roots:
        raise NoRootError(f"residue {r0} has no {m}-th root in F_{p}")
    lifts = []
    m_el = OFElement.from_int(a.spec, m, a.prec)
    for r in residue_roots:
        x = OFElement.from_int(a.spec, r, a.prec)
        for _ in range(64):
            fx = x ** m - a
            if fx.is_zero_at_prec():
                break
            deriv = m_el * x ** (m - 1)
            x = x - fx * deriv.inverse()
        else:
            raise ArithmeticError("root lifting failed to converge")
        lifts.append(x)
    return lifts

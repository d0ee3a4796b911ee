"""Truncated pi-Witt vectors over a perfected residue model.

The symbolic layer builds the sum/product polynomials S_m, P_m from the
ghost recursion on integer coordinates of O_F (one denominator per
polynomial) and asserts their integrality; witt_polys keeps those integer
pairs and also hands the polynomials out with exact OFExact coefficients.
Every evaluation runs on one pipeline, ints -> tries -> residue tries: each
set's integer pairs are compiled once into nested Horner tries over one
common denominator D, which the ghost self-test evaluates on plain integers
with one power table per variable, comparing D^(p^m)-scaled ghost
coordinates exactly; the same tries with every coefficient reduced to its
F_p residue are what the value layer evaluates.  eval_poly_exact and
ghost_map are the OFExact reference for both.

The value layer evaluates them over PerfSeries, a truncated model of
k[[ubar^(1/p^oo)]]: exponents are rationals with denominator p^J stored as
integers scaled by p^J, coefficients live in F_p.  A value is either exact
(bound None, no unknown tail) or carries a bound below which its
coefficients are trusted; bounds appear only when the exponent ceiling
A_max actually drops terms, mirroring the series layer's honest unknown
tails.

Ghost coordinates w_m(a) = sum_{j<=m} pi^j a_j^(p^(m-j)) only carry
information in the torsion-free symbolic layer; over the char-p model they
collapse, which is why the self-tests lift to exact coefficients before
comparing ghosts.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import BudgetError, IntegralityError
from .scalars import FieldSpec, OFExact, _conv, _exact, _reduce_poly, _vp_int
from .series import EisensteinE, FrobLift

WITT_LENGTH_BOUND = 5
DEFAULT_BUDGET = (6, 32)  # (J root levels, A_max exponent bound)

# symbolic polynomials under construction: a pair (terms, den) of a dict from
# exponent tuples (x_0..x_{n-1}, y_0..y_{n-1}) to integer coordinates of O_F
# (see _Ring) and one denominator for the whole polynomial, in lowest terms
# (den > 0 and gcd(den, every coordinate) = 1, so equal values are equal pairs)
_POLY_TERM_BUDGET = 200_000


class _Ring(NamedTuple):
    """Integer arithmetic in Z[pi]/g: an element is a plain int when
    e_F = 1 and otherwise a tuple of coordinates on 1, pi, ..., pi^(e_F-1)."""

    mul: Callable
    add: Callable
    zero: object
    one: object
    pi: object
    make: Callable    # coordinate tuple -> element
    coords: Callable  # element -> coordinate tuple
    of_int: Callable  # integer -> element


@lru_cache(maxsize=None)
def _ring(spec: FieldSpec) -> _Ring:
    g, e = spec.eisenstein, spec.e_F
    if e == 1:
        return _Ring(operator.mul, operator.add, 0, 1, -g[0],
                     operator.itemgetter(0), lambda c: (c,), int)
    if e == 2:  # pi^2 = -g_1 pi - g_0
        g0, g1 = g[0], g[1]

        def mul(a, b):
            a0, a1 = a
            b0, b1 = b
            t = a1 * b1
            return (a0 * b0 - g0 * t, a0 * b1 + a1 * b0 - g1 * t)
    else:
        def mul(a, b):
            return tuple(_reduce_poly(spec, _conv(a, b)))

    def add(a, b):
        return tuple(map(operator.add, a, b))

    zero = (0,) * e
    return _Ring(mul, add, zero, (1,) + zero[1:], (0, 1) + zero[2:],
                 tuple, tuple, lambda k: (k,) + zero[1:])


def _pi_powers(spec: FieldSpec, n: int) -> list:
    ring = _ring(spec)
    out = [ring.one]
    while len(out) < n:
        out.append(ring.mul(out[-1], ring.pi))
    return out


def _norm(spec: FieldSpec, terms: dict, den: int) -> tuple[dict, int]:
    """(terms, den) in lowest terms."""
    if den == 1:
        return terms, den
    ring = _ring(spec)
    g = math.gcd(den, *(x for c in terms.values() for x in ring.coords(c)))
    if den < 0:
        g = -g
    if g == 1:
        return terms, den
    return {k: ring.make(tuple(x // g for x in ring.coords(c)))
            for k, c in terms.items()}, den // g


def _poly_scale(spec: FieldSpec, a: tuple[dict, int], c) -> tuple[dict, int]:
    """c * a for a nonzero element c."""
    mul = _ring(spec).mul
    terms, den = a
    return _norm(spec, {k: mul(c, v) for k, v in terms.items()}, den)


def _poly_add(spec: FieldSpec, a: tuple[dict, int],
              b: tuple[dict, int]) -> tuple[dict, int]:
    ring = _ring(spec)
    (ta, da), (tb, db) = a, b
    if da != db:
        d = math.lcm(da, db)
        ta = {k: ring.mul(ring.of_int(d // da), c) for k, c in ta.items()}
        tb = {k: ring.mul(ring.of_int(d // db), c) for k, c in tb.items()}
        da = d
    add, zero = ring.add, ring.zero
    out = dict(ta)
    for k, c in tb.items():
        s = out.get(k)
        s = c if s is None else add(s, c)
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s
    return _norm(spec, out, da)


def _poly_mul(spec: FieldSpec, a: tuple[dict, int],
              b: tuple[dict, int]) -> tuple[dict, int]:
    (ta, da), (tb, db) = a, b
    if len(ta) * len(tb) > _POLY_TERM_BUDGET:
        raise BudgetError("Witt polynomial construction exceeds the term budget")
    ring = _ring(spec)
    mul, add, zero = ring.mul, ring.add, ring.zero
    kadd = operator.add
    out: dict = {}
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            k = tuple(map(kadd, ka, kb))
            s = out.get(k)
            s = mul(ca, cb) if s is None else add(s, mul(ca, cb))
            if s == zero:
                out.pop(k, None)
            else:
                out[k] = s
        if len(out) > _POLY_TERM_BUDGET:
            raise BudgetError("Witt polynomial construction exceeds the term budget")
    return _norm(spec, out, da * db)


def _poly_pow(spec: FieldSpec, a: tuple[dict, int], e: int) -> tuple[dict, int]:
    out = None
    base = a
    while e:
        if e & 1:
            out = base if out is None else _poly_mul(spec, out, base)
        e >>= 1
        if e:
            base = _poly_mul(spec, base, base)
    return out if out is not None else ({}, 1)


def _ghost_poly(spec: FieldSpec, n: int, m: int, offset: int) -> tuple[dict, int]:
    """w_m as a polynomial in variables offset..offset+m out of 2n."""
    p = spec.p
    out: dict = {}
    for j, c in enumerate(_pi_powers(spec, m + 1)):
        key = [0] * (2 * n)
        key[offset + j] = p ** (m - j)
        out[tuple(key)] = c
    return out, 1


def _poly_to_exact(spec: FieldSpec, poly: tuple[dict, int]) -> dict:
    coords = _ring(spec).coords
    terms, den = poly
    return {k: _exact(spec, coords(c), den) for k, c in terms.items()}


def _div_pi(spec: FieldSpec, poly: tuple[dict, int], m: int) -> tuple[dict, int]:
    """poly / pi^m, which must be integral: the first coefficient that is not
    is reported with its monomial.  1/pi = -(g_1 + g_2 pi + ...) / g_0."""
    ring = _ring(spec)
    g, p = spec.eisenstein, spec.p
    terms, den = poly
    inv = ring.one
    for _ in range(m):
        inv = ring.mul(inv, ring.make(tuple(-c for c in g[1:])))
    den *= g[0] ** m
    pp = p ** _vp_int(den, p)
    out = {}
    for kk, c in terms.items():
        c = ring.mul(inv, c)
        if any(x % pp for x in ring.coords(c)):
            raise IntegralityError(f"integrality failure at level {m}, monomial {kk}")
        out[kk] = c
    return _norm(spec, out, den)


def eval_poly_exact(poly: dict, point: list[OFExact], spec: FieldSpec) -> OFExact:
    cache: dict[tuple[int, int], OFExact] = {}
    acc = OFExact.zero(spec)
    for key, c in poly.items():
        term = c
        for idx, e in enumerate(key):
            if not e:
                continue
            v = cache.get((idx, e))
            if v is None:
                v = point[idx] ** e
                cache[(idx, e)] = v
            term = term * v
        acc = acc + term
    return acc


def ghost_map(spec: FieldSpec, comps: list[OFExact]) -> list[OFExact]:
    """Exact ghost coordinates of a torsion-free component tuple."""
    p = spec.p
    out = []
    for m in range(len(comps)):
        acc = OFExact.zero(spec)
        for j in range(m + 1):
            acc = acc + OFExact.pi(spec) ** j * comps[j] ** (p ** (m - j))
        out.append(acc)
    return out


@dataclass(frozen=True)
class WittPolySet:
    """S_m and P_m with OFExact coefficients; ints holds the same
    S_0..S_{n-1}, P_0..P_{n-1} as the (terms, den) pairs they were built as."""

    spec: FieldSpec
    length: int
    sums: tuple[dict, ...]
    prods: tuple[dict, ...]
    ints: tuple[tuple[dict, int], ...] = field(compare=False, repr=False)


@lru_cache(maxsize=None)
def witt_polys(n: int, spec: FieldSpec) -> WittPolySet:
    """S_0..S_{n-1} and P_0..P_{n-1} from the ghost recursion.

    pi^m S_m = w_m(x) + w_m(y) - sum_{j<m} pi^j S_j^(p^(m-j)), and the
    product analogue with w_m(x) * w_m(y); a failed exact division is
    reported with the offending monomial.  The recursion runs on integer
    coordinates, which the set keeps; each coefficient also becomes an
    OFExact once, at the end.
    """
    if n < 1 or n > WITT_LENGTH_BOUND:
        raise ValueError(f"Witt length must be within 1..{WITT_LENGTH_BOUND}")
    p = spec.p
    ring = _ring(spec)
    neg_pis = [ring.make(tuple(-x for x in ring.coords(c)))
               for c in _pi_powers(spec, n)]
    sums: list[tuple[dict, int]] = []
    prods: list[tuple[dict, int]] = []
    for m in range(n):
        wx = _ghost_poly(spec, n, m, 0)
        wy = _ghost_poly(spec, n, m, n)
        targets = (_poly_add(spec, wx, wy), _poly_mul(spec, wx, wy))
        for target, acc_list in zip(targets, (sums, prods)):
            rem = target
            for j in range(m):
                rem = _poly_add(spec, rem, _poly_scale(
                    spec, _poly_pow(spec, acc_list[j], p ** (m - j)), neg_pis[j]))
            acc_list.append(_div_pi(spec, rem, m))
    return WittPolySet(spec, n, tuple(_poly_to_exact(spec, s) for s in sums),
                       tuple(_poly_to_exact(spec, s) for s in prods),
                       tuple(sums + prods))


# --- compiled evaluation -----------------------------------------------------

def _trie(terms: dict, nvars: int) -> tuple[tuple[int, ...], tuple]:
    """(order, root): a polynomial as a nested Horner trie.  A node at level
    L holds one (e, child) pair per exponent e of variable order[L] among
    its terms, increasing, where child holds those terms with that variable
    factored out; the children of the last level are the coefficients.  Only
    variables that occur are levels, fewest distinct exponents first so that
    the upper levels stay narrow.  No S_m or P_m is constant."""
    order = tuple(sorted((v for v in range(nvars) if any(k[v] for k in terms)),
                         key=lambda v: len({k[v] for k in terms})))

    def build(items: list, level: int):
        if level == len(order):
            return items[0][1]
        groups: dict[int, list] = {}
        for k, c in items:
            groups.setdefault(k[order[level]], []).append((k, c))
        return tuple((e, build(g, level + 1)) for e, g in sorted(groups.items()))

    return order, build(list(terms.items()), 0)


def _eval_trie(node, tabs: list, mul, add, level: int = 0):
    """Value of a trie node: the sum over its exponents e of child * x^e,
    with tabs[L] the power table of the variable x of level L."""
    table = tabs[level]
    last = level + 1 == len(tabs)
    acc = None
    for e, child in node:
        v = child if last else _eval_trie(child, tabs, mul, add, level + 1)
        if e:
            v = mul(v, table[e])
        acc = v if acc is None else add(acc, v)
    return acc


@dataclass(frozen=True)
class _CompiledPolys:
    """S_m and P_m as tries whose coefficients are integer coordinates over
    one common denominator den; sizes[v] is the length of the power table of
    variable v, enough for its largest exponent and for its ghost powers."""

    spec: FieldSpec
    den: int
    sums: tuple
    prods: tuple
    sizes: tuple[int, ...]

    def evaluate(self, trie: tuple, tables: list):
        """The numerator over den of a trie's value at a point."""
        order, root = trie
        ring = _ring(self.spec)
        return _eval_trie(root, [tables[v] for v in order], ring.mul, ring.add)

    def tables(self, point: list) -> list[list]:
        """One power table per variable: tables[v][e] = point[v]^e."""
        ring = _ring(self.spec)
        out = []
        for x, size in zip(point, self.sizes):
            t = [ring.one, x]
            while len(t) < size:
                t.append(ring.mul(t[-1], x))
            out.append(t)
        return out

    def holds_at(self, point: list) -> bool:
        """Whether w(S) = w(x) + w(y) and w(P) = w(x) w(y) hold exactly at a
        point of 2n elements, compared on integers: with S_j = N_j / D,
        D^(p^m) w_m(S) = sum_j pi^j N_j^(p^(m-j)) D^(p^m - p^(m-j))."""
        ring = _ring(self.spec)
        mul, add, of_int = ring.mul, ring.add, ring.of_int
        p, n, den = self.spec.p, len(self.sums), self.den
        pis = _pi_powers(self.spec, n)

        def pth(x):
            y = x
            for _ in range(p - 1):
                y = mul(y, x)
            return y

        tables = self.tables(point)
        sums = [self.evaluate(t, tables) for t in self.sums]
        prods = [self.evaluate(t, tables) for t in self.prods]
        for m in range(n):
            if m:  # N_j^(p^(m-j)) from N_j^(p^(m-1-j))
                sums[:m] = [pth(x) for x in sums[:m]]
                prods[:m] = [pth(x) for x in prods[:m]]
            wx = wy = gs = gp = ring.zero
            for j in range(m + 1):
                e = p ** (m - j)
                wx = add(wx, mul(pis[j], tables[j][e]))
                wy = add(wy, mul(pis[j], tables[n + j][e]))
                d = of_int(den ** (p ** m - e))
                gs = add(gs, mul(mul(pis[j], sums[j]), d))
                gp = add(gp, mul(mul(pis[j], prods[j]), d))
            d = of_int(den ** p ** m)
            if gs != mul(d, add(wx, wy)) or gp != mul(d, mul(wx, wy)):
                return False
        return True


@lru_cache(maxsize=None)
def _int_tries(n: int, spec: FieldSpec) -> _CompiledPolys:
    """The integer pairs of witt_polys(n, spec) over their common
    denominator, compiled to tries."""
    polys = witt_polys(n, spec).ints
    ring = _ring(spec)
    den = math.lcm(*(d for _, d in polys))
    tries = []
    for terms, d in polys:
        scale = ring.of_int(den // d)
        tries.append(_trie({k: ring.mul(scale, c) for k, c in terms.items()},
                           2 * n))
    sizes = [1 + max([spec.p ** (n - 1 - v % n)]
                     + [k[v] for terms, _ in polys for k in terms])
             for v in range(2 * n)]
    return _CompiledPolys(spec, den, tuple(tries[:n]), tuple(tries[n:]),
                          tuple(sizes))


def _residues(node, depth: int, inv: int, p: int, coords):
    """A trie node with every coefficient c replaced by its F_p residue
    c / den mod pi; vanishing leaves and emptied branches are dropped, and
    an empty node is ()."""
    if not depth:
        return coords(node)[0] * inv % p
    out = []
    for e, child in node:
        child = _residues(child, depth - 1, inv, p, coords)
        if child:
            out.append((e, child))
    return tuple(out)


@lru_cache(maxsize=None)
def _reduced_polys(n: int, spec: FieldSpec) -> tuple[list[tuple], list[tuple]]:
    """S_m and P_m as residue tries: the integer tries of _int_tries with
    the same levels, each coefficient reduced to its F_p residue, vanishing
    leaves and emptied branches dropped (a root () is the zero polynomial)."""
    cp = _int_tries(n, spec)
    p, coords = spec.p, _ring(spec).coords
    inv = pow(cp.den, -1, p)
    return tuple([(order, _residues(root, len(order), inv, p, coords))
                  for order, root in tries] for tries in (cp.sums, cp.prods))


def ghost_trials(spec: FieldSpec, n: int, trials: int, rng: random.Random) -> int:
    """How many of trials random integral points (coordinates drawn from
    rng in -4..4) satisfy w(S) = w(x) + w(y) and w(P) = w(x) * w(y)
    exactly in every ghost coordinate of length n."""
    cp = _int_tries(n, spec)  # integrality is enforced in construction
    make = _ring(spec).make
    return sum(cp.holds_at([make(tuple(rng.randint(-4, 4) for _ in range(spec.e_F)))
                            for _ in range(2 * n)])
               for _ in range(trials))


# --- the perfected residue model ---------------------------------------------

def _bmin(*bounds: int | None) -> int | None:
    """min over bounds where None means no unknown tail at all."""
    vals = [b for b in bounds if b is not None]
    return min(vals) if vals else None


@dataclass(frozen=True)
class PerfSeries:
    """Truncated element of k[[ubar^(1/p^J)]] with F_p coefficients.

    terms maps integer keys (exponent alpha scaled by p^J) to nonzero
    residues.  bound None means the value is exact; otherwise coefficients
    at keys >= bound are unknown and never stored.  full is the model
    ceiling A_max * p^J: storing a key at or above it drops the term and
    turns the value into a bounded one.
    """

    p: int
    J: int
    terms: tuple[tuple[int, int], ...]
    bound: int | None
    full: int

    @classmethod
    def make(cls, p: int, J: int, terms: dict[int, int],
             bound: int | None = None,
             A_max: int = DEFAULT_BUDGET[1]) -> "PerfSeries":
        full = A_max * p ** J
        clean = {}
        cut = full if bound is None else min(bound, full)
        dropped = False
        for k, c in terms.items():
            if k < 0:
                raise ValueError("negative exponents are outside the model")
            c %= p
            if not c:
                continue
            if k < cut:
                clean[k] = c
            else:
                dropped = True
        if bound is None and dropped:
            bound = full
        elif bound is not None:
            bound = min(bound, full)
        return cls(p, J, tuple(sorted(clean.items())), bound, full)

    @classmethod
    def zero(cls, p: int, J: int = DEFAULT_BUDGET[0],
             A_max: int = DEFAULT_BUDGET[1]) -> "PerfSeries":
        return cls.make(p, J, {}, A_max=A_max)

    @classmethod
    def const(cls, p: int, c: int, J: int = DEFAULT_BUDGET[0],
              A_max: int = DEFAULT_BUDGET[1]) -> "PerfSeries":
        return cls.make(p, J, {0: c}, A_max=A_max)

    @classmethod
    def ubar(cls, p: int, J: int = DEFAULT_BUDGET[0],
             A_max: int = DEFAULT_BUDGET[1]) -> "PerfSeries":
        return cls.make(p, J, {p ** J: 1}, A_max=A_max)

    def zero_like(self) -> "PerfSeries":
        return PerfSeries(self.p, self.J, (), None, self.full)

    def const_like(self, c: int) -> "PerfSeries":
        c %= self.p
        terms = ((0, c),) if c else ()
        return PerfSeries(self.p, self.J, terms, None, self.full)

    def is_zero(self) -> bool:
        return not self.terms

    def order_key(self) -> int | None:
        """Scaled exponent of the lowest visible term; bound when invisible,
        None for exact zero (order infinity)."""
        return self.terms[0][0] if self.terms else self.bound

    def min_alpha(self) -> Fraction | None:
        """Lowest visible exponent as an exact rational, None if invisible."""
        if not self.terms:
            return None
        return Fraction(self.terms[0][0], self.p ** self.J)

    def is_truncated(self) -> bool:
        return self.bound is not None

    def __add__(self, other: "PerfSeries") -> "PerfSeries":
        self._check(other)
        bound = _bmin(self.bound, other.bound)
        d = dict(self.terms)
        for k, c in other.terms:
            s = (d.get(k, 0) + c) % self.p
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        if bound is not None:
            d = {k: c for k, c in d.items() if k < bound}
        return PerfSeries(self.p, self.J, tuple(sorted(d.items())), bound,
                          min(self.full, other.full))

    def __neg__(self) -> "PerfSeries":
        return PerfSeries(self.p, self.J,
                          tuple((k, -c % self.p) for k, c in self.terms),
                          self.bound, self.full)

    def __sub__(self, other: "PerfSeries") -> "PerfSeries":
        return self + (-other)

    def __mul__(self, other: "PerfSeries") -> "PerfSeries":
        self._check(other)
        full = min(self.full, other.full)
        # each operand's unknown tail enters at its bound plus the other's
        # visible order; exact operands contribute no candidate
        cands = []
        if self.bound is not None and other.order_key() is not None:
            cands.append(self.bound + other.order_key())
        if other.bound is not None and self.order_key() is not None:
            cands.append(other.bound + self.order_key())
        bound = min(cands) if cands else None
        if bound is not None:
            bound = min(bound, full)
        cut = full if bound is None else bound
        d: dict[int, int] = {}
        dropped = False
        for ka, ca in self.terms:
            for kb, cb in other.terms:
                k = ka + kb
                if k >= cut:
                    dropped = True
                    continue
                s = (d.get(k, 0) + ca * cb) % self.p
                if s:
                    d[k] = s
                else:
                    d.pop(k, None)
        if bound is None and dropped:
            bound = full
        return PerfSeries(self.p, self.J, tuple(sorted(d.items())), bound, full)

    def scale(self, c: int) -> "PerfSeries":
        c %= self.p
        if c == 0:
            return PerfSeries(self.p, self.J, (), self.bound, self.full)
        return PerfSeries(self.p, self.J,
                          tuple((k, (v * c) % self.p) for k, v in self.terms),
                          self.bound, self.full)

    def _check(self, other: "PerfSeries") -> None:
        if (self.p, self.J) != (other.p, other.J):
            raise ValueError("mismatched PerfSeries parameters")

    def frob(self) -> "PerfSeries":
        """p-th power: exponents scale by p, coefficients are fixed."""
        bound = self.bound
        if bound is not None:
            bound = min(bound * self.p, self.full)
        cut = self.full if bound is None else bound
        terms = tuple((k * self.p, c) for k, c in self.terms
                      if k * self.p < cut)
        if bound is None and len(terms) < len(self.terms):
            bound = self.full
        return PerfSeries(self.p, self.J, terms, bound, self.full)

    def root(self) -> "PerfSeries":
        """p-th root, exact in char p; spends one level of the root budget."""
        for k, _ in self.terms:
            if k % self.p:
                raise BudgetError(
                    "root budget exhausted: exponent denominator exceeds p^J"
                )
        terms = tuple((k // self.p, c) for k, c in self.terms)
        bound = None if self.bound is None else self.bound // self.p
        return PerfSeries(self.p, self.J, terms, bound, self.full)

    def pow(self, e: int) -> "PerfSeries":
        """x^e via the base-p digits of e (Frobenius steps are free)."""
        if e < 0:
            raise ValueError("negative powers are outside the model")
        out = self.const_like(1)
        base = self
        while e:
            for _ in range(e % self.p):
                out = out * base
            e //= self.p
            if e:
                base = base.frob()
        return out

    def agrees(self, other: "PerfSeries") -> bool:
        """Equal coefficients below the weaker of the two bounds."""
        self._check(other)
        b = _bmin(self.bound, other.bound)
        if b is None:
            return self.terms == other.terms
        da = {k: c for k, c in self.terms if k < b}
        db = {k: c for k, c in other.terms if k < b}
        return da == db

    def to_json(self) -> list[dict]:
        out = []
        for k, c in self.terms:
            num, dp = k, self.J
            while dp > 0 and num % self.p == 0:
                num //= self.p
                dp -= 1
            out.append({"num": num, "den_pow": dp, "coeff": c})
        return out

    @classmethod
    def from_json(cls, p: int, obj: list[dict], J: int = DEFAULT_BUDGET[0],
                  A_max: int = DEFAULT_BUDGET[1]) -> "PerfSeries":
        terms = {}
        for t in obj:
            dp = int(t["den_pow"])
            if dp > J:
                raise BudgetError("exponent denominator exceeds the root budget")
            terms[int(t["num"]) * p ** (J - dp)] = int(t["coeff"])
        return cls.make(p, J, terms, A_max=A_max)


# --- Witt vectors ------------------------------------------------------------

@dataclass(frozen=True)
class WittVec:
    spec: FieldSpec
    comps: tuple[PerfSeries, ...]

    def __post_init__(self) -> None:
        if not self.comps:
            raise ValueError("Witt vector needs at least one component")

    @property
    def length(self) -> int:
        return len(self.comps)

    @classmethod
    def zero(cls, spec: FieldSpec, n: int, J: int = DEFAULT_BUDGET[0],
             A_max: int = DEFAULT_BUDGET[1]) -> "WittVec":
        return cls(spec, tuple(PerfSeries.zero(spec.p, J, A_max)
                               for _ in range(n)))

    def agrees(self, other: "WittVec") -> bool:
        return self.length == other.length and all(
            a.agrees(b) for a, b in zip(self.comps, other.comps)
        )

    def to_json(self) -> list:
        return [c.to_json() for c in self.comps]


def teich(r: PerfSeries, n: int, spec: FieldSpec) -> WittVec:
    """Teichmueller lift (r, 0, ..., 0) at length n."""
    if n < 1 or n > WITT_LENGTH_BOUND:
        raise ValueError(f"Witt length must be within 1..{WITT_LENGTH_BOUND}")
    return WittVec(spec, (r,) + (r.zero_like(),) * (n - 1))


def _horner(node, xs: list, powers: list, model: PerfSeries, level: int = 0):
    """sum_e child * x^e over a residue trie node, x = xs[level] with its
    powers cached in powers[level]; None when every branch is exactly zero."""
    x, cache = xs[level], powers[level]
    leaf = level + 1 == len(xs)
    acc = None
    for e, child in node:
        if e:
            if x.bound is None and not x.terms:
                break  # exactly zero, as is every later branch (e increases)
            xe = cache.get(e)
            if xe is None:
                xe = cache[e] = x.pow(e)
        if leaf:
            v = xe.scale(child) if e else model.const_like(child)
        else:
            v = _horner(child, xs, powers, model, level + 1)
            if v is None:
                continue
            if e:
                v = xe * v
        acc = v if acc is None else acc + v
    return acc


def _eval_reduced(trie: tuple, point: list[PerfSeries], model: PerfSeries,
                  powers: list[dict] | None = None) -> PerfSeries:
    """A residue trie at a point, by Horner over its levels.  A branch under
    an exact-zero power is skipped, a truncated zero keeps its bound, and
    the zero polynomial is a zero bounded by the least bound of the point.
    powers holds one {e: x^e} cache per variable of the point, to share
    among the tries evaluated at it (fresh ones when None)."""
    order, root = trie
    if not root:
        return PerfSeries(model.p, model.J, (), _bmin(*(x.bound for x in point)),
                          model.full)
    if powers is None:
        powers = [{} for _ in point]
    acc = _horner(root, [point[v] for v in order], [powers[v] for v in order], model)
    return model.zero_like() if acc is None else acc


def _binary_op(a: WittVec, b: WittVec, which: int) -> WittVec:
    """Componentwise S_m (which 0) or P_m (which 1) of a and b."""
    if a.spec != b.spec or a.length != b.length:
        raise ValueError("Witt operands must share spec and length")
    point = list(a.comps) + list(b.comps)
    powers = [{} for _ in point]
    return WittVec(a.spec, tuple(_eval_reduced(trie, point, a.comps[0], powers) for trie
                                 in _reduced_polys(a.length, a.spec)[which]))


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    return _binary_op(a, b, 0)


def witt_mul(a: WittVec, b: WittVec) -> WittVec:
    return _binary_op(a, b, 1)


def witt_neg(a: WittVec) -> WittVec:
    if a.spec.p == 2:
        return _solve_neg(a)
    # for odd p, -1 is its own Teichmueller lift, so negation is
    # componentwise scaling by p - 1
    return WittVec(a.spec, tuple(c.scale(a.spec.p - 1) for c in a.comps))


def _solve_neg(a: WittVec) -> WittVec:
    # solve a + b = 0 component by component: S_m = x_m + y_m + (lower terms),
    # so with b_m temporarily 0 the defect is exactly the missing b_m
    n = a.length
    red_s, _ = _reduced_polys(n, a.spec)
    model = a.comps[0]
    comps: list[PerfSeries] = []
    for m in range(n):
        point = list(a.comps) + comps + [model.zero_like()] * (n - m)
        s = _eval_reduced(red_s[m], point, model)
        comps.append(-s)
    return WittVec(a.spec, tuple(comps))


def witt_frob(a: WittVec) -> WittVec:
    """phi: componentwise p-th power (the residue model is perfect)."""
    return WittVec(a.spec, tuple(c.frob() for c in a.comps))


def witt_frob_inv(a: WittVec) -> WittVec:
    """phi^-1: componentwise p-th root; may exhaust the root budget."""
    return WittVec(a.spec, tuple(c.root() for c in a.comps))


def pi_shift(a: WittVec, k: int = 1) -> WittVec:
    """Multiply by pi^k: k-fold shift-after-Frobenius."""
    out = a
    for _ in range(k):
        shifted = (out.comps[0].zero_like(),) + tuple(
            c.frob() for c in out.comps[:-1])
        out = WittVec(a.spec, shifted)
    return out


def scalar_mul(c: OFExact, a: WittVec) -> WittVec:
    """(sum_j d_j pi^j) * a with integer digits d_j: d-fold Witt sums of
    pi-shifts.  Only digits below the length matter since pi^n kills a."""
    if not c.is_integral():
        raise ValueError("scalar must be integral")
    n = a.length
    digits = c.at_prec(n).digits()
    acc = None
    for j, d in enumerate(digits[:n]):
        if d == 0:
            continue
        term = pi_shift(a, j)
        for _ in range(d):
            acc = term if acc is None else witt_add(acc, term)
    if acc is None:
        return WittVec(a.spec, tuple(x.zero_like() for x in a.comps))
    return acc


def eval_poly_on_witt(coeffs: list[OFExact], x: WittVec) -> WittVec:
    """sum_i coeffs[i] * x^i in the Witt ring (coeffs[0] is constant)."""
    spec = x.spec
    acc = None
    power = None
    for i, c in enumerate(coeffs):
        if i == 1:
            power = x
        elif i > 1:
            power = witt_mul(power, x)
        if c.is_zero():
            continue
        if i == 0:
            term = scalar_mul(c, teich(x.comps[0].const_like(1),
                                       x.length, spec))
        else:
            term = scalar_mul(c, power)
        acc = term if acc is None else witt_add(acc, term)
    if acc is None:
        return WittVec(spec, tuple(y.zero_like() for y in x.comps))
    return acc


def _fixed_point_iter(f: FrobLift, n: int,
                      budget: tuple[int, int]) -> tuple[WittVec, int]:
    spec = f.spec
    J, A_max = budget
    ubar = PerfSeries.ubar(spec.p, J, A_max)
    x = teich(ubar, n, spec)
    fcoeffs = [OFExact.zero(spec), *f.coeffs]
    for it in range(1, 2 * n + 1):
        nxt = eval_poly_on_witt(fcoeffs, witt_frob_inv(x))
        if nxt.comps == x.comps:
            return x, it
        x = nxt
    raise ArithmeticError(
        f"fixed point did not stabilize within {2 * n} iterations"
    )


def f_fixed_point(f: FrobLift, n: int,
                  budget: tuple[int, int] = DEFAULT_BUDGET) -> WittVec:
    """The unique u with phi(u) = f(u) and u = [ubar] mod pi, found by
    iterating x -> f(phi^-1(x)) from the Teichmueller lift of ubar."""
    u, _ = _fixed_point_iter(f, n, budget)
    return u


def f_fixed_point_report(f: FrobLift, n: int,
                         budget: tuple[int, int] = DEFAULT_BUDGET) -> dict:
    u, iters = _fixed_point_iter(f, n, budget)
    fu = eval_poly_on_witt([OFExact.zero(f.spec), *f.coeffs], u)
    return {
        "u": u,
        "iterations": iters,
        "frob_matches_f": witt_frob(u).agrees(fu),
        "reduces_to_ubar": u.comps[0].agrees(
            PerfSeries.ubar(f.spec.p, budget[0], budget[1])),
    }


def check_E_reduction(E, u: WittVec) -> bool:
    """Component 0 of E(u) must be ubar^e0 times a unit: its lowest visible
    exponent is exactly e0, so v_R(E(u) mod pi) = e0 * v_R(ubar)."""
    coeffs = list(E.coeffs) if isinstance(E, EisensteinE) else list(E)
    # min_alpha is None for a zero component
    return eval_poly_on_witt(coeffs, u).comps[0].min_alpha() == len(coeffs) - 1


def e_reduction_report(E: EisensteinE, u: WittVec) -> dict:
    """The reduction check with its exact rationals, for reports; E(u) is
    evaluated once and the verdict read off the same component 0."""
    alpha = eval_poly_on_witt(list(E.coeffs), u).comps[0].min_alpha()
    e_F = u.spec.e_F
    v_ubar = Fraction(1, E.e0 * e_F)
    return {
        "ok": alpha == E.e0,
        "v_R_ubar": str(v_ubar),
        "v_R_E_mod_pi": None if alpha is None else str(alpha * v_ubar),
        "v_pi": str(Fraction(1, e_F)),
    }

"""Truncated pi-Witt vectors over a perfected residue model.

The symbolic layer builds the sum/product polynomials S_m, P_m with exact
O_F coefficients from the ghost recursion and asserts their integrality.
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

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetError, IntegralityError
from .scalars import FieldSpec, OFExact
from .series import EisensteinE, FrobLift

WITT_LENGTH_BOUND = 5
DEFAULT_BUDGET = (6, 32)  # (J root levels, A_max exponent bound)

# symbolic polynomials: dict from exponent tuples (x_0..x_{n-1}, y_0..y_{n-1})
# to exact O_F coefficients
_POLY_TERM_BUDGET = 200_000


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _poly_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def _poly_scale(a: dict, c: OFExact) -> dict:
    if c.is_zero():
        return {}
    return {k: c * v for k, v in a.items()}


def _poly_mul(a: dict, b: dict) -> dict:
    if len(a) * len(b) > _POLY_TERM_BUDGET:
        raise BudgetError("Witt polynomial construction exceeds the term budget")
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k)
            s = ca * cb if s is None else s + ca * cb
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        if len(out) > _POLY_TERM_BUDGET:
            raise BudgetError("Witt polynomial construction exceeds the term budget")
    return out


def _poly_pow(a: dict, e: int) -> dict:
    out = None
    base = a
    while e:
        if e & 1:
            out = base if out is None else _poly_mul(out, base)
        e >>= 1
        if e:
            base = _poly_mul(base, base)
    return out if out is not None else {}


def _monomial(nvars: int, idx: int, exp: int, coeff: OFExact) -> dict:
    key = [0] * nvars
    key[idx] = exp
    return {tuple(key): coeff}


def _ghost_poly(spec: FieldSpec, n: int, m: int, offset: int) -> dict:
    """w_m as a polynomial in variables offset..offset+m out of 2n."""
    p = spec.p
    out: dict = {}
    for j in range(m + 1):
        c = OFExact.pi(spec) ** j
        out = _poly_add(out, _monomial(2 * n, offset + j, p ** (m - j), c))
    return out


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
    spec: FieldSpec
    length: int
    sums: tuple[dict, ...]
    prods: tuple[dict, ...]


@lru_cache(maxsize=None)
def witt_polys(n: int, spec: FieldSpec) -> WittPolySet:
    """S_0..S_{n-1} and P_0..P_{n-1} from the ghost recursion.

    pi^m S_m = w_m(x) + w_m(y) - sum_{j<m} pi^j S_j^(p^(m-j)), and the
    product analogue with w_m(x) * w_m(y); a failed exact division is
    reported with the offending monomial.
    """
    if n < 1 or n > WITT_LENGTH_BOUND:
        raise ValueError(f"Witt length must be within 1..{WITT_LENGTH_BOUND}")
    p = spec.p
    sums: list[dict] = []
    prods: list[dict] = []
    for m in range(n):
        wx = _ghost_poly(spec, n, m, 0)
        wy = _ghost_poly(spec, n, m, n)
        targets = (_poly_add(wx, wy), _poly_mul(wx, wy))
        for target, acc_list in zip(targets, (sums, prods)):
            rem = target
            for j in range(m):
                c = OFExact.pi(spec) ** j
                rem = _poly_add(rem, _poly_neg(
                    _poly_scale(_poly_pow(acc_list[j], p ** (m - j)), c)))
            out = {}
            for kk, c in rem.items():
                shifted = c.times_pi(-m)
                if not shifted.is_integral():
                    raise IntegralityError(
                        f"integrality failure at level {m}, monomial {kk}"
                    )
                out[kk] = shifted
            acc_list.append(out)
    return WittPolySet(spec, n, tuple(sums), tuple(prods))


@lru_cache(maxsize=None)
def _reduced_polys(n: int, spec: FieldSpec) -> tuple[list[dict], list[dict]]:
    """S/P coefficients reduced to F_p residues (vanishing terms dropped)."""
    ps = witt_polys(n, spec)
    red_s: list[dict] = []
    red_p: list[dict] = []
    for polys, red in ((ps.sums, red_s), (ps.prods, red_p)):
        for poly in polys:
            d = {}
            for kk, c in poly.items():
                r = c.residue()
                if r:
                    d[kk] = r
            red.append(d)
    return red_s, red_p


def ghost_trials(spec: FieldSpec, n: int, trials: int, rng: random.Random) -> int:
    """How many of trials random integral points (coordinates drawn from
    rng in -4..4) satisfy w(S) = w(x) + w(y) and w(P) = w(x) * w(y)
    exactly in every ghost coordinate of length n."""
    ps = witt_polys(n, spec)  # integrality is enforced in construction
    good = 0
    for _ in range(trials):
        pt = [OFExact.make(spec, [rng.randint(-4, 4) for _ in range(spec.e_F)])
              for _ in range(2 * n)]
        xs, ys = pt[:n], pt[n:]
        sums = [eval_poly_exact(ps.sums[m], pt, spec) for m in range(n)]
        prods = [eval_poly_exact(ps.prods[m], pt, spec) for m in range(n)]
        gx, gy = ghost_map(spec, xs), ghost_map(spec, ys)
        gs, gp = ghost_map(spec, sums), ghost_map(spec, prods)
        if all(gs[m] == gx[m] + gy[m] and gp[m] == gx[m] * gy[m]
               for m in range(n)):
            good += 1
    return good


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


def _eval_reduced(poly: dict, point: list[PerfSeries],
                  model: PerfSeries) -> PerfSeries:
    # per-variable power cache; exponents decompose base p, Frobenius is free
    cache: dict[tuple[int, int], PerfSeries] = {}
    acc = None
    for key, c in poly.items():
        term = None
        for idx, e in enumerate(key):
            if not e:
                continue
            v = cache.get((idx, e))
            if v is None:
                v = point[idx].pow(e)
                cache[(idx, e)] = v
            term = v if term is None else term * v
        term = model.const_like(c) if term is None else term.scale(c)
        acc = term if acc is None else acc + term
    if acc is None:
        acc = PerfSeries(model.p, model.J, (), _bmin(*(x.bound for x in point)),
                         model.full)
    return acc


def _binary_op(a: WittVec, b: WittVec, which: str) -> WittVec:
    if a.spec != b.spec or a.length != b.length:
        raise ValueError("Witt operands must share spec and length")
    n = a.length
    red_s, red_p = _reduced_polys(n, a.spec)
    polys = red_s if which == "S" else red_p
    point = list(a.comps) + list(b.comps)
    model = a.comps[0]
    return WittVec(a.spec, tuple(_eval_reduced(polys[m], point, model)
                                 for m in range(n)))


def witt_add(a: WittVec, b: WittVec) -> WittVec:
    return _binary_op(a, b, "S")


def witt_mul(a: WittVec, b: WittVec) -> WittVec:
    return _binary_op(a, b, "P")


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

"""Conjugating one Frobenius lift into another.

Solves f(xi(x)) = xi(f2(x)) for a power series xi with xi(0) = 0 and unit
leading coefficient, degree by degree.  The leading coefficient mu0 is
pinned by the lowest-degree terms (free when both lifts start in degree
one); every later coefficient comes from dividing the current residual
coefficient by an explicit nonzero divisor, so the precision loss per
degree is a known constant and the starting precision can be budgeted up
front.

The solver never composes series and forms no series product.  A table
of the powers of f2, built by their recurrence [f2^k]_n = sum_j [f2]_j
[f2^(k-1)]_(n-j), and the columns of the powers xi^2..xi^p, extended
online as each coefficient of xi lands, give the residual coefficient of
each degree d in O(p*s*d) scalar operations, so a whole solve is
quadratic in M.  Each term of a column entry is formed once: it is
folded into the entry's settled sum when both its factors are final, and
each degree forms anew only the few terms that still read coefficients
not yet known.  Those operations run on the (shift, unit, label) int
triples of the coefficients, one _canon per dot product or partial sum
and one integer division per degree, never on FElement objects.  The
verifier composes directly with s_compose (baby steps and giant steps on
the series kernel), an independent oracle that never reads the solver's
table or columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .errors import PrecisionError, SpecMismatchError
from .scalars import (DEFAULT_PREC, FElement, OFExact, _add1, _div1, _dot1, _mul1,
                      _neg1, of_root)
from .series import FrobLift, USeries, _as_felement, _flat, _series, s_compose


@dataclass(frozen=True)
class CompatReport:
    s: int
    s2: int
    v: int
    v2: int

    @property
    def ok(self) -> bool:
        return self.s == self.s2 and self.v == self.v2

    def to_json(self) -> dict:
        return {"s": self.s, "s2": self.s2, "v": self.v, "v2": self.v2,
                "ok": self.ok}


def _lowest(f: FrobLift) -> tuple[int, int]:
    for i, a in enumerate(f.coeffs, start=1):
        if not a.is_zero():
            return i, a.val()
    raise AssertionError("unreachable: a_p = 1")


def check_compatible(f: FrobLift, f2: FrobLift) -> CompatReport:
    """Compatible iff the lowest-degree terms match in degree and valuation."""
    s, v = _lowest(f)
    s2, v2 = _lowest(f2)
    return CompatReport(s, s2, v, v2)


def _common_degree(f: FrobLift, f2: FrobLift) -> int:
    """The lowest degree s shared by two compatible lifts.

    Raises SpecMismatchError when the lowest terms differ in degree or
    valuation, or when s = 1 and the linear terms differ: no xi solves
    f(xi) = xi(f2) then, since its u-coefficient would need a_1 = a_1'.
    """
    comp = check_compatible(f, f2)
    if not comp.ok:
        raise SpecMismatchError(
            f"lifts are incompatible: lowest terms ({comp.s}, v={comp.v}) "
            f"vs ({comp.s2}, v={comp.v2})"
        )
    if comp.s == 1 and f.coeffs[0] != f2.coeffs[0]:
        raise SpecMismatchError("incompatible linear terms")
    return comp.s


def _start_prec(f: FrobLift, M: int, N: int) -> int:
    """Working precision that leaves N digits after M degrees of division.

    Each degree costs v(a_s) digits, plus e_F when s = p (the divisor is
    then s*a_s with v(p) = e_F).
    """
    s, v = _lowest(f)
    return N + M * (v + (f.spec.e_F if s == f.spec.p else 0)) + 2


def compute_mu0(f: FrobLift, f2: FrobLift, choice=None,
                prec: int = DEFAULT_PREC) -> list[FElement]:
    """Leading-coefficient candidates.

    Degree-one lifts leave mu0 free (any unit works when a_1 = a_1'), so
    the caller's choice (default 1) is returned.  Otherwise mu0 must solve
    mu0^(s-1) = a_s'/a_s, and every residue-root candidate is returned.
    """
    s = _common_degree(f, f2)
    spec = f.spec
    if s == 1:
        return [_as_felement(spec, 1 if choice is None else choice, prec)]
    if choice is not None:
        raise ValueError("mu0 is determined by the lifts when s > 1")
    ratio = f2.coeffs[s - 1] / f.coeffs[s - 1]
    roots = of_root(ratio.at_prec(prec), s - 1)
    return [FElement.make(r) for r in roots]


@dataclass(frozen=True)
class IntertwineResult:
    xi: USeries
    mu0: FElement
    s: int
    integral: bool
    verified_to: tuple[int, int]
    losses: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "xi": self.xi.to_json(),
            "mu0": self.mu0.to_json(),
            "s": self.s,
            "integral": self.integral,
            "verified_to": {"M": self.verified_to[0], "N": self.verified_to[1]},
            "losses": list(self.losses),
        }


def _triples(x: USeries) -> list:
    return list(zip(x.shifts, x.units, x.labels))


def _f2_powers(spec, f2: list, top: int) -> list:
    """by_n[n][k - 1] = [f2^k]_n for n < len(f2), from the triples of f2,
    whose order is s.  [f2^k]_n is an exact zero below k*s, so row n holds
    k = 1 and each k = 2..top with k*s <= n.  Each entry past k = 1 is one
    _dot1 over the support of f2, [f2^k]_n =
    sum_j [f2]_j [f2^(k-1)]_(n-j): the terms, and so the fields, of
    coefficient n of the series product f2^(k-1) * f2."""
    js = [j for j, c in enumerate(f2) if c[2] is not None]
    cs = [f2[j] for j in js]
    s = js[0]
    by_n = [[c] for c in f2]
    for k in range(2, top + 1):
        lo = (k - 1) * s
        for n in range(k * s, len(f2)):
            ys = [by_n[n - j][k - 2] for j in js if n - j >= lo]
            by_n[n].append(_dot1(spec, cs, ys))
    return by_n


def _settle(spec, xi: list, prev: list, col: list, sett: list, n: int) -> None:
    """Bring a column [xi^i] to degree d, when xi = xi_0..xi_(d-1) and the
    entries prev[m] = [xi^(i-1)]_m, m < d, are final: col, its final
    entries, grows to m < d, and sett to the settled sums of the entries
    m = d..n.  A term xi_j [xi^(i-1)]_(m-j) is settled once both its
    factors are final.  A sum from an earlier degree gains the at most two
    terms that degree d settles, xi_(d-1) [xi^(i-1)]_(m-d+1) and
    xi_(m-d+1) [xi^(i-1)]_(d-1); a new entry is one _dot1 over the terms
    settled so far.  Called for d = 2, 3, ... in turn, so that from d = 3
    on, sett[j] comes from degree d-1 and is the entry m = d-1+j."""
    d = len(xi)
    x, y = xi[d - 1], prev[d - 1]
    for j in range(len(sett)):
        if j < d - 1:
            sett[j] = _add1(spec, *sett[j], *_dot1(spec, (x, xi[j]), (prev[j], y)))
        elif j == d - 1:
            sett[j] = _add1(spec, *sett[j], *_mul1(spec, *x, *y))
    for m in range(len(col) + len(sett), n + 1):
        lo, hi = max(m - d + 1, 0), min(d - 1, m)
        sett.append(_dot1(spec, xi[lo:hi + 1], prev[m - hi:m - lo + 1][::-1]))
    while len(col) < d:
        col.append(sett.pop(0))


class _XiPowers:
    """The columns [xi^i]_m, i = 2..p, of a series xi that lands one
    coefficient per degree, read at m = n = d+s-1 with xi_m taken as zero
    for m >= d (online multiplication, van der Hoeven 2002).

    For i < p a column keeps its final entries, m < d, and the settled
    sums of the entries m = d..n (see _settle); its provisional entries
    add to those the terms j <= m-d, which read the previous column's
    provisional entries: at most s terms each, none for [xi^2], whose
    previous column is xi itself.  [xi^p] is read only at n, so it is one
    _dot1 per degree and keeps nothing.
    """

    def __init__(self, spec, s: int):
        self.spec, self.s = spec, s
        self.cols: list[list] = [[] for _ in range(2, spec.p)]
        self.setts: list[list] = [[] for _ in range(2, spec.p)]
        self.pad = [(0, (0,) * spec.e_F, None)] * s  # exact zeros

    def at(self, xi: list) -> list:
        """[xi^i]_(d+s-1), i = 2..p, from xi = xi_0..xi_(d-1); called for
        d = 2, 3, ... in turn, with xi extended by one coefficient each."""
        spec = self.spec
        d = len(xi)
        n = d + self.s - 1
        out = []
        # [xi^(i-1)]_m: final for m < d, provisional for m = d..n
        prev, tail = xi, self.pad
        for col, sett in zip(self.cols, self.setts):
            _settle(spec, xi, prev, col, sett, n)
            # [xi^2] reads the exact zeros past xi_(d-1): nothing to add
            prov = sett if tail is self.pad else [
                _add1(spec, *c, *_dot1(spec, xi[:t + 1], tail[t::-1]))
                for t, c in enumerate(sett)]
            prev, tail = col, prov
            out.append(tail[-1])
        out.append(_dot1(spec, xi, (prev + tail)[::-1]))
        return out


def _running_divisors(spec, a_1: OFExact, b_1: OFExact, n_start: int):
    """a_1 - b_1^d for d = 2, 3, ..., known modulo pi^n_start: the s = 1
    divisors, with b_1 = a_1'.  -b_1^d is a running _mul1 product, whose
    label n_start + (d-1)v(b_1) never falls below n_start, so each _add1
    gives the fields of the exact difference at n_start."""
    a_1 = _flat(spec, a_1, n_start)
    b_1 = _flat(spec, b_1, n_start)
    neg_pow = _neg1(spec, *b_1)
    while True:
        neg_pow = _mul1(spec, *neg_pow, *b_1)
        yield _add1(spec, *a_1, *neg_pow)


def solve_intertwiner(f: FrobLift, f2: FrobLift, mu0, M: int,
                      N: int = DEFAULT_PREC) -> IntertwineResult:
    """Build xi through x^M with coefficients good modulo pi^N.

    Each degree d costs one division whose divisor valuation is known
    (v(a_1) when s = 1, v(s a_s) when s > 1), so the recursion starts at
    N + M*loss and the result still carries N digits.  The residual
    coefficient must vanish mod pi before each division; a visibly
    non-vanishing one means the inputs violate the compatibility theorem.

    The residual coefficient n = d+s-1 of f(xi) - xi(f2) is read off two
    tables instead of two compositions, and no series product is formed.
    xi(f2) gives the dot product of xi_1..xi_{d-1} with coefficient n of
    f2^1..f2^(d-1), from the table of _f2_powers below u^(M+s).  f(xi)
    gives sum_i a_i [xi^i]_n, from the columns of _XiPowers, which form
    each term once.  Each degree therefore costs O(p*s*d) scalar
    operations, so a whole solve is quadratic in M.  When s = 1 the
    divisor a_1 - a_1'^d comes from a running power of a_1'.  Every term
    the compositions would sum, the zero-at-precision constant term of xi
    included, enters the same sums, so the labels and digits are those of
    the compositions.  The coefficients are held as (shift, unit, label)
    int triples throughout.  Each sum is one _dot1, an int sum of the
    aligned unit products with one _canon at its label, or a fold of such
    partial sums by _add1: each partial sum is in normal form at its own
    label, never below the whole sum's, so the fold gives the fields of
    one _dot1 over all the terms.  Each division is one _div1.
    """
    spec = f.spec
    s = _common_degree(f, f2)
    if M < 1:
        raise ValueError("M must be at least 1")
    a_s = f.coeffs[s - 1]
    n_start = _start_prec(f, M, N)

    mu0 = _as_felement(spec, mu0, n_start)
    if mu0.is_zero_at_prec() or mu0.vlow() != 0:
        raise ValueError("mu0 must be a unit")

    a = _triples(f.as_series(absprec=n_start))[2:]  # a_2..a_p
    by_n = _f2_powers(spec, _triples(f2.as_series(absprec=n_start).truncate(M + s)),
                      M - 1)

    xi: list = [(n_start, (0,) * spec.e_F, n_start), _flat(spec, mu0, n_start)]
    powers = _XiPowers(spec, s)
    losses: list[int] = []
    if s > 1:
        s_el = OFExact.make(spec, s)
        base = FElement.from_exact(s_el * a_s, n_start)
        divs = repeat(_flat(spec, base * mu0 ** (s - 1), n_start))
    else:
        divs = _running_divisors(spec, a_s, f2.coeffs[0], n_start)
    for d in range(2, M + 1):
        lam = _add1(spec, *_dot1(spec, a, powers.at(xi)),
                    *_neg1(spec, *_dot1(spec, xi[1:], by_n[d + s - 1])))
        div = next(divs)
        if lam[1][0] and lam[0] < 1:
            raise SpecMismatchError(
                f"internal inconsistency: residual at degree {d} is a unit"
            )
        try:
            mu_d = _neg1(spec, *_div1(spec, *lam, *div))
        except PrecisionError as exc:
            raise PrecisionError(
                f"precision exhausted at degree {d}"
            ) from exc
        losses.append(div[0])
        xi.append(mu_d)
    integral = all(c[0] >= 0 for c in xi)
    if a_s.val() == 1 and not integral:
        raise AssertionError(
            "theorem violated: v(a_s) = v(pi) guarantees an integral xi"
        )
    xi = _series(spec, xi, None)
    achieved = min((m for m in xi.labels[1:] if m is not None), default=n_start)
    return IntertwineResult(xi, mu0, s, integral, (M, min(N, achieved)),
                            tuple(losses))


def solve_intertwiner_all(f: FrobLift, f2: FrobLift, M: int,
                          N: int = DEFAULT_PREC,
                          choice=None) -> list[IntertwineResult]:
    """One result per mu0 candidate (s > 1 can have several)."""
    cands = compute_mu0(f, f2, choice=choice, prec=_start_prec(f, M, N))
    return [solve_intertwiner(f, f2, mu, M, N) for mu in cands]


def verify_intertwine(f: FrobLift, f2: FrobLift, xi: USeries,
                      M: int, N: int) -> bool:
    """Direct-composition oracle: f(xi) - xi(f2) = 0 mod (x^M, pi^N).

    Both sides come from s_compose, never from the solver's power table
    or xi-power columns, so a fault in those cannot vouch for itself;
    xi(f2) takes about 2*sqrt(M) kernel calls by giant steps.
    A coefficient below M only sees coefficients below M, so xi and f2 are
    cut at M before composing.
    """
    if not xi.coeff(0).is_zero_at_prec():
        raise ValueError("xi must vanish at 0")
    xi = xi.truncate(M)
    lhs = s_compose(f.as_series(absprec=N + 2), xi).truncate(M)
    rhs = s_compose(xi, f2.as_series(absprec=N + 2).truncate(M)).truncate(M)
    diff = lhs - rhs
    for k in range(M):
        c = diff.coeff(k)
        capped = c.cap_absprec(N)
        if not capped.is_zero_at_prec():
            return False
        if capped.absprec < N:
            raise PrecisionError(
                f"verification undecidable at x^{k}: only {capped.absprec} "
                f"digits available of the {N} requested"
            )
    return True

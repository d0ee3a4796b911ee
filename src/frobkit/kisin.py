"""Frobenius modules over truncated O_F[[u]] series.

A module is a square matrix A over O_F[[u]] recording phi on a chosen
basis (row convention: phi(e) = e*A), together with the Eisenstein E,
the lift f driving phi, and a declared height r.  The operations here
check the height condition E^r*A^(-1) integral, compute the minimal
height of a rank-one module, scan for the scalar obstruction
phi^n(f/u) = E^k, build the witness module A*O_F[[u]] at a level the
scan accepts, run the Y_n matrix iteration with its gauge trace, and
read off the rank of the first filtration step.

The witness A = f*phi(f/u)*...*phi^(n-1)(f/u) is the iterate f^(n)(u),
so phi(A) = A*phi^n(f/u).  A is nonzero in the domain O_F[u], so
cancelling it is exact: A*E^l = phi(A) is the scan's identity at n.

Height checking leans on the factorial structure of O_F[[u]]: E is
irreducible, so det(A) = gamma*E^s with gamma coprime to E, and
E^r*A^(-1) is integral precisely when gamma is a unit and every
adjugate entry has E-order at least s - r.  This keeps the test exact
for polynomial input instead of chasing an infinite quotient division.

The Y_n iteration needs denominators (the inverse of A(0) lives over F,
not O_F), so it is carried as an integral numerator matrix N_n with the
scalar denominator det(A(0))^n split off.  Gauges are computed on
numerator differences and shifted, which keeps the capped-tail bound of
gauge_alpha honest; the convenience matrix Y = N/den returned alongside
has exact coefficient labels, but its cap must not be fed back into
gauge_alpha directly since the unknown tail of a scaled series need not
be integral.
"""

from dataclasses import dataclass

from .errors import IndeterminateError, SpecMismatchError
from .scalars import (DEFAULT_PREC, AtLeast, FElement, FieldSpec, OFExact, _add1,
                      _dot1, _mul1, _neg1)
from .series import (
    EisensteinE,
    FrobLift,
    USeries,
    _compose_powers,
    _flat,
    _gauge_combine,
    _powers,
    _series,
    _window,
    e_divides,
    e_order,
    frobenius,
    gauge_alpha,
    s_compose,
    s_dot,
    wdeg,
)

Mat = tuple  # d rows of d entries, row-major


# --- small matrix layer ------------------------------------------------------
#
# Entries are USeries (or FElements for constant matrices); both carry
# the ring operators, so determinant and adjugate are shared.


def _one_like(x):
    if isinstance(x, USeries):
        return USeries.one(x.spec, absprec=2 * DEFAULT_PREC)
    if x.label is None:  # exact: the default one, not one modulo pi^inf
        return FElement.one(x.spec)
    return FElement.one(x.spec, max(x.label, DEFAULT_PREC))


def mat_make(spec: FieldSpec, rows, absprec: int = DEFAULT_PREC) -> Mat:
    """Coerce row-major data to a square matrix of USeries."""
    out = []
    for row in rows:
        done = []
        for entry in row:
            if isinstance(entry, USeries):
                if entry.spec != spec:
                    raise SpecMismatchError("matrix entry over a different field")
                done.append(entry)
            elif isinstance(entry, (list, tuple)):
                done.append(USeries.make(spec, entry, absprec=absprec))
            else:
                done.append(USeries.make(spec, [entry], absprec=absprec))
        out.append(tuple(done))
    d = len(out)
    if d == 0 or any(len(row) != d for row in out):
        raise ValueError("matrix must be square and non-empty")
    return tuple(out)


def mat_identity(spec: FieldSpec, d: int, absprec: int = DEFAULT_PREC) -> Mat:
    return mat_make(spec, [[int(i == j) for j in range(d)] for i in range(d)],
                    absprec=absprec)


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_mul(A: Mat, B: Mat) -> Mat:
    """A*B, each entry the dot product of a row and a column in one kernel
    call, with the fields of summing the entry products in order: s_dot
    for USeries rows, where an FElement in B scales coefficientwise, and
    _dot1 for two matrices of FElements."""
    cols = tuple(zip(*B))
    if isinstance(A[0][0], USeries):
        return tuple(tuple(s_dot(zip(row, col)) for col in cols) for row in A)
    spec = A[0][0].spec

    def fields(xs):
        return [(x.low, x.coords, x.label) for x in xs]

    return tuple(tuple(FElement(spec, *_dot1(spec, fields(row), fields(col)))
                       for col in cols) for row in A)


def mat_scale(A: Mat, c) -> Mat:
    return tuple(tuple(x.scalar_mul(c) for x in row) for row in A)


def _mat_sub_scaled(A: Mat, B: Mat, c) -> Mat:
    """mat_sub(A, mat_scale(B, c)) for USeries entries, in one pass per
    coefficient: each is _add1(a, _mul1(b, -c)), with -c formed once.
    Negating c instead of each product keeps every field, since negation
    changes neither a valuation nor a label.  Past the end of b, the entry
    reads b's padding unscaled, as the sum would read the scaled series'."""
    spec = A[0][0].spec
    neg = _neg1(spec, *_flat(spec, c, DEFAULT_PREC))

    def entry(x: USeries, y: USeries) -> USeries:
        caps = [cap for cap in (x.cap, y.cap) if cap is not None]
        cap = min(caps) if caps else None
        length = max(len(x.labels), len(y.labels)) if cap is None else cap
        ys = list(zip(*_window(y, length)))
        k = min(len(y.labels), length)
        ys[:k] = [_mul1(spec, *b, *neg) for b in ys[:k]]
        return _series(spec, [_add1(spec, *a, *b)
                              for a, b in zip(zip(*_window(x, length)), ys)], cap)

    return tuple(tuple(entry(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_truncate(A: Mat, cap: int) -> Mat:
    return tuple(tuple(x.truncate(cap) for x in row) for row in A)


def mat_frob(A: Mat, f: FrobLift, n: int = 1) -> Mat:
    return tuple(tuple(frobenius(x, f, n) for x in row) for row in A)


def mat_det(A: Mat):
    d = len(A)
    if d == 1:
        return A[0][0]
    acc = None
    for j in range(d):
        minor = tuple(row[:j] + row[j + 1:] for row in A[1:])
        term = A[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def mat_adj(A: Mat) -> Mat:
    """Adjugate: A*adj(A) = det(A)*I."""
    d = len(A)
    if d == 1:
        return ((_one_like(A[0][0]),),)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            minor = tuple(r[:i] + r[i + 1:] for k, r in enumerate(A) if k != j)
            t = mat_det(minor)
            if (i + j) % 2:
                t = -t
            row.append(t)
        out.append(tuple(row))
    return tuple(out)


def mat_const(spec: FieldSpec, rows, absprec: int = DEFAULT_PREC) -> Mat:
    """Lift a matrix of scalars to constant USeries."""
    return mat_make(spec, rows, absprec=absprec)


# --- the module type ---------------------------------------------------------


@dataclass(frozen=True)
class KisinModule:
    """Rank-d module with Frobenius matrix A, Eisenstein E, declared height r."""

    spec: FieldSpec
    f: FrobLift
    E: EisensteinE
    r: int
    A: Mat

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError("declared height must be >= 0")
        if self.f.spec != self.spec or self.E.spec != self.spec:
            raise SpecMismatchError("f, E and A must share one field")
        for row in self.A:
            for entry in row:
                if not entry.is_integral():
                    raise ValueError("Frobenius matrix entries must be integral")

    @classmethod
    def make(cls, f: FrobLift, E: EisensteinE, r: int, rows,
             absprec: int = DEFAULT_PREC) -> "KisinModule":
        A = mat_make(f.spec, rows, absprec=absprec)
        return cls(f.spec, f, E, r, A)

    @property
    def d(self) -> int:
        return len(self.A)

    def constant_matrix(self) -> tuple:
        """A(0) as a matrix of FElements."""
        return tuple(tuple(entry.constant() for entry in row) for row in self.A)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "E": self.E.to_json(),
            "f": self.f.to_json(),
            "A": [[entry.to_json() for entry in row] for row in self.A],
        }


# --- height ------------------------------------------------------------------


def verify_height(m: KisinModule) -> bool:
    """True iff E^r * A^(-1) has integral entries."""
    return _height(m)[0]


def _height(m: KisinModule) -> tuple:
    """(verify_height's verdict, the E-order s of det(A)).

    Routed through det(A) = gamma*E^s: the module has height r exactly
    when gamma is a unit and every adjugate entry is divisible by
    E^(s-r).  Raises IndeterminateError when truncation hides the
    verdict.
    """
    det = mat_det(m.A)
    if det.is_zero_at_prec():
        if all(lab is None or lab >= 1 for lab in det.labels):
            raise ValueError("Frobenius matrix is singular at available precision")
        raise IndeterminateError("determinant carries no information mod pi")
    if det.cap is not None and det.cap < (m.d * m.r + 1) * m.E.e0 + 1:
        raise IndeterminateError("u-order cap too small to certify the height")
    s, gamma = e_order(det, m.E)
    g0 = gamma.constant()
    if g0.is_zero_at_prec() and g0.absprec < 1:
        raise IndeterminateError("E-free cofactor undecidable mod pi")
    if g0.is_zero_at_prec() or g0.vlow() > 0:
        return False, s
    if s <= m.r:
        return True, s
    need = s - m.r
    for row in mat_adj(m.A):
        for b in row:
            if b.is_zero_at_prec():
                if any(lab is not None and lab < 1 for lab in b.labels):
                    raise IndeterminateError(
                        "adjugate entry undecidable at available precision"
                    )
                continue
            k, cof = e_order(b, m.E)
            if k >= need:
                continue
            if not e_divides(cof, m.E):
                return False, s
            raise IndeterminateError("u-order cap too small to certify the height")
    return True, s


@dataclass(frozen=True)
class MinimalHeight:
    m: int
    unit_cofactor: USeries

    def to_json(self) -> dict:
        return {"m": self.m, "unit_cofactor": self.unit_cofactor.to_json()}


def minimal_height_rank1(a: USeries, E: EisensteinE) -> MinimalHeight:
    """Write a = mu*E^m with mu a unit and return m.

    A rank-one Frobenius necessarily has this shape; anything else (a
    pi-multiple or a u-multiple cofactor) is rejected.
    """
    if a.is_zero_at_prec():
        raise ValueError("series indistinguishable from zero")
    m, cof = e_order(a, E)
    if wdeg(cof) != 0:
        raise ValueError("cofactor is not a unit: input is not mu*E^m")
    return MinimalHeight(m, cof)


def fil1_rank(m: KisinModule) -> int:
    """dim of the first filtration step, read off as the E-order of det(A)."""
    if m.r != 1:
        raise ValueError("filtration rank is computed for declared height 1")
    ok, s = _height(m)
    if not ok:
        raise ValueError("module does not have verified height 1")
    if not 0 <= s <= m.d:
        raise ArithmeticError("E-order of det escaped [0, d] on a height-1 module")
    return s


# --- exact polynomial layer (coefficients in O_F, no truncation) -------------


def _xp_mul(a: list, b: list, spec: FieldSpec) -> list:
    out = [OFExact.zero(spec)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def _xp_compose(outer: list, inner: list, spec: FieldSpec) -> list:
    acc = [outer[-1]]
    for c in outer[-2::-1]:
        acc = _xp_mul(acc, inner, spec)
        acc[0] = acc[0] + c
    return acc


def _xp_pow(base: list, k: int, spec: FieldSpec) -> list:
    acc = [OFExact.one(spec)]
    run = base
    while k:
        if k & 1:
            acc = _xp_mul(acc, run, spec)
        k >>= 1
        if k:
            run = _xp_mul(run, run, spec)
    return acc


# --- the scalar obstruction scan ---------------------------------------------


@dataclass(frozen=True)
class HypothesisResult:
    n: int
    k: int

    def to_json(self) -> dict:
        return {"found": True, "n": self.n, "k": self.k}


def hypothesis_check(f: FrobLift, E: EisensteinE, N: int) -> HypothesisResult | None:
    """Smallest n <= N with phi^n(f/u) = E^k as an exact identity.

    At most one level is a candidate, so only that one is composed.  The
    constant term of phi^n(f/u) is a_1 for every n, and E^k(0) = E(0)^k
    has valuation k because EisensteinE enforces v(E(0)) = 1: so
    k = v(a_1), and a_1 = 0 settles the scan negatively.  Degrees force
    (p-1)p^n = e0*k, which fixes n.  At that n both sides are monic of
    degree (p-1)p^n, so their coefficient lists compare directly.
    """
    hit = _obstruction(f, E, N)
    return None if hit is None else HypothesisResult(*hit[:2])


def _obstruction(f: FrobLift, E: EisensteinE, N: int) -> tuple | None:
    """(n, k, E^k) when phi^n(f/u) = E^k at the one candidate level n <= N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    spec = f.spec
    if f.a1.is_zero():
        return None
    k = f.a1.val()
    q, rem = divmod(E.e0 * k, spec.p - 1)
    n = 0
    while q > 1 and q % spec.p == 0:
        q //= spec.p
        n += 1
    if rem or q != 1 or n > N:
        return None
    fpoly = [OFExact.zero(spec), *f.coeffs]
    g = list(f.coeffs)
    for _ in range(n):
        g = _xp_compose(g, fpoly, spec)
    Ek = _xp_pow(list(E.coeffs), k, spec)
    return (n, k, Ek) if g == Ek else None


# --- witness construction ----------------------------------------------------


@dataclass(frozen=True)
class CounterexampleWitness:
    A: USeries
    l: int
    module: KisinModule
    ambient: KisinModule

    def to_json(self) -> dict:
        return {"A": self.A.to_json(), "l": self.l}


def check_counterexample(f: FrobLift, E: EisensteinE, A: USeries, l: int) -> bool:
    """Does A*E^l = phi(A) hold at available precision?

    Returns False on a visible mismatch, raises IndeterminateError when
    no coefficient carries a digit of information.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    lhs = A * USeries.make(f.spec, _xp_pow(list(E.coeffs), l, f.spec))
    diff = lhs - frobenius(A, f)
    if not diff.is_zero_at_prec():
        return False
    if any(lab is not None and lab < 1 for lab in diff.labels):
        raise IndeterminateError("identity check ran out of precision")
    return True


def counterexample_module(f: FrobLift, E: EisensteinE, n: int,
                          absprec: int = DEFAULT_PREC) -> CounterexampleWitness:
    """A = f * phi(f/u) ... phi^(n-1)(f/u) = f^(n)(u), with its pair
    O_F[[u]] >= A*O_F[[u]], both of height l.

    phi(A) = A*phi^n(f/u) and A != 0 in the domain O_F[u], so
    A*E^l = phi(A) exactly when phi^n(f/u) = E^l: the scan's identity,
    decided at level n before A is built as n compositions A <- A(f).
    """
    spec = f.spec
    if n < 0:
        raise ValueError("n must be >= 0")
    l, rem = divmod((spec.p - 1) * spec.p**n, E.e0)
    if rem:
        raise SpecMismatchError("degree of E does not divide the forced exponent")
    hit = _obstruction(f, E, n)
    if hit is None or hit[0] != n:
        raise SpecMismatchError(
            f"A*E^{l} = phi(A) fails: (n, l) = ({n}, {l}) is not a witness"
        )
    fpoly = [OFExact.zero(spec), *f.coeffs]
    A = [OFExact.zero(spec), OFExact.one(spec)]
    for _ in range(n):
        A = _xp_compose(A, fpoly, spec)
    module = KisinModule.make(f, E, l, [[USeries.make(spec, hit[2], absprec=absprec)]])
    ambient = KisinModule.make(f, E, l, [[1]], absprec=absprec)
    return CounterexampleWitness(USeries.make(spec, A, absprec=absprec), l,
                                 module, ambient)


# --- the Y_n iteration -------------------------------------------------------


def _gauge_shift(g, c: int):
    if g is None:
        return None
    if isinstance(g, AtLeast):
        return AtLeast(g.bound - c)
    return g - c


@dataclass(frozen=True)
class XiReport:
    """Y at the final step, its integral numerator, and the gauge trace.

    Y = numerator / den entrywise; gauges[i] is the gauge of
    Y_(i+1) - Y_i, so the list has one reading per iteration step.
    """

    Y: Mat
    numerator: Mat
    den: FElement
    gauges: tuple

    def to_json(self) -> dict:
        return {
            "gauges": [{"at_least": g.bound} if isinstance(g, AtLeast) else g
                       for g in self.gauges],
            "den": self.den.to_json(),
            "Y": [[entry.to_json() for entry in row] for row in self.Y],
        }


def xi_iterate(m: KisinModule, max_n: int, u_order: int | None = None) -> XiReport:
    """Run Y_n = phi(A)...phi^n(A) (A0^-1)^n out to n = max_n.

    Requires pi^(r+1) | a_1 and A(0) invertible over F.  The gauge trace
    is computed on numerator differences (integral, honest caps) and
    shifted by the accumulated denominator valuation.  Postconditions
    checked at available precision: Y = I mod u and Y*phi(A0) =
    phi(A)*phi(Y).  A trace that visibly stops climbing raises, since
    that is exactly what convergence failure looks like.

    At step n every entry h of A is composed with the same g_n = f^(n)(u):
    the powers g_n, ..., g_n^D (D the largest entry degree) are built
    once, and h(g_n) = h_0 + sum_k h_k g_n^k is one kernel call per entry
    (Brent, Kung, "Fast algorithms for manipulating formal power series",
    1978): the one-block case of s_compose's giant steps, sharing one
    table among all entries.  Its labels follow that scheme and are no
    lower than Horner's on the same inputs.  g_(n+1) = f(g_n) (block size
    1, Horner's rule) and the check compositions go through s_compose,
    which never reads this table.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    spec, f, e0 = m.spec, m.f, m.E.e0
    if not f.a1.is_zero() and f.a1.val() < m.r + 1:
        raise ValueError("iteration needs pi^(r+1) to divide a_1")
    A0 = m.constant_matrix()
    det0 = mat_det(A0)
    if det0.is_zero_at_prec():
        if det0.absprec < 1:
            raise IndeterminateError("A(0) undecidable at available precision")
        raise ValueError("A(0) is singular")
    v0 = det0.vlow()
    adj0 = mat_adj(A0)
    if u_order is None:
        va1 = m.r + 4 if f.a1.is_zero() else min(f.a1.val(), m.r + 4)
        u_order = e0 * spec.p * (max_n * (va1 - m.r + max(v0, 1)) + 10)
    tprec = max(
        [lab for row in m.A for x in row for u, lab in zip(x.units, x.labels) if u[0]],
        default=DEFAULT_PREC,
    )
    tprec = max(tprec, DEFAULT_PREC) + spec.e_F + 2
    f_ser = f.as_series(tprec)

    top = max(len(x) for row in m.A for x in row) - 1  # largest entry degree
    ident = mat_identity(spec, m.d, absprec=tprec)
    gauges = []
    adj0_pow = adj0
    g_n = f_ser.truncate(u_order)
    P = None
    N_penult = N_prev = N = ident
    for n in range(1, max_n + 1):
        if n > 1:
            g_n = s_compose(f_ser, g_n).truncate(u_order)
            adj0_pow = mat_mul(adj0_pow, adj0)
        # every entry composes with the same g_n: one power table serves all
        powers = _powers(g_n, top, u_order)
        C = tuple(tuple(_compose_powers(x, powers).truncate(u_order) for x in row)
                  for row in m.A)
        P = C if P is None else mat_mul(P, C)
        N = mat_mul(P, adj0_pow)
        delta = _mat_sub_scaled(N, N_prev, det0)
        raw = _gauge_combine(
            gauge_alpha(entry, e0) for row in delta for entry in row
        )
        gauges.append(_gauge_shift(raw, n * v0))
        N_penult = N_prev
        N_prev = N

    for i in range(2, len(gauges)):
        a, b = gauges[i - 1], gauges[i]
        if isinstance(a, int) and isinstance(b, int) and b <= a:
            raise ArithmeticError(
                f"gauge trace stopped climbing at step {i + 1}: convergence failure"
            )

    den = det0**max_n
    for i, row in enumerate(N):
        for j, entry in enumerate(row):
            target = den if i == j else FElement.zero_at(spec, den.absprec)
            if not (entry.constant() - target).is_zero_at_prec():
                raise ArithmeticError("Y is not the identity mod u")

    # exact one-step relation N_n * A0 = phi(A) * phi(N_(n-1)) * det0,
    # compared on a short u-window to keep the composition cheap
    check_cap = min(u_order, 6 * e0 * spec.p)
    f_short = f_ser.truncate(check_cap)
    lhs = mat_mul(mat_truncate(N, check_cap), A0)
    C1 = tuple(tuple(s_compose(x, f_short) for x in row)
               for row in mat_truncate(m.A, check_cap))
    phiNp = tuple(tuple(s_compose(x, f_short) for x in row)
                  for row in mat_truncate(N_penult, check_cap))
    rhs = mat_scale(mat_mul(C1, phiNp), det0)
    for row in mat_sub(lhs, rhs):
        for entry in row:
            if not entry.is_zero_at_prec():
                raise ArithmeticError(
                    "intertwining relation failed at available precision"
                )

    inv = FElement.one(spec, den.absprec) / den
    Y = mat_scale(N, inv)
    return XiReport(Y=Y, numerator=N, den=den, gauges=tuple(gauges))

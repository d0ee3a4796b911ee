"""The four workloads: seeded job generators and the output check of each job.

A job is one `frobkit.cli.run(argv)` call.  Its check reads the parsed JSON
report and compares it with the reference arithmetic in `refarith` or with
a property the method must have; it never compares with a stored report.
A check returns the capped precision labels of the job's p-adic output
coefficients (for `digits_delivered`) and raises `CheckError` on a wrong
answer.

Each workload is a list of rounds: a round is a fixed list of job kinds,
every job drawn fresh from the workload's random stream.  The rounds of
one workload all have the same make-up, so the share of failing jobs is
the same in every run.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

from refarith import Ring


class CheckError(Exception):
    """A job's output disagrees with the reference."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


class Job:
    """argv for the CLI, the exit code it must return, and its output check."""

    __slots__ = ("kind", "argv", "exit_code", "check")

    def __init__(self, kind: str, argv: list[str], check=None, exit_code: int = 0):
        self.kind, self.argv, self.check, self.exit_code = kind, argv, check, exit_code


# --- fields and their reference rings ------------------------------------------

G = {"Z3": (3, (-3, 1)), "Z5": (5, (-5, 1)), "Z3pi": (3, (-3, 0, 1))}
EXACT = {name: Ring(p, g, None) for name, (p, g) in G.items()}
JSON_DIGIT_CAP = 64  # USeries.to_json caps every label at 64 digits


def _field_args(base: str) -> list[str]:
    p, g = G[base]
    args = ["--p", str(p)]
    if len(g) > 2:
        args += ["--base-g", json.dumps(list(g))]
    return args


def _coord_json(ring: Ring, x: tuple):
    """A scalar as the CLI's JSON coefficient: an int, or a coordinate list."""
    return x[0] if ring.e == 1 else list(x)


def _unit(rng, ring: Ring) -> tuple:
    """A random unit of Z[pi]/(g) with small coordinates."""
    p = ring.p
    c0 = rng.randrange(1, p) + p * rng.randint(-2, 2)
    return ring.scalar([c0] + [rng.randint(-p, p) for _ in range(ring.e - 1)])


def _pi_multiple(rng, ring: Ring, v: int) -> tuple:
    """pi^v times a random unit."""
    return ring.mul(ring.pi_pow(v), _unit(rng, ring))


# --- decoding report coefficients ------------------------------------------------


def _fel(obj: dict) -> tuple[list, int, int]:
    """(base-pi digits of the unit, shift, label) of an FElement's JSON."""
    shift = obj.get("shift", 0)
    return obj["digits"], shift, obj["prec"] + shift


def _agrees(ring: Ring, obj: dict, num: tuple, den: tuple | None = None) -> bool:
    """Does the coefficient obj equal num/den modulo pi^(its own label)?"""
    digits, shift, label = _fel(obj)
    den = den if den is not None else ring.scalar(1)
    vd = ring.val(den)
    t = max(0, -shift)  # clear a negative shift on both sides
    lhs = ring.mul(num, ring.pi_pow(t))
    rhs = ring.mul(ring.mul(den, ring.from_digits(digits)), ring.pi_pow(shift + t))
    return ring.is_zero_mod(ring.sub(lhs, rhs), label + vd + t)


def _value(ring: Ring, obj: dict) -> tuple:
    """The integral value an FElement's JSON represents."""
    digits, shift, _ = _fel(obj)
    _require(shift >= 0 or not digits, f"coefficient not integral: {obj}")
    return ring.from_digits(digits, max(shift, 0))


def _labels(coeffs: list[dict], N: int) -> list[int]:
    return [min(_fel(c)[2], N) for c in coeffs]


def _series_value(ring: Ring, series: dict) -> tuple[list, int]:
    """(integral polynomial, least label) of a USeries' JSON."""
    cs = series["coeffs"]
    return [_value(ring, c) for c in cs], min(_fel(c)[2] for c in cs)


# --- xi-rank2: the Y_n iteration on rank-2 modules -----------------------------


def _int_matmul(ring: Ring, A, B, n=None):
    d = len(A)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = ring.pmul(A[i][0], B[0][j], n)
            for k in range(1, d):
                acc = ring.padd(acc, ring.pmul(A[i][k], B[k][j], n))
            row.append(acc)
        out.append(row)
    return out


def _rand_unimod(rng, ring: Ring, d: int, full_degree: bool = False):
    """Lower times upper triangular over Z[u] with unit diagonal mod p: the
    generator of the acceptance criteria 7 and 8.  With full_degree the
    off-diagonal quadratics have a nonzero u^2 term, so every matrix has
    the same degrees."""
    p = ring.p
    top = (1 if full_degree else 0, p)
    lower = [[ring.poly([0]) for _ in range(d)] for _ in range(d)]
    upper = [[ring.poly([0]) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        lower[i][i] = ring.poly([rng.choice((1, 2)) + p * rng.randrange(3)])
        upper[i][i] = ring.poly([1])
        for j in range(i):
            lower[i][j] = ring.poly([rng.randrange(p) for _ in range(2)]
                                    + [rng.randrange(*top)])
            upper[j][i] = ring.poly([rng.randrange(p) for _ in range(2)]
                                    + [rng.randrange(*top)])
    return _int_matmul(ring, lower, upper)


def conjugated_diag(rng, E: list[int], d: int, n_units: int,
                    full_degree: bool = False):
    """U * diag(1..1, E..E) * V with random unimodular U, V, as int lists."""
    ring = EXACT["Z3"]
    diag = [[ring.poly([int(i == j)]) for j in range(d)] for i in range(d)]
    for i in range(n_units, d):
        diag[i][i] = ring.poly(E)
    A = _int_matmul(ring, _int_matmul(ring, _rand_unimod(rng, ring, d,
                                                         full_degree), diag),
                    _rand_unimod(rng, ring, d, full_degree))
    return [[_trim([c[0] for c in entry]) for entry in row] for row in A]


def _trim(cs: list[int]):
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs[0] if len(cs) == 1 else cs


def _int_det_adj(M):
    """Determinant and adjugate of a small integer matrix."""
    d = len(M)
    if d == 1:
        return M[0][0], [[1]]

    def det(X):
        if len(X) == 1:
            return X[0][0]
        return sum((-1) ** j * X[0][j] * det([r[:j] + r[j + 1:] for r in X[1:]])
                   for j in range(len(X)))

    adj = [[(-1) ** (i + j) * det([r[:i] + r[i + 1:]
                                   for k, r in enumerate(M) if k != j])
            for j in range(d)] for i in range(d)]
    return det(M), adj


def _xi_job(rows, f: list[int], E: list[int], max_n: int, M: int, N: int,
            kind: str) -> Job:
    argv = ["kisin", "xi", "--p", "3", "--f", json.dumps(f), "--E",
            json.dumps(E), "--r", "1", "--max-n", str(max_n), "--M", str(M),
            "--N", str(N), "--matrix", json.dumps(rows)]

    def check(env):
        rep = env["report"]
        gauges = rep["gauges"]
        _require(len(gauges) == max_n, "one gauge reading per step")
        tail = gauges[1:]
        _require(all(isinstance(g, int) for g in tail)
                 and all(b > a for a, b in zip(tail, tail[1:])),
                 f"gauges do not climb strictly: {gauges}")
        # reference: Y = phi(A)...phi^n(A) adj(A0)^n / det(A0)^n mod u^M
        d = len(rows)
        A0 = [[e if isinstance(e, int) else e[0] for e in row] for row in rows]
        det0, adj0 = _int_det_adj(A0)
        den_int = det0 ** max_n
        vden = EXACT["Z3"].val((den_int,))
        top = max(_fel(c)[2] for row in rep["Y"] for y in row for c in y["coeffs"])
        ring = Ring(3, (-3, 1), max(top, _fel(rep["den"])[2]) + vden + 4)
        A = [[ring.poly(e if isinstance(e, list) else [e]) for e in row]
             for row in rows]
        fpoly = ring.poly([0, *f])
        fn = ring.poly([0, 1])
        P = None
        for _ in range(max_n):
            fn = ring.compose(fpoly, fn, M)
            C = [[ring.compose(a, fn, M) for a in row] for row in A]
            P = C if P is None else _int_matmul(ring, P, C, M)
        adjn = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(max_n):
            adjn = [[sum(adjn[i][k] * adj0[k][j] for k in range(d))
                     for j in range(d)] for i in range(d)]
        den = ring.scalar(den_int)
        _require(_agrees(ring, rep["den"], den), "den is not det(A(0))^n")
        labels = []
        for i in range(d):
            for j in range(d):
                num = [ring.zero()] * M
                for k in range(d):
                    num = ring.padd(num, ring.pscale(P[i][k],
                                                     ring.scalar(adjn[k][j])))
                cs = rep["Y"][i][j]["coeffs"]
                _require(len(cs) == M, f"Y[{i}][{j}] has {len(cs)} coefficients")
                for n, c in enumerate(cs):
                    _require(_agrees(ring, c, num[n], den),
                             f"Y[{i}][{j}] coefficient of u^{n} disagrees")
                labels += _labels(cs, N)
        return labels

    return Job(kind, argv, check)


def xi_rank2_round(rng) -> list[Job]:
    # full degree: a matrix with a vanishing u^2 term costs up to a third
    # less, which moved the median job time from seed to seed
    rows = conjugated_diag(rng, [-3, 1], 2, 1, full_degree=True)
    return [_xi_job(rows, [9, 0, 1], [-3, 1], 6, 54, 16, "xi")]


# --- witt-ghost: exact ghost identities of the Witt polynomials -----------------


def _exact_coeff(ring: Ring, c) -> tuple:
    """An OFExact coefficient as ints; the Witt polynomials are integral."""
    coords = []
    for q in c.vec:
        _require(q.denominator == 1, f"non-integral Witt coefficient {q}")
        coords.append(q.numerator)
    return ring.scalar(coords)


def _eval(ring: Ring, poly: dict, point: list) -> tuple:
    powers = [[ring.scalar(1), x] for x in point]
    acc = ring.zero()
    for key, c in poly.items():
        term = _exact_coeff(ring, c)
        for pw, k in zip(powers, key):
            while len(pw) <= k:
                pw.append(ring.mul(pw[-1], pw[1]))
            if k:
                term = ring.mul(term, pw[k])
        acc = ring.add(acc, term)
    return acc


def _ghost(ring: Ring, comps: list, m: int) -> tuple:
    """w_m = sum_{j<=m} pi^j comps_j^(p^(m-j))."""
    acc = ring.zero()
    for j in range(m + 1):
        t = comps[j]
        for _ in range(ring.p ** (m - j) - 1):
            t = ring.mul(t, comps[j])
        acc = ring.add(acc, ring.mul(ring.pi_pow(j), t))
    return acc


def check_ghost_identities(rng, max_len: int) -> None:
    """w_m(S) = w_m(x) + w_m(y) and w_m(P) = w_m(x) w_m(y) at one fresh
    integral point per base and length, with the S_m, P_m from the public
    witt_polys."""
    import frobkit as fk

    for base in ("Z3", "Z3pi"):
        p, g = G[base]
        ring = EXACT[base]
        spec = fk.FieldSpec(p, g)
        for n in range(1, max_len + 1):
            ps = fk.witt_polys(n, spec)
            pt = [ring.scalar([rng.randint(-4, 4) for _ in range(ring.e)])
                  for _ in range(2 * n)]
            xs, ys = pt[:n], pt[n:]
            S = [_eval(ring, ps.sums[m], pt) for m in range(n)]
            P = [_eval(ring, ps.prods[m], pt) for m in range(n)]
            for m in range(n):
                gx, gy = _ghost(ring, xs, m), _ghost(ring, ys, m)
                _require(_ghost(ring, S, m) == ring.add(gx, gy),
                         f"ghost sum identity fails: {base}, n = {n}, m = {m}")
                _require(_ghost(ring, P, m) == ring.mul(gx, gy),
                         f"ghost product identity fails: {base}, n = {n}, m = {m}")


def _witt_job(argv_tail: list[str], max_len: int, trials: int, rng, kind: str) -> Job:
    argv = ["witt-selftest", "--p", "3", "--witt-len", str(max_len),
            "--trials", str(trials)] + argv_tail
    check_rng = random.Random(rng.random())

    def check(env):
        rep = env["report"]
        want = [(g, n) for g in ([-3, 1], [-3, 0, 1]) for n in range(1, max_len + 1)]
        got = [(c["field"]["g"], c["length"]) for c in rep["checks"]]
        _require(got == want, f"checked (field, length) pairs {got}")
        _require(rep["ok"] is True, "witt-selftest reports a failure")
        labels = []
        N = env["config"]["precision"]["piadic"]
        for c in rep["checks"]:
            _require(c["integral"] is True and c["ghost_trials"] == trials
                     and c["ghost_exact"] == trials and c["ok"] is True,
                     f"ghost trials not all exact: {c}")
            # each exact trial delivers the requested precision, capped at N
            labels += [N] * c["ghost_exact"] + [0] * (trials - c["ghost_exact"])
        check_ghost_identities(check_rng, max_len)
        return labels

    return Job(kind, argv, check)


WITT_TRIALS = 4


def witt_ghost_round(rng) -> list[Job]:
    seed = rng.randrange(10 ** 9)
    return [_witt_job(["--base", "both", "--seed", str(seed)], 4, WITT_TRIALS,
                      rng, "witt-selftest")]


# --- intertwine-deep: intertwiners at M 50, N 20 -------------------------------


def _lift_pair(rng, base: str, s: int):
    """A random compatible pair (f, f2) over the base: a_1 .. a_(s-1) = 0 and
    every other a_i (i < p) pi times a random unit, with a_1 = a_1' when
    s = 1.  Fixed valuations keep the cost of a job steady across seeds."""
    ring = EXACT[base]
    p = ring.p
    f = [ring.zero()] * (s - 1) + [_pi_multiple(rng, ring, 1)
                                   for _ in range(p - s)]
    f2 = [ring.zero()] * (s - 1) + [_pi_multiple(rng, ring, 1)
                                    for _ in range(p - s)]
    if s == 1:
        f2[0] = f[0]
    return f + [ring.scalar(1)], f2 + [ring.scalar(1)]


def _intertwine_job(base: str, f: list, f2: list, M: int, N: int, s: int,
                    kind: str, mu0: int | None = None,
                    presets: tuple[str, str] | None = None) -> Job:
    ring = EXACT[base]
    if presets is not None:
        argv = ["intertwine", "--preset-f", presets[0], "--preset-f2",
                presets[1]] + _field_args(base)
    else:
        argv = ["intertwine"] + _field_args(base) + [
            "--f", json.dumps([_coord_json(ring, a) for a in f]),
            "--f2", json.dumps([_coord_json(ring, a) for a in f2])]
    argv += ["--M", str(M), "--N", str(N)]
    if s > 1:
        argv.append("--all-mu0")
    elif mu0 is not None:
        argv += ["--mu0", str(mu0)]
    mu0_req = 1 if mu0 is None else mu0

    def check(env):
        sols = env["report"]["solutions"]
        _require(len(sols) == 1, f"{len(sols)} solutions")
        sol = sols[0]
        _require(sol["s"] == s and sol["integral"] is True
                 and sol["verified"] is True, f"s/integral/verified: {sol['s']}, "
                 f"{sol['integral']}, {sol['verified']}")
        _require(sol["verified_to"] == {"M": M, "N": N},
                 f"verified_to {sol['verified_to']}")
        # each degree divides by s * a_s (by a_1 - a_1^d when s = 1), whose
        # valuation is the loss per degree
        loss = ring.val(ring.mul(ring.scalar(s), f[s - 1]))
        _require(sol["losses"] == [loss] * (M - 1), f"losses {sol['losses']}")
        xi_json, mu0 = sol["xi"], sol["mu0"]
        L = [_fel(c)[2] for c in xi_json["coeffs"]]
        _require(len(L) == M + 1 and min(L[1:]) >= N, f"xi labels {L}")
        top = max(L + [_fel(mu0)[2]]) + loss + 2
        rr = Ring(ring.p, ring.g, -(-top // ring.e))
        xi, _ = _series_value(rr, xi_json)
        # leading coefficient: mu0 as requested (s = 1), else a_s mu0^(s-1) = a_s'
        _require(rr.is_zero_mod(rr.sub(_value(rr, mu0), xi[1]),
                                min(L[1], _fel(mu0)[2])),
                 "mu0 is not the coefficient of u in xi")
        if s == 1:
            _require(_agrees(rr, mu0, rr.scalar(mu0_req)), "mu0 != requested")
        else:
            a_s = got = rr.scalar(list(f[s - 1]))
            for _ in range(s - 1):
                got = rr.mul(got, _value(rr, mu0))
            _require(rr.is_zero_mod(rr.sub(got, rr.scalar(list(f2[s - 1]))),
                                    _fel(mu0)[2] + rr.val(a_s)),
                     "a_s mu0^(s-1) != a_s'")
        # reference residual: for j >= s its u^j coefficient depends on
        # xi_1..xi_d, d = j - s + 1, through integral partial derivatives,
        # and on xi_d through the divisor only; so it vanishes modulo
        # min(L_d + loss, L_k for k < d), out to the u^(M+s-1) that fixes xi_M
        fp = [rr.zero()] + [rr.scalar(list(a)) for a in f]
        f2p = [rr.zero()] + [rr.scalar(list(a)) for a in f2]
        n = M + s
        res = rr.psub(rr.compose(fp, xi, n), rr.compose(xi, f2p, n))
        for j in range(1, n):
            d = j - s + 1
            if d >= 2:
                lam = min(L[1:d] + [L[d] + loss])
            else:  # xi_1 = mu0 only, or no coefficient at all below u^s
                lam = L[1] if d == 1 else max(L)
            _require(rr.is_zero_mod(res[j], lam),
                     f"f(xi) - xi(f2) is nonzero at u^{j} mod pi^{lam}")
        return _labels(xi_json["coeffs"] + [mu0], N)

    return Job(kind, argv, check)


def _random_intertwine(rng, base: str, s: int, M: int, N: int, kind: str) -> Job:
    f, f2 = _lift_pair(rng, base, s)
    mu0 = rng.choice((1, 2, 4, 5, 7, 8)) if s == 1 else None
    return _intertwine_job(base, f, f2, M, N, s, kind, mu0=mu0)


INTERTWINE_DEEP_M, INTERTWINE_DEEP_N = 30, 20


def intertwine_deep_round(rng) -> list[Job]:
    # two s = 1 jobs, which sit in the middle of the four job times, so the
    # median averages two jobs instead of resting on one
    M, N = INTERTWINE_DEEP_M, INTERTWINE_DEEP_N
    return [_random_intertwine(rng, "Z3", 1, M, N, "intertwine-s1"),
            _random_intertwine(rng, "Z3", 2, M, N, "intertwine-s2"),
            _random_intertwine(rng, "Z3pi", 1, M, N, "intertwine-ramified"),
            _random_intertwine(rng, "Z3", 1, M, N, "intertwine-s1")]


# --- cli-mix: interactive-size jobs of every command ----------------------------


def _tower_known(env) -> list[int]:
    rep = env["report"]
    _require(rep["imin"] == 1, "imin")
    _require([Fraction(x["i_n"]) for x in rep["levels"]]
             == [3 ** n - 1 for n in range(1, 7)], "i_n = 3^n - 1")
    _require(Fraction(rep["c"]) == Fraction(2, 3), "c = 2/3")
    _require(rep["single_segment"] is True, "single-segment polygons")
    return []


def _tower_random(rng, base: str) -> Job:
    ring = EXACT[base]
    p, e = ring.p, ring.e
    vals = {}
    coeffs = []
    for i in range(1, p):
        if rng.random() < 0.3:
            coeffs.append(ring.zero())
        else:
            v = rng.randint(1, e + 2)
            vals[i] = v
            coeffs.append(_pi_multiple(rng, ring, v))
    coeffs.append(ring.scalar(1))
    vals[p] = 0
    imin = min(i for i, v in vals.items() if v <= e)
    e0 = rng.randint(1, 3)
    levels = rng.randint(3, 8)
    poly_levels = rng.randint(2, 4)
    argv = (["tower"] + _field_args(base)
            + ["--f", json.dumps([_coord_json(ring, a) for a in coeffs]),
               "--e0", str(e0), "--levels", str(levels),
               "--polygon-levels", str(poly_levels)])

    def check(env):
        rep = env["report"]
        _require(rep["imin"] == imin, f"imin {rep['imin']} != {imin}")
        i_n = [Fraction(x["i_n"]) for x in rep["levels"]]
        _require(len(i_n) == levels, "number of levels")
        # elementary levels of the iterate tower: i_(n+1) = p i_n + p - imin,
        # and c = inf i_n / p^n is attained at n = 1
        _require(all(b == p * a + p - imin for a, b in zip(i_n, i_n[1:])),
                 f"levels break the recurrence: {i_n}")
        _require(Fraction(rep["c"]) == i_n[0] / p > 0, "c = i_1 / p")
        _require(isinstance(rep["single_segment"], bool), "single_segment")
        return []

    return Job("tower", argv, check)


def _random_eisenstein(rng, p: int) -> list[int]:
    """The generator of acceptance criterion 2."""
    e0 = rng.randint(1, 3)
    c0 = -p * (rng.randrange(1, p) + p * rng.randrange(3))
    mids = [p * rng.randrange(-2, 3) for _ in range(e0 - 1)]
    return [c0, *mids, 1]


def _expect_report(want: dict):
    def check(env):
        _require(env["report"] == want, f"report {env['report']} != {want}")
        return []
    return check


def _hypothesis(rng) -> Job:
    p = rng.choice((3, 5))
    kind = rng.choice(("cyclotomic", "twisted", "classical"))
    budget = rng.randint(1, 6)
    argv = ["kisin", "hypothesis", "--preset", kind, "--p", str(p),
            "--N", str(budget)]
    if kind == "classical":
        argv += ["--E", json.dumps(_random_eisenstein(rng, p))]
    want = {"cyclotomic": {"found": True, "n": 0, "k": 1},
            "twisted": {"found": True, "n": 1, "k": p - 1},
            "classical": {"found": False}}[kind]
    return Job("hypothesis", argv, _expect_report(want))


_PRESET_F = {
    "classical": lambda p: [0] * (p - 1) + [1],
    "cyclotomic": lambda p: [comb(p, i) for i in range(1, p + 1)],
    "twisted": lambda p: [comb(p - 1, j) * (-p) ** (p - 1 - j) for j in range(p)],
}
_PRESET_E = {
    "cyclotomic": lambda p: [comb(p, i) for i in range(1, p + 1)],
    "twisted": lambda p: [-p] + [comb(p - 1, j) * (-p) ** (p - 1 - j)
                                 for j in range(p)],
}


def _counterexample(preset: str, p: int, n: int, N: int | None, kind: str) -> Job:
    argv = ["kisin", "counterexample", "--preset", preset, "--p", str(p),
            "--n", str(n)]
    if N is not None:
        argv += ["--N", str(N)]
    l_want = (p - 1) * p ** n // (len(_PRESET_E[preset](p)) - 1)

    def check(env):
        rep = env["report"]
        _require(rep["l"] == l_want, f"l = {rep['l']} != {l_want}")
        _require(rep["identity_checked"] and rep["module_height_ok"]
                 and rep["ambient_height_ok"], "identity or height flags")
        ring = Ring(p, (-p, 1), JSON_DIGIT_CAP + 2)
        A, least = _series_value(ring, rep["A"])
        E = ring.poly(_PRESET_E[preset](p))
        f = ring.poly([0] + _PRESET_F[preset](p))
        res = ring.psub(ring.pmul(A, ring.ppow(E, rep["l"])), ring.compose(A, f))
        _require(all(ring.is_zero_mod(c, least) for c in res),
                 f"A*E^l - phi(A) is nonzero mod pi^{least}")
        # the identity is linear in A, so also compare A with its definition
        # f * phi(f/u) * ... * phi^(n-1)(f/u) (A = u when n = 0)
        want = ring.poly([0, 1])
        if n:
            want, g = f, f[1:]
            for _ in range(1, n):
                g = ring.compose(g, f)
                want = ring.pmul(want, g)
        cs = rep["A"]["coeffs"]
        _require(len(cs) == len(want)
                 and all(_agrees(ring, c, w) for c, w in zip(cs, want)),
                 "A is not f * phi(f/u) * ... * phi^(n-1)(f/u)")
        return _labels(cs, env["config"]["precision"]["piadic"])

    return Job(kind, argv, check)


def _random_counterexample(rng) -> Job:
    preset, n = rng.choice((("cyclotomic", 0), ("twisted", 1)))
    return _counterexample(preset, rng.choice((3, 5)), n, rng.randint(8, 16),
                           "counterexample")


def _module_job(rng, op: str, d: int) -> Job:
    """height or fil1 on U*diag(1..1, E..E)*V of rank d, the generator of
    criterion 8."""
    s = rng.randint(0, d)
    rows = conjugated_diag(rng, _PRESET_E["cyclotomic"](3), d, d - s)
    argv = ["kisin", op, "--preset", "cyclotomic", "--p", "3", "--N", "12",
            "--matrix", json.dumps(rows)]
    if op == "height":
        r = rng.randint(0, 1)
        argv += ["--r", str(r)]

    def check(env):
        rep = env["report"]
        _require(rep["d"] == d, "rank")
        if op == "height":
            # A^-1 = V^-1 diag(1..1, 1/E..1/E) U^-1, so E^r A^-1 is
            # integral exactly when r >= 1 or no E was put in
            _require(rep["verified"] is (r >= 1 or s == 0),
                     f"height verdict for s = {s}, r = {r}")
        else:
            _require(rep["fil1_rank"] == s, f"fil1_rank {rep['fil1_rank']} != {s}")
        return []

    return Job(op, argv, check)


def _minheight(rng) -> Job:
    p = rng.choice((3, 5))
    E = rng.choice((_PRESET_E["cyclotomic"](p), [-p, 1], _random_eisenstein(rng, p)))
    m = rng.randint(0, 3)
    unit = [rng.randrange(1, p)] + [rng.randint(-2 * p, 2 * p)
                                    for _ in range(rng.randint(0, 3))]
    ring = Ring(p, (-p, 1), None)
    a = ring.pmul(ring.poly(unit), ring.ppow(ring.poly(E), m))
    series = [c[0] for c in a]
    N = rng.randint(8, 16)
    argv = ["kisin", "minheight", "--p", str(p), "--E", json.dumps(E),
            "--series", json.dumps(series), "--N", str(N)]

    def check(env):
        rep = env["report"]
        _require(rep["m"] == m, f"m = {rep['m']} != {m}")
        cof_json = rep["unit_cofactor"]
        rr = Ring(p, (-p, 1), JSON_DIGIT_CAP + 2)
        cof, least = _series_value(rr, cof_json)
        c0 = cof_json["coeffs"][0]
        _require(c0.get("shift", 0) == 0 and c0["digits"][:1] not in ([], [0]),
                 "cofactor is not a unit")
        back = rr.psub(rr.pmul(cof, rr.ppow(rr.poly(E), m)), rr.poly(series))
        _require(all(rr.is_zero_mod(c, least) for c in back),
                 f"cofactor * E^m != a mod pi^{least}")
        return _labels(cof_json["coeffs"], N)

    return Job("minheight", argv, check)


def _fixedpoint(preset: str, witt_len: int | None, kind: str) -> Job:
    argv = ["fixedpoint", "--preset", preset, "--p", "3"]
    if witt_len is not None:
        argv += ["--witt-len", str(witt_len)]

    def check(env):
        rep = env["report"]
        n = env["config"]["precision"]["witt_len"]
        _require(rep["frob_matches_f"] is True, "phi(u) = f(u)")
        _require(rep["reduces_to_ubar"] is True, "u = [ubar] mod pi")
        _require(1 <= rep["iterations"] <= 2 * n, "iterations")
        red = rep["e_reduction"]
        _require(red["ok"] is True
                 and Fraction(red["v_R_E_mod_pi"]) == Fraction(red["v_pi"]),
                 "v_R(E(u) mod pi) = v(pi)")
        return []

    return Job(kind, argv, check)


def _presets_check(env) -> list[int]:
    want = {name: ([str(c) for c in _PRESET_F[name](3)],
                   [str(c) for c in _PRESET_E[name](3)])
            for name in ("cyclotomic", "twisted")}
    want["classical"] = (["0", "0", "1"], ["-3", "1"])
    want["lubin-tate"] = (["3", "0", "1"], ["3", "0", "1"])
    got = {e["name"]: (e["f"], e["E"]) for e in env["report"]["presets"]}
    _require(got == want, f"presets {got}")
    return []


def _readme_witt_check(env) -> list[int]:
    rep = env["report"]
    _require(rep["ok"] is True and len(rep["checks"]) == 6
             and all(c["ghost_exact"] == 25 for c in rep["checks"]),
             "README witt-selftest")
    check_ghost_identities(random.Random(7), 3)
    return []


def readme_examples() -> list[Job]:
    """The eight worked examples of README.md, inputs as printed there."""
    return [
        Job("readme-tower", ["tower", "--preset", "cyclotomic", "--p", "3"],
            _tower_known),
        Job("readme-hypothesis",
            ["kisin", "hypothesis", "--preset", "twisted", "--p", "3", "--N", "4"],
            _expect_report({"found": True, "n": 1, "k": 2})),
        _counterexample("twisted", 3, 1, None, "readme-counterexample"),
        Job("readme-witt", ["witt-selftest", "--p", "3", "--witt-len", "3",
                            "--trials", "25", "--seed", "7"], _readme_witt_check),
        _fixedpoint("lubin-tate", None, "readme-fixedpoint"),
        _xi_job([[[-3, 1]]], [9, 0, 1], [-3, 1], 3, 30, 16, "readme-xi"),
        Job("readme-presets", ["presets", "--p", "3"], _presets_check),
        _intertwine_job("Z3", [(3,), (3,), (1,)], [(3,), (0,), (1,)], 12, 8, 1,
                        "readme-intertwine",
                        presets=("cyclotomic", "lubin-tate")),
    ]


# solve_intertwiner accepts a1 != a1' when s = 1 and returns an unverified
# xi with exit 0; the same input with --all-mu0 exits 1.  Exit 1 is right.
FAULT_JOB = ["intertwine", "--preset-f", "cyclotomic", "--f2", "[6,0,1]",
             "--p", "3", "--M", "12", "--N", "6"]


def cli_mix_round(rng) -> list[Job]:
    # the three quick kinds (tower, hypothesis, minheight) make up two thirds
    # of the jobs, so the median job time falls inside their cluster rather
    # than in the gap to the slower kinds, where it would jump between them.
    # The slow kinds have fixed sizes (rank, Witt length, M and N), so a
    # round costs about the same whatever the seed; only their inputs vary.
    jobs = readme_examples()
    jobs.append(Job("intertwine-fault", list(FAULT_JOB), None, exit_code=1))
    jobs += [_tower_random(rng, base) for base in ("Z3", "Z5", "Z3pi") * 3]
    jobs += [_hypothesis(rng) for _ in range(6)]
    jobs.append(_random_counterexample(rng))
    jobs.append(_module_job(rng, "height", 2))
    jobs += [_module_job(rng, "fil1", d) for d in (2, 3)]
    jobs += [_minheight(rng) for _ in range(6)]
    jobs += [_fixedpoint(preset, 3, "fixedpoint")
             for preset in ("classical", "cyclotomic", "lubin-tate", "twisted")]
    for base, s, M in (("Z3", 1, 16), ("Z3", 2, 16), ("Z3pi", 1, 10)):
        jobs.append(_random_intertwine(rng, base, s, M, 10, "intertwine"))
    return jobs


# --- registry ------------------------------------------------------------------

def _warm(*argvs):
    return lambda: [Job("warm-up", list(a)) for a in argvs]


WORKLOADS = {
    "xi-rank2": {
        "round": xi_rank2_round,
        "warmup": _warm(["kisin", "xi", "--p", "3", "--f", "[9,0,1]", "--E",
                         "[-3,1]", "--r", "1", "--max-n", "2", "--M", "12",
                         "--N", "16", "--matrix", "[[1,[0,1]],[[-3,1],1]]"]),
        "trace_rounds": 2,
    },
    "witt-ghost": {
        "round": witt_ghost_round,
        "warmup": _warm(["witt-selftest", "--p", "3", "--base", "both",
                         "--witt-len", "4", "--trials", "1", "--seed", "0"]),
        "trace_rounds": 4,
    },
    "intertwine-deep": {
        "round": intertwine_deep_round,
        "warmup": _warm(
            ["intertwine", "--p", "3", "--f", "[3,3,1]", "--f2", "[3,0,1]",
             "--M", "8", "--N", "6"],
            ["intertwine", "--p", "3", "--f", "[0,3,1]", "--f2", "[0,6,1]",
             "--M", "8", "--N", "6", "--all-mu0"],
            ["intertwine", "--p", "3", "--base-g", "[-3,0,1]", "--f",
             "[[0,1],0,1]", "--f2", "[[0,1],3,1]", "--M", "8", "--N", "6"]),
        "trace_rounds": 1,
    },
    "cli-mix": {
        "round": cli_mix_round,
        "warmup": lambda: [Job("warm-up", j.argv) for j in readme_examples()],
        "trace_rounds": 2,
    },
}

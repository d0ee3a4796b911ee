"""Reference arithmetic for the benchmark's output checks.

Truncated polynomials in u over Z[pi]/(g), for a monic Eisenstein g of
degree e (g = x - 3, x - 5 and x^2 - 3 in the workloads), written in plain
Python ints and sharing no code with frobkit.

A scalar is a tuple of e ints on the basis 1, pi, ..., pi^(e-1).  A
polynomial is a list of scalars, constant term first.  Every coordinate
is reduced modulo p^K, which makes a value exact modulo pi^(e*K); callers
pick K above every label they compare at, or K = None for exact integers.
"""

from __future__ import annotations


class Ring:
    """Z[pi]/(g) with coordinates carried modulo p^K (exactly when K is None)."""

    def __init__(self, p: int, g, K: int | None):
        g = tuple(int(c) for c in g)
        if g[-1] != 1 or len(g) < 2:
            raise ValueError("g must be monic of degree >= 1")
        self.p, self.g, self.e, self.K = p, g, len(g) - 1, K
        self.mod = None if K is None else p ** K

    def _m(self, c: int) -> int:
        return c if self.mod is None else c % self.mod

    # --- scalars -------------------------------------------------------------

    def zero(self) -> tuple:
        return (0,) * self.e

    def scalar(self, coords) -> tuple:
        """Scalar from an int or a coordinate list (any length, reduced mod g)."""
        if isinstance(coords, int):
            coords = [coords]
        return self._reduce(list(coords))

    def _reduce(self, vec: list) -> tuple:
        e, g, m = self.e, self.g, self.mod
        for d in range(len(vec) - 1, e - 1, -1):
            c = vec[d]
            if c:
                for i in range(e):
                    vec[d - e + i] -= c * g[i]
        vec = vec[:e] + [0] * (e - len(vec))
        return tuple(c % m for c in vec) if m else tuple(vec)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(self._m(x + y) for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(self._m(x - y) for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        if self.e == 1:
            return (self._m(a[0] * b[0]),)
        conv = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        return self._reduce(conv)

    def pi_pow(self, k: int) -> tuple:
        """pi^k for k >= 0."""
        return self._reduce([0] * k + [1])

    def from_digits(self, digits, shift: int = 0) -> tuple:
        """sum_i d_i pi^(i + shift), shift >= 0."""
        if shift < 0:
            raise ValueError("from_digits takes shift >= 0")
        return self._reduce([0] * shift + [int(d) for d in digits])

    def val(self, a: tuple) -> int | None:
        """pi-adic valuation, None for zero (mod p^K when K is set).

        For Eisenstein g the basis terms c_i pi^i have pairwise distinct
        valuations e*v_p(c_i) + i, so the minimum is the valuation.
        """
        best = None
        for i, c in enumerate(a):
            if c:
                v = 0
                while c % self.p == 0:
                    c //= self.p
                    v += 1
                v = self.e * v + i
                if best is None or v < best:
                    best = v
        return best

    def is_zero_mod(self, a: tuple, L: int) -> bool:
        """True iff a = 0 mod pi^L (L must stay within e*K)."""
        if self.K is not None and L > self.e * self.K:
            raise ValueError(f"modulus pi^{L} exceeds the ring's p^{self.K}")
        v = self.val(a)
        return v is None or v >= L

    # --- truncated polynomials -----------------------------------------------

    def poly(self, coeffs) -> list:
        """Polynomial from ints or coordinate lists, constant term first."""
        return [self.scalar(c) for c in coeffs]

    def padd(self, a: list, b: list) -> list:
        z = self.zero()
        n = max(len(a), len(b))
        return [self.add(a[i] if i < len(a) else z, b[i] if i < len(b) else z)
                for i in range(n)]

    def psub(self, a: list, b: list) -> list:
        z = self.zero()
        n = max(len(a), len(b))
        return [self.sub(a[i] if i < len(a) else z, b[i] if i < len(b) else z)
                for i in range(n)]

    def pscale(self, a: list, c: tuple) -> list:
        return [self.mul(x, c) for x in a]

    def pmul(self, a: list, b: list, n: int | None = None) -> list:
        """a*b, cut at u^n when n is given."""
        length = len(a) + len(b) - 1
        if n is not None:
            length = min(length, n)
        if self.e == 1:
            m = self.mod
            acc = [0] * length
            bb = [(j, y[0]) for j, y in enumerate(b) if y[0]]
            for i, x in enumerate(a):
                x = x[0]
                if x:
                    for j, y in bb:
                        if i + j >= length:
                            break
                        acc[i + j] += x * y
            return [(c % m,) for c in acc] if m else [(c,) for c in acc]
        e = self.e
        conv = [[0] * length for _ in range(2 * e - 1)]
        for i, x in enumerate(a):
            if not any(x):
                continue
            for j, y in enumerate(b):
                if i + j >= length:
                    break
                for s, xs in enumerate(x):
                    if xs:
                        for t, yt in enumerate(y):
                            conv[s + t][i + j] += xs * yt
        return [self._reduce([conv[s][k] for s in range(2 * e - 1)])
                for k in range(length)]

    def ppow(self, a: list, k: int, n: int | None = None) -> list:
        out = [self.scalar(1)]
        for _ in range(k):
            out = self.pmul(out, a, n)
        return out

    def compose(self, h: list, g: list, n: int | None = None) -> list:
        """h(g(u)) by Horner, cut at u^n; uncut when n is None."""
        acc = [h[-1]]
        for c in reversed(h[:-1]):
            acc = self.pmul(acc, g, n)
            acc[0] = self.add(acc[0], c)
        return acc

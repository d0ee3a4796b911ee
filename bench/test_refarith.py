"""Hand-worked values for the benchmark's reference arithmetic.

Run with `python3 -m pytest bench/test_refarith.py` or directly as a script.
"""

from refarith import Ring

Z3 = Ring(3, (-3, 1), 6)          # Z/3^6, pi = 3
Z5 = Ring(5, (-5, 1), 2)          # Z/25, pi = 5
R3 = Ring(3, (-3, 0, 1), None)    # Z[pi], pi^2 = 3, exact


def test_scalar_reduction_mod_g():
    assert R3.scalar([0, 0, 1]) == (3, 0)              # pi^2 = 3
    assert R3.scalar([0, 0, 0, 1]) == (0, 3)           # pi^3 = 3 pi
    assert Z3.scalar([2, 1]) == (5,)                   # 2 + pi = 5
    assert Z3.scalar(-1) == (728,)                     # -1 mod 3^6


def test_ring_products():
    assert R3.mul((1, 1), (1, 1)) == (4, 2)            # (1+pi)^2 = 4 + 2pi
    assert R3.mul((0, 1), (0, 1)) == (3, 0)
    assert Z5.mul((7,), (8,)) == (6,)                  # 56 mod 25
    assert R3.pi_pow(5) == (0, 9)


def test_digits_and_valuations():
    assert Z3.from_digits([1, 2], shift=1) == (21,)    # (1 + 2*3) * 3
    assert R3.from_digits([1, 1, 1]) == (4, 1)         # 1 + pi + pi^2
    assert R3.val((3, 0)) == 2
    assert R3.val((0, 1)) == 1
    assert R3.val((9, 3)) == 3                         # min(2*2, 2*1 + 1)
    assert R3.val((0, 0)) is None
    assert Z3.val((18,)) == 2
    assert Z3.is_zero_mod((9,), 2) and not Z3.is_zero_mod((3,), 2)
    assert Z3.is_zero_mod((0,), 6)


def test_truncated_polynomials():
    one_u = Z3.poly([1, 1])
    assert Z3.pmul(one_u, one_u) == Z3.poly([1, 2, 1])
    assert Z3.pmul(one_u, one_u, 2) == Z3.poly([1, 2])
    assert Z3.ppow(one_u, 3) == Z3.poly([1, 3, 3, 1])
    # (pi u + 1)(pi u - 1) = 3u^2 - 1 over Z[pi], pi^2 = 3
    a = R3.poly([1, [0, 1]])
    b = R3.poly([-1, [0, 1]])
    assert R3.pmul(a, b) == R3.poly([-1, 0, 3])
    assert Z3.psub(Z3.poly([1, 2]), Z3.poly([1])) == Z3.poly([0, 2])


def test_composition():
    # h = u^2, g = u + u^2: h(g) = u^2 + 2u^3 + u^4
    h = Z3.poly([0, 0, 1])
    g = Z3.poly([0, 1, 1])
    assert Z3.compose(h, g) == Z3.poly([0, 0, 1, 2, 1])
    assert Z3.compose(h, g, 4) == Z3.poly([0, 0, 1, 2])
    # cyclotomic f = (1+u)^3 - 1 composed with itself at u^3:
    # f(f(u)) = (1+u)^9 - 1 = 9u + 36u^2 + ...
    f = Z3.poly([0, 3, 3, 1])
    assert Z3.compose(f, f, 3) == Z3.poly([0, 9, 36])


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("refarith: all hand-worked values agree")

"""Dense exact matrix algebra over the rationals, matrix polynomials in x,
and the structural matrices of the weight: the shift matrix A, the index
matrix J, and the triangularizers K_n.

A rational matrix is stored as an integer matrix over one shared positive
denominator, in lowest terms, so that products and sums are integer
arithmetic followed by a single gcd pass per result instead of one
Fraction normalisation per entry operation.  A sum of block products goes
through `MatQ.dot` (and a sum of matrix-polynomial products through
`MatPoly.dot`), which accumulates the integer numerators of every term and
makes one gcd pass per result, not one per term.  Inverses and determinants
use fraction-free (Bareiss) elimination on the integer matrix.  Entries are
still read and written as `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import factorial, gcd, lcm
from operator import add, mul, sub

from .scalar import RPoly, rat


class SingularMatrixError(ArithmeticError):
    pass


class MatQ:
    """Square N x N rational matrix, immutable and hashable.

    Stored as one integer matrix `num` (a tuple of row tuples) over one
    positive common denominator `d`, reduced so that
    gcd(d, every entry of num) == 1.  That form is canonical: equal
    matrices have equal (d, num), so equality and hashing compare it
    directly.  Arithmetic runs on the integers with one gcd pass per
    result; a sum of products is one result (`MatQ.dot`).  `rows` and
    `m[i, j]` build Fractions on demand.
    """

    __slots__ = ("num", "d", "N")

    def __init__(self, rows):
        rows = [[rat(v) for v in r] for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("MatQ must be square and nonempty")
        # Each Fraction is in lowest terms, so scaling to the lcm of the
        # denominators leaves no common factor with it.
        d = lcm(*(v.denominator for r in rows for v in r))
        self.num = tuple(tuple(v.numerator * (d // v.denominator) for v in r) for r in rows)
        self.d = d
        self.N = n

    @staticmethod
    def _of(num: tuple, d: int) -> "MatQ":
        """MatQ from a tuple of integer row tuples already in canonical form."""
        m = MatQ.__new__(MatQ)
        m.num = num
        m.d = d
        m.N = len(num)
        return m

    @staticmethod
    def _canonical(num, d: int) -> "MatQ":
        """MatQ num/d from integer rows and a nonzero denominator."""
        if d < 0:
            num, d = [[-v for v in r] for r in num], -d
        g = gcd(d, *chain.from_iterable(num))
        if g != 1:
            num = [[v // g for v in r] for r in num]
            d //= g
        return MatQ._of(tuple(map(tuple, num)), d)

    @property
    def rows(self) -> tuple:
        d = self.d
        return tuple(tuple(Fraction(v, d) for v in r) for r in self.num)

    @staticmethod
    def zero(n: int) -> "MatQ":
        return MatQ._of(((0,) * n,) * n, 1)

    @staticmethod
    @cache  # one shared immutable I per size
    def identity(n: int) -> "MatQ":
        return MatQ._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    def is_identity(self) -> bool:
        return self.d == 1 and self.num == MatQ.identity(self.N).num

    @staticmethod
    def diag(entries) -> "MatQ":
        entries = [rat(e) for e in entries]
        n = len(entries)
        return MatQ([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(n: int, i: int, j: int) -> "MatQ":
        """Matrix unit E_{ij}, 0-based indices."""
        return MatQ._of(tuple(tuple(int((r, c) == (i, j)) for c in range(n)) for r in range(n)), 1)

    @staticmethod
    def dot(pairs: list, n: int) -> "MatQ":
        """Sum of a * b over the (a, b) pairs of N x N matrices, fused: the
        integer numerators of every product are accumulated over the lcm of
        the products' denominators, with one gcd pass for the whole sum.  A
        pair with an identity factor adds the other factor's numerators.  A
        single pair is the product a * b; no pairs give the zero matrix."""
        if len(pairs) == 1:
            a, b = pairs[0]
            return a * b
        if not pairs:
            return MatQ.zero(n)
        d = lcm(*(a.d * b.d for a, b in pairs))
        # the non-identity products form one block row times one block
        # column: row i of every scaled a, then column j of every b
        rows, cols, plain = [[] for _ in range(n)], [[] for _ in range(n)], []
        for a, b in pairs:
            if a.N != n or b.N != n:
                raise ValueError("dimension mismatch")
            s = d // (a.d * b.d)
            one = a if b.is_identity() else b if a.is_identity() else None
            if one is not None:
                plain.append((one.num, s))
                continue
            for r, ar in zip(rows, a.num):
                r.extend(ar if s == 1 else [v * s for v in ar])
            for c, bc in zip(cols, zip(*b.num)):
                c.extend(bc)
        acc = [[sum(map(mul, r, c)) for c in cols] for r in rows]
        for num, s in plain:
            acc = [[u + v * s for u, v in zip(ra, rb)] for ra, rb in zip(acc, num)]
        return MatQ._canonical(acc, d)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.d)

    def __eq__(self, other):
        if not isinstance(other, MatQ):
            return NotImplemented
        return self.d == other.d and self.num == other.num

    def __hash__(self):
        return hash((self.d, self.num))

    def _scaled_to(self, other: "MatQ"):
        """Numerators of self and other over their common denominator."""
        self._check(other)
        if self.d == other.d:
            return self.num, other.num, self.d
        d = lcm(self.d, other.d)
        s, t = d // self.d, d // other.d
        return ([[v * s for v in r] for r in self.num],
                [[v * t for v in r] for r in other.num], d)

    def __add__(self, other: "MatQ") -> "MatQ":
        a, b, d = self._scaled_to(other)
        return MatQ._canonical([list(map(add, ra, rb)) for ra, rb in zip(a, b)], d)

    def __sub__(self, other: "MatQ") -> "MatQ":
        a, b, d = self._scaled_to(other)
        return MatQ._canonical([list(map(sub, ra, rb)) for ra, rb in zip(a, b)], d)

    def __neg__(self) -> "MatQ":
        return MatQ._of(tuple(tuple(-v for v in r) for r in self.num), self.d)

    def __mul__(self, other):
        if isinstance(other, MatQ):
            self._check(other)
            # read off the canonical form: a product with I is the other factor
            if other.is_identity():
                return self
            if self.is_identity():
                return other
            cols = list(zip(*other.num))
            return MatQ._canonical(
                [[sum(map(mul, row, col)) for col in cols] for row in self.num],
                self.d * other.d)
        if isinstance(other, int):
            # gcd(d, numerators) = 1, so gcd(d, k * numerators) = gcd(d, k),
            # and d/g is coprime to k/g and to the numerators
            g = gcd(self.d, other)
            k = other // g
            return MatQ._of(tuple(tuple(v * k for v in r) for r in self.num), self.d // g)
        if isinstance(other, Fraction):
            p = other.numerator
            return MatQ._canonical([[v * p for v in r] for r in self.num],
                                   self.d * other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _check(self, other: "MatQ"):
        if self.N != other.N:
            raise ValueError("dimension mismatch")

    def transpose(self) -> "MatQ":
        return MatQ._of(tuple(zip(*self.num)), self.d)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def inverse(self) -> "MatQ":
        """Exact inverse by fraction-free Gauss-Jordan elimination on the
        integer matrix (Bareiss): [num | I] becomes [D I | D num^{-1}], with
        D = +-det(num) the last pivot, so the inverse of num/d is
        d (D num^{-1}) / D.  Every division is exact.  Raises on singular."""
        n = self.N
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.num)]
        prev = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col]), None)
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            pivot_row = aug[col]
            p = pivot_row[col]
            for r in range(n):
                if r != col:
                    row = aug[r]
                    f = row[col]
                    aug[r] = [(p * v - f * w) // prev for v, w in zip(row, pivot_row)]
            prev = p
        d = self.d
        return MatQ._canonical([[v * d for v in r[n:]] for r in aug], prev)

    def det(self) -> Fraction:
        """Exact determinant by fraction-free (Bareiss) elimination on the
        integer matrix: det(num/d) = det(num) / d^N."""
        n = self.N
        m = [list(r) for r in self.num]
        sign = 1
        prev = 1
        for col in range(n - 1):
            piv = next((r for r in range(col, n) if m[r][col]), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                sign = -sign
            top = m[col]
            p = top[col]
            for r in range(col + 1, n):
                row = m[r]
                f = row[col]
                m[r] = [(p * v - f * w) // prev for v, w in zip(row, top)]
            prev = p
        return Fraction(sign * m[n - 1][n - 1], self.d ** n)

    def leading_minors(self):
        """Determinants of the leading principal submatrices, sizes 1..N."""
        return [MatQ._canonical([r[: k + 1] for r in self.num[: k + 1]], self.d).det()
                for k in range(self.N)]

    def is_positive_definite(self) -> bool:
        return self.is_symmetric() and all(d > 0 for d in self.leading_minors())

    def __repr__(self):
        return "MatQ(" + "; ".join(" ".join(str(v) for v in r) for r in self.rows) + ")"


def commutator(x: MatQ, y: MatQ) -> MatQ:
    return x * y - y * x


class MatPoly:
    """Matrix-valued polynomial in x: a list of MatQ coefficients, index =
    power of x.  The zero polynomial has no coefficients."""

    __slots__ = ("coeffs", "N")

    def __init__(self, coeffs, n: int | None = None):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if coeffs:
            n = coeffs[0].N
            if any(c.N != n for c in coeffs):
                raise ValueError("mixed dimensions in MatPoly")
        elif n is None:
            raise ValueError("zero MatPoly needs an explicit dimension")
        self.coeffs = tuple(coeffs)
        self.N = n

    @staticmethod
    def zero(n: int) -> "MatPoly":
        return MatPoly([], n)

    @staticmethod
    def const(m: MatQ) -> "MatPoly":
        return MatPoly([m], m.N)

    @staticmethod
    def x_identity(n: int) -> "MatPoly":
        return MatPoly([MatQ.zero(n), MatQ.identity(n)], n)

    @staticmethod
    def monomial(k: int, m: MatQ) -> "MatPoly":
        return MatPoly([MatQ.zero(m.N)] * k + [m], m.N)

    @staticmethod
    def from_scalar(p: RPoly, n: int) -> "MatPoly":
        return MatPoly([MatQ.identity(n) * c for c in p.coeffs], n)

    @staticmethod
    def dot(pairs: list, n: int) -> "MatPoly":
        """Sum of p * q over the (p, q) pairs of matrix polynomials, with one
        MatQ.dot per power of x.  Zero coefficients (the low-order ones of a
        body brought to a lower power of x) make no pair."""
        terms = [[] for _ in range(max((p.degree + q.degree + 1 for p, q in pairs), default=0))]
        for p, q in pairs:
            right = [(j, b) for j, b in enumerate(q.coeffs) if not b.is_zero()]
            for i, a in enumerate(p.coeffs):
                if not a.is_zero():
                    for j, b in right:
                        terms[i + j].append((a, b))
        return MatPoly([MatQ.dot(t, n) for t in terms], n)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> MatQ:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return MatQ.zero(self.N)

    def is_zero(self) -> bool:
        return not self.coeffs

    def entry(self, i: int, j: int) -> RPoly:
        """Scalar polynomial sitting in position (i, j), 0-based."""
        return RPoly([c[i, j] for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self.N == other.N and self.coeffs == other.coeffs

    def __add__(self, other: "MatPoly") -> "MatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return MatPoly([self.coeff(k) + other.coeff(k) for k in range(n)], self.N)

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return MatPoly([self.coeff(k) - other.coeff(k) for k in range(n)], self.N)

    def __neg__(self) -> "MatPoly":
        return MatPoly([-c for c in self.coeffs], self.N)

    def __mul__(self, other):
        if isinstance(other, MatPoly):
            return MatPoly.dot([(self, other)], self.N)
        if isinstance(other, MatQ):
            return MatPoly([c * other for c in self.coeffs], self.N)
        if isinstance(other, (int, Fraction)):
            return MatPoly([c * other for c in self.coeffs], self.N)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, MatQ):
            return MatPoly([other * c for c in self.coeffs], self.N)
        if isinstance(other, (int, Fraction)):
            return MatPoly([c * other for c in self.coeffs], self.N)
        return NotImplemented

    def scale_x(self, k: int) -> "MatPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return MatPoly([MatQ.zero(self.N)] * k + list(self.coeffs), self.N)

    def derivative(self) -> "MatPoly":
        return MatPoly([c * k for k, c in enumerate(self.coeffs)][1:], self.N)

    def __call__(self, x) -> MatQ:
        x = rat(x)
        out = MatQ.zero(self.N)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def transpose(self) -> "MatPoly":
        return MatPoly([c.transpose() for c in self.coeffs], self.N)

    def __repr__(self):
        return f"MatPoly(deg={self.degree}, N={self.N})"


def build_J(n: int) -> MatQ:
    """J = diag(1, 2, ..., N)."""
    return MatQ.diag(range(1, n + 1))


def build_A(a) -> MatQ:
    """Strictly lower bidiagonal A of size len(a) + 1 with A[k+1, k] = a_k
    (1-based)."""
    a = [rat(v) for v in a]
    n = len(a) + 1
    m = [[Fraction(0)] * n for _ in range(n)]
    for k, v in enumerate(a):
        m[k + 1][k] = v
    return MatQ(m)


def _check_strictly_lower(a: MatQ):
    for i in range(a.N):
        for j in range(i, a.N):
            if a[i, j] != 0:
                raise ValueError("matrix must be strictly lower triangular")


def matexp_nilpotent(a: MatQ) -> MatQ:
    """exp of a strictly lower triangular matrix, as an exact finite sum."""
    _check_strictly_lower(a)
    out = MatQ.identity(a.N)
    power = MatQ.identity(a.N)
    for m in range(1, a.N):
        power = power * a
        out = out + power * Fraction(1, factorial(m))
    return out


def exp_nilpotent(a: MatQ, sign: int = 1) -> MatPoly:
    """e^{sign * xA} for strictly lower triangular A, as an exact MatPoly:
    sum over m < N of (sign * A)^m x^m / m!."""
    _check_strictly_lower(a)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeffs = [MatQ.identity(a.N)]
    power = MatQ.identity(a.N)
    for m in range(1, a.N):
        power = power * (a * sign)
        coeffs.append(power * Fraction(1, factorial(m)))
    return MatPoly(coeffs, a.N)


def build_K(n: int, nu, A: MatQ) -> MatQ:
    """Unipotent lower triangular K_n = exp(A (n + nu + 1 + J)) for a
    strictly lower bidiagonal A; its columns are the eigenvectors of
    A(n + nu + 1 + J) - (n + J).  At -A it returns K_n^{-1}.

    Entrywise, (K_n)_{i,j} = (prod_{k=j..i-1} a_k) (n+nu+j+1)_{i-j} / (i-j)!
    in 1-based indices, with a_k = A[k+1, k].
    """
    B = A * (MatQ.identity(A.N) * (n + rat(nu) + 1) + build_J(A.N))
    return matexp_nilpotent(B)

"""Dense exact matrix algebra over the rationals, matrix polynomials in x,
and the structural matrices of the weight: the shift matrix A, the index
matrix J, and the triangularizers K_n.

A rational matrix is stored as an integer matrix over one shared positive
denominator, in lowest terms, so that products and sums are integer
arithmetic followed by a single gcd pass per result instead of one
Fraction normalisation per entry operation.  A sum of block products goes
through `MatQ.dot` (and a sum of matrix-polynomial products through
`MatPoly.dot`), which accumulates the integer numerators of every term and
makes one gcd pass per result, not one per term; an integer combination of
matrices is `MatQ.lincomb`.  A product or a fused sum reads a factor I or
-I off the canonical form (denominator 1, numerators those of +-I) and
takes the other factor or its negation without multiplying.  At N = 1 a
product, sum or fused sum is one integer expression and one gcd.
Inverses, determinants and the positive definiteness test use
fraction-free (Bareiss) elimination on the integer matrix.  Entries are
still read and written as `fractions.Fraction`; a reader that only
compares entries can compare numerators instead, since x/dx == y/dy
exactly when x dy == y dx for positive denominators.
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


def _unit_sign(num: tuple, ident: tuple) -> int:
    """For the numerators `num` of a matrix over denominator 1: 1 if they
    are those of I (`ident`), -1 if they are those of -I, else 0."""
    if num == ident:
        return 1
    if num[0][0] == -1 and all(v == -w for r, s in zip(num, ident) for v, w in zip(r, s)):
        return -1
    return 0


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
        g = gcd(d, *chain.from_iterable(num))
        if d < 0:
            g = -g
        m = MatQ.__new__(MatQ)
        m.num = (tuple(map(tuple, num)) if g == 1
                 else tuple([tuple([v // g for v in r]) for r in num]))
        m.d = d // g
        m.N = len(num)
        return m

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
        """Matrix unit E_{ij}, 0-based indices; public because the negative
        controls build their perturbations (H_n + eps E_11) from it."""
        return MatQ._of(tuple(tuple(int((r, c) == (i, j)) for c in range(n)) for r in range(n)), 1)

    @staticmethod
    def dot(pairs: list, n: int) -> "MatQ":
        """Sum of a * b over the (a, b) pairs of N x N matrices, fused: the
        integer numerators of every product are accumulated over the lcm of
        the products' denominators, with one gcd pass for the whole sum.  A
        pair with a factor I or -I adds the other factor's numerators, or
        subtracts them, without a block product; that shortcut stays
        because the sums without it measured no faster, on small operands
        or on deep families.  At N = 1 the sum is one integer sum of
        products.  A single pair is the product a * b (so a * I is a); no
        pairs give the zero matrix."""
        if len(pairs) == 1:
            a, b = pairs[0]
            return a * b
        if not pairs:
            return MatQ.zero(n)
        dens = [a.d * b.d for a, b in pairs]
        d = lcm(*dens)
        if n == 1:
            p = 0
            for (a, b), ab in zip(pairs, dens):
                if a.N != 1 or b.N != 1:
                    raise ValueError("dimension mismatch")
                p += a.num[0][0] * b.num[0][0] * (d // ab)
            g = gcd(p, d)
            return MatQ._of(((p // g,),), d // g)
        ident = MatQ.identity(n).num
        # the other products form one block row times one block column:
        # row i of every scaled a, then column j of every b
        rows, cols, plain = [[] for _ in range(n)], [[] for _ in range(n)], []
        for (a, b), ab in zip(pairs, dens):
            if a.N != n or b.N != n:
                raise ValueError("dimension mismatch")
            s = d // ab
            if b.d == 1 and (sign := _unit_sign(b.num, ident)):
                plain.append((a.num, s * sign))
                continue
            if a.d == 1 and (sign := _unit_sign(a.num, ident)):
                plain.append((b.num, s * sign))
                continue
            for r, ar in zip(rows, a.num):
                r += ar if s == 1 else [v * s for v in ar]
            for c, bc in zip(cols, zip(*b.num)):
                c += bc
        acc = [[sum(map(mul, r, c)) for c in cols] for r in rows]
        for num, s in plain:
            acc = [[u + v * s for u, v in zip(ra, rb)] for ra, rb in zip(acc, num)]
        return MatQ._canonical(acc, d)

    @staticmethod
    def lincomb(terms: list, n: int) -> "MatQ":
        """Sum of k * m over the (k, m) pairs of an integer k and an N x N
        matrix m: the numerators are accumulated over the lcm of the
        denominators, with one gcd pass for the whole sum.  No pairs give
        the zero matrix."""
        terms = [(k, m) for k, m in terms if k]
        if not terms:
            return MatQ.zero(n)
        if any(m.N != n for _, m in terms):
            raise ValueError("dimension mismatch")
        d = lcm(*(m.d for _, m in terms))
        scales = [k * (d // m.d) for k, m in terms]
        return MatQ._canonical([[sum(map(mul, scales, entries)) for entries in zip(*rows)]
                                for rows in zip(*(m.num for _, m in terms))], d)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.d)

    def __eq__(self, other):
        if not isinstance(other, MatQ):
            return NotImplemented
        return self.d == other.d and self.num == other.num

    def __hash__(self):
        return hash((self.d, self.num))

    def _plus(self, other: "MatQ", t: int) -> "MatQ":
        """self + t * other for t = 1 or -1, over the lcm of the two
        denominators, with one gcd pass."""
        n = self.N
        if other.N != n:
            raise ValueError("dimension mismatch")
        d, e = self.d, other.d
        if n == 1:
            p, q = self.num[0][0] * e + t * other.num[0][0] * d, d * e
            g = gcd(p, q)
            return MatQ._of(((p // g,),), q // g)
        if d == e:
            op = add if t == 1 else sub
            return MatQ._canonical([list(map(op, ra, rb)) for ra, rb in zip(self.num, other.num)],
                                   d)
        m = lcm(d, e)
        s, u = m // d, t * (m // e)
        return MatQ._canonical([[v * s + w * u for v, w in zip(ra, rb)]
                                for ra, rb in zip(self.num, other.num)], m)

    def __add__(self, other: "MatQ") -> "MatQ":
        return self._plus(other, 1)

    def __sub__(self, other: "MatQ") -> "MatQ":
        return self._plus(other, -1)

    def __neg__(self) -> "MatQ":
        return MatQ._of(tuple([tuple([-v for v in r]) for r in self.num]), self.d)

    def __mul__(self, other):
        if isinstance(other, MatQ):
            n = self.N
            if other.N != n:
                raise ValueError("dimension mismatch")
            # read off the canonical form: a product with I is the other
            # factor, a product with -I its negation
            right = other.d == 1 and _unit_sign(other.num, MatQ.identity(n).num)
            if right == 1:
                return self
            left = self.d == 1 and _unit_sign(self.num, MatQ.identity(n).num)
            if left == 1:
                return other
            if right or left:
                return -self if right else -other
            if n == 1:
                p, q = self.num[0][0] * other.num[0][0], self.d * other.d
                g = gcd(p, q)
                return MatQ._of(((p // g,),), q // g)
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
        integer matrix: det(num/d) = det(num) / d^N.  With `leading_minors`
        it is the definition `is_positive_definite` is tested against."""
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
        """Determinants of the leading principal submatrices, sizes 1..N;
        demo 01 prints them."""
        return [MatQ._canonical([r[: k + 1] for r in self.num[: k + 1]], self.d).det()
                for k in range(self.N)]

    def is_positive_definite(self) -> bool:
        """Symmetric with every leading principal minor positive, read off
        one fraction-free elimination without row exchanges: its k-th pivot
        is the k-th leading minor of the numerators, which has the sign of
        the k-th leading minor (d > 0).  Stops at the first pivot <= 0."""
        if not self.is_symmetric():
            return False
        m = [list(r) for r in self.num]
        prev = 1
        for col in range(self.N):
            top = m[col]
            p = top[col]
            if p <= 0:
                return False
            for r in range(col + 1, self.N):
                row = m[r]
                f = row[col]
                m[r] = [(p * v - f * w) // prev for v, w in zip(row, top)]
            prev = p
        return True

    def __repr__(self):
        return "MatQ(" + "; ".join(" ".join(str(v) for v in r) for r in self.rows) + ")"


def commutator(x: MatQ, y: MatQ) -> MatQ:
    return x * y - y * x


def J_commutator(x: MatQ) -> MatQ:
    """[J, X] for J = diag(1, ..., N), entry by entry: entry (r, c) is
    (r - c) x_rc; [X, J] is its negative."""
    return MatQ._canonical([[(r - c) * v for c, v in enumerate(row)]
                            for r, row in enumerate(x.num)], x.d)


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
    if any(v for r, row in enumerate(a.num) for v in row[r:]):
        raise ValueError("matrix must be strictly lower triangular")


def exp_nilpotent(a: MatQ) -> MatPoly:
    """e^{xA} for strictly lower triangular A, as an exact MatPoly:
    sum over m < N of A^m x^m / m!.  e^{-xA} is exp_nilpotent(-A)."""
    _check_strictly_lower(a)
    coeffs = [MatQ.identity(a.N)]
    power = MatQ.identity(a.N)
    for m in range(1, a.N):
        power = power * a
        coeffs.append(power * Fraction(1, factorial(m)))
    return MatPoly(coeffs, a.N)


def build_K(n: int, nu, A: MatQ) -> MatQ:
    """Unipotent lower triangular K_n = exp(A (n + nu + 1 + J)) for a
    strictly lower triangular A; its columns are the eigenvectors of
    A(n + nu + 1 + J) - (n + J).  At -A it returns K_n^{-1}.

    For the strictly lower bidiagonal A of the weight, entrywise
    (K_n)_{i,j} = (prod_{k=j..i-1} a_k) (n+nu+j+1)_{i-j} / (i-j)! in 1-based
    indices, with a_k = A[k+1, k].  It is the value at x = 1 of
    e^{xA(n+nu+1+J)}, built on integers: with nu = p/q, M = A (n+nu+1+J) is
    the integer matrix m over md = d_A q (column c, 0-based, scaled by
    q(n+2+c) + p), and

        K_n = sum_{k<N} M^k / k! = sum_{k<N} m^k ((N-1)!/k!) md^{N-1-k}
                                   / ((N-1)! md^{N-1}),

    one integer sum over one denominator and one gcd pass.
    """
    nu = rat(nu)
    p, q, size = nu.numerator, nu.denominator, A.N
    _check_strictly_lower(A)
    cols = list(zip(*([v * (q * (n + 2 + c) + p) for c, v in enumerate(row)]
                      for row in A.num)))
    md, top = A.d * q, factorial(size - 1)
    power = MatQ.identity(size).num
    acc = [[v * top * md ** (size - 1) for v in row] for row in power]
    for k in range(1, size):
        power = [[sum(map(mul, row, col)) for col in cols] for row in power]
        s = top // factorial(k) * md ** (size - 1 - k)
        acc = [[u + v * s for u, v in zip(ra, rb)] for ra, rb in zip(acc, power)]
    return MatQ._canonical(acc, top * md ** (size - 1))

from fractions import Fraction as F
from math import factorial

import fraction_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlaguerre import weights
from mvlaguerre.dual_hahn import DHParams, build_delta_family
from mvlaguerre.matrices import MatPoly, MatQ
from mvlaguerre.scalar import RPoly, pochhammer
from mvlaguerre.weights import (MomentTable, UnsupportedWeightError,
                                WeightSpec, h0_as_displayed, inner_product,
                                moment, moment_row, moment_via_expansion, pair_row)
from test_engine import RATIONAL_SPECS

SPEC2 = WeightSpec(2, F(1), (F(1),), (F(1), F(1)))
SPECS = [
    WeightSpec(1, F(1, 2), (), (F(1),)),
    SPEC2,
    WeightSpec(2, F(5, 2), (F(-1),), (F(1), F(2))),
    WeightSpec(3, F(1), (F(2), F(-1, 2)), (F(1), F(1, 2), F(3))),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(2, F(-1), (F(1),), (F(1), F(1)))
    with pytest.raises(ValueError):
        WeightSpec(2, F(1), (F(0),), (F(1), F(1)))
    with pytest.raises(ValueError):
        WeightSpec(2, F(1), (F(1),), (F(1), F(-1)))
    with pytest.raises(UnsupportedWeightError):
        moment(WeightSpec(2, F(1), (F(1),), (F(1), F(1)), RPoly((0, 0, 1))), 0)


def test_moment_scalar_case():
    spec = WeightSpec(1, F(1, 2), (), (F(3),))
    # integral of e^{-x} x^{nu+1} / Gamma(nu+1) = nu+1
    assert moment(spec, 0) == MatQ([[3 * (F(1, 2) + 1)]])


def test_moment_frozen_values():
    assert moment(SPEC2, 0) == MatQ([[2, 6], [6, 30]])
    assert moment(SPEC2, 1) == MatQ([[6, 24], [24, 144]])
    assert moment(SPEC2, 2) == MatQ([[24, 120], [120, 840]])


@pytest.mark.parametrize("spec", SPECS)
def test_moment_closed_form_equals_expansion_path(spec):
    for s in range(6):
        m = moment(spec, s)
        assert m == moment_via_expansion(spec, s)
        assert m.is_symmetric()


@pytest.mark.parametrize("spec", SPECS)
def test_moment_zero_positive_definite(spec):
    assert moment(spec, 0).is_positive_definite()


def _random_poly(rng, n, deg):
    return MatPoly([
        MatQ([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        for _ in range(deg + 1)], n)


def test_inner_product_bilinearity_and_symmetry():
    import random

    rng = random.Random(7)
    table = MomentTable(SPEC2, 8)
    for _ in range(10):
        p = _random_poly(rng, 2, 3)
        q = _random_poly(rng, 2, 3)
        t = MatQ([[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)])
        assert inner_product(MatPoly.const(t) * p, q, table) == \
            t * inner_product(p, q, table)
        assert inner_product(p, q, table).transpose() == inner_product(q, p, table)


def test_inner_product_definite_on_random_inputs():
    import random

    rng = random.Random(11)
    table = MomentTable(SPEC2, 8)
    for _ in range(10):
        p = _random_poly(rng, 2, 3)
        gram = inner_product(p, p, table)
        if p.is_zero():
            assert gram.is_zero()
        else:
            assert not gram.is_zero()
            assert all(d >= 0 for d in gram.leading_minors())
    zero = MatPoly.zero(2)
    assert inner_product(zero, zero, table).is_zero()


MAX_DEG, MAX_OFFSET = 4, 5
# the package's tables and the Fraction reference's moments, per spec
TABLES = [MomentTable(spec, 2 * MAX_DEG + MAX_OFFSET + 1) for spec in RATIONAL_SPECS]
REF_MOMENTS = [ref.moment_sums(spec, range(t.depth + 1)) for spec, t in zip(RATIONAL_SPECS, TABLES)]
small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def mat_polys(draw, n):
    """Matrix polynomials of degree <= MAX_DEG whose coefficients are
    often exactly zero (a zero leading coefficient lowers the degree)."""
    coeffs = []
    for _ in range(draw(st.integers(0, MAX_DEG + 1))):
        if draw(st.booleans()):
            coeffs.append(MatQ.zero(n))
        else:
            coeffs.append(MatQ([[draw(small_rats) for _ in range(n)] for _ in range(n)]))
    return MatPoly(coeffs, n)


@given(st.data(), st.sampled_from(range(len(RATIONAL_SPECS))), st.sampled_from([0, 1]))
@settings(max_examples=60, deadline=None)
def test_moment_row_and_pair_row_match_entrywise_fractions(data, index, shift):
    """moment_row at any offsets, in any order, and pair_row at shift 0
    and 1 give the entrywise Fraction sums, on random polynomials with
    zero coefficients, N = 1..4; and <p, q> = <q, p>^T."""
    spec, table, moments = RATIONAL_SPECS[index], TABLES[index], REF_MOMENTS[index]
    p, q = data.draw(mat_polys(spec.N)), data.draw(mat_polys(spec.N))
    offsets = data.draw(st.lists(st.integers(0, MAX_OFFSET), max_size=6))
    assert moment_row(p, table, offsets) == ref.moment_row(p, moments, offsets)
    full = range(len(q.coeffs) + shift)
    row = ref.moment_row(p, moments, full)
    assert moment_row(p, table, full) == row
    assert pair_row(row, q, shift) == ref.pair_row(row, q, shift)
    assert inner_product(p, q, table) == ref.pair_row(row, q, 0)
    assert inner_product(p, q, table) == inner_product(q, p, table).transpose()


def test_table_depth_guard():
    table = MomentTable(SPEC2, 2)
    p = MatPoly.monomial(2, MatQ.identity(2))
    with pytest.raises(IndexError):
        inner_product(p, p, table)
    for s in (-1, 3):
        with pytest.raises(IndexError, match="outside"):
            table[s]


@pytest.mark.parametrize("spec", SPECS)
def test_h0_pochhammer_index_probe(spec):
    oracle = moment_via_expansion(spec, 0)
    assert moment(spec, 0) == oracle
    assert h0_as_displayed(spec) != oracle


# The three moment sums as separate loops, exactly as they were written
# before they shared one helper: the reference the helper must reproduce.

def _old_exp_coeff(spec, i, r):
    out = F(1, factorial(i - r))
    for k in range(r, i):
        out *= spec.a[k - 1]
    return out


def _old_entry(spec, i, j, term):
    v = F(0)
    for r in range(1, min(i, j) + 1):
        v += (spec.delta[r - 1] * _old_exp_coeff(spec, i, r)
              * _old_exp_coeff(spec, j, r) * term(i, j, r))
    return v


def _old_moment(spec, s):
    n = spec.N
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            v = _old_entry(spec, i, j, lambda i, j, r: pochhammer(spec.nu + 1, s + i + j - r))
            rows[i - 1][j - 1] = v
            rows[j - 1][i - 1] = v
    return MatQ(rows)


def _old_h0(spec, raise_index):
    n = spec.N
    return MatQ([[_old_entry(spec, i, j, lambda i, j, r:
                             pochhammer(spec.nu, i + j - r + raise_index) / spec.nu)
                  for j in range(1, n + 1)] for i in range(1, n + 1)])


_rats = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=9)
_pos = _rats.filter(lambda v: v > 0)


@st.composite
def rational_specs(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    a = draw(st.lists(_rats.filter(lambda v: v != 0), min_size=n - 1, max_size=n - 1))
    delta = draw(st.lists(_pos, min_size=n, max_size=n))
    return WeightSpec(n, draw(_pos), tuple(a), tuple(delta))


@given(rational_specs(), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_moment_sums_equal_the_separate_loops(spec, s):
    assert moment(spec, s) == _old_moment(spec, s)
    assert MomentTable(spec, s)[s] == _old_moment(spec, s)
    assert h0_as_displayed(spec) == _old_h0(spec, 0)
    assert moment(spec, 0) == _old_h0(spec, 1)


@given(rational_specs(max_dim=5), st.lists(st.integers(-1, 12), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_integer_moment_sums_equal_the_fraction_loop(spec, offsets):
    """The table on integer Pochhammer numerators equals the Fraction loop
    it replaced at every offset, -1 (h0_as_displayed) included, and the
    Gamma-integral path at every s >= 0."""
    table = weights._moment_sums(spec, offsets)
    assert table == ref.moment_sums(spec, offsets)
    for s, m in zip(offsets, table):
        if s >= 0:
            assert m == moment_via_expansion(spec, s)


@pytest.mark.parametrize("depth", [-1, -3])
def test_moment_table_rejects_a_negative_depth(depth):
    with pytest.raises(ValueError, match="depth"):
        MomentTable(SPEC2, depth)


def test_moment_rejects_a_negative_index():
    with pytest.raises(ValueError):
        moment(SPEC2, -1)


# WeightSpec and DHParams are immutable values.  Each case: the class, the
# constructor's keyword arguments, equal arguments of other types, and per
# field a different value.  A WeightSpec's N cannot change alone (the
# lengths of a and delta follow it), so there it changes with them.
VALUE_CASES = {
    "WeightSpec": (
        WeightSpec,
        dict(N=2, nu=F(1, 2), a=(F(-1),), delta=(F(1), F(2)), phi=RPoly.x()),
        dict(N=2, nu="1/2", a=["-1"], delta=[1, "2"]),
        {"N": dict(N=3, a=(F(-1), F(-1)), delta=(F(1), F(2), F(3))),
         "nu": dict(nu=F(3, 2)), "a": dict(a=(F(2),)), "delta": dict(delta=(F(1), F(3))),
         "phi": dict(phi=RPoly.monomial(2))},
    ),
    "DHParams": (
        DHParams,
        dict(N=2, nu=F(1, 2), c=F(2), d=F(1), delta_nu=(F(1), F(3)), delta_nu1=(F(3), F(9))),
        dict(N=2, nu=F(1, 2), c=2, d=1, delta_nu=(1, 3), delta_nu1=(3, 9)),
        {"N": dict(N=3), "nu": dict(nu=F(1)), "c": dict(c=F(1)), "d": dict(d=F(2)),
         "delta_nu": dict(delta_nu=(F(1), F(2))), "delta_nu1": dict(delta_nu1=(F(3), F(8)))},
    ),
}


@pytest.mark.parametrize("name", list(VALUE_CASES))
def test_equal_fields_give_equal_values_with_equal_hashes(name):
    cls, kwargs, same, _ = VALUE_CASES[name]
    first, second = cls(**kwargs), cls(*kwargs.values())
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert cls(**same) == first and hash(cls(**same)) == hash(first)
    assert len({first, second, cls(**same)}) == 1


@pytest.mark.parametrize("name", list(VALUE_CASES))
def test_changing_any_one_field_breaks_equality(name):
    cls, kwargs, _, changes = VALUE_CASES[name]
    base = cls(**kwargs)
    assert set(changes) == set(base._fields)
    for field, change in changes.items():
        other = cls(**{**kwargs, **change})
        assert getattr(other, field) != getattr(base, field), field
        assert other != base and not other == base, field


def test_other_classes_are_not_equal():
    (ws, ws_kwargs, _, _), (dh, dh_kwargs, _, _) = VALUE_CASES.values()

    class SubSpec(WeightSpec):
        pass

    spec, params = ws(**ws_kwargs), dh(**dh_kwargs)
    for value, other in [(spec, params), (params, spec), (spec, SubSpec(**ws_kwargs)),
                         (spec, tuple(ws_kwargs.values())), (params, dh_kwargs)]:
        assert value.__eq__(other) is NotImplemented
        assert value != other


@pytest.mark.parametrize("name", list(VALUE_CASES))
def test_values_are_immutable(name):
    cls, kwargs, _, _ = VALUE_CASES[name]
    value = cls(**kwargs)
    for field in [*value._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    for field in value._fields:
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == cls(**kwargs) and not hasattr(value, "extra")


@pytest.mark.parametrize("name", list(VALUE_CASES))
def test_repr_shows_every_field(name):
    cls, kwargs, _, _ = VALUE_CASES[name]
    value = cls(**kwargs)
    fields = ", ".join(f"{f}={v!r}" for f, v in kwargs.items())
    assert repr(value) == f"{name}({fields})"


def test_spec_builds_each_cached_matrix_once(monkeypatch):
    counts = {"build_A": 0, "build_J": 0, "inverse": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(weights, "build_A", counting("build_A", weights.build_A))
    monkeypatch.setattr(weights, "build_J", counting("build_J", weights.build_J))
    monkeypatch.setattr(MatQ, "inverse", counting("inverse", MatQ.inverse))
    spec = WeightSpec(3, F(1, 2), (F(2), F(-1, 3)), (F(1), F(2), F(5)))
    first = [spec.A, spec.J, spec.at1, spec.am1_inv, spec.at1_inv]
    assert counts == {"build_A": 1, "build_J": 1, "inverse": 2}
    assert all(a is b for a, b in zip(first, [spec.A, spec.J, spec.at1, spec.am1_inv,
                                              spec.at1_inv]))
    assert counts == {"build_A": 1, "build_J": 1, "inverse": 2}
    assert spec.am1_inv * (spec.A - MatQ.identity(3)) == MatQ.identity(3)
    assert spec.at1_inv * spec.at1 == MatQ.identity(3)


def test_dh_params_build_their_spec_once(monkeypatch):
    built = []
    init = WeightSpec.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    params = build_delta_family(3, F(1, 2), 2, 1)
    monkeypatch.setattr(WeightSpec, "__init__", counting_init)
    assert params.spec is params.spec
    assert len(built) == 1
    assert params.spec == WeightSpec(3, F(1, 2), (-1, -1), params.delta_nu)


def test_dh_params_gamma_is_cached_and_immutable():
    params = build_delta_family(3, F(1, 2), F(5, 3), F(7, 2))
    assert params.gamma == F(10, 21)
    assert params.gamma is params.gamma  # one division, then the cached value
    with pytest.raises(AttributeError):
        params.gamma = F(1)
    with pytest.raises(AttributeError):
        del params.gamma
    assert params.gamma == F(10, 21)
    fresh = build_delta_family(3, F(1, 2), F(5, 3), F(7, 2))
    assert fresh == params and hash(fresh) == hash(params)

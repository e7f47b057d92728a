import csv
import hashlib
import json
import sys
from fractions import Fraction

import pytest

from mvlaguerre import dual_hahn as dh
from mvlaguerre import engine
from mvlaguerre import laguerre_forms as lf
from mvlaguerre import lie_algebra as la
from mvlaguerre import operators as ops
from mvlaguerre import report as rp
from mvlaguerre.cli import main
from mvlaguerre import matrices, weights
from mvlaguerre.engine import compute_monic_ops
from mvlaguerre.matrices import MatPoly, MatQ, build_K
from mvlaguerre.weights import WeightSpec


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_all_example(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "all", "--N", "2", "--nu", "1/2",
                 "--a", "-1", "--delta", "1,1", "--nmax", "5",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["all_pass"] is True
    assert len(report["open_question_resolutions"]) == 3
    assert all(r["definitive"] for r in report["open_question_resolutions"])


def test_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "laguerre", "--N", "2", "--nu", "1",
            "--a", "1", "--delta", "1,1", "--nmax", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lie_subcommand(capsys):
    code, out = run(["lie", "--phi", "x^3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 5
    assert payload["I_phi"] == [3]
    assert payload["checks"]["jacobi"] is True


def test_lie_extended(capsys):
    code, out = run(["lie", "--phi", "x", "--extended", "--nu", "1/2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 5
    assert payload["center_dimension"] == 2


def test_lie_truncated(capsys):
    code, out = run(["lie", "--truncate", "5"], capsys)
    assert code == 0
    assert json.loads(out)["dimension"] == 8


def test_malformed_phi_exits_2(capsys):
    assert main(["lie", "--phi", "x**2"]) == 2


def test_bad_weight_exits_2(capsys):
    assert main(["compute-polys", "--N", "2", "--nu", "-1"]) == 2


def test_compute_polys_schema(capsys):
    code, out = run(["compute-polys", "--N", "1", "--nu", "1/2", "--nmax", "2"],
                    capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["P"][1] == [[["-5/2"]], [["1"]]]
    assert payload["H"][0] == [["3/2"]]


def test_xi_csv_export(tmp_path):
    csv_path = tmp_path / "xi.csv"
    out = tmp_path / "xi.json"
    code = main(["xi", "--N", "2", "--nu", "1", "--a", "1", "--delta", "1,1",
                 "--nmax", "2", "--csv", str(csv_path), "--out", str(out)])
    assert code == 0
    with csv_path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["n", "i", "j", "xi"]
    table = {(int(r[0]), int(r[1]), int(r[2])): r[3] for r in rows[1:]}
    assert table[(1, 2, 1)] == "2"
    payload = json.loads(out.read_text())
    assert all(r["provenance"] == "both-agree" for r in payload["records"])


def test_dualhahn_subcommand(tmp_path):
    out = tmp_path / "dh.json"
    code = main(["dualhahn", "--N", "3", "--nu", "1/2", "--c", "2", "--d", "1",
                 "--nmax", "4", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_equal"] is True
    assert payload["derivative_coupling"] is True


def test_verify_dualhahn_requires_constrained_family():
    code = main(["verify", "--suite", "dualhahn", "--N", "2", "--nu", "1/2",
                 "--a", "2", "--delta", "1,1", "--nmax", "3"])
    assert code == 2



def _run(argv, capsys):
    """Exit code, stdout and stderr of one command; argparse rejects its
    input by raising SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of stdout, recorded before the suites stopped rebuilding their
# shared objects; any change to a verdict, a check id or the JSON layout
# shows here.
GOLDEN_STDOUT = {
    "verify --suite all --N 2 --nmax 3":
        "7ba48eed83411bdb7048b5d1a0202ca6d7bb24602bce451c8cac8b6f8dd1dc1b",
    "verify --suite all --N 3 --c 2 --d 1 --nmax 3":
        "633980d5b42fa039e8044efe128b3190175cf8d9b82498f8a87ab259490e7704",
    "dualhahn --N 3 --c 0 --d 1 --nmax 3":
        "9cbcb52194f8f607ebceaae812cedcd0998e4832055688127dad300df5212198",
    "lie --phi x^3+x^2":
        "e7cbcc2107814f2f82ca05bea41b91baef1105c83b77c70197cfea31e576f20f",
    "lie --extended":
        "518b5f54f82709107735a4690160350c4c856435ce94c3b5978c02353800bf07",
    "lie --truncate 6":
        "cdb4af69d0e90bdb9a31bfc583c682997b305f738ea69c594d537da9615dfa3b",
    "xi --N 3 --nmax 4":
        "3b2c34650f37eb1ed571ee5d14ac497aa7a7ab80ae7e563dc1849f6302367d2f",
    "compute-polys --N 3 --a=-1,2 --nmax 3":
        "7a4a806ce22e48ba4bd71e72ddd7a3166d101980e3f08bb564e1314daa97c1ba",
    # messy rationals, recorded before MatQ moved to integer numerators over
    # one shared denominator
    "compute-polys --N 3 --nu=7/3 --a=5/2,-3/7 --delta=2/3,5,11/4 --nmax 8":
        "0cb5f91f1816d5208e46ebe51c3c606626b99fda56fb45ed02bc67cfc4c737e0",
    "xi --N 3 --nu=7/3 --a=5/2,-3/7 --delta=2/3,5,11/4 --nmax 6":
        "e7061978752941cc5b136c45af9b6121f05cc357c3e095ba6981f7c3ef7193b8",
    "verify --suite laguerre --N 4 --nu=5/7 --a=-8/5,9/7,-6/5 --delta=5/6,7/9,8/5,9/8 --nmax 4":
        "9984acd427bd263a7c0ad54e6aee9c96b81534783fc3f293c83e6213ec5886ed",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command, capsys):
    code, out, _ = _run(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


@pytest.mark.parametrize("command", [
    "lie --phi 1/0x",
    "lie --phi 1/0",
    "lie --extended --nu 1/0",
    "lie --extended --nu 0",
    "lie --extended --nu -1",
    "compute-polys --N 2 --nu 1/0 --nmax 2",
    "compute-polys --N 2 --a=1/0 --nmax 2",
    "compute-polys --N 2 --delta=1,0/0 --nmax 2",
    "dualhahn --N 3 --c 1/0 --d 1",
])
def test_bad_rational_or_nu_exits_2(command, capsys):
    """A zero denominator or a nu <= 0 is an argument error: exit 2 with one
    line on stderr, not a traceback and not a verdict."""
    code, out, err = _run(command.split(), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [
    "lie --phi x^2 --truncate 3",
    "lie --truncate 3 --phi x^2",
])
def test_lie_rejects_phi_with_truncate(command, capsys):
    """--phi and --truncate both choose phi; given together, argparse rejects
    them with one line instead of silently using the truncated series."""
    code, out, err = _run(command.split(), capsys)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "laguerre", "--N", "2", "--nmax", "0"],
    ["verify", "--suite", "all", "--N", "1", "--nmax", "0"],
])
def test_verify_at_nmax_0_gives_a_verdict(argv, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["checks"] and payload["all_pass"] is True


def test_negative_list_value_after_a_space(capsys):
    spaced = _run(["compute-polys", "--N", "3", "--a", "-1,2", "--nmax", "2"], capsys)
    joined = _run(["compute-polys", "--N", "3", "--a=-1,2", "--nmax", "2"], capsys)
    assert spaced[0] == 0
    assert spaced == joined
    assert json.loads(spaced[1])["spec"]["a"] == ["-1", "2"]


SWEEP_COMMANDS = {
    "compute-polys": ["compute-polys"],
    "xi": ["xi"],
    "verify operators": ["verify", "--suite", "operators"],
    "verify laguerre": ["verify", "--suite", "laguerre"],
    "verify dualhahn": ["verify", "--suite", "dualhahn"],
    "verify all": ["verify", "--suite", "all"],
    "dualhahn": ["dualhahn"],
}


def _sweep_inputs(name, n_dim):
    """(argv, degree) pairs of one sweep case; `lie` has no spec, so its
    degree is the truncation order of the exp series."""
    if name == "lie":
        return [(["lie", "--truncate", str(t)], t) for t in (-1, 0, 1)]
    return [(SWEEP_COMMANDS[name] + ["--N", str(n_dim), "--nmax", str(n_max)], n_max)
            for n_max in (-1, 0, 1, 2, 3)]


@pytest.mark.parametrize("name, n_dim", [
    *[(name, n_dim) for name in sorted(SWEEP_COMMANDS) for n_dim in (1, 2, 3, 4)],
    pytest.param("lie", None, id="lie"),
])
def test_small_parameter_sweep(name, n_dim, capsys):
    """Every small input ends in a verdict or in exit 2 with one line on
    stderr: never a traceback, never a pass with no check behind it."""
    for argv, degree in _sweep_inputs(name, n_dim):
        code, out, err = _run(argv, capsys)
        assert code in (0, 2), (argv, code, err)
        if degree < 0 or code == 2:
            assert code == 2 and out == "" and len(err.strip().splitlines()) == 1, argv
            continue
        payload = json.loads(out)
        if name.startswith("verify") or name in ("dualhahn", "lie"):
            assert payload["checks"], argv


def _count_calls(monkeypatch, module, name):
    """Replace `module.name` by a counting wrapper in every package module
    that holds it; returns the list the calls are appended to."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("mvlaguerre") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_suite_lie_builds_each_closure_once(monkeypatch):
    calls = _count_calls(monkeypatch, la, "generate_algebra")
    rp.suite_lie(Fraction(1, 2))
    # 7 family members, the extended algebra and 5 series truncations
    assert len(calls) == 13


def test_suite_operators_builds_named_operators_once(monkeypatch):
    seq = compute_monic_ops(WeightSpec(2, Fraction(1, 2), (-1,), (1, 1)), 3)
    calls = _count_calls(monkeypatch, ops, "make_named_operators")
    rp.suite_operators(seq)
    assert len(calls) == 1


def test_dualhahn_computes_one_family_and_one_xi_table(monkeypatch, capsys):
    oracle = _count_calls(monkeypatch, engine, "compute_monic_ops")
    xi = _count_calls(monkeypatch, lf, "extract_xi")
    code, _, _ = _run(["dualhahn", "--N", "3", "--c", "0", "--d", "1", "--nmax", "2"],
                      capsys)
    assert code == 0
    assert (len(oracle), len(xi)) == (1, 1)


def test_verify_laguerre_builds_xi_and_GI_once(monkeypatch, capsys):
    oracle = _count_calls(monkeypatch, engine, "compute_monic_ops")
    xi = _count_calls(monkeypatch, lf, "extract_xi")
    gi = _count_calls(monkeypatch, lf, "compute_GI")
    code, out, _ = _run(["verify", "--suite", "laguerre", "--N", "2", "--nmax", "3"],
                        capsys)
    assert code == 0
    assert len(json.loads(out)["open_question_resolutions"]) == 3
    assert (len(oracle), len(xi), len(gi)) == (1, 1, 1)


def test_suites_build_each_K_K_inv_and_R_once(monkeypatch):
    """suite_operators, suite_laguerre and extract_xi on one family build
    each K_n, each K_n^{-1} and each R(x,n) = K_n^{-1} P_n e^{xA} once, and
    invert an H_n only in the family's memo (at most once each) or where a
    fresh inverse is the check itself."""
    F = Fraction
    spec = WeightSpec(3, F(7, 3), (F(5, 2), F(-3, 7)), (F(2, 3), F(5), F(11, 4)))
    seq = compute_monic_ops(spec, 3)
    degrees = range(seq.n_max + 1)
    ks = [build_K(n, spec.nu, spec.A) for n in degrees]
    kind = {**{k: ("K", n) for n, k in enumerate(ks)},
            **{k.inverse(): ("K_inv", n) for n, k in enumerate(ks)}}
    norm = {h: n for n, h in enumerate(seq.H)}
    built, inverted = [], []

    # K_n and K_n^{-1} are nilpotent exponentials; R(x,n) is the one product
    # of K_n^{-1} with a matrix polynomial
    exp, rmul, inverse = matrices.matexp_nilpotent, MatPoly.__rmul__, MatQ.inverse

    def counting_exp(a):
        out = exp(a)
        built.append(kind[out])
        return out

    def counting_rmul(self, other):
        if isinstance(other, MatQ) and kind.get(other, ("",))[0] == "K_inv":
            built.append(("R", kind[other][1]))
        return rmul(self, other)

    def counting_inverse(self):
        if self in norm:
            inverted.append((sys._getframe(1).f_code.co_name, norm[self]))
        return inverse(self)

    monkeypatch.setattr(matrices, "matexp_nilpotent", counting_exp)
    monkeypatch.setattr(MatPoly, "__rmul__", counting_rmul)
    monkeypatch.setattr(MatQ, "inverse", counting_inverse)
    rp.suite_operators(seq)
    rp.suite_laguerre(seq)
    lf.extract_xi(seq)
    for name in ("K", "K_inv", "R"):
        assert sorted(n for what, n in built if what == name) == list(degrees), name
    memo = [n for caller, n in inverted if caller == "_inverse_of_H"]
    assert len(memo) == len(set(memo))
    assert {caller for caller, _ in inverted} <= {
        "_inverse_of_H", "h_recursion_next", "x1_from_h0"}


def _owner(frame):
    """The first function above `frame` that is not a comprehension."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def test_build_A_runs_only_inside_the_spec(monkeypatch):
    """A is built from the a_k only by WeightSpec.A: K_n, the norm
    recursions, the dual Hahn coupling and the Pearson pair read it off the
    spec instead of rebuilding it."""
    original = matrices.build_A
    callers = []

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_globals["__name__"], _owner(frame)))
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("mvlaguerre") and getattr(mod, "build_A", None) is original:
            monkeypatch.setattr(mod, "build_A", recording)
    F = Fraction
    spec = WeightSpec(3, F(7, 3), (F(5, 2), F(-3, 7)), (F(2, 3), F(5), F(11, 4)))
    seq = compute_monic_ops(spec, 3)
    rp.suite_operators(seq)
    rp.suite_laguerre(seq)
    rp.resolve_open_questions(seq)
    params = dh.build_delta_family(3, F(1, 2), 2, 1)
    rp.suite_dualhahn(params, compute_monic_ops(params.spec, 3))
    dh.phi_psi(params)
    assert callers and set(callers) == {("mvlaguerre.weights", "A")}


def test_suite_dualhahn_builds_one_spec_per_level(monkeypatch):
    """suite_dualhahn reads the weight at level nu off params.spec, which
    the family's oracle already used, and builds one WeightSpec more, for
    level nu+1: A is built once per level."""
    params = dh.build_delta_family(3, Fraction(1, 2), 2, 1)
    seq = compute_monic_ops(params.spec, 3)
    counts = {"WeightSpec": 0, "build_A": 0}
    post_init, build_a = WeightSpec.__post_init__, weights.build_A

    def counting_post_init(self):
        counts["WeightSpec"] += 1
        post_init(self)

    def counting_build_a(*args, **kwargs):
        counts["build_A"] += 1
        return build_a(*args, **kwargs)

    monkeypatch.setattr(WeightSpec, "__post_init__", counting_post_init)
    monkeypatch.setattr(weights, "build_A", counting_build_a)
    rp.suite_dualhahn(params, seq)
    assert counts == {"WeightSpec": 1, "build_A": 2}


def test_suites_build_each_family_matrix_and_the_xi_table_once(monkeypatch):
    """suite_operators, suite_laguerre, resolve_open_questions and extract_xi
    on one family build H_n J H_n^{-1}, T_n = H_n (A^T-1) H_{n-1}^{-1},
    Gamma_n, G(n) and I(n) once per n, all inside the family, read the
    xi table off the oracle once, and build each Laguerre polynomial once."""
    F = Fraction
    spec = WeightSpec(3, F(7, 3), (F(5, 2), F(-3, 7)), (F(2, 3), F(5), F(11, 4)))
    seq = compute_monic_ops(spec, 3)
    i = MatQ.identity(spec.N)
    at1 = spec.A.transpose() - i
    norm = {h: n for n, h in enumerate(seq.H)}
    eigen = {i * (n + spec.nu + 1) + spec.J: n for n in range(seq.n_max + 1)}
    # the operands of each build, found before counting starts
    hjh = {h * spec.J * h.inverse(): n for h, n in norm.items()}
    t = {seq.H[n] * at1 * seq.H[n - 1].inverse(): n for n in range(1, seq.n_max + 1)}
    k_inv = {k.inverse(): n for n, k in enumerate(
        build_K(n, spec.nu, spec.A) for n in range(seq.n_max + 1))}
    built = []
    mul = MatQ.__mul__

    def counting_mul(self, other):
        if isinstance(other, MatQ):
            what = None
            if self in norm and other == spec.J:
                what = ("HJH", norm[self])
            elif self in norm and other == at1:
                what = ("T", norm[self])
            elif self == spec.A and other in eigen:
                what = ("Gamma", eigen[other])
            elif self in k_inv and other in t:
                what = ("G", t[other])
            elif self in k_inv and other in hjh:
                what = ("I", hjh[other])
            if what:
                built.append((_owner(sys._getframe(1)), *what))
        return mul(self, other)

    monkeypatch.setattr(MatQ, "__mul__", counting_mul)
    reads = _count_calls(monkeypatch, lf, "read_xi")
    laguerre = _count_calls(monkeypatch, lf, "laguerre_poly")
    rp.suite_operators(seq)
    rp.suite_laguerre(seq)
    rp.resolve_open_questions(seq)
    assert lf.extract_xi(seq) is lf.extract_xi(seq)
    monkeypatch.undo()

    degrees = list(range(seq.n_max + 1))
    for name, ns in (("HJH", degrees), ("T", degrees[1:]), ("Gamma", degrees),
                     ("G", degrees[1:]), ("I", degrees)):
        assert sorted(n for owner, what, n in built if what == name and owner == name) \
            == ns, name
    # outside the family, such products are formed only where they are the
    # check: the standalone norm recursions, the generic dagger
    # H(n) M^* H(n)^{-1} (checked against the family's M-dagger), and K_n
    allowed = {"HJH": {"h_recursion_next", "x1_from_h0"},
               "T": {"h_recursion_next", "dagger"}, "Gamma": {"build_K"}}
    for owner, what, _ in built:
        assert owner == what or owner in allowed.get(what, ()), (owner, what)
    assert len(reads) == 1
    assert len(laguerre) == len(set(laguerre)) > 0


def test_suite_oracle_makes_cubically_many_block_products(monkeypatch):
    """suite_oracle of an N=2, n_max=10 family makes no more block products
    than its checks need.  The moment row of P_i costs i(i+1) and its
    products with P_0..P_{i-1} another i(i+1)/2, so orthogonality takes
    n(n+1)(n+2)/2 up to n = n_max (a full inner product per pair took 2365
    here); the three-term, C-ratio and Y-recursion checks take
    3n(n-1)/2 + 4n - 2."""
    F = Fraction
    seq = compute_monic_ops(WeightSpec(2, F(5, 8), (F(-9, 7),), (F(6, 5), F(7, 9))), 10)
    calls = []
    mul = MatQ.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(MatQ, "__mul__", counting_mul)
    checks = rp.suite_oracle(seq)
    monkeypatch.undo()
    assert rp.all_pass(checks)
    n = seq.n_max
    assert len(calls) <= n * (n + 1) * (n + 2) // 2 + 3 * n * (n - 1) // 2 + 4 * n - 2


def test_spec_inverts_A_minus_1_and_its_transpose_once(monkeypatch):
    """suite_laguerre of an N=3 family reads A^T - 1 and the inverses of
    A - 1 and A^T - 1 off the spec: each is inverted once, however many
    norm recursions run."""
    F = Fraction
    spec = WeightSpec(3, F(7, 3), (F(5, 2), F(-3, 7)), (F(2, 3), F(5), F(11, 4)))
    seq = compute_monic_ops(spec, 5)
    i = MatQ.identity(spec.N)
    shifts = {spec.A - i: "A-1", spec.A.transpose() - i: "A^T-1"}
    inverted = []
    inverse = MatQ.inverse

    def counting_inverse(self):
        if self in shifts:
            inverted.append(shifts[self])
        return inverse(self)

    monkeypatch.setattr(MatQ, "inverse", counting_inverse)
    assert rp.all_pass(rp.suite_laguerre(seq))
    monkeypatch.undo()
    assert sorted(inverted) == ["A-1", "A^T-1"]
    assert spec.am1_inv * (spec.A - i) == i and spec.at1_inv * spec.at1 == i

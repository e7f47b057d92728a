import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


def _relabelled(fn, equation, **override):
    """fn with every check id renamed and `override` set on the checks of
    `equation`; a selection by check-id text finds none of them."""
    def wrapped(*args):
        out = []
        for c in fn(*args):
            c = {**c, "check_id": f"relabelled {c['check_id']}"}
            if c["equation"] == equation:
                c.update(override)
            out.append(c)
        return out
    return wrapped


def test_dualhahn_derivative_coupling_reads_the_equation_label(monkeypatch, capsys):
    """The payload's derivative_coupling is the verdict of the
    derivative-coupling-at-zero checks, whatever their ids: renamed and
    failed, they make it false."""
    monkeypatch.setattr(dh, "verify_derivative_coupling", _relabelled(
        dh.verify_derivative_coupling, "derivative-coupling-at-zero", **{"pass": False}))
    code, out = run(["dualhahn", "--N", "3", "--c", "2", "--d", "1"], capsys)
    assert code == 1
    assert json.loads(out)["derivative_coupling"] is False


def test_i1_boundary_resolution_reads_the_equation_label(monkeypatch):
    """resolve_i1_boundary reads the multiplier-boundary-relation checks by
    their equation label: with every id renamed it resolves as before, and
    with the quoted variant of that relation alone passing it is
    ambiguous."""
    seq = compute_monic_ops(WeightSpec(2, Fraction(1, 2), (-1,), (1, 1)), 4)
    expected = rp.resolve_i1_boundary(seq)
    original = lf.verify_displayed_xi_recursions
    monkeypatch.setattr(lf, "verify_displayed_xi_recursions",
                        _relabelled(original, "multiplier-boundary-relation"))
    assert rp.resolve_i1_boundary(seq) == expected
    monkeypatch.setattr(lf, "verify_displayed_xi_recursions", _relabelled(
        original, "multiplier-boundary-relation", displayed_form_pass=True))
    with pytest.raises(rp.AmbiguousResolutionError):
        rp.resolve_i1_boundary(seq)


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
    # recorded before Lie elements became coordinate tuples and before the
    # dual Hahn suite of verify --suite all reused the verified family
    "lie --phi x":
        "7049068e82817d9298a76c2af026917ab5cb4382589852319acffba2e3e11ac8",
    "lie --phi x^2+3x":
        "7681721397f1fc75c2a978737c8bdee47a2e76aeb336d5ad50cc5dd648707f22",
    "lie --phi x^5+x^3+1":
        "d85915253565f21ad195167605d007ff5d9136c897b48f87b62bc4f87a76777b",
    "lie --truncate 8":
        "f5f5527d86efbdaab2724bc3321233c7071476192eac5a538ca50fe42e4669ce",
    "lie --extended --nu 7/3":
        "e24f1db758e77d24b876e2b125e0c3603139eee22ed79b7f32d4ab6a7e5d457a",
    "verify --suite all --N 2 --nmax 5":
        "0abe57b9d8464b15efa1bc63058d0be6a7f5e8627e560d09d19d4731695ac4dc",
    "verify --suite all --N 2 --nmax 7":
        "b9162bbe8c71f3fd1f7f8e5ba767c267b5017be36d95f2ad89e1be6072dffb97",
    # recorded before conjugation by e^{xA} and the dagger became compositions
    "verify --suite operators --N 3 --nu=7/3 --a=5/2,-3/7 --delta=2/3,5,11/4 --nmax 6":
        "9360e0174f0da75016e99bfde5dc4f89e9ee0cb9d9942d2d727887e8ca7130d4",
    "verify --suite all --N 3 --c 1/2 --d 3 --nmax 6":
        "3fb395aa01ec8c60dcfb88b8b74232b76dc82ae4effeea6e57497e4d3cd0a3e3",
    # non-integer phi and nu denominators, recorded before the Lie layer moved
    # to integer numerators over one shared denominator
    "lie --phi 1/2x^2+3x-7/3":
        "2fc0dff0d65df8acf1a52d7efdb2418c859188332dedc9fa903445d50d0b0fdf",
    "lie --phi 2/3x^6-x^4+5x":
        "df88ff549c7758fe39fa0260260609fa28f2d70c37d4a20fc76af869a13607fa",
    "lie --truncate 10":
        "fa19dadfa5b199d4e31e63ac3992d29c5e3edc3b4f67394f261ce8c85264afd4",
    "lie --extended --nu 3/7":
        "3916ee89b87f4c1dcd06cd83e509d055911474647e062d5f21eda4965fed606b",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command, capsys):
    code, out, _ = _run(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def _readme_commands():
    """The lines of README's "Command line" block, split as a shell would."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=shlex.join)
def test_readme_command_line_examples_pass(argv, tmp_path, capsys):
    assert argv[0] == "mvlaguerre"
    argv = argv[1:]
    if "--csv" in argv:
        at = argv.index("--csv") + 1
        argv[at] = str(tmp_path / argv[at])
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["schema"] == 1


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


def test_out_path_that_is_a_directory_exits_2(tmp_path, capsys):
    """--out naming a directory cannot be written: exit 2 with one line on
    stderr, not a traceback."""
    code, out, err = _run(["lie", "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_csv_path_in_a_missing_directory_exits_2(tmp_path, capsys):
    """--csv inside a directory that does not exist cannot be written: exit
    2 with one line on stderr, not a traceback."""
    csv_path = tmp_path / "missing" / "x.csv"
    code, out, err = _run(["xi", "--N", "2", "--nmax", "2", "--csv", str(csv_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not csv_path.parent.exists()


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


@pytest.mark.parametrize("nmax,degrees,xi_degrees",
                         [(4, [4, 5], [4, 5]), (5, [5], [5]), (7, [7], [7, 5])])
def test_verify_all_reuses_the_family_for_the_same_dual_hahn_spec(
        nmax, degrees, xi_degrees, monkeypatch, capsys):
    """The unit weights of N = 2 are the dual Hahn family (c, d) = (0, 1),
    whose suite needs degrees up to min(n_max, 4) + 1: from n_max = 5 on,
    the verified family holds them and the oracle runs once.  At n_max = 5
    the suite gets that family itself, so its xi table is read once; above,
    it gets the first six degrees with the H inverses the oracle made."""
    oracle = _count_calls(monkeypatch, engine, "compute_monic_ops")
    xi = _count_calls(monkeypatch, lf, "read_xi")
    verified, dual_hahn = [], []
    suite_oracle, suite_dualhahn = rp.suite_oracle, rp.suite_dualhahn
    monkeypatch.setattr(rp, "suite_oracle",
                        lambda seq: verified.append(seq) or suite_oracle(seq))
    monkeypatch.setattr(rp, "suite_dualhahn",
                        lambda params, seq: dual_hahn.append(seq) or suite_dualhahn(params, seq))
    code, _, _ = _run(["verify", "--suite", "all", "--N", "2", "--nmax", str(nmax)], capsys)
    assert code == 0
    assert [n for _, n, *_ in oracle] == degrees
    assert [seq.n_max for seq, *_ in xi] == xi_degrees
    (seq,), (dh_seq,) = verified, dual_hahn
    assert (dh_seq is seq) == (nmax == 5)
    if nmax > 5:
        assert all(dh_seq.h_inv(n) is seq.h_inv(n) for n in range(5))


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
    """The first function above `frame` that is not a comprehension, a fused
    sum (`dot`) or a composition of operators (`compose`)."""
    while frame.f_code.co_name.startswith("<") or frame.f_code.co_name in ("dot", "compose"):
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
    init, build_a = WeightSpec.__init__, weights.build_A

    def counting_init(self, *args, **kwargs):
        counts["WeightSpec"] += 1
        init(self, *args, **kwargs)

    def counting_build_a(*args, **kwargs):
        counts["build_A"] += 1
        return build_a(*args, **kwargs)

    monkeypatch.setattr(WeightSpec, "__init__", counting_init)
    monkeypatch.setattr(weights, "build_A", counting_build_a)
    rp.suite_dualhahn(params, seq)
    assert counts == {"WeightSpec": 1, "build_A": 2}



def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    """Every command runs in a fresh process that pays for the import: the
    package loads neither dataclasses (which pulls in inspect) nor csv,
    which only `xi --csv` uses."""
    probe = ("import json, sys; before = set(sys.modules); import mvlaguerre.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "mvlaguerre.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv"}


def _count_per_algebra(monkeypatch, *names):
    """Wrap the named LieAlg methods; each call appends the algebra, which
    the list keeps alive, so no two algebras share an id."""
    calls = {name: [] for name in names}
    for name in names:
        def counting(self, *args, _name=name, _fn=getattr(la.LieAlg, name)):
            calls[_name].append(self)
            return _fn(self, *args)
        monkeypatch.setattr(la.LieAlg, name, counting)
    return calls


def _per_algebra(algs):
    return sorted(algs.count(a) for a in {id(a): a for a in algs}.values())


def test_suite_lie_checks_the_axioms_once_per_algebra(monkeypatch):
    """The family, the structure reports and the extended report read one
    verdict per algebra: 7 family closures and the extended one."""
    calls = _count_per_algebra(monkeypatch, "jacobi_holds", "antisymmetry_holds")
    assert rp.all_pass(rp.suite_lie())
    assert _per_algebra(calls["jacobi_holds"]) == [1] * 8
    assert _per_algebra(calls["antisymmetry_holds"]) == [1] * 8


@pytest.mark.parametrize("command", ["lie --phi x", "lie --phi x^3+x^2", "lie --truncate 8",
                                     "lie --extended"])
def test_lie_command_checks_the_axioms_and_center_once(command, monkeypatch, capsys):
    calls = _count_per_algebra(monkeypatch, "jacobi_holds", "antisymmetry_holds", "center")
    null_spaces = []
    null_space = la._null_space

    def counting_null_space(rows, unknowns):
        null_spaces.append(unknowns)
        return null_space(rows, unknowns)

    monkeypatch.setattr(la, "_null_space", counting_null_space)
    code, out, _ = _run(command.split(), capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["jacobi"] and payload["checks"]["antisymmetry"]
    assert {name: len(c) for name, c in calls.items()} == {
        "jacobi_holds": 1, "antisymmetry_holds": 1, "center": 1}
    assert null_spaces == [payload["dimension"]]


def test_suites_build_each_family_matrix_and_the_xi_table_once(monkeypatch):
    """suite_operators, suite_laguerre, resolve_open_questions and extract_xi
    on one family build H_n J H_n^{-1}, T_n = H_n (A^T-1) H_{n-1}^{-1},
    Gamma_n, G(n) and I(n) once per n, all inside the family, read the
    xi table off the oracle once, and build the numerators of each Laguerre
    polynomial once."""
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
    laguerre = _count_calls(monkeypatch, lf, "laguerre_numerators")
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
    than its checks need.  The moment rows of P_i (b <= i, shared with the
    C-ratio check) cost i(i+1) and their products with P_0..P_{i-1} another
    i(i+1)/2, so orthogonality takes n(n+1)(n+2)/2 up to n = n_max (a full
    inner product per pair counts 2493 here); the three-term, C-ratio and
    Y-recursion checks take at most 3n(n-1)/2 + 4n - 2.  A block product is
    a call of MatQ.__mul__ or a pair with no identity factor in a fused
    MatQ.dot of two or more pairs (a single pair is handed to MatQ.__mul__
    and counted there)."""
    F = Fraction
    seq = compute_monic_ops(WeightSpec(2, F(5, 8), (F(-9, 7),), (F(6, 5), F(7, 9))), 10)
    calls = []
    mul, dot = MatQ.__mul__, MatQ.dot

    def counting_mul(self, other):
        calls.append(None)
        return mul(self, other)

    def counting_dot(pairs, n):
        if len(pairs) > 1:
            calls.extend(None for a, b in pairs if not (a.is_identity() or b.is_identity()))
        return dot(pairs, n)

    monkeypatch.setattr(MatQ, "__mul__", counting_mul)
    monkeypatch.setattr(MatQ, "dot", staticmethod(counting_dot))
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

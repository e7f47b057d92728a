import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from functools import cached_property, wraps
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


def _patched_relation(monkeypatch, change):
    """lf.i1_boundary_relation replaced by change(derived, printed) of each
    of its true pairs."""
    original = lf.i1_boundary_relation
    monkeypatch.setattr(lf, "i1_boundary_relation",
                        lambda seq: [change(*pair) for pair in original(seq)])


def test_i1_boundary_resolution_reads_the_equation_label(monkeypatch):
    """resolve_i1_boundary reads the i = 1 boundary relation itself, not the
    checks a suite labelled with it: with every check id renamed and the
    multiplier-boundary-relation rows marked as matching the printed pair,
    it resolves as before; with the shared relation's printed pair holding
    as well, it is ambiguous."""
    seq = compute_monic_ops(WeightSpec(2, Fraction(1, 2), (-1,), (1, 1)), 4)
    expected = rp.resolve_i1_boundary(seq)
    monkeypatch.setattr(lf, "verify_displayed_xi_recursions", _relabelled(
        lf.verify_displayed_xi_recursions, "multiplier-boundary-relation",
        displayed_form_pass=True))
    assert rp.resolve_i1_boundary(seq) == expected
    _patched_relation(monkeypatch, lambda derived, printed: (derived, True))
    with pytest.raises(rp.AmbiguousResolutionError):
        rp.resolve_i1_boundary(seq)


def test_i1_boundary_resolution_names_the_pair_that_matches(monkeypatch):
    """The resolution names the derived pair where it matches, and the
    printed pair, reported as matching, where only that one holds."""
    seq = compute_monic_ops(WeightSpec(2, Fraction(1, 2), (-1,), (1, 1)), 4)
    assert rp.resolve_i1_boundary(seq)["resolution"].startswith("derived: ")
    _patched_relation(monkeypatch, lambda derived, printed: (False, True))
    resolved = rp.resolve_i1_boundary(seq)
    assert resolved["resolution"].startswith("printed: ")
    assert resolved["displayed_form_matches"] is True


@pytest.mark.parametrize("spec", [
    WeightSpec(2, Fraction(1, 2), (-1,), (1, 1)),
    WeightSpec(3, Fraction(7, 3), (Fraction(5, 2), Fraction(-3, 7)),
               (Fraction(2, 3), 5, Fraction(11, 4))),
])
@pytest.mark.parametrize("n_max", [2, 4])
def test_i1_boundary_resolution_agrees_with_the_suite_row(spec, n_max):
    """The resolution and the suite's multiplier-boundary-relation row read
    one relation: where the row exists (n_max >= 2), the derived pair is
    the row's verdict and displayed_form_matches its printed verdict."""
    seq = compute_monic_ops(spec, n_max)
    [row] = [c for c in rp.suite_laguerre(seq)
             if c["equation"] == "multiplier-boundary-relation"]
    resolved = rp.resolve_i1_boundary(seq)
    assert row["pass"] is True and resolved["resolution"].startswith("derived: ")
    assert resolved["displayed_form_matches"] == row["displayed_form_pass"]


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
    # recorded after the N = 1 entry-sign row, which compared no entry, was
    # dropped
    "dualhahn --N 1 --c 2 --d 1 --nmax 2":
        "635d2bdb51b747f7925d3969fb6d05eb06afb3f4df597df1dfb973141371c6f7",
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
    "lie --nu 3",
    "lie --nu 0",
    "compute-polys --N 2 --nu 1/0 --nmax 2",
    "compute-polys --N 2 --a=1/0 --nmax 2",
    "compute-polys --N 2 --delta=1,0/0 --nmax 2",
    "dualhahn --N 3 --c 1/0 --d 1",
    "lie --phi 2x3",
    "lie --phi 'x^2 x'",
    "lie --phi '2 3'",
    "lie --phi 2*",
])
def test_bad_rational_or_nu_exits_2(command, capsys):
    """A zero denominator, a nu <= 0, a lie --nu without --extended, or a
    phi with a term after the first that has no sign (2x3 is not 2x+3) or
    a `*` with no factor after it is an argument error: exit 2 with one
    line on stderr, not a traceback and not a verdict."""
    code, out, err = _run(shlex.split(command), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_lie_extended_defaults_nu_to_one_half(capsys):
    """--nu has no default of its own; --extended alone closes at nu = 1/2."""
    _, default, _ = _run(["lie", "--extended"], capsys)
    _, half, _ = _run(["lie", "--extended", "--nu", "1/2"], capsys)
    assert default == half and json.loads(default)["extended_report"]


def test_out_path_that_is_a_directory_exits_2(tmp_path, capsys):
    """--out naming a directory cannot be written: exit 2 with one line on
    stderr, not a traceback."""
    code, out, err = _run(["lie", "--out", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [
    "verify --nmax 99999999999999999999",
    "compute-polys --nmax 9223372036854775808",
    "xi --N 99999999999999999999",
    "dualhahn --nmax 9223372036854775808",
])
def test_index_sized_overflow_exits_2(command, capsys):
    """A degree or dimension past the index range (>= 2^63) overflows when
    it first sizes a table: exit 2 with one line on stderr, not a
    traceback."""
    code, out, err = _run(command.split(), capsys)
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


def _wrap_everywhere(monkeypatch, module, name, wrapper_of):
    """Replace `module.name` by `wrapper_of(original)` in every package module
    that holds it."""
    original = getattr(module, name)
    wrapped = wrapper_of(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("mvlaguerre") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapped)


def _count_calls(monkeypatch, module, name):
    """Replace `module.name` by a counting wrapper in every package module
    that holds it; returns the list the calls are appended to."""
    calls = []

    def wrapper_of(original):
        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counting

    _wrap_everywhere(monkeypatch, module, name, wrapper_of)
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


def test_operator_suite_forms_each_image_once(monkeypatch, capsys):
    """Every P_n . E and (M . P)(n) of the operator suite is a distinct
    (operator, n) image: the checks that read an image share it.  A
    DiffOp image is formed by act_on_derivatives (act passes through it)."""
    images = {}
    for cls, name, degree in ((ops.DiffOp, "act_on_derivatives", lambda ders: ders[0].degree),
                              (ops.SeqOp, "act", lambda n: n)):
        act, calls = getattr(cls, name), images.setdefault(cls.__name__, [])

        def counting(self, *args, act=act, calls=calls, degree=degree):
            calls.append((self, degree(args[-1])))  # holds self, so ids stay unique
            return act(self, *args)

        monkeypatch.setattr(cls, name, counting)
    code, _, _ = _run(["verify", "--suite", "operators", "--N", "3", "--nmax", "5"], capsys)
    monkeypatch.undo()
    assert code == 0
    for name, bound in (("DiffOp", 22), ("SeqOp", 26)):
        keys = [(id(op), n) for op, n in images[name]]
        assert 0 < len(keys) == len(set(keys)) <= bound, name


def test_dual_hahn_suite_sums_each_3F2_once(monkeypatch, capsys):
    """The closed-form check and the 3F2-against-recurrence check read the
    same T_k: 54 argument sets (n <= 5, i, k < 3), plus 44 for the printed
    variant."""
    calls = _count_calls(monkeypatch, dh, "dual_hahn")
    code, _, _ = _run(["verify", "--suite", "all", "--N", "3", "--c", "2", "--d", "1",
                       "--nmax", "5"], capsys)
    assert code == 0
    assert 0 < len(calls) <= 98


def test_dualhahn_table_reads_the_suite_closed_forms(monkeypatch, capsys):
    """The xi_dual_hahn column of the printed table reads the T_k the suite
    summed, and makes no second 3F2 sum: dualhahn --N 3 --c 2 --d 1 (n <= 5)
    sums 54 T_k for the closed form and the recurrence cross-check and 44
    for the printed variant, and nothing more."""
    calls = _count_calls(monkeypatch, dh, "dual_hahn")
    code, out, _ = _run(["dualhahn", "--N", "3", "--c", "2", "--d", "1"], capsys)
    assert code == 0
    assert len(calls) == 98
    rows = [r for r in json.loads(out)["xi"] if "xi_dual_hahn" in r]
    assert len(rows) == 44
    assert all(r["xi_dual_hahn"] == r["xi_extracted"] for r in rows)


@pytest.mark.parametrize("N, c, eps, sums, recurrences", [
    (3, "2", 18, 98, 54),
    (4, "7/3", 24, 172, 96),
])
def test_dualhahn_forms_each_row_once(N, c, eps, sums, recurrences, monkeypatch, capsys):
    """dualhahn (n <= 5) builds each row's eps once, for the gauge ratio,
    the q relations and the printed variant alike; sums each T_k of a row
    once, for the closed form and the recurrence cross-check, plus one 3F2
    per printed variant; and its xi_dual_hahn column, formed after the
    suite, reads the rows' T_k and sums nothing."""
    built = _count_calls(monkeypatch, dh, "epsilon_seq")
    summed = _count_calls(monkeypatch, dh, "dual_hahn")
    recurred = _count_calls(monkeypatch, dh, "dual_hahn_via_recurrence")
    closed = _count_calls(monkeypatch, dh, "xi_dual_hahn")
    after_suite = {}
    suite = rp.suite_dualhahn

    def counted_suite(params, seq):
        checks = suite(params, seq)
        after_suite.update(sums=len(summed), closed=len(closed))
        return checks

    monkeypatch.setattr(rp, "suite_dualhahn", counted_suite)
    code, out, _ = _run(["dualhahn", "--N", str(N), f"--c={c}", "--d", "1"], capsys)
    assert code == 0
    assert sorted({(n, i) for n, i, *_ in built}) == [(n, i) for n in range(6)
                                                     for i in range(1, N + 1)]
    assert (len(built), len(summed), len(recurred)) == (eps, sums, recurrences)
    rows = [r for r in json.loads(out)["xi"] if "xi_dual_hahn" in r]
    assert len(closed) - after_suite["closed"] == len(rows) > 0
    assert after_suite["sums"] == sums


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


@pytest.mark.parametrize("nmax,calls", [(5, 1), (1, 2)])
def test_verify_laguerre_reads_the_boundary_relation_once_per_family(
        nmax, calls, monkeypatch, capsys):
    """The suite and the i = 1 resolution each form the boundary relation
    once, on the family they read: at n_max >= 2 both read the family of
    degree n_max; at n_max = 1 the resolution reads a family of degree 3,
    which the suite did not check.  The resolution runs no printed-variant
    report of its own."""
    displayed = _count_calls(monkeypatch, lf, "verify_displayed_xi_recursions")
    relation = _count_calls(monkeypatch, lf, "i1_boundary_relation")
    code, out, _ = _run(["verify", "--suite", "laguerre", "--N", "3", "--nmax", str(nmax)],
                        capsys)
    assert code == 0
    assert len(json.loads(out)["open_question_resolutions"]) == 3
    assert sorted(seq.n_max for seq, in relation) == sorted([nmax, nmax if nmax >= 2 else 3])
    assert len({seq.n_max for seq, in relation}) == calls
    assert [seq.n_max for seq, in displayed] == [nmax]


def _count_builds(monkeypatch, name):
    """Replace OPSeq.name, a per-degree tuple, by one whose build is
    counted; returns the degree of each family it is built on."""
    build = engine.OPSeq.__dict__[name].func.__wrapped__
    degrees = []

    @wraps(build)
    def counting(seq):
        degrees.append(seq.n_max)
        return build(seq)

    tuple_of_family = engine._per_degree(counting)
    tuple_of_family.__set_name__(engine.OPSeq, name)
    monkeypatch.setattr(engine.OPSeq, name, tuple_of_family)
    return degrees


MESSY_N3 = ["--N", "3", "--nu=7/3", "--a=5/2,-3/7", "--delta=2/3,5,11/4"]


@pytest.mark.parametrize("spec,nmax,degrees", [(MESSY_N3, 7, [7]), (["--N", "3"], 1, [3])],
                         ids=["messy-7", "unit-1"])
def test_verify_laguerre_forms_the_G_ratios_once_per_family(
        spec, nmax, degrees, monkeypatch, capsys):
    """G(n)_ii/(n+nu+i) is built once per family, and the rebuild, the
    printed-variant report and the i = 1 boundary relation (twice: once for
    the suite, once for the resolution) all read that one table.  At
    n_max = 1 the suites read a prefix of the degree-3 family the
    resolution needs, and the table is built on that family alone."""
    built = _count_builds(monkeypatch, "G_ratio")
    readers = [_count_calls(monkeypatch, lf, name) for name in
               ("xi_by_recursion", "verify_displayed_xi_recursions", "i1_boundary_relation")]
    code, out, _ = _run(["verify", "--suite", "laguerre", *spec, "--nmax", str(nmax)], capsys)
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert [len(calls) for calls in readers] == [1, 1, 2]
    assert built == degrees


@pytest.mark.parametrize("nmax,degrees,xi_degrees",
                         [(4, [5], [5]), (5, [5], [5]), (7, [7], [7])])
def test_verify_all_reuses_the_family_for_the_same_dual_hahn_spec(
        nmax, degrees, xi_degrees, monkeypatch, capsys):
    """The unit weights of N = 2 are the dual Hahn family (c, d) = (0, 1),
    whose suite needs degrees up to min(n_max, 4) + 1.  The weight is
    orthogonalized once, at the higher of n_max and that degree, and each
    suite reads a prefix of that family.  At n_max = 5 both read the family
    itself; otherwise the two families share P, H, the H inverses the oracle
    made, and the closed forms and xi values the whole family built.  Either
    way the xi table is read off R once."""
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
    shared = range(min(seq.n_max, dh_seq.n_max) + 1)
    assert all(dh_seq.P[n] is seq.P[n] and dh_seq.H_inv[n] is seq.H_inv[n] for n in shared)
    assert all(dh_seq.K[n] is seq.K[n] and dh_seq.R[n] is seq.R[n] and dh_seq.I[n] is seq.I[n]
               for n in shared)
    assert all(dh_seq.xi.values[key] is v for key, v in seq.xi.values.items()
               if key[0] <= dh_seq.n_max)


@pytest.mark.parametrize("command", [
    *(f"verify --suite all --N 2 --nmax {n}" for n in range(5)),
    *(f"verify --suite laguerre --N {N} --nmax {n}" for N in (2, 3) for n in (0, 1)),
])
def test_verify_orthogonalizes_the_weight_once(command, monkeypatch, capsys):
    """The suites, the resolutions (which need degree 2) and the dual Hahn
    suite of the same weight each read a prefix of one family."""
    oracle = _count_calls(monkeypatch, engine, "compute_monic_ops")
    code, _, _ = _run(command.split(), capsys)
    assert code == 0
    assert len(oracle) == 1


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("nmax", range(4))
def test_no_printed_laguerre_variant_passes_untested(N, nmax, capsys):
    """A printed variant of the Laguerre suite (interior recursion, n = 1
    boundary seed, i = 1 boundary relation, X recursion rows) is reported
    only where it compared an entry, and the printed forms are wrong
    wherever they are compared: no row may claim displayed_form_pass.  The
    G(n) = X(n) diagonal claim, too, is reported only from n_max = 1."""
    code, out, _ = _run(f"verify --suite laguerre --N {N} --nmax {nmax}".split(), capsys)
    assert code == 0
    payload = json.loads(out)
    rows = payload["display_corrections"]
    assert not [r["check_id"] for r in rows if r["displayed_form_pass"]]
    ids = {r["check_id"] for r in rows}
    assert ("interior recursion, corrected sign" in ids) == (N >= 2 and nmax >= 1)
    assert ("boundary seed xi(1,i,i+1), corrected sign" in ids) == (N >= 2 and nmax >= 1)
    assert ("X recursion rows, derived form" in ids) == (nmax >= 2)
    checks = {c["check_id"] for c in payload["checks"]}
    assert ("G(n) diagonal equals X(n) diagonal" in checks) == (nmax >= 1)


@pytest.mark.parametrize("c", ["2", "7/3"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("nmax", range(4))
def test_coupling_entry_sign_is_reported_only_where_it_compares(N, c, nmax, capsys):
    """The conjugated-diagonal entry sign compares M*_{k,k+1} for
    k = 1..N-1: at N = 1 it compares nothing and no row is reported, so no
    printed variant of the dual Hahn suite claims displayed_form_pass."""
    code, out, _ = _run(f"dualhahn --N {N} --c {c} --d 1 --nmax {nmax}".split(), capsys)
    assert code == 0
    payload = json.loads(out)
    entry = [r for r in payload["checks"] if r["equation"] == "conjugated-coupling-entry"]
    assert len(entry) == (N >= 2)
    if N == 1:
        assert not [r["check_id"] for r in payload["display_corrections"]
                    if r["displayed_form_pass"]]


def test_verify_reads_the_dual_hahn_suite_on_the_verified_spec(monkeypatch, capsys):
    """With unit weights at N = 2 the verified weight is the dual Hahn family
    (c, d) = (0, 1): the suite's params share the verified spec object, so
    its e^{xA} and e^{-xA} are built once each, and e^{xA} once more only
    for the weight at level nu+1 (build_K aside)."""
    original = matrices.exp_nilpotent
    callers = []

    def recording(a):
        callers.append(_owner(sys._getframe(1)))
        return original(a)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("mvlaguerre") and getattr(mod, "exp_nilpotent", None) is original:
            monkeypatch.setattr(mod, "exp_nilpotent", recording)
    oracle = _count_calls(monkeypatch, engine, "compute_monic_ops")
    suite = _count_calls(monkeypatch, rp, "suite_dualhahn")
    code, _, _ = _run("verify --suite all --N 2 --nmax 5".split(), capsys)
    assert code == 0
    assert len([c for c in callers if c != "build_K"]) == 3
    [(spec, _)] = oracle
    [(params, _)] = suite
    assert params.spec is spec


def test_verify_orthogonalizes_each_distinct_weight_once(monkeypatch, capsys):
    """Beside unit deltas, the (c, d) = (2, 1) dual Hahn weight differs from
    the verified one and keeps its own oracle."""
    oracle = _count_calls(monkeypatch, engine, "compute_monic_ops")
    code, _, _ = _run("verify --suite all --N 3 --c 2 --d 1 --nmax 0".split(), capsys)
    assert code == 0
    assert [n for _, n in oracle] == [3, 1]
    assert oracle[0][0] != oracle[1][0]


def test_lie_exits_1_when_a_structure_check_fails(monkeypatch, capsys):
    structure_report = la.structure_report

    def one_check_false(alg):
        rep = structure_report(alg)
        rep["checks"][-1]["pass"] = False
        return rep

    monkeypatch.setattr(la, "structure_report", one_check_false)
    code, out, _ = _run(["lie", "--phi", "x^3+x^2"], capsys)
    assert code == 1
    assert json.loads(out)["derived_series_lengths"] == 2


def _record_gamma_builds(monkeypatch, spec, n_max, built):
    """Append (owner, "Gamma", n) to `built` whenever Gamma_n =
    A(n+nu+1+J) - n - J is formed from integer numerators, as one canonical
    MatQ made outside the matrix arithmetic of `matrices`; that is how the
    family forms it.  (Sums and products that come out equal to Gamma_n, such
    as the constant coefficient of the second-order operator, are not
    builds of it.)"""
    i = MatQ.identity(spec.N)
    gammas = {spec.A * (i * (n + spec.nu + 1) + spec.J) - i * n - spec.J: n
              for n in range(n_max + 1)}
    canonical = MatQ._canonical

    def counting(num, d):
        out = canonical(num, d)
        frame = sys._getframe(1)
        if out in gammas and frame.f_globals["__name__"] != "mvlaguerre.matrices":
            built.append((_owner(frame), "Gamma", gammas[out]))
        return out

    monkeypatch.setattr(MatQ, "_canonical", staticmethod(counting))


def test_suites_build_each_K_K_inv_and_R_once(monkeypatch):
    """suite_operators, suite_laguerre and extract_xi on one family build
    each K_n, each K_n^{-1}, each Gamma_n and each R(x,n) = K_n^{-1} P_n e^{xA}
    once, inside the family, and invert an H_n only in the family's memo
    (at most once each) or where a fresh inverse is the check itself: the
    norm recursion pass, which inverts each H_m it reads once, and the X(1)
    bootstrap, which builds X(1) once and so inverts H_0 once.  No K check
    inverts K_n."""
    F = Fraction
    spec = WeightSpec(3, F(7, 3), (F(5, 2), F(-3, 7)), (F(2, 3), F(5), F(11, 4)))
    seq = compute_monic_ops(spec, 3)
    degrees = range(seq.n_max + 1)
    ks = [build_K(n, spec.nu, spec.A) for n in degrees]
    kind = {**{k: ("K", n) for n, k in enumerate(ks)},
            **{k.inverse(): ("K_inv", n) for n, k in enumerate(ks)}}
    norm = {h: n for n, h in enumerate(seq.H)}
    built, inverted = [], []

    # K_n and K_n^{-1} come from build_K; R(x,n) is the one product of
    # K_n^{-1} with a matrix polynomial
    rmul, inverse = MatPoly.__rmul__, MatQ.inverse

    def counting_build_K(original):
        def build(n, nu, a):
            out = original(n, nu, a)
            built.append((_owner(sys._getframe(1)), *kind[out]))
            return out
        return build

    def counting_rmul(self, other):
        if isinstance(other, MatQ) and kind.get(other, ("",))[0] == "K_inv":
            built.append((_owner(sys._getframe(1)), "R", kind[other][1]))
        return rmul(self, other)

    def counting_inverse(self):
        if self in norm or self in kind:
            inverted.append((_owner(sys._getframe(1)), norm.get(self, "K")))
        return inverse(self)

    _wrap_everywhere(monkeypatch, matrices, "build_K", counting_build_K)
    _record_gamma_builds(monkeypatch, spec, seq.n_max, built)
    monkeypatch.setattr(MatPoly, "__rmul__", counting_rmul)
    monkeypatch.setattr(MatQ, "inverse", counting_inverse)
    rp.suite_operators(seq)
    rp.suite_laguerre(seq)
    lf.extract_xi(seq)
    for name in ("K", "K_inv", "Gamma", "R"):
        assert sorted(n for _, what, n in built if what == name) == list(degrees), name
    assert all(owner == what for owner, what, _ in built), built
    for owner in ("_inverse", "verify_H_recursion"):
        once = [n for caller, n in inverted if caller == owner]
        assert len(once) == len(set(once)), owner
    assert [n for caller, n in inverted if caller == "verify_H_recursion"] \
        == list(range(seq.n_max))
    assert [n for caller, n in inverted if caller == "x1_from_h0"] == [0]
    assert {caller for caller, _ in inverted} <= {
        "_inverse", "verify_H_recursion", "x1_from_h0"}
    assert "K" not in {n for _, n in inverted}


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
    dh_seq = compute_monic_ops(params.spec, 3)
    rp.suite_dualhahn(params, dh_seq)
    dh.phi_psi(params, dh_seq)
    assert callers and set(callers) == {("mvlaguerre.weights", "A")}


def test_exp_nilpotent_runs_only_inside_the_spec_and_K(monkeypatch, capsys):
    """e^{xA} and e^{-xA} are built only by WeightSpec.exp_xA and
    WeightSpec.exp_neg_xA: Q, the diagonalization, the weight and the
    Pearson pair read the spec's.  K_n and K_n^{-1} are built only by
    build_K, which sums its exponential on integers itself and is called
    only by the family's K and K_inv and by the Pearson pair, which reads
    K_0^{-1} off the family and builds K_0: `dualhahn --N 3 --c 2 --d 1`
    makes 7 calls, K_n^{-1} for n <= 5 and K_0.  Each DHParams builds its
    coupling once, for the coupling check and the Pearson pair."""
    callers, k_callers = set(), []

    def recording_in(record):
        def wrapper_of(original):
            def recording(*args):
                record(_owner(sys._getframe(1)))
                return original(*args)
            return recording
        return wrapper_of

    _wrap_everywhere(monkeypatch, matrices, "exp_nilpotent", recording_in(callers.add))
    _wrap_everywhere(monkeypatch, matrices, "build_K", recording_in(k_callers.append))
    coupling, built = dh.DHParams.coupling.func, []

    def counting(params):
        built.append(params)  # kept alive, so no two share an id
        return coupling(params)

    counted = cached_property(counting)
    counted.__set_name__(dh.DHParams, "coupling")
    monkeypatch.setattr(dh.DHParams, "coupling", counted)
    # N = 2 with unit weights is its own dual Hahn family (c = 0, d = 1)
    k_calls = {}
    for argv in ("verify --suite all --N 2 --nmax 5",
                 "verify --suite all --N 3 --c 2 --d 1 --nmax 5",
                 "dualhahn --N 3 --c 2 --d 1"):
        start = len(k_callers)
        assert _run(argv.split(), capsys)[0] == 0, argv
        k_calls[argv] = k_callers[start:]
    assert callers == {"exp_xA", "exp_neg_xA"}
    assert set(k_callers) == {"K", "K_inv", "phi_psi"}
    assert sorted(k_calls["dualhahn --N 3 --c 2 --d 1"]) == ["K_inv"] * 6 + ["phi_psi"]
    assert len(built) == len({id(params) for params in built}) == 3


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
    calls = _count_per_algebra(monkeypatch, "jacobi_holds", "antisymmetry_holds")
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
        "jacobi_holds": 1, "antisymmetry_holds": 1}
    # the center is one cached null space of the structure table
    assert null_spaces == [payload["dimension"]]


def test_suites_build_each_family_matrix_and_the_xi_table_once(monkeypatch):
    """suite_operators, suite_laguerre, resolve_open_questions and extract_xi
    on one family build H_n J H_n^{-1}, T_n = H_n (A^T-1) H_{n-1}^{-1},
    Gamma_n, G(n) and I(n) once per n, all inside the family, read the
    xi table off the oracle once, and build the numerators of each Laguerre
    polynomial once.  The norm recursion pass forms its own
    H_m J H_m^{-1} (m < n_max) and T_m (1 <= m < n_max) once per m.  A
    product of a moment with an operator coefficient (a term of an adjoint
    kernel) builds none of them."""
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
    # m_0 = H_0: a term m_s G^T of an adjoint kernel, such as m_0 (A^T - 1)
    # from the second-order operator, can have a norm as its left operand.
    # A moment-table operand times anything but J is such a kernel term,
    # never the build of a family matrix (H_0 J is the build of HJH_0).
    moments = set(seq.table.moments)
    built = []
    mul = MatQ.__mul__

    def counting_mul(self, other):
        if isinstance(other, MatQ) and not (self in moments and other != spec.J):
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

    _record_gamma_builds(monkeypatch, spec, seq.n_max, built)
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
    # Gamma_n is formed from numerators (`_record_gamma_builds`) and nowhere
    # as the product A(n+nu+1+J); outside the family, the other products are
    # formed only where they are the check: the norm recursion pass (each once per m), the X(1) bootstrap and
    # the generic dagger H(n) M^* H(n)^{-1} (checked against the family's
    # M-dagger)
    assert sorted(n for owner, what, n in built if owner == "_norm_terms" and what == "HJH") \
        == degrees[:-1]
    assert sorted(n for owner, what, n in built if owner == "_norm_terms" and what == "T") \
        == degrees[1:-1]
    allowed = {"HJH": {"_norm_terms", "x1_from_h0"}, "T": {"_norm_terms", "dagger_coef"}}
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

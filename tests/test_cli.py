import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import pmod
from pmod.cli import main

M_TEXT = "module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n"
N_TEXT = "module N\nfield F5\nparams 1\ngen b @ 1\nrel s1 @ 3 = 1*b\n"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path):
    m = tmp_path / "M.pmod"
    n = tmp_path / "N.pmod"
    m.write_text(M_TEXT)
    n.write_text(N_TEXT)
    return str(m), str(n)


def test_interleaved_yes_no(runner, files):
    m, n = files
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "1"])
    assert r.exit_code == 0
    assert r.output == "Yes\n"
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "1/2"])
    assert r.exit_code == 0
    assert r.output == "No\n"


def test_interleaved_witness_and_json(runner, files):
    m, n = files
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "1", "--witness"])
    assert r.exit_code == 0
    assert r.output == "Yes\nA = [[1]]\nB = [[1]]\n"
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "1", "--json",
                             "--witness"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc == {"answer": "Yes",
                   "witness": {"A": [["1"]], "B": [["1"]]}}


def test_distance_command(runner, files):
    m, n = files
    r = runner.invoke(main, ["distance", m, n])
    assert r.exit_code == 0
    assert r.output == "d_I = 1\n"
    r = runner.invoke(main, ["distance", m, n, "--json", "--witness"])
    doc = json.loads(r.output)
    assert doc["d_I"] == "1"
    assert doc["witness"]["A"] == [["1"]]


def test_candidates_command(runner, files):
    m, n = files
    r = runner.invoke(main, ["candidates", m, n])
    assert r.exit_code == 0
    assert r.output.splitlines() == ["0", "1", "3/2", "2", "3", "inf"]
    r = runner.invoke(main, ["candidates", m, n, "--json"])
    assert json.loads(r.output) == {
        "candidates": ["0", "1", "3/2", "2", "3", "inf"]}


def test_barcode_command(runner, files, tmp_path):
    m, _ = files
    r = runner.invoke(main, ["barcode", m])
    assert r.exit_code == 0
    assert r.output == "interval [0, 3) x 1\n"
    free = tmp_path / "free.pmod"
    free.write_text("module F\nfield F2\nparams 1\ngen a @ 1/2\n")
    r = runner.invoke(main, ["barcode", str(free)])
    assert r.output == "interval [1/2, inf) x 1\n"
    r = runner.invoke(main, ["barcode", m, "--json"])
    doc = json.loads(r.output)
    assert doc == {"intervals": [{"birth": "0", "death": "3", "mult": 1}]}
    # barcode is defined for one parameter only
    two = tmp_path / "two.pmod"
    two.write_text("module X\nfield F2\nparams 2\ngen a @ (0, 0)\n")
    r = runner.invoke(main, ["barcode", str(two)])
    assert r.exit_code == 2


def test_bottleneck_command(runner, files):
    m, n = files
    r = runner.invoke(main, ["bottleneck", m, n])
    assert r.exit_code == 0
    assert r.output == "d_B = 1\n"
    r = runner.invoke(main, ["bottleneck", m, n, "--json"])
    assert json.loads(r.output) == {"d_B": "1"}


def test_bottleneck_checks_the_pair_first(runner, files, tmp_path):
    # the fields differ, so there is no d_B, though each barcode exists
    m, _ = files
    n3 = tmp_path / "n3.pmod"
    n3.write_text(N_TEXT.replace("F5", "F3"))
    r = runner.invoke(main, ["bottleneck", m, str(n3)])
    assert r.exit_code == 2
    assert (r.stdout, r.stderr) == ("", "error: F5 vs F3\n")
    # a matched pair with two parameters still gets the barcode's error
    two = tmp_path / "two.pmod"
    two.write_text("module X\nfield F2\nparams 2\ngen a @ (0, 0)\n")
    r = runner.invoke(main, ["bottleneck", str(two), str(two)])
    assert r.exit_code == 2
    assert (r.stdout, r.stderr) == ("",
                                    "error: barcode needs n=1, got n=2\n")


def test_minimize_command(runner, tmp_path):
    src = tmp_path / "red.pmod"
    src.write_text("module M\nfield F5\nparams 1\n"
                   "gen a @ 0\ngen b @ 0\n"
                   "rel r1 @ 0 = 1*a + 4*b\nrel r2 @ 3 = 1*a\n")
    r = runner.invoke(main, ["minimize", str(src)])
    assert r.exit_code == 0
    # the unit pivot eliminates the first eligible generator (a), so the
    # surviving generator is b with the rewritten relation
    assert r.output == ("module M\nfield F5\nparams 1\n"
                        "gen b @ 0\nrel r2 @ 3 = 1*b\n")


def test_syntax_errors_come_before_pattern_errors(runner, tmp_path):
    # r breaks the grade pattern; the later line's syntax error is the
    # one reported
    src = tmp_path / "bad.pmod"
    src.write_text("module M\nfield F5\nparams 1\ngen a @ 2\n"
                   "rel r @ 1 = 1*a\nrel s @ 3 = 1*zz\n")
    r = runner.invoke(main, ["minimize", str(src)])
    assert r.exit_code == 2
    assert (r.stdout, r.stderr) == (
        "", "error: line 6, column 1: unknown generator 'zz' in relation 's'\n")


def test_characterize_command(runner, files):
    m, n = files
    r = runner.invoke(main, ["characterize", m, n, "--eps", "1"])
    assert r.exit_code == 0
    assert r.output.startswith("field F5\nparams 1\neps 1\n")
    assert "rel Y1 m_b @ 2 = 4*a + 1*b" in r.output
    r = runner.invoke(main, ["characterize", m, n, "--eps", "1/2"])
    assert r.exit_code == 0
    assert r.output == "No\n"
    r = runner.invoke(main, ["characterize", m, n, "--eps", "1", "--json"])
    doc = json.loads(r.output)
    assert doc["answer"] == "Yes"
    assert doc["pair"].startswith("field F5\nparams 1\neps 1\n")


def test_isomorphic_command(runner, files, tmp_path):
    m, n = files
    r = runner.invoke(main, ["isomorphic", m, n])
    assert r.exit_code == 0
    assert r.output == "No\n"
    m2 = tmp_path / "M2.pmod"
    m2.write_text(M_TEXT.replace("module M", "module M2"))
    r = runner.invoke(main, ["isomorphic", m, str(m2)])
    assert r.output == "Yes\n"


def test_exportmq_command(runner, files, tmp_path):
    m, n = files
    r = runner.invoke(main, ["exportmq", m, n, "--eps", "1"])
    assert r.exit_code == 0
    assert r.output.startswith("field F5\nvars 5\neqs 4\n")
    out = tmp_path / "system.txt"
    r = runner.invoke(main, ["exportmq", m, n, "--eps", "1",
                             "--out", str(out)])
    assert r.exit_code == 0
    assert out.read_text().startswith("field F5\nvars 5\neqs 4\n")


def test_error_exit_codes(runner, files, tmp_path):
    m, n = files
    # missing file: click's own usage error
    r = runner.invoke(main, ["distance", m, str(tmp_path / "nope.pmod")])
    assert r.exit_code == 2
    # malformed module file: our input error path
    bad = tmp_path / "bad.pmod"
    bad.write_text("module M\nfield F5\n")
    r = runner.invoke(main, ["barcode", str(bad)])
    assert r.exit_code == 2
    assert "error:" in r.output or "error:" in (r.stderr or "")
    # a module file that is not UTF-8 text is an input error too
    bad.write_bytes(b"module M\nfield F5\xff\n")
    r = runner.invoke(main, ["barcode", str(bad)])
    assert r.exit_code == 2
    assert "not UTF-8 text" in r.output or "not UTF-8 text" in (r.stderr or "")
    # modules over different fields have no candidate set, as they
    # have no distance
    f2, f3 = tmp_path / "f2.pmod", tmp_path / "f3.pmod"
    f2.write_text(M_TEXT.replace("F5", "F2"))
    f3.write_text(N_TEXT.replace("F5", "F3"))
    for cmd in ("candidates", "distance"):
        r = runner.invoke(main, [cmd, str(f2), str(f3)])
        assert r.exit_code == 2, cmd
        assert r.stderr == "error: F2 vs F3\n", cmd
    # bad epsilon literal
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "0.5"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "-1"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "1_0"])
    assert r.exit_code == 2
    # budget exhaustion is exit code 3
    r = runner.invoke(main, ["interleaved", m, n, "--eps", "1",
                             "--budget", "1"])
    assert r.exit_code == 3
    r = runner.invoke(main, ["distance", m, n, "--budget", "1"])
    assert r.exit_code == 3
    # a negative budget is bad input, not an exhausted search; 0 is a
    # budget that refuses every search
    for args in (["interleaved", m, n, "--eps", "1"], ["distance", m, n],
                 ["isomorphic", m, n], ["characterize", m, n, "--eps", "1"]):
        r = runner.invoke(main, args + ["--budget", "-1"])
        assert r.exit_code == 2, args
        assert "--budget" in r.output, args
        r = runner.invoke(main, args + ["--budget", "0"])
        assert r.exit_code == 3, args
        assert "budget is 0" in r.output, args
    # an unknown option is a usage error
    r = runner.invoke(main, ["distance", m, n, "--threads", "3"])
    assert r.exit_code == 2


def test_pair_errors_name_n_before_the_field(runner, files, tmp_path):
    # an F5 module with n = 1 against an F2 module with n = 2: every
    # two-module command reports the first check, n, and nothing else
    m, _ = files
    n2 = tmp_path / "n2.pmod"
    n2.write_text("module N\nfield F2\nparams 2\ngen b @ (1, 1)\n")
    for cmd, *opts in (["interleaved", "--eps", "1"], ["isomorphic"],
                       ["characterize", "--eps", "1"], ["distance"],
                       ["candidates"], ["exportmq", "--eps", "1"],
                       ["bottleneck"]):
        r = runner.invoke(main, [cmd, m, str(n2), *opts])
        assert r.exit_code == 2, cmd
        assert (r.stdout, r.stderr) == ("", "error: n=1 vs n=2\n"), cmd


def test_outputs_deterministic(runner, files):
    m, n = files
    for args in (["distance", m, n, "--witness"],
                 ["characterize", m, n, "--eps", "1"],
                 ["candidates", m, n]):
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output and a.exit_code == b.exit_code == 0


def test_distance_inf_needs_no_search(runner, tmp_path):
    # the diagonal-line bound is inf here, so no search runs and even a
    # budget that refuses every search gets the answer
    free = tmp_path / "free.pmod"
    free.write_text("module F\nfield F2\nparams 2\ngen a @ (0, 1/2)\n")
    zero = tmp_path / "zero.pmod"
    zero.write_text("module Z\nfield F2\nparams 2\n")
    r = runner.invoke(main, ["distance", str(free), str(zero),
                             "--budget", "0"])
    assert r.exit_code == 0
    assert r.output == "d_I = inf\n"


# Prints the top-level modules that importing pmod and its CLI loads,
# beyond those the interpreter had loaded at start-up.
IMPORTS_SCRIPT = """
import sys
before = set(sys.modules)
import pmod, pmod.cli
print(" ".join(sorted({m.partition(".")[0]
                       for m in set(sys.modules) - before})))
"""


def test_runtime_dependency_is_click_only():
    src = str(Path(pmod.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", IMPORTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "pmod" in loaded and "click" in loaded
    others = [m for m in loaded if m not in sys.stdlib_module_names
              and m not in ("click", "pmod")]
    assert others == []

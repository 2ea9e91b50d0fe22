import json
import pytest
from click.testing import CliRunner

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
    # an unknown option is a usage error
    r = runner.invoke(main, ["distance", m, n, "--threads", "3"])
    assert r.exit_code == 2


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

"""Byte-for-byte CLI transcripts.

cli_golden.json holds, for every command line in CASES, its exit code
and its exact stdout and stderr. The inputs are the tests/test_cli.py
pair, an F5 pair whose witness and mixed relations hold entries other
than 0 and 1, an F5 pair whose witness is zero, two Q modules with
negative and fractional coefficients, an F2 pair whose search runs
the packed F_2 partner solve, and files the commands must reject with
exit code 2. An argument
written @name is the path name in the scratch directory, which the
transcripts show as $TMP. After an intended change of output, re-record
with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

from click.testing import CliRunner

from pmod.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

MODULES = {
    "M": "module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n",
    "N": "module N\nfield F5\nparams 1\ngen b @ 1\nrel s1 @ 3 = 1*b\n",
    "red": ("module M\nfield F5\nparams 1\ngen a @ 0\ngen b @ 0\n"
            "rel r1 @ 0 = 1*a + 4*b\nrel r2 @ 3 = 1*a\n"),
    # tests/conftest.random_presentation(rng_for(134), F5, 2, min_gens=2,
    # min_rels=2), both already minimal; d_I = 9/8
    "M5": ("module M\nfield F5\nparams 2\n"
           "gen g1 @ (4, 0)\ngen g2 @ (3/4, 7/4)\ngen g3 @ (7/4, 0)\n"
           "rel r1 @ (9/4, 9/4) = 4*g3\n"
           "rel r2 @ (9/2, 9/4) = 2*g1 + 2*g2 + 1*g3\n"),
    "N5": ("module N\nfield F5\nparams 2\n"
           "gen g1 @ (11/3, 8/3)\ngen g2 @ (3, 0)\ngen g3 @ (7/4, 1)\n"
           "rel r1 @ (25/6, 19/6) = 1*g1 + 2*g2 + 2*g3\n"
           "rel r2 @ (25/6, 19/6) = 1*g1 + 3*g3\n"),
    # r2 is a unit pivot on c and r4 is redundant, so minimize rewrites
    # the rest
    "Q1": ("module Q1\nfield Q\nparams 1\n"
           "gen a @ 0\ngen b @ 1/2\ngen c @ 1\n"
           "rel r1 @ 1 = -3/2*a + 2*b\n"
           "rel r2 @ 1 = 1/3*c + -1*a + 5/4*b\n"
           "rel r3 @ 2 = -1/2*b + 2/3*c\n"
           "rel r4 @ 3 = 2*a + 4*b\n"),
    "Q2": ("module Q2\nfield Q\nparams 1\ngen x @ 1/4\ngen y @ 1\n"
           "rel s1 @ 3/2 = -2/3*x + 5/7*y\nrel s2 @ 5/2 = -1*y\n"),
    # a 2e-trivial pair at e = 1/2, far apart: each generator dies
    # within 1, and the witness is A = B = 0
    "M0": "module M0\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 1 = 1*a\n",
    "N0": ("module N0\nfield F5\nparams 1\ngen b @ 5\n"
           "rel s1 @ 11/2 = 1*b\n"),
    # tests/conftest.random_presentation(rng_for(146), F2, 2, 3, 3, 2, 2),
    # M then N; d_I = 2, and B has an entry on a pivot column of the
    # partner's condition-2 reduction
    "M2": ("module M\nfield F2\nparams 2\n"
           "gen g1 @ (5/2, 1)\ngen g2 @ (1/3, 4)\n"
           "rel r1 @ (5/6, 9/2) = 1*g2\nrel r2 @ (5/6, 9/2) = 0\n"),
    "N2": ("module N\nfield F2\nparams 2\n"
           "gen g1 @ (3, 3)\ngen g2 @ (7/2, 7/2)\n"
           "rel r2 @ (4, 4) = 0\nrel r1 @ (9/2, 9/2) = 1*g1 + 1*g2\n"),
    "bad": "module M\nfield F5\n",
    "latin1": b"module M\nfield F5\xff\n",
}

CASES = [
    ["interleaved", "M", "N", "--eps", "1", "--witness"],
    ["interleaved", "M", "N", "--eps", "1", "--json", "--witness"],
    ["interleaved", "M", "N", "--eps", "1/2"],
    ["distance", "M", "N", "--witness"],
    ["distance", "M", "N", "--json", "--witness"],
    ["candidates", "M", "N"],
    ["candidates", "M", "N", "--json"],
    ["barcode", "M"],
    ["barcode", "M", "--json"],
    ["bottleneck", "M", "N"],
    ["bottleneck", "M", "N", "--json"],
    ["minimize", "red"],
    ["minimize", "red", "--json"],
    ["characterize", "M", "N", "--eps", "1", "--witness"],
    ["characterize", "M", "N", "--eps", "1", "--json", "--witness"],
    ["characterize", "M", "N", "--eps", "1/2"],
    ["exportmq", "M", "N", "--eps", "1"],
    ["isomorphic", "M", "N"],
    ["interleaved", "M5", "N5", "--eps", "9/8", "--witness"],
    ["interleaved", "M5", "N5", "--eps", "9/8", "--json", "--witness"],
    ["interleaved", "M5", "N5", "--eps", "1"],
    ["distance", "M5", "N5", "--witness"],
    ["distance", "M5", "N5", "--json", "--witness"],
    ["candidates", "M5", "N5"],
    ["minimize", "M5"],
    ["characterize", "M5", "N5", "--eps", "9/8", "--witness"],
    ["characterize", "M5", "N5", "--eps", "9/8", "--json", "--witness"],
    ["characterize", "N5", "M5", "--eps", "3/2", "--witness"],
    ["exportmq", "M5", "N5", "--eps", "9/8"],
    ["exportmq", "M5", "N5", "--eps", "1/4"],
    ["minimize", "Q1"],
    ["minimize", "Q1", "--json"],
    ["barcode", "Q1"],
    ["barcode", "Q1", "--json"],
    ["barcode", "Q2"],
    ["bottleneck", "Q1", "Q2"],
    ["candidates", "Q1", "Q2"],
    ["exportmq", "Q1", "Q2", "--eps", "1/2"],
    ["exportmq", "Q2", "Q1", "--eps", "3/4"],
    # --json on No answers, and without --witness
    ["interleaved", "M", "N", "--eps", "1/2", "--json"],
    ["characterize", "M", "N", "--eps", "1/2", "--json"],
    ["isomorphic", "M", "N", "--json"],
    ["distance", "M", "N", "--json"],
    ["interleaved", "M", "N", "--eps", "1", "--json"],
    # a budget that refuses every search: exit code 3
    ["interleaved", "M", "N", "--eps", "1", "--budget", "0"],
    ["distance", "M", "N", "--budget", "0"],
    ["characterize", "M", "N", "--eps", "1", "--budget", "0"],
    ["isomorphic", "M", "N", "--budget", "0"],
    # a probe answered Yes with zero maps
    ["interleaved", "M0", "N0", "--eps", "1/2", "--witness"],
    ["distance", "M0", "N0", "--witness"],
    ["characterize", "M0", "N0", "--eps", "1/2"],
    # an F2 search
    ["distance", "M2", "N2", "--witness"],
    ["interleaved", "M2", "N2", "--eps", "7/4"],
    ["interleaved", "N2", "M2", "--eps", "2", "--witness"],
    # input errors: exit code 2
    ["barcode", "bad"],
    ["distance", "M", "bad"],
    ["distance", "bad", "latin1"],
    ["barcode", "latin1"],
    ["distance", "M", "Q1"],
    ["barcode", "M5"],
    ["exportmq", "M", "N", "--eps", "1", "--out", "@nodir/system.txt"],
]


def _arg(tmp_path, a):
    if a in MODULES:
        return str(tmp_path / f"{a}.pmod")
    if a.startswith("@"):
        return str(tmp_path / a[1:])
    return a


def _run(tmp_path):
    for name, text in MODULES.items():
        path = tmp_path / f"{name}.pmod"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
    runner = CliRunner()
    out = {}
    for args in CASES:
        r = runner.invoke(main, [_arg(tmp_path, a) for a in args])
        out[" ".join(args)] = {
            "exit_code": r.exit_code,
            "stdout": r.stdout.replace(str(tmp_path), "$TMP"),
            "stderr": r.stderr.replace(str(tmp_path), "$TMP")}
    return out


def test_cli_transcripts_byte_identical(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _run(tmp_path)
    assert sorted(got) == sorted(golden)
    changed = [key for key in got if got[key] != golden[key]]
    assert not changed, changed


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = _run(Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")

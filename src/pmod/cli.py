"""Command-line front end.

Exit codes: 0 for any computed answer (including "No"), 2 for input
errors (missing or malformed files, bad flags), 3 when the interleaving
search exceeds its budget. Output is deterministic byte-for-byte for
fixed inputs and flags. Every command loads its module files first, in
argument order, computes through _run, which maps errors to exit codes,
and prints through _emit, as text or with --json as one JSON object.
"""

import json as jsonlib
import sys
from pathlib import Path

import click

from .scalars import FieldMismatch
from .grading import parse_rational, check_epsilon, DimensionMismatch
from .freemod import PatternViolation, BasisMismatch
from .presentation import (parse, serialize, ParseError,
                           GradeOrderViolation)
from .presentation import minimize as run_minimize
from .onedim import NotOneParameter, format_extended, diagram_bottleneck
from .onedim import barcode as run_barcode
from .interleave import (InterleavingProblem, is_interleaved,
                         export_quadratic_system, BudgetExceeded,
                         UnsupportedField, DEFAULT_BUDGET, _check_pair)
from .distance import candidate_set, interleaving_distance, is_isomorphic
from .characterize import _compatible_pair, serialize_pair

INPUT_ERRORS = (ParseError, PatternViolation, BasisMismatch, FieldMismatch,
                DimensionMismatch, NotOneParameter, GradeOrderViolation,
                UnsupportedField, OSError)


def _die(exc, code=2):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        _die(f"{path} is not UTF-8 text: {exc}")
    except INPUT_ERRORS as exc:
        _die(exc)


def _run(fn, *args):
    """fn(*args); a search over its budget ends the command with exit
    code 3, and an input error with exit code 2."""
    try:
        return fn(*args)
    except BudgetExceeded as exc:
        _die(exc, 3)
    except INPUT_ERRORS as exc:
        _die(exc)


def _emit(as_json, doc, text, witness=None):
    """Print a command's answer: doc as one JSON object with --json,
    else text as it stands. A witness goes into doc under "witness",
    with its entries as strings, or after text as the lines A = [...]
    and B = [...]."""
    rows = {} if witness is None else {
        k: [[str(x) for x in row] for row in m.entries]
        for k, m in (("A", witness.A), ("B", witness.B))}
    if as_json:
        if rows:
            doc = {**doc, "witness": rows}
        click.echo(jsonlib.dumps(doc, sort_keys=True))
        return
    for k, mat in rows.items():
        inner = ", ".join("[" + ", ".join(row) + "]" for row in mat)
        text += f"{k} = [{inner}]\n"
    click.echo(text, nl=False)


class RationalType(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        try:
            return check_epsilon(parse_rational(value))
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


RATIONAL = RationalType()

module_file = click.argument("file_m", metavar="FILE",
                             type=click.Path(exists=True, dir_okay=False))
module_files = [
    click.argument("file_n", metavar="FILE_N",
                   type=click.Path(exists=True, dir_okay=False)),
    click.argument("file_m", metavar="FILE_M",
                   type=click.Path(exists=True, dir_okay=False)),
]
eps_opt = click.option("--eps", required=True, type=RATIONAL,
                       help="shift value, a nonnegative rational like 3/4")
budget_opt = click.option("--budget", default=DEFAULT_BUDGET,
                          type=click.IntRange(min=0), show_default=True,
                          help="max candidates per interleaving search")
json_opt = click.option("--json", "as_json", is_flag=True,
                        help="machine-readable output")
witness_opt = click.option("--witness", "show_witness", is_flag=True,
                           help="print the witness matrices")


def _two_files(fn):
    for deco in module_files:
        fn = deco(fn)
    return fn


@click.group()
def main():
    """Exact computations on finitely presented multiparameter modules."""


@main.command()
@_two_files
@eps_opt
@budget_opt
@witness_opt
@json_opt
def interleaved(file_m, file_n, eps, budget, show_witness, as_json):
    """Decide eps-interleaving between two modules."""
    P, Q = _load(file_m), _load(file_n)
    w = _run(is_interleaved, _run(InterleavingProblem, P, Q, eps), budget)
    answer = "Yes" if w is not None else "No"
    _emit(as_json, {"answer": answer}, f"{answer}\n",
          w if show_witness else None)


@main.command()
@_two_files
@budget_opt
@witness_opt
@json_opt
def distance(file_m, file_n, budget, show_witness, as_json):
    """Interleaving distance d_I between two modules."""
    P, Q = _load(file_m), _load(file_n)
    d, w = _run(interleaving_distance, P, Q, budget)
    d = format_extended(d)
    _emit(as_json, {"d_I": d}, f"d_I = {d}\n", w if show_witness else None)


@main.command()
@_two_files
@json_opt
def candidates(file_m, file_n, as_json):
    """The finite candidate set the distance is drawn from."""
    P, Q = _load(file_m), _load(file_n)
    values = [format_extended(v) for v in _run(candidate_set, P, Q)]
    _emit(as_json, {"candidates": values}, "".join(f"{v}\n" for v in values))


@main.command()
@module_file
@json_opt
def barcode(file_m, as_json):
    """Barcode of a one-parameter module."""
    pairs = _run(run_barcode, _load(file_m)).pairs()
    doc = {"intervals": [{"birth": str(i.birth),
                          "death": format_extended(i.death), "mult": m}
                         for i, m in pairs]}
    _emit(as_json, doc, "".join(f"interval {i!r} x {m}\n" for i, m in pairs))


@main.command()
@_two_files
@json_opt
def bottleneck(file_m, file_n, as_json):
    """Bottleneck distance d_B between two one-parameter modules."""
    P, Q = _load(file_m), _load(file_n)
    _run(_check_pair, P, Q)
    d = format_extended(diagram_bottleneck(_run(run_barcode, P),
                                           _run(run_barcode, Q)))
    _emit(as_json, {"d_B": d}, f"d_B = {d}\n")


@main.command()
@module_file
@json_opt
def minimize(file_m, as_json):
    """Minimal presentation of a module."""
    text = serialize(_run(run_minimize, _load(file_m)))
    _emit(as_json, {"presentation": text}, text)


@main.command()
@_two_files
@eps_opt
@budget_opt
@witness_opt
@json_opt
def characterize(file_m, file_n, eps, budget, show_witness, as_json):
    """Compatible presentation pair at eps, from a found witness."""
    P, Q = _load(file_m), _load(file_n)
    w = _run(is_interleaved, _run(InterleavingProblem, P, Q, eps), budget)
    if w is None:
        return _emit(as_json, {"answer": "No"}, "No\n")
    text = serialize_pair(_run(_compatible_pair, P, Q, w, eps))
    _emit(as_json, {"answer": "Yes", "pair": text}, text,
          w if show_witness else None)


@main.command()
@_two_files
@budget_opt
@json_opt
def isomorphic(file_m, file_n, budget, as_json):
    """Are the two modules isomorphic (0-interleaved)?"""
    P, Q = _load(file_m), _load(file_n)
    answer = "Yes" if _run(is_isomorphic, P, Q, budget) else "No"
    _emit(as_json, {"answer": answer}, f"{answer}\n")


@main.command()
@_two_files
@eps_opt
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the system to a file instead of stdout")
def exportmq(file_m, file_n, eps, out):
    """Export the quadratic system deciding eps-interleaving."""
    P, Q = _load(file_m), _load(file_n)
    text = _run(export_quadratic_system,
                _run(InterleavingProblem, P, Q, eps))
    if out is None:
        click.echo(text, nl=False)
    else:
        _run(Path(out).write_text, text, "utf-8")


if __name__ == "__main__":
    main()

"""Command-line front end.

Exit codes: 0 for any computed answer (including "No"), 2 for input
errors (missing or malformed files, bad flags), 3 when the interleaving
search exceeds its budget. Output is deterministic byte-for-byte for
fixed inputs and flags.
"""

import json as jsonlib
import sys

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
                         UnsupportedField, DEFAULT_BUDGET)
from .distance import candidate_set, interleaving_distance, is_isomorphic
from .characterize import compatible_presentations, serialize_pair

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


def _fmt_matrix(mat):
    rows = ", ".join(
        "[" + ", ".join(str(x) for x in row) + "]" for row in mat.entries)
    return "[" + rows + "]"


def _witness_doc(w):
    return {"A": [[str(x) for x in row] for row in w.A.entries],
            "B": [[str(x) for x in row] for row in w.B.entries]}


def _echo_witness(w):
    click.echo(f"A = {_fmt_matrix(w.A)}")
    click.echo(f"B = {_fmt_matrix(w.B)}")


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
    try:
        w = is_interleaved(InterleavingProblem(P, Q, eps), budget)
    except BudgetExceeded as exc:
        _die(exc, 3)
    except INPUT_ERRORS as exc:
        _die(exc)
    answer = "Yes" if w is not None else "No"
    if as_json:
        doc = {"answer": answer}
        if w is not None and show_witness:
            doc["witness"] = _witness_doc(w)
        click.echo(jsonlib.dumps(doc, sort_keys=True))
    else:
        click.echo(answer)
        if w is not None and show_witness:
            _echo_witness(w)


@main.command()
@_two_files
@budget_opt
@witness_opt
@json_opt
def distance(file_m, file_n, budget, show_witness, as_json):
    """Interleaving distance d_I between two modules."""
    P, Q = _load(file_m), _load(file_n)
    try:
        d, w = interleaving_distance(P, Q, budget)
    except BudgetExceeded as exc:
        _die(exc, 3)
    except INPUT_ERRORS as exc:
        _die(exc)
    if as_json:
        doc = {"d_I": format_extended(d)}
        if w is not None and show_witness:
            doc["witness"] = _witness_doc(w)
        click.echo(jsonlib.dumps(doc, sort_keys=True))
    else:
        click.echo(f"d_I = {format_extended(d)}")
        if w is not None and show_witness:
            _echo_witness(w)


@main.command()
@_two_files
@json_opt
def candidates(file_m, file_n, as_json):
    """The finite candidate set the distance is drawn from."""
    P, Q = _load(file_m), _load(file_n)
    try:
        cands = candidate_set(P, Q)
    except INPUT_ERRORS as exc:
        _die(exc)
    values = [format_extended(v) for v in cands]
    if as_json:
        click.echo(jsonlib.dumps({"candidates": values}, sort_keys=True))
    else:
        for v in values:
            click.echo(v)


@main.command()
@module_file
@json_opt
def barcode(file_m, as_json):
    """Barcode of a one-parameter module."""
    P = _load(file_m)
    try:
        D = run_barcode(P)
    except INPUT_ERRORS as exc:
        _die(exc)
    if as_json:
        doc = {"intervals": [{"birth": str(i.birth),
                              "death": format_extended(i.death),
                              "mult": m} for i, m in D.pairs()]}
        click.echo(jsonlib.dumps(doc, sort_keys=True))
    else:
        for interval, m in D.pairs():
            click.echo(f"interval [{interval.birth}, "
                       f"{format_extended(interval.death)}) x {m}")


@main.command()
@_two_files
@json_opt
def bottleneck(file_m, file_n, as_json):
    """Bottleneck distance d_B between two one-parameter modules."""
    P, Q = _load(file_m), _load(file_n)
    try:
        d = diagram_bottleneck(run_barcode(P), run_barcode(Q))
    except INPUT_ERRORS as exc:
        _die(exc)
    if as_json:
        click.echo(jsonlib.dumps({"d_B": format_extended(d)},
                                 sort_keys=True))
    else:
        click.echo(f"d_B = {format_extended(d)}")


@main.command()
@module_file
@json_opt
def minimize(file_m, as_json):
    """Minimal presentation of a module."""
    P = _load(file_m)
    try:
        text = serialize(run_minimize(P))
    except INPUT_ERRORS as exc:
        _die(exc)
    if as_json:
        click.echo(jsonlib.dumps({"presentation": text}, sort_keys=True))
    else:
        click.echo(text, nl=False)


@main.command()
@_two_files
@eps_opt
@budget_opt
@witness_opt
@json_opt
def characterize(file_m, file_n, eps, budget, show_witness, as_json):
    """Compatible presentation pair at eps, from a found witness."""
    P, Q = _load(file_m), _load(file_n)
    try:
        w = is_interleaved(InterleavingProblem(P, Q, eps), budget)
        if w is not None:
            pair, _, _ = compatible_presentations(P, Q, w, eps)
    except BudgetExceeded as exc:
        _die(exc, 3)
    except INPUT_ERRORS as exc:
        _die(exc)
    if w is None:
        if as_json:
            click.echo(jsonlib.dumps({"answer": "No"}, sort_keys=True))
        else:
            click.echo("No")
        return
    text = serialize_pair(pair)
    if as_json:
        doc = {"answer": "Yes", "pair": text}
        if show_witness:
            doc["witness"] = _witness_doc(w)
        click.echo(jsonlib.dumps(doc, sort_keys=True))
    else:
        click.echo(text, nl=False)
        if show_witness:
            _echo_witness(w)


@main.command()
@_two_files
@budget_opt
@json_opt
def isomorphic(file_m, file_n, budget, as_json):
    """Are the two modules isomorphic (0-interleaved)?"""
    P, Q = _load(file_m), _load(file_n)
    try:
        answer = "Yes" if is_isomorphic(P, Q, budget) else "No"
    except BudgetExceeded as exc:
        _die(exc, 3)
    except INPUT_ERRORS as exc:
        _die(exc)
    if as_json:
        click.echo(jsonlib.dumps({"answer": answer}, sort_keys=True))
    else:
        click.echo(answer)


@main.command()
@_two_files
@eps_opt
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the system to a file instead of stdout")
def exportmq(file_m, file_n, eps, out):
    """Export the quadratic system deciding eps-interleaving."""
    P, Q = _load(file_m), _load(file_n)
    try:
        text = export_quadratic_system(InterleavingProblem(P, Q, eps))
    except INPUT_ERRORS as exc:
        _die(exc)
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _die(exc)


if __name__ == "__main__":
    main()

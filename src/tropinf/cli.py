"""Command-line interface.

Exit codes: 0 success, 1 user error (parse, type, bad arguments), 2 internal
error.  A closed output pipe ends a command by SIGPIPE where the platform has
it, as it ends any Unix filter (status 141 in a shell).
"""

from __future__ import annotations

import json
import signal
import sys
from fractions import Fraction

import click

from . import algebra, geometry, infer, lang
from .algebra import ProbAssignment
from .lang import LangError


class CliError(click.ClickException):
    exit_code = 1


def _load(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise CliError(str(exc))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}")
    try:
        program = lang.parse(source)
    except LangError as exc:
        raise CliError(str(exc))
    return program, source


def _parse_probs(text: str, k: int) -> ProbAssignment:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    try:
        ps = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad probability list: {exc}")
    if len(ps) != k:
        raise CliError(f"expected {k} probabilities, got {len(ps)}")
    try:
        return ProbAssignment(ps)
    except algebra.AlgebraError as exc:
        raise CliError(str(exc))


def _parse_monomial(text: str, k: int) -> tuple:
    layout = ",".join(algebra.var_names(2 * k))
    try:
        mu = tuple(int(e) for e in text.split(",")) if text.strip() else ()
    except ValueError:
        mu = None
    if mu is None or len(mu) != 2 * k or any(e < 0 for e in mu):
        raise CliError(
            f"bad monomial {text!r}: expected {2 * k} non-negative exponents "
            f"in the layout {layout}"
        )
    return mu


def _analyze(program, source, target, window, max_rounds):
    try:
        return infer.analyze(
            program, target, window=window, max_rounds=max_rounds, source=source
        )
    except (LangError, infer.InferError) as exc:
        raise CliError(str(exc))


def _analysis_options(command):
    """The options shared by every command that runs the analysis."""
    options = (
        click.option("--target", type=click.IntRange(min=0), default=1, show_default=True,
                     help="Ground numeral to reach."),
        click.option("--window", type=click.IntRange(min=1), default=1, show_default=True,
                     help="Unchanged increments of the recursion bound n needed to call "
                          "a recursive program's result stable."),
        click.option("--max-rounds", type=click.IntRange(min=1), default=16, show_default=True,
                     help="Most search rounds to run before giving up."),
        click.option("--output", type=click.Choice(["text", "json"]), default="text",
                     show_default=True),
    )
    for option in reversed(options):
        command = option(command)
    return command


@click.group()
def main():
    """Static analysis of probabilistic programs with parametric choice."""


@main.command()
@click.argument("path", type=click.Path())
def check(path):
    """Parse and type-check a program."""
    program, _ = _load(path)
    try:
        ty = lang.require_ground(lang.type_check(program.term))
    except LangError as exc:
        raise CliError(str(exc))
    click.echo(f"ok: {lang.type_to_text(ty)} with {program.params} parameter(s)")


@main.command("enumerate")
@click.argument("path", type=click.Path())
@click.option("--budget", type=click.IntRange(min=0), default=200, show_default=True,
              help="Total step budget per path.")
@click.option("--target", type=click.IntRange(min=0), default=None,
              help="Only show paths reaching this numeral.")
def enumerate_runs(path, budget, target):
    """List reduction paths with their choice words and weights, each as it
    ends, in word order."""
    program, _ = _load(path)
    try:
        lang.require_ground(lang.type_check(program.term))
        for tr in lang.enumerate_trajectories(program, budget):
            if target is not None and tr.normal_form != target:
                continue
            outcome = "unfinished" if tr.normal_form is None else f"-> {tr.normal_form}"
            word = lang.word_to_text(tr.word) or "(empty)"
            click.echo(
                f"{word}  {algebra.mono_to_text(tr.monomial)}  {outcome}  [{tr.steps} steps]"
            )
    except LangError as exc:
        raise CliError(str(exc))


def _cone_lines(cone, indent: str):
    """The rows of a cone as inequalities a*X1 + ... <= 0."""
    names = algebra.var_names(cone.dim)
    for row in cone.rows:
        terms = " + ".join(f"{a}*{n}" for a, n in zip(row, names) if a != 0)
        yield f"{indent}{terms or '0'} <= 0"


def _report_text(report):
    lines = []
    lines.append(f"target: {report.target}")
    lines.append(
        f"stable: {str(report.stable).lower()}  exact: {str(report.exact).lower()}"
        f"  rounds: {[n for n, _ in report.rounds]}"
    )
    if not report.stable:
        lines.append(
            "note: bounds did not stabilize; results are relative to the "
            "explored trajectory space"
        )
    lines.append(f"polynomial: {algebra.poly_to_text(report.poly)}")
    lines.append(f"degree: {report.degree_estimate}")
    for sel in report.selected:
        lines.append(
            f"  {algebra.mono_to_text(sel.monomial)}  word={lang.word_to_text(sel.word) or '(empty)'}"
        )
        lines.extend(_cone_lines(sel.cone, "    "))
    return "\n".join(lines)


@main.command()
@click.argument("path", type=click.Path())
@_analysis_options
def analyze(path, target, window, max_rounds, output):
    """Compute the stabilized minimal weight polynomial and certificates.

    No bound limits the width of a multiset, so the typing search may take
    time exponential in the program's size, as for Church numerals applied
    to Church numerals."""
    program, source = _load(path)
    report = _analyze(program, source, target, window, max_rounds)
    if output == "json":
        click.echo(json.dumps(infer.report_to_json(report), indent=2))
    else:
        click.echo(_report_text(report))


@main.command()
@click.argument("path", type=click.Path())
@click.option("--probs", required=True, help="Comma-separated branch probabilities, one per parameter.")
@_analysis_options
def i1(path, probs, target, window, max_rounds, output):
    """Most likely trajectory class at the given probabilities."""
    program, source = _load(path)
    p = _parse_probs(probs, program.params)
    report = _analyze(program, source, target, window, max_rounds)
    try:
        res = infer.solve_i1(report, p)
    except infer.InferError as exc:
        raise CliError(str(exc))
    if output == "json":
        click.echo(
            json.dumps(
                {
                    "schema": infer.SCHEMA,
                    "query": "i1",
                    "value": None if res.value == algebra.INF else res.value,
                    "probability": str(res.probability),
                    "winners": [list(m) for m in res.winners],
                    "stable": report.stable,
                },
                indent=2,
            )
        )
    else:
        value = "inf" if res.value == algebra.INF else f"{res.value:.12f}"
        winners = ", ".join(algebra.mono_to_text(m) for m in res.winners)
        click.echo(f"value: {value}")
        click.echo(f"probability: {res.probability}")
        click.echo(f"winners: {winners}")


@main.command()
@click.argument("path", type=click.Path())
@click.option("--monomial", required=True, help="Comma-separated exponents, layout X1,~X1,X2,~X2,...")
@click.option("--probs", default=None, help="Optional probabilities to test for membership.")
@_analysis_options
def i2(path, monomial, probs, target, window, max_rounds, output):
    """Region of probabilities where a trajectory class is most likely."""
    program, source = _load(path)
    mu = _parse_monomial(monomial, program.params)
    p = None if probs is None else _parse_probs(probs, program.params)
    report = _analyze(program, source, target, window, max_rounds)
    try:
        res = infer.solve_i2(report, mu)
    except infer.InferError as exc:
        raise CliError(str(exc))
    member = None if p is None else infer.i2_contains(res, p)
    if output == "json":
        obj = {
            "schema": infer.SCHEMA,
            "query": "i2",
            "monomial": list(res.monomial),
            "cone": geometry.cone_to_json(res.cone, res.witness),
            "stable": report.stable,
        }
        if member is not None:
            obj["member"] = member
        click.echo(json.dumps(obj, indent=2))
    else:
        click.echo(f"monomial: {algebra.mono_to_text(res.monomial)}")
        for line in _cone_lines(res.cone, "  "):
            click.echo(line)
        if res.witness is not None:
            click.echo(f"witness: {[str(w) for w in res.witness]}")
        if member is not None:
            click.echo(f"member: {str(member).lower()}")


def run():
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:  # a user error, bad arguments included
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except Exception as exc:  # internal error
        print(f"internal error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    run()

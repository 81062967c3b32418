"""Command-line interface: apply, check, classify, report.

Exit codes are part of the contract: 0 on success, 1 for usage, parse,
or unknown-name problems, 2 when the transformation is undefined at the
given input, 3 when a selected law fails.  A subcommand's ``--config``
names a file holding one record of atoms in the value grammar, for
example ``{bx = "fst-lens", dir = "from"}``.  Each field is read as the
subcommand's flag of the same name, ahead of the command line, so argparse
types and checks it like the flag and a flag given on the command line
wins; a field the subcommand has no flag for is ignored.
"""
from __future__ import annotations

import argparse
import sys

from .values import AtomInt, AtomStr, CapExceeded, Rec, Seq
from .scheme import SchemeError
from .frameworks import Undefined, UnknownName
from .grammar import ParseError, parse_trace, parse_update, parse_value, render_trace, render_update, render_value
from .catalog import catalog, catalog_entries
from .classify import classify, render_report, well_behaved
from .laws import ALL_LAWS, LawReport, LawSuiteConfig, run_suite
from .verdict import Fails, Holds, NotExpressible, Vacuous, Verdict, WeaklyHolds

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 2
EXIT_LAW_FAILURE = 3
FORMATS = ("text", "value-grammar")


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the contract reserves 2
    # for transformation partiality.
    def error(self, message: str):
        raise _UsageError(message)


def _config_flags(path: str, command: _ArgumentParser) -> list[str]:
    """The fields of the config file at ``path`` as ``--field=value`` flags
    of ``command``; a field it has no option for is left out."""
    with open(path, "r", encoding="utf-8") as handle:
        value = parse_value(handle.read())
    if not isinstance(value, Rec):
        raise _UsageError("config file must contain a record")
    flags = []
    for name, sub in value.fields:
        if not isinstance(sub, (AtomStr, AtomInt)):
            raise _UsageError(f"config field {name} must be an atom")
        flag = "--" + name.replace("_", "-")
        # ``--help`` takes no value, so it names no field.
        action = command._option_string_actions.get(flag)
        if action is not None and action.nargs != 0:
            flags.append(f"{flag}={sub.value}")
    return flags


def _with_config(argv: list[str], commands: dict[str, _ArgumentParser]) -> list[str]:
    """``argv`` with the fields of its ``--config`` file put in as flags
    just after the subcommand, so that flags on the command line win."""
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return argv
    finder = _ArgumentParser(add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv[1:])[0].config
    if not path:
        return argv
    return [argv[0], *_config_flags(path, command), *argv[1:]]


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _suite_config(args: argparse.Namespace) -> LawSuiteConfig:
    laws = ALL_LAWS if args.laws == "all" else tuple(part for part in args.laws.split(",") if part.strip())
    return LawSuiteConfig(laws=laws, value_cap=args.cap, edit_ops_per_update=args.edit_ops)


def _verdict_line(verdict: Verdict) -> str:
    if isinstance(verdict, Holds):
        return f"holds ({verdict.cases_checked} cases)"
    if isinstance(verdict, WeaklyHolds):
        return f"weakly holds [{verdict.variant}] ({verdict.cases_checked} cases)"
    if isinstance(verdict, NotExpressible):
        return f"not expressible: {verdict.reason}"
    if isinstance(verdict, Vacuous):
        return f"vacuous: {verdict.reason}"
    return "FAILS"


def _report_text(report: LawReport) -> str:
    lines = [f"bx: {report.bx_name}"]
    for (law, direction), verdict in report.verdicts.items():
        lines.append(f"  {law}/{direction}: {_verdict_line(verdict)}")
        if isinstance(verdict, Fails):
            for detail_line in verdict.counterexample.describe().splitlines():
                lines.append(f"    {detail_line}")
    for error in report.meta_errors:
        lines.append(f"  meta-theorem violation: {error}")
    return "\n".join(lines)


def cmd_apply(args: argparse.Namespace) -> int:
    entry = catalog(args.bx)
    update = parse_update(args.update)
    trace = parse_trace(args.trace or "none")
    try:
        out_update, out_trace = entry.bx.apply(args.dir, update, trace)
    except Undefined as exc:
        print(f"undefined: {exc.reason}", file=sys.stderr)
        return EXIT_UNDEFINED
    _emit(f"{render_update(out_update)}\n{render_trace(out_trace)}", args.output)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    entry = catalog(args.bx)
    suite = _suite_config(args)
    report = run_suite(entry.bx, suite)
    if args.format == "value-grammar":
        _emit(render_value(report.to_value()), args.output)
    else:
        _emit(_report_text(report), args.output)
    return EXIT_LAW_FAILURE if report.failures(suite.laws) else EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    entry = catalog(args.bx)
    signature = classify(entry.bx)
    if args.format == "value-grammar":
        _emit(render_value(AtomStr(signature.format())), args.output)
    else:
        _emit(signature.format(), args.output)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    suite = _suite_config(args)
    rows = []
    for name, entry in catalog_entries().items():
        report = run_suite(entry.bx, suite)
        signature = classify(entry.bx)
        rows.append((name, signature, report, well_behaved(report)))
    if args.format == "value-grammar":
        machine_rows = [
            Rec(
                {
                    "name": AtomStr(name),
                    "signature": AtomStr(signature.format()),
                    "behaviour": AtomStr(behaviour),
                    "report": report.to_value(),
                }
            )
            for name, signature, report, behaviour in rows
        ]
        _emit(render_value(Seq(machine_rows)), args.output)
    else:
        grades = [f"{name}: {behaviour}" for name, _, _, behaviour in rows]
        _emit(render_report(row[:3] for row in rows) + "\n\n" + "\n".join(grades), args.output)
    return EXIT_OK


def build_parser() -> tuple[_ArgumentParser, dict[str, _ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = _ArgumentParser(prog="bxkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> _ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="config file in the value grammar")
        p.add_argument("--output", help="write output to this file instead of stdout")
        return p

    def suite_flags(p: _ArgumentParser) -> None:
        p.add_argument("--laws", default="all", help="'all' or a comma-separated law list")
        p.add_argument("--cap", type=int, default=LawSuiteConfig.value_cap, help="enumeration cap for input domains")
        p.add_argument(
            "--edit-ops", dest="edit_ops", type=int, default=LawSuiteConfig.edit_ops_per_update,
            help="edits per enumerated update",
        )

    apply_p = command("apply", cmd_apply, "run one transformation on serialized inputs")
    apply_p.add_argument("--bx", required=True)
    apply_p.add_argument("--dir", choices=["to", "from"], required=True)
    apply_p.add_argument("--update", required=True, help="input update in the textual grammar")
    apply_p.add_argument("--trace", help="input trace in the textual grammar (default: none)")

    check_p = command("check", cmd_check, "run the law suite for one catalog entry")
    check_p.add_argument("--bx", required=True)
    suite_flags(check_p)

    classify_p = command("classify", cmd_classify, "print a catalog entry's scheme signature")
    classify_p.add_argument("--bx", required=True)

    report_p = command("report", cmd_report, "classification and law table for the whole catalog")
    suite_flags(report_p)
    for p in (check_p, classify_p, report_p):
        p.add_argument("--format", choices=FORMATS, default="text")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(argv, commands))
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, UnknownName, CapExceeded, SchemeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

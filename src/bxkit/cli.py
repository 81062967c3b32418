"""Command-line interface: apply, check, classify, report.

Exit codes are part of the contract: 0 on success, 1 for usage, parse,
or unknown-name problems, 2 when the transformation is undefined at the
given input, 3 when a selected law fails.  Flags override values read
from an optional config file written in the value grammar, for example
``{bx = "fst-lens", dir = "from"}``.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .values import AtomInt, AtomStr, CapExceeded, Rec, Value
from .scheme import SchemeError
from .frameworks import Undefined, UnknownName
from .grammar import ParseError, parse_trace, parse_update, parse_value, render_trace, render_update, render_value
from .catalog import catalog, catalog_entries
from .classify import classify, render_report, well_behaved
from .laws import ALL_LAWS, LawReport, LawSuiteConfig, canonical_law, run_suite
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


@dataclass
class CliConfig:
    command: str
    bx_name: str | None = None
    direction: str | None = None
    update_text: str | None = None
    trace_text: str | None = None
    laws: str | None = None
    output: str | None = None
    format: str = "text"
    cap: int | None = None
    edit_ops: int | None = None


def _load_config_file(path: str) -> dict[str, str | int]:
    with open(path, "r", encoding="utf-8") as handle:
        value = parse_value(handle.read())
    if not isinstance(value, Rec):
        raise _UsageError("config file must contain a record")
    out: dict[str, str | int] = {}
    for name, sub in value.fields:
        if isinstance(sub, AtomStr):
            out[name] = sub.value
        elif isinstance(sub, AtomInt):
            out[name] = sub.value
        else:
            raise _UsageError(f"config field {name} must be an atom")
    return out


def _merge(args: argparse.Namespace) -> CliConfig:
    file_values: dict[str, str | int] = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)

    def pick(flag_value, key: str, default=None):
        if flag_value is not None:
            return flag_value
        return file_values.get(key, default)

    return CliConfig(
        command=args.command,
        bx_name=pick(getattr(args, "bx", None), "bx"),
        direction=pick(getattr(args, "dir", None), "dir"),
        update_text=pick(getattr(args, "update", None), "update"),
        trace_text=pick(getattr(args, "trace", None), "trace"),
        laws=pick(getattr(args, "laws", None), "laws", "all"),
        output=pick(getattr(args, "output", None), "output"),
        format=pick(getattr(args, "format", None), "format", "text"),
        cap=pick(getattr(args, "cap", None), "cap"),
        edit_ops=pick(getattr(args, "edit_ops", None), "edit_ops"),
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _suite_config(config: CliConfig) -> LawSuiteConfig:
    laws = ALL_LAWS if config.laws in (None, "all") else tuple(
        canonical_law(part) for part in config.laws.split(",") if part.strip()
    )
    kwargs = {"laws": laws}
    if config.cap is not None:
        kwargs["value_cap"] = int(config.cap)
    if config.edit_ops is not None:
        kwargs["edit_ops_per_update"] = int(config.edit_ops)
    return LawSuiteConfig(**kwargs)


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


def cmd_apply(config: CliConfig) -> int:
    for required, label in ((config.bx_name, "--bx"), (config.direction, "--dir"), (config.update_text, "--update")):
        if not required:
            raise _UsageError(f"apply requires {label}")
    entry = catalog(config.bx_name)
    update = parse_update(config.update_text)
    trace = parse_trace(config.trace_text or "none")
    try:
        out_update, out_trace = entry.bx.apply(config.direction, update, trace)
    except Undefined as exc:
        print(f"undefined: {exc.reason}", file=sys.stderr)
        return EXIT_UNDEFINED
    _emit(f"{render_update(out_update)}\n{render_trace(out_trace)}", config.output)
    return EXIT_OK


def cmd_check(config: CliConfig) -> int:
    if not config.bx_name:
        raise _UsageError("check requires --bx")
    entry = catalog(config.bx_name)
    suite = _suite_config(config)
    report = run_suite(entry.bx, suite)
    if config.format == "value-grammar":
        _emit(render_value(report.to_value()), config.output)
    else:
        _emit(_report_text(report), config.output)
    return EXIT_LAW_FAILURE if report.failures(suite.laws) else EXIT_OK


def cmd_classify(config: CliConfig) -> int:
    if not config.bx_name:
        raise _UsageError("classify requires --bx")
    entry = catalog(config.bx_name)
    signature = classify(entry.bx)
    if config.format == "value-grammar":
        _emit(render_value(AtomStr(signature.format())), config.output)
    else:
        _emit(signature.format(), config.output)
    return EXIT_OK


def cmd_report(config: CliConfig) -> int:
    suite = _suite_config(config)
    rows = []
    grades = []
    machine_rows: list[Value] = []
    for name, entry in catalog_entries().items():
        report = run_suite(entry.bx, suite)
        signature = classify(entry.bx)
        behaviour = well_behaved(entry.bx, report)
        rows.append((name, signature, report))
        grades.append(f"{name}: {behaviour}")
        machine_rows.append(
            Rec(
                {
                    "name": AtomStr(name),
                    "signature": AtomStr(signature.format()),
                    "behaviour": AtomStr(behaviour),
                    "report": report.to_value(),
                }
            )
        )
    if config.format == "value-grammar":
        from .values import Seq

        _emit(render_value(Seq(machine_rows)), config.output)
    else:
        _emit(render_report(rows) + "\n\n" + "\n".join(grades), config.output)
    return EXIT_OK


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="bxkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _ArgumentParser) -> None:
        p.add_argument("--config", help="config file in the value grammar")
        p.add_argument("--output", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=FORMATS, default=None)

    apply_p = sub.add_parser("apply", help="run one transformation on serialized inputs")
    apply_p.add_argument("--bx")
    apply_p.add_argument("--dir", choices=["to", "from"])
    apply_p.add_argument("--update", help="input update in the textual grammar")
    apply_p.add_argument("--trace", help="input trace in the textual grammar (default: none)")
    common(apply_p)

    check_p = sub.add_parser("check", help="run the law suite for one catalog entry")
    check_p.add_argument("--bx")
    check_p.add_argument("--laws", help="'all' or a comma-separated law list")
    check_p.add_argument("--cap", type=int, help="enumeration cap for input domains")
    check_p.add_argument("--edit-ops", dest="edit_ops", type=int, help="edits per enumerated update")
    common(check_p)

    classify_p = sub.add_parser("classify", help="print a catalog entry's scheme signature")
    classify_p.add_argument("--bx")
    common(classify_p)

    report_p = sub.add_parser("report", help="classification and law table for the whole catalog")
    report_p.add_argument("--laws")
    report_p.add_argument("--cap", type=int)
    report_p.add_argument("--edit-ops", dest="edit_ops", type=int)
    common(report_p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _merge(args)
        if config.format not in FORMATS:
            raise _UsageError(f"unknown format {config.format!r}")
        if config.command == "apply":
            return cmd_apply(config)
        if config.command == "check":
            return cmd_check(config)
        if config.command == "classify":
            return cmd_classify(config)
        return cmd_report(config)
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

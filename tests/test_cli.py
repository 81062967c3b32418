"""Command-line interface: transcripts and the exit-code contract."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bxkit
from bxkit.cli import EXIT_LAW_FAILURE, EXIT_OK, EXIT_UNDEFINED, EXIT_USAGE, main
from bxkit.grammar import parse_trace, parse_update, parse_value

# SHA-256 of ``bxkit report --format value-grammar``; it must not change
# unless a fix demonstrably needs it to (see ROADMAP).
REPORT_SHA256 = "c610a19c6ce9ed0dcd7cd68e2de32e2fac62f6e0d25c6327c4695692dcf22db6"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apply_lens_backward(capsys):
    code, out, _ = run_cli(
        capsys,
        "apply", "--bx", "fst-lens", "--dir", "from",
        "--update", "state{post=9}", "--trace", "state{(2, 5)}",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "state{post=(9, 5)}"
    assert lines[1] == "none"


def test_apply_lens_forward_synthesizes_trace(capsys):
    code, out, _ = run_cli(
        capsys,
        "apply", "--bx", "fst-lens", "--dir", "to",
        "--update", "state{post=(2, 5)}", "--trace", "none",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "state{post=2}"
    assert lines[1] == "state{(2, 5)}"


def test_apply_defaults_trace_to_none(capsys):
    code, out, _ = run_cli(
        capsys,
        "apply", "--bx", "uppercase-mapping", "--dir", "to", "--update", 'state{post="a"}',
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == 'state{post="A"}'


def test_apply_undefined_exit_two(capsys):
    code, _out, err = run_cli(
        capsys,
        "apply", "--bx", "embed-mapping", "--dir", "from", "--update", 'state{post="C"}',
    )
    assert code == EXIT_UNDEFINED
    assert "undefined" in err
    assert "no source for C" in err


def test_apply_to_a_value_of_the_wrong_shape_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "apply", "--bx", "fst-lens", "--dir", "to", "--update", "state{post=5}"
    )
    assert code == EXIT_UNDEFINED
    assert out == ""
    assert err.strip() == "undefined: value has the wrong shape for this transformation"


@pytest.mark.parametrize(
    "direction, update",
    [
        ("to", "edits[del(-1, (0, 1))]"),
        ("to", "edits[rep(-1, (0, 1), (1, 1))]"),
        ("from", "edits[del(-1, 0)]"),
        ("from", "edits[rep(-1, 0, 1)]"),
    ],
    ids=["to-delete", "to-replace", "from-delete", "from-replace"],
)
def test_apply_edit_at_a_negative_index_is_undefined(capsys, direction, update):
    code, out, err = run_cli(
        capsys,
        "apply", "--bx", "list-edit-lens", "--dir", direction,
        "--update", update, "--trace", "compl{[0, 1]}",
    )
    assert (code, out) == (EXIT_UNDEFINED, "")
    assert "undefined" in err


def test_apply_parse_error_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "apply", "--bx", "fst-lens", "--dir", "to", "--update", "state{post=[1, ]}"
    )
    assert code == EXIT_USAGE
    assert "parse error" in err


def test_apply_missing_flag_exit_one(capsys):
    code, _, err = run_cli(capsys, "apply", "--bx", "fst-lens")
    assert code == EXIT_USAGE


def test_apply_has_no_format_flag(capsys):
    # apply prints the textual forms only; --format is for check, classify and report.
    code, out, err = run_cli(
        capsys,
        "apply", "--bx", "fst-lens", "--dir", "from",
        "--update", "state{post=9}", "--trace", "state{(2, 5)}", "--format", "text",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "--format" in err


def test_apply_repr_mismatch_exit_one(capsys):
    code, _, err = run_cli(
        capsys,
        "apply", "--bx", "fst-lens", "--dir", "to",
        "--update", "states{pre=1, post=2}", "--trace", "none",
    )
    assert code == EXIT_USAGE


def test_apply_unapplicable_edit_exit_one(capsys):
    code, _, err = run_cli(
        capsys,
        "apply", "--bx", "fst-lens", "--dir", "to",
        "--update", "stateedits{pre=[0], edits=[del(0, 1)]}",
    )
    assert code == EXIT_USAGE
    assert "error: parse error at position 0" in err
    assert "delete at 0" in err


def test_apply_output_reparses(capsys, tmp_path):
    out_file = tmp_path / "result.txt"
    code, _, _ = run_cli(
        capsys,
        "apply", "--bx", "key-maintainer", "--dir", "from",
        "--update", "state{post={k = 2, v = 8}}",
        "--trace", "state{{k = 1, u = 7}}",
        "--output", str(out_file),
    )
    assert code == EXIT_OK
    update_line, trace_line = out_file.read_text().strip().splitlines()
    assert parse_update(update_line) is not None
    assert parse_trace(trace_line) is not None
    assert update_line == "state{post={k = 2, u = 7}}"


def test_check_clean_lens_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--bx", "fst-lens", "--laws", "all")
    assert code == EXIT_OK
    assert "FAILS" not in out


def test_check_broken_put_exit_three_with_counterexample(capsys):
    code, out, _ = run_cli(capsys, "check", "--bx", "broken-put-lens", "--laws", "invertibility")
    assert code == EXIT_LAW_FAILURE
    assert "FAILS" in out
    assert "update:" in out and "trace:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--bx", "nope", "--dir", "to", "--update", "state{post=1}"),
        ("check", "--bx", "nope"),
        ("classify", "--bx", "nope"),
    ],
    ids=["apply", "check", "classify"],
)
def test_check_unknown_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert "nope" in err


def test_check_law_subset_can_pass_on_flawed_entry(capsys):
    code, _, _ = run_cli(
        capsys, "check", "--bx", "constant-maintainer", "--laws", "correctness"
    )
    assert code == EXIT_OK


def test_check_machine_form_reparses(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--bx", "fst-lens", "--format", "value-grammar"
    )
    assert code == EXIT_OK
    report = parse_value(out.strip())
    assert report is not None


def test_classify_maintainer(capsys):
    code, out, _ = run_cli(capsys, "classify", "--bx", "key-maintainer")
    assert code == EXIT_OK
    assert out.strip() == "S | S,S | S,S | E"


def _run_python(*argv, cwd=None):
    src = str(Path(bxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60, cwd=cwd)


def _run_module(*argv, cwd=None):
    return _run_python("-m", "bxkit", *argv, cwd=cwd)


def test_python_dash_m_runs_the_cli():
    done = _run_module("classify", "--bx", "key-maintainer")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.strip() == "S | S,S | S,S | E"


def test_law_checks_print_no_log_line_by_default():
    # The law checks log at DEBUG; with no handler configured nothing shows,
    # and a process that never imports logging is not made to.
    done = _run_module("check", "--bx", "fst-lens")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr == ""
    script = "import sys; from bxkit.laws import run_suite; from bxkit.catalog import catalog; "
    script += "run_suite(catalog('fst-lens').bx); print('logging' in sys.modules)"
    done = _run_python("-c", script)
    assert (done.stdout, done.stderr) == ("False\n", "")


def test_report_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "report")
    code2, out2, _ = run_cli(capsys, "report")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "fst-lens" in out1
    for name in ("uppercase-mapping", "rename-sync", "trigonal-key"):
        assert name in out1


def test_report_machine_form(capsys):
    code, out, _ = run_cli(capsys, "report", "--format", "value-grammar")
    assert code == EXIT_OK
    assert parse_value(out.strip()) is not None
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256


def test_config_file_provides_defaults(capsys, tmp_path):
    config = tmp_path / "config.bx"
    config.write_text('{bx = "key-maintainer", dir = "from"}')
    code, out, _ = run_cli(
        capsys,
        "apply", "--config", str(config),
        "--update", "state{post={k = 2, v = 8}}",
        "--trace", "state{{k = 1, u = 7}}",
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[0] == "state{post={k = 2, u = 7}}"


def test_flags_override_config_file(capsys, tmp_path):
    config = tmp_path / "config.bx"
    config.write_text('{bx = "broken-put-lens"}')
    code, out, _ = run_cli(capsys, "classify", "--config", str(config), "--bx", "fst-lens")
    assert code == EXIT_OK
    assert out.strip() == "A | S,S | S,N | T"


def test_check_respects_edit_ops_flag(capsys):
    code, _, _ = run_cli(
        capsys, "check", "--bx", "list-edit-lens", "--laws", "stability", "--edit-ops", "2"
    )
    assert code == EXIT_OK


def test_check_selecting_the_literal_reading_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "check", "--bx", "key-maintainer", "--laws", "hippocraticness_literal"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "hippocraticness_literal" in err


def test_check_tiny_cap_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "--bx", "fst-lens", "--laws", "totality", "--cap", "2")
    assert code == EXIT_USAGE
    assert "exceeds cap" in err


def test_missing_config_file_is_a_usage_error(tmp_path):
    done = _run_module("check", "--bx", "fst-lens", "--config", str(tmp_path / "missing.bx"))
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


def test_unwritable_output_is_a_usage_error(tmp_path):
    done = _run_module("classify", "--bx", "fst-lens", "--output", str(tmp_path / "missing" / "out.txt"))
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


def test_config_file_format_is_checked_like_the_flag(capsys, tmp_path):
    config = tmp_path / "config.bx"
    config.write_text('{format = "yaml"}')
    code, out, err = run_cli(capsys, "classify", "--bx", "fst-lens", "--config", str(config))
    assert code == EXIT_USAGE
    assert out == ""
    assert "yaml" in err


@pytest.mark.parametrize("laws", ["", ","])
def test_check_selecting_no_law_is_a_usage_error(capsys, laws):
    code, out, _ = run_cli(capsys, "check", "--bx", "fst-lens", "--laws", laws)
    assert code == EXIT_USAGE
    assert out == ""


def _config(tmp_path, text):
    config = tmp_path / "config.bx"
    config.write_text(text)
    return str(config)


@pytest.mark.parametrize(
    "fields, argv",
    [
        ("{laws = 5}", ("check", "--bx", "fst-lens")),
        ('{bx = "fst-lens", dir = "to", update = 5}', ("apply",)),
        ('{bx = "fst-lens", dir = "to", update = "state{post=(2, 5)}", trace = 4}', ("apply",)),
    ],
    ids=["laws", "update", "trace"],
)
def test_config_field_of_the_wrong_type_is_a_usage_error(tmp_path, fields, argv):
    # The field is typed and checked as the flag of the same name would be.
    done = _run_module(*argv, "--config", _config(tmp_path, fields))
    assert done.returncode == EXIT_USAGE
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(("error:", "usage error:"))


def test_config_file_output_names_a_file(tmp_path):
    done = _run_module("classify", "--bx", "fst-lens", "--config", _config(tmp_path, "{output = 7}"), cwd=tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == ""
    assert (tmp_path / "7").read_text() == "A | S,S | S,N | T\n"


def test_config_field_the_subcommand_has_no_flag_for_is_ignored(capsys, tmp_path):
    config = _config(tmp_path, '{laws = "all", help = 1, colour = "red"}')
    code, out, _ = run_cli(capsys, "classify", "--bx", "fst-lens", "--config", config)
    assert code == EXIT_OK
    assert out.strip() == "A | S,S | S,N | T"


def test_config_file_cap_is_typed_like_the_flag(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "--bx", "fst-lens", "--config", _config(tmp_path, '{cap = "x"}'))
    assert code == EXIT_USAGE
    assert out == ""
    assert "'x'" in err


@pytest.mark.parametrize("text", ["[1]", "{bx = [1]}"], ids=["not-a-record", "not-an-atom"])
def test_config_file_that_is_not_a_record_of_atoms_is_a_usage_error(capsys, tmp_path, text):
    code, out, err = run_cli(capsys, "classify", "--bx", "fst-lens", "--config", _config(tmp_path, text))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: config")

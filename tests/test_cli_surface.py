"""The public surface of the ``repro`` package and CLI stays put.

``repro`` re-exports its public names lazily and the CLI builds only the
invoked subcommand's arguments; neither may change what a user sees.  The
goldens under ``tests/golden/`` were captured from the eagerly built
parser: every ``--help`` text (at 80 columns) and the parsed namespace of
a table of argv covering every command and option, with and without
``$REPRO_CHAOS`` set, and the usage errors of a table of bad argv.
"""

import contextlib
import importlib
import io
import json
import os

import pytest

import repro
from repro.cli import COMMANDS, build_parser, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
HELP_DIR = os.path.join(GOLDEN, "cli_help")

with open(os.path.join(GOLDEN, "cli_namespaces.json")) as _handle:
    NAMESPACES = json.load(_handle)
with open(os.path.join(GOLDEN, "cli_errors.json")) as _handle:
    ERRORS = json.load(_handle)


def _help_text(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit):
        main(argv)
    return buffer.getvalue()


@pytest.mark.parametrize("command", ["repro", *COMMANDS])
def test_help_matches_golden(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "repro" else [command, "--help"]
    with open(os.path.join(HELP_DIR, f"{command}.txt")) as handle:
        assert _help_text(argv) == handle.read()


def test_every_command_has_a_golden():
    assert sorted(os.listdir(HELP_DIR)) == sorted(
        f"{name}.txt" for name in ["repro", *COMMANDS])
    assert {entry["argv"][0] for entry in NAMESPACES} == set(COMMANDS)


@pytest.mark.parametrize("entry", NAMESPACES,
                         ids=lambda entry: " ".join(entry["argv"])
                         + (" +chaos" if entry["chaos_env"] else ""))
def test_parse_args_matches_golden(entry, monkeypatch):
    if entry["chaos_env"] is None:
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
    else:
        monkeypatch.setenv("REPRO_CHAOS", entry["chaos_env"])
    argv = entry["argv"]
    # What main() builds for this argv, and the whole parser.
    for parser in (build_parser(argv[0]), build_parser()):
        parsed = vars(parser.parse_args(argv))
        handler = parsed.pop("func")
        assert parsed == entry["namespace"]
        assert handler is COMMANDS[argv[0]].handler
        assert handler.__name__ == entry["func"]


@pytest.mark.parametrize("entry", ERRORS,
                         ids=lambda entry: " ".join(entry["argv"]) or "-")
def test_usage_errors_match_golden(entry, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(entry["argv"])
    assert exit_.value.code == entry["code"]
    assert capsys.readouterr().err == entry["stderr"]


def test_public_names_resolve_to_their_defining_modules():
    exported = [name for name in repro.__all__ if name != "__version__"]
    assert len(exported) == len(set(exported))
    for name in exported:
        value = getattr(repro, name)
        defining = importlib.import_module(value.__module__)
        assert getattr(defining, value.__name__) is value, name
        namespace = {}
        exec(f"from repro import {name}", namespace)
        assert namespace[name] is value, name
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")

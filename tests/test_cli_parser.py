"""The argument parser is built once per process and shared by every
`cli.main` call, so repeated calls, a failed parse and `--help` must all
behave as they would with a parser of their own."""

import argparse
import json

import pytest

from hullcodes import cli
from test_cli_golden import CASES, GOLDEN, _run

EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())

SUBCOMMANDS = sorted(
    next(a for a in cli._build_parser.__wrapped__()._actions
         if isinstance(a, argparse._SubParsersAction)).choices
)


def _assert_golden(name, tmp):
    tmp.mkdir(exist_ok=True)
    rc, out, written = _run(name, tmp)
    assert rc == EXIT_CODES[name]
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    if written is not None:
        assert written == (GOLDEN / f"{name}.json").read_text()


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()
    assert set(CASES) == {path.stem for path in GOLDEN.glob("*.stdout")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_command_twice_in_one_process(name, tmp_path):
    for run in ("first", "second"):
        _assert_golden(name, tmp_path / run)


@pytest.mark.parametrize(
    "argv",
    [
        "enumerate --q 3 --no-such-flag",
        "construct --family no_such_family --k 2 --l 1",
        "census --max-codewords many",
        "no-such-subcommand",
        "",
    ],
)
def test_parse_failure_leaves_the_parser_usable(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    assert "usage: hullcodes" in capsys.readouterr().err
    _assert_golden("enumerate_q3", tmp_path / "after")
    _assert_golden("construct_seed13", tmp_path / "after")


@pytest.mark.parametrize("subcommand", [None] + SUBCOMMANDS)
def test_help_matches_a_fresh_parser(subcommand, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([subcommand] if subcommand else []) + ["--help"]
    with pytest.raises(SystemExit) as exc:
        cli._build_parser.__wrapped__().parse_args(argv)
    assert exc.value.code == 0
    fresh = capsys.readouterr().out
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == fresh

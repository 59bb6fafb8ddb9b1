"""`cli.main` builds its argument parser once per process.

Building the parser (one parser, a subparser per command and every
argument) costs far more than a short command itself, so a `main` that
rebuilt it on each call would spend most of a scripted session there.
Each line is parsed once, too: a line that starts with a command name
goes straight to that command's parser.
"""

import argparse

import pytest

from baxtertrees import cli


def test_main_builds_one_parser_for_many_calls(monkeypatch, capsys):
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser()
    per_build = len(made)
    assert per_build == 1 + 19  # the parser and one subparser per command
    made.clear()

    cli._parser.cache_clear()
    for k in range(50):
        try:
            cli.main(["enumerate", "--family", "2,2", str(k % 3 + 1), "1"]
                     if k % 5 else ["enumerate", "--family", "3,2", "1", "1"])
        except SystemExit as exc:  # the usage error every fifth call
            assert exc.code == 2
    capsys.readouterr()
    assert len(made) == per_build


def test_a_valid_line_is_parsed_once(monkeypatch, capsys):
    parses = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert cli.main(["enumerate", "--family", "2,2", "1", "1"]) == 0
    assert parses == ["baxtertrees enumerate"]
    assert capsys.readouterr().out == "1(. 1 .)\n"


def test_unrecognized_arguments_are_reported_by_the_top_level(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--family", "2,2", "1", "1", "--bogus", "x"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: baxtertrees [-h]\n")
    assert err.endswith(
        "baxtertrees: error: unrecognized arguments: --bogus x\n")

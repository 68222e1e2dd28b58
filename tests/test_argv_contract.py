"""The command-line contract, checked on argv built from the parser's own actions.

Every subcommand of ``build_parser()`` is drawn with a subset of its
flags, each given a boundary value: 0, +-1, 2^31, 2^63 +- 1, 2^64,
10^400, nan, +-inf, -0.0, the empty string, a non-number and 0.5, or
one of a choice flag's choices. A flag and its value are drawn as
``--flag value``, which ``cli.main`` reads from its flag table when
the argv is well formed, or as ``--flag=value``, which only argparse
reads. Whatever the argv, ``cli.main`` parses it as a fresh
``build_parser()`` does: the same namespace, or the same exit code
and output. Then ``cli.main`` runs in process: whatever
the argv, the exit code is one the README lists and no exception
escapes; exit 4 writes one line that names a flag of the subcommand
(by option string or field name, a missing one included) and no
numpy text; an accepted argv writes the same bytes when run again; and
every JSON document written parses with NaN and Infinity refused.

No argv is costly to run: a size flag (``--r``, ``--s``, ``--t``,
``--t-max``, ``--trials``) takes an integer above COST_CAP only past
``sys.maxsize``. There the commands refuse it or stay cheap:
``run-honest`` runs at most r sessions whatever ``--trials`` asks, and
an ``--s`` of ``bounds`` or ``run-attack`` enters a closed form.
"""

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseid import cli

EXITS = {cli.EXIT_OK, cli.EXIT_REJECT, cli.EXIT_REFUSAL, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL}

BOUNDARIES = ["0", "1", "-1", str(2**31), str(2**63 - 1), str(2**63 + 1),
              str(2**64), str(10**400), "1e400", "nan", "inf", "-inf", "-0.0", "", "abc",
              "0.5"]
SIZES = {"--r", "--s", "--t", "--t-max", "--trials"}
COST_CAP = 3

# ``--out`` in a fresh directory per run: a file, the directory itself,
# a file in a missing directory, stdout, and the empty path.
OUT_PATHS = ["{tmp}/abc", "{tmp}", "{tmp}/missing/abc", "-", ""]

NUMPY_TEXT = re.compile(r"numpy|ndarray|dtype|int64|out of bounds|allowed size|too big"
                        r"|negative dimensions|Unable to allocate")


def _is_cheap(flag: str, value: str) -> bool:
    try:
        n = int(value)
    except ValueError:
        return True                 # not an integer: no size to pay for
    return flag not in SIZES or n <= COST_CAP or n > sys.maxsize


def _commands() -> dict[str, list[argparse.Action]]:
    """Each subcommand and its flags, as the parser declares them."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


COMMANDS = _commands()


def _values(action: argparse.Action):
    """A flag's values: half the draws are in range, so that many argv are accepted."""
    flag = action.option_strings[0]
    if flag == "--out":
        good, every = ["-", "{tmp}/abc"], OUT_PATHS
    elif action.choices is not None:
        good = list(action.choices)
        every = [*good, "abc", ""]
    else:
        good = ["1", "2", "3"]
        every = [v for v in BOUNDARIES if _is_cheap(flag, v)]
    return st.sampled_from(good) | st.sampled_from(every)


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in COMMANDS[name]:
        if draw(st.integers(0, 3)):             # three flags in four are given
            flag = action.option_strings[0]
            if action.nargs == 0:
                argv.append(flag)
            elif draw(st.booleans()):
                argv.append(f"{flag}={draw(_values(action))}")
            else:
                argv += [flag, draw(_values(action))]
    return argv


def _run(argv: list[str]) -> tuple[int, str, str, bytes | None]:
    """(exit code, stdout, stderr, the --out file's bytes or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # the parser's own refusals
                code = exc.code
        path = Path(tmp, "abc")
        written = path.read_bytes() if path.is_file() else None
    return code, out.getvalue(), err.getvalue(), written


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _json_documents(command: str, argv: list[str], stdout: str, written: bytes | None):
    """The JSON documents a run wrote: its output, or each line of ``run-honest``'s."""
    if "--format=csv" in argv or ["--format", "csv"] in map(list, zip(argv, argv[1:])):
        return []
    text = stdout if written is None else written.decode()
    if command == "run-honest":
        return text.splitlines()
    if command == "verify-identities":          # a text report, then JSON if --out is given
        return [text[text.index("{"):]] if "{" in text else []
    return [text]


def _names(action: argparse.Action) -> set[str]:
    return {*action.option_strings, action.dest, action.option_strings[0][2:]}


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["bounds", "--r=2", "--epsilon=inf"])
@example(["bounds", "--r=2", "--epsilon=1e400", "--format=json"])
@example(["psucc-table", f"--t-max={2**63 + 1}"])
@example(["run-honest", "--r=1", "--s=1", "--trials=2", "--out="])
@example(["run-honest", "--r=2", "--s=2", f"--trials={10**400}", "--out={tmp}/abc"])
def test_every_argv_keeps_the_contract(argv):
    code, stdout, stderr, written = _run(argv)
    assert code in EXITS, (argv, code, stderr)
    command = argv[0]
    if code == cli.EXIT_CONFIG:
        assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
        names = set().union(*map(_names, COMMANDS[command]))
        assert any(re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", stderr) for n in names), \
            (argv, stderr)
        assert not NUMPY_TEXT.search(stderr), (argv, stderr)
    if code in (cli.EXIT_OK, cli.EXIT_REJECT, cli.EXIT_REFUSAL):
        assert _run(argv) == (code, stdout, stderr, written), argv
        for doc in _json_documents(command, argv, stdout, written):
            json.loads(doc, parse_constant=_refuse_constant)


def _parse(parse, argv: list[str]):
    """(the namespace's repr or None, exit code or None, stdout, stderr) of one parse.

    The repr compares a NaN value as equal, and every field in order.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(parse(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["bounds", "-h"])
@example(["run-honest", "--r", "1", "--s", "1", "--tri", "2"])          # --trials abbreviated
@example(["bounds", "--r", "3", "--s", "2", "--r", "2"])
@example(["bounds", "--r", "-5", "--s", "2"])
@example(["bounds", "--r", "2", "--s", "2", "--out", "-"])
@example(["bounds", "--r", "2", "--", "--s", "2"])
@example(["keygen", "--r", "2", "--s", "2", "--seed", "1", "--public", "yes"])
@example(["bounds"])
@example(["bounds", "--r", "2", "--bogus", "1"])
@example(["bounds", "--r", "2", "--s", "2", "--out", "--r"])
@example([])
def test_main_parses_as_argparse_does(argv):
    assert _parse(cli._parse_args, argv) == _parse(cli.build_parser().parse_args, argv)


def test_well_formed_argv_is_read_from_the_table(monkeypatch):
    cli._shared_flag_tables()
    monkeypatch.setattr(cli, "_shared_parser", None)           # argparse is not reached
    args = cli._parse_args(["bounds", "--r", "3", "--s", "83", "--variant", "hardened",
                            "--out", "x", "--r", "2"])
    assert (args.command, args.r, args.s, args.variant, args.out, args.epsilon) == \
        ("bounds", 2, 83, "hardened", "x", None)
    assert cli._parse_args(["keygen", "--public", "--seed", "7"]).public is True


def _subcommand(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


@pytest.mark.parametrize("level, declare, named", [
    ("bounds", lambda p: p.add_argument("extra"), "extra"),
    ("bounds", lambda p: p.add_argument("--must", required=True), "--must"),
    ("bounds", lambda p: p.add_argument("--many", nargs="+"), "--many"),
    ("bounds", lambda p: p.add_argument("--each", action="append"), "--each"),
    ("bounds", lambda p: p.add_argument("--loud", action="count"), "--loud"),
    ("bounds", lambda p: p.add_mutually_exclusive_group().add_argument("--either"), "--either"),
    ("top", lambda p: p.add_argument("--must", required=True), "--must"),
])
def test_flag_table_refuses_what_it_does_not_model(level, declare, named):
    parser = cli.build_parser()
    cli._flag_tables(parser)
    declare(parser if level == "top" else _subcommand(parser, level))
    with pytest.raises(TypeError, match=f"cannot model {re.escape(named)}:"):
        cli._flag_tables(parser)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_bare_subcommand_table_is_argparse_defaults(name):
    _, defaults = cli._flag_tables(cli.build_parser())[name]
    assert list(defaults.items()) == list(vars(cli.build_parser().parse_args([name])).items())

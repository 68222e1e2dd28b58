"""Command-line harness: key generation, sessions, attack tables, bounds.

One binary with subcommands. Every command is deterministic given its
flags and seed; numeric output carries 12 significant digits in JSON
and 9 in CSV. Exit codes: 0 success or accept, 2 verifier reject,
3 refusal (usage budget exhausted), 4 invalid configuration,
5 internal numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

# Only numpy-free modules at import time: each command imports the modules
# it runs, so ``--help`` and ``bounds`` never load numpy.
from . import bounds
from .errors import ConfigError, InternalError, _require_int
from .tolerances import IDENTITY_ATOL

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_REJECT = 2
EXIT_REFUSAL = 3
EXIT_CONFIG = 4
EXIT_NUMERICAL = 5

JSON_SIG_DIGITS = 12
CSV_SIG_DIGITS = 9

# Stream indices for seed derivation: key material, then sessions.
_KEY_STREAM = 0
_SESSION_STREAM_BASE = 1


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _sig(value, digits: int):
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    return value


def _fmt_csv(value) -> str:
    if isinstance(value, float):
        return f"{value:.{CSV_SIG_DIGITS}g}"
    return str(value)


def _check_out(out: str | None) -> None:
    """Reject an ``out`` that is empty, a directory or in a missing directory.

    ``main`` calls this before the command runs, so a bad path costs no
    work and no file is created. Any other failure to open ``out``
    surfaces when it is written (``_write_chunks``), with the same
    message form.
    """
    if out is None or out == "-":
        return
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not out or not os.path.isdir(os.path.dirname(out) or "."):
        code = errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot open --out for writing: {OSError(code, os.strerror(code), out)}")


def _write_chunks(out: str | None, chunks) -> None:
    """Write the strings of ``chunks`` in turn to ``out``, or stdout for None or "-".

    A file gets each chunk's UTF-8 bytes through a binary stream, with
    no text layer to build for a one-shot write and no newline
    translation. An ``out`` that cannot be opened is bad input
    (ConfigError).
    """
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        fh = open(out, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot open --out for writing: {exc}") from exc
    with fh:
        fh.writelines(chunk.encode("utf-8") for chunk in chunks)


def _write_text(out: str | None, text: str) -> None:
    _write_chunks(out, (text,))


def _json_scalar(value) -> str:
    """One scalar as ``json.dumps`` writes it."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    return int.__repr__(value)


def _json_value(value, indent: str) -> str:
    """``value`` laid out as ``json.dumps(..., indent=2)`` lays it out at depth ``indent``."""
    if isinstance(value, dict):
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(k)}: {_json_value(v, inner)}"
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, list):
        inner = indent + "  "
        if set(map(type, value)) <= {int}:              # a key's phases: no dispatch per element
            items = list(map(int.__repr__, value))
        else:
            items = [_json_value(v, inner) for v in value]
        brackets = "[]"
    else:
        return _json_scalar(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _json_document(obj: dict) -> str:
    """The bytes of ``json.dumps(obj, indent=2) + "\\n"``, written directly.

    Every JSON document of the CLI is written here. Dict keys must be
    strings. Strings and keys go through the C escaper, finite floats
    and ints through ``repr``; only NaN, the infinities, None and bools
    go to ``json.dumps``, so no document takes the stdlib's pure-Python
    indenting encoder.
    """
    return _json_value(obj, "") + "\n"


def _rows_as_json(rows: list[dict], name: str = "rows") -> str:
    shaped = [{k: _sig(v, JSON_SIG_DIGITS) for k, v in row.items()} for row in rows]
    return _json_document({name: shaped})


def _rows_as_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    buf = io.StringIO()
    names = list(rows[0].keys())
    buf.write(",".join(names) + "\n")
    for row in rows:
        buf.write(",".join(_fmt_csv(row[name]) for name in names) + "\n")
    return buf.getvalue()


def _emit_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    _write_text(out, _rows_as_json(rows) if fmt == "json" else _rows_as_csv(rows))


def _params_from(args):
    from .keys import ProtocolParams

    if args.r is None:
        raise ConfigError("--r is required")
    if args.s is None:
        raise ConfigError("--s is required")
    params = ProtocolParams(args.r, args.s, args.variant)
    _require_int("--s", params.s, maximum=sys.maxsize)      # the largest array length
    return params


# ---------------------------------------------------------------------------
# keygen


def cmd_keygen(args) -> int:
    from . import keys
    from .rng import _MASK64

    params = _params_from(args)
    if args.seed is None:
        raise ConfigError("keygen requires --seed")
    _require_int("--seed", args.seed, 0, _MASK64)
    if args.public:
        payload = keys.public_key_descriptor(params)
    else:
        key = keys.generate_private_key(params, args.seed)
        payload = keys.private_key_payload(params, args.seed, key)
    _write_text(args.out, _json_document(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-honest


def cmd_run_honest(args) -> int:
    from . import keys, protocol
    from .rng import _MASK64, derive_seed

    params = _params_from(args)
    trials = _require_int("--trials", args.trials, 1)
    if args.mode == "sampled" and args.seed is None:
        raise ConfigError("sampled mode requires --seed")
    master = 0 if args.seed is None else _require_int("--seed", args.seed, 0, _MASK64)
    key = keys.generate_private_key(params, derive_seed(master, _KEY_STREAM))
    prover = protocol.HonestProver(key)

    # One key serves r sessions: the session after them is refused, not run.
    transcripts = [
        protocol.run_session(params, key, prover, mode=args.mode, session_id=i,
                             seed=derive_seed(master, _SESSION_STREAM_BASE + i)
                             if args.mode == "sampled" else None)
        for i in range(min(trials, params.r))
    ]
    refused = trials > params.r
    if refused:
        sys.stderr.write(f"refusal at session {params.r}: "
                         "no protocol uses left under this key; refusing (not a reject)\n")

    # Every session has run before the first line is written, so a failed
    # session writes nothing. Each session's lines are made as they are
    # written and never joined whole: they go out one string per rendered
    # chunk, since a write-through stdout is slow line by line.
    _write_chunks(args.out, ("\n".join(lines) + "\n"
                             for tr in transcripts for lines in tr._line_chunks()))
    if refused:
        return EXIT_REFUSAL
    return _verdict_exit(transcripts)


def _verdict_exit(transcripts) -> int:
    if any(tr.verdict != "accept" for tr in transcripts):
        return EXIT_REJECT
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-attack


def _attack_t_values(args) -> range:
    if args.t is not None and args.t_max is not None:
        raise ConfigError("give --t or --t-max, not both")
    # sys.maxsize caps a copy count as it caps the array sizes; S(t) takes any t.
    if args.t is not None:
        t = _require_int("--t", args.t, 1, sys.maxsize)
        return range(t, t + 1)
    t_max = args.t_max if args.t_max is not None else 8
    return range(1, _require_int("--t-max", t_max, 1, sys.maxsize) + 1)


def cmd_run_attack(args) -> int:
    import numpy as np

    from . import adversary
    from .rng import _MASK64, derive_seed, make_rng

    t_values = _attack_t_values(args)
    s = _require_int("--s", args.s if args.s is not None else 1, 1)
    try:
        float(s)
    except OverflowError:
        raise ConfigError(
            f"--s must not exceed the float range ({sys.float_info.max:.4g})") from None
    _require_int("--trials", args.trials, 1, sys.maxsize)       # the largest array length
    if args.mode == "sampled" and args.seed is None:
        raise ConfigError("sampled mode requires --seed")
    if args.seed is not None:
        _require_int("--seed", args.seed, 0, _MASK64)

    rows = []
    for report in adversary.eve_attack_rounds(t_values):
        t = report.t
        row = {
            "t": t,
            "p_pass": report.p_pass_exact,
            "p_pass_from_psucc": 0.5 * (1.0 + report.psucc_strategy),
            "p_pass_bound": 1.0 - 1.0 / (8.0 * (t + 1)),
            "fool_prob_s": bounds.fool_first_attempt_bound(t, s),
        }
        if args.mode == "sampled":
            rng = make_rng(derive_seed(args.seed, t))
            passes = adversary.sample_attack_rounds(report.branches, args.trials, rng)
            row["empirical_pass_rate"] = np.count_nonzero(passes) / args.trials
            row["trials"] = args.trials
        rows.append(row)
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# psucc-table


def cmd_psucc_table(args) -> int:
    from . import adversary

    t_max = args.t_max if args.t_max is not None else 8
    t_max = _require_int("--t-max", t_max, 1, adversary._MAX_ORACLE_T)
    t_values = range(1, t_max + 1)
    rows = [
        {
            "t": t,
            "psucc_formula": adversary.psucc_formula(t),
            "psucc_oracle": oracle,
            "cheung_bound": adversary.cheung_bound(t),
        }
        for t, oracle in zip(t_values, adversary.helstrom_psucc_oracles(t_values))
    ]
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    if args.r is None:
        raise ConfigError("--r is required")
    have_eps = args.epsilon is not None
    have_s = args.s is not None
    if have_eps == have_s:
        raise ConfigError("give exactly one of --epsilon (advisor) or --s (bound)")
    if have_eps:
        if args.epsilon == math.inf:        # float("1e400") too; JSON has no infinity
            raise ConfigError("--epsilon must be finite, got inf")
        s_min = bounds.min_security_parameter(args.r, args.epsilon, args.variant)
        rows = [{"r": args.r, "epsilon": args.epsilon, "variant": args.variant, "s_min": s_min}]
    else:
        value = bounds.p_break_bound(args.r, args.s, args.variant)
        rows = [{"r": args.r, "s": args.s, "variant": args.variant, "bound": value}]
    _emit_rows(rows, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-identities


def cmd_verify_identities(args) -> int:
    from . import identities

    results = []
    for name, check in identities._IDENTITY_CHECKS:
        deviation = float(check())
        passed = deviation < IDENTITY_ATOL
        results.append({"check": name, "passed": passed, "max_deviation": deviation})
        print(f"{name}: {'pass' if passed else 'FAIL'} (max deviation {deviation:.3e})")
    if args.out:
        _write_text(args.out, _rows_as_json(results, "checks"))
    if all(row["passed"] for row in results):
        return EXIT_OK
    return EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="phaseid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand gets only the flags its command reads.
    def common(p, *, want_r=False, want_s=False, variant=False, seed=False, mode=False,
               fmt=False):
        if want_r:
            p.add_argument("--r", type=int, default=None, help="reusability parameter")
        if want_s:
            p.add_argument("--s", type=int, default=None, help="kernel repetitions")
        if variant:
            p.add_argument("--variant", choices=bounds.VARIANTS, default="standard")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if mode:
            p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("keygen", help="draw a private key")
    common(p, want_r=True, want_s=True, variant=True, seed=True)
    p.add_argument("--public", action="store_true", help="emit the public descriptor")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("run-honest", help="run honest sessions under one key")
    common(p, want_r=True, want_s=True, variant=True, seed=True, mode=True)
    p.add_argument("--trials", type=int, default=1, help="sessions to run")
    p.set_defaults(func=cmd_run_honest)

    p = sub.add_parser("run-attack", help="evaluate the optimal attacked round")
    common(p, want_s=True, seed=True, mode=True, fmt=True)
    p.add_argument("--t", type=int, default=None, help="adversary copy count")
    p.add_argument("--t-max", dest="t_max", type=int, default=None,
                   help="sweep t = 1..t_max (default 8)")
    p.add_argument("--trials", type=int, default=100_000,
                   help="sampled rounds per t (sampled mode)")
    p.set_defaults(func=cmd_run_attack)

    p = sub.add_parser(
        "psucc-table", help="guessing probability: formula vs oracle",
        description="Guessing probability for t = 1..t_max copies: the closed form, the "
                    "dense trace-norm oracle and Cheung's bound. For every t the oracle "
                    "builds and validates (2t+2)-dimensional states and takes the trace "
                    "norm from one (t+1)-dimensional SVD, O(T^4) in total for --t-max T. "
                    "The largest --t-max it accepts is 256.")
    common(p, fmt=True)
    p.add_argument("--t-max", dest="t_max", type=int, default=None,
                   help="largest t (default 8); the dense oracle's cost grows as t_max^4")
    p.set_defaults(func=cmd_psucc_table)

    p = sub.add_parser("bounds", help="break-probability bound or advisor")
    common(p, want_r=True, want_s=True, variant=True, fmt=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="advisor mode: find minimal s with bound <= epsilon")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify-identities", help="check the scheme's exact identities")
    common(p)
    p.set_defaults(func=cmd_verify_identities)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser ``main`` uses: built on its first call, then reused.

    Parsing leaves the parser unchanged, since every call starts a fresh
    namespace from the declared defaults, so one parser serves every
    call in the process.
    """
    return build_parser()


def _flag_tables(parser: argparse.ArgumentParser) -> dict:
    """Each subcommand's flag table, read from ``parser``'s own actions.

    A subcommand maps to (option string -> action, namespace defaults).
    The defaults are what ``parser.parse_args([name])`` returns: the
    top-level defaults, ``command`` set to the name, then the
    subcommand's action defaults and its ``set_defaults``, each first
    declaration winning as in argparse. Help actions are left out, so
    ``-h`` reaches argparse. Raises TypeError, naming the flag, on an
    action of either level that the table does not model: a positional
    other than the subcommand, a required option, an ``nargs`` other
    than None or 0, any action but store and store-const, a string
    default with a ``type`` (argparse converts it on every parse) and a
    mutually exclusive group.
    """
    def refuse(action, why):
        name = "/".join(action.option_strings) or action.dest
        raise TypeError(f"the flag table cannot model {name}: {why}")

    def flags(p, sub=None):
        for group in p._mutually_exclusive_groups:
            refuse(group._group_actions[0], "it is in a mutually exclusive group")
        actions = {}
        for action in p._actions:
            if action is sub or isinstance(action, argparse._HelpAction):
                continue
            if not action.option_strings:
                refuse(action, "a positional")
            if action.required:
                refuse(action, "a required option")
            if type(action) is argparse._StoreAction:
                if action.nargs is not None:
                    refuse(action, f"nargs={action.nargs!r}")
                if isinstance(action.default, str) and action.type is not None:
                    refuse(action, "a string default with a type")
            elif not isinstance(action, argparse._StoreConstAction):
                refuse(action, f"a {type(action).__name__}")
            actions.update(dict.fromkeys(action.option_strings, action))
        return actions

    def declared_defaults(p):
        defaults = {}
        for action in p._actions:
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                defaults.setdefault(action.dest, action.default)
        for dest, value in p._defaults.items():
            defaults.setdefault(dest, value)
        return defaults

    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags(parser, sub)
    top = declared_defaults(parser)
    return {name: (flags(p), {**top, sub.dest: name, **declared_defaults(p)})
            for name, p in sub.choices.items()}


@functools.cache
def _shared_flag_tables() -> dict:
    """``_flag_tables`` of ``_shared_parser()``: built on its first call, then reused."""
    return _flag_tables(_shared_parser())


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv``'s namespace, as ``_shared_parser().parse_args(argv)`` gives it.

    A well-formed argv is read from the flag table: a subcommand name,
    then exact option strings of that subcommand, each value-taking one
    followed by a value that does not start with "-", converts under
    the flag's ``type`` and lies in its ``choices``; a repeated flag
    keeps its last value. Any other argv (help, an abbreviation,
    ``--flag=value``, a value starting with "-", ``--``, an unknown
    flag, a missing or bad value, an empty argv) goes to argparse, so
    every help text, refusal and exit code is argparse's own.
    """
    table = _shared_flag_tables().get(argv[0]) if argv else None
    if table is not None:
        actions, defaults = table
        namespace = dict(defaults)
        i, n = 1, len(argv)
        while i < n:
            action = actions.get(argv[i])
            if action is None:
                break
            if action.nargs == 0:
                namespace[action.dest] = action.const
                i += 1
                continue
            if i + 1 == n or argv[i + 1].startswith("-"):
                break
            value = argv[i + 1]
            if action.type is not None:
                try:
                    value = action.type(value)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    break
            if action.choices is not None and value not in action.choices:
                break
            namespace[action.dest] = value
            i += 2
        else:
            return argparse.Namespace(**namespace)
    return _shared_parser().parse_args(argv)


def _internal_errors() -> tuple[type[Exception], ...]:
    """The exception types that ``main`` reports as internal numerical failure.

    numpy's ``LinAlgError`` derives from ``ValueError``, so it must be
    named before the handler for bad input. It is looked up, not
    imported: while numpy is not in ``sys.modules`` no ``LinAlgError``
    can have been raised, and importing numpy to name it would cost the
    start-up that ``bounds`` and ``--help`` avoid.
    """
    numpy = sys.modules.get("numpy")
    if numpy is None:
        return (InternalError,)
    return (InternalError, numpy.linalg.LinAlgError)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        _check_out(args.out)
        return args.func(args)
    except _internal_errors() as exc:
        sys.stderr.write(f"phaseid: numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError included: bad input
        sys.stderr.write(f"phaseid: invalid config: {exc}\n")
        return EXIT_CONFIG
    except MemoryError:     # numpy's allocation failures included; their text is not echoed
        sys.stderr.write("phaseid: invalid config: "
                         "this query needs more memory than the host has\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

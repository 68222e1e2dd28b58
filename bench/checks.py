"""Oracles for every query, computed here and not borrowed from phaseid.

Each check takes the query and its output (the exit code, stdout and the
``--out`` file for CLI queries; the transcript lines for Eve sessions)
and raises CheckFailed with a one-line reason when the output is wrong.

The numbers come from the paper's formulas: an honest round passes with
probability 1; a round attacked with t key copies passes with
(1 + psucc(t))/2 < 1 - 1/(8(t+1)), where
psucc(t) = 1/2 + 2^-(t+1) sum_m sqrt(C(t,m) C(t,m+1)); the break
probability is capped by r (1 - 1/(c r))^s with c = 8 (16 hardened).
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from workloads import EXIT_REFUSAL

HONEST_ATOL = 1e-12      # honest rounds pass with certainty
COMPARE_ATOL = 1e-9      # independently computed quantities
SIGMAS = 3.0             # sampled rates
# The known Eve defect (ROADMAP item 2): an exact round's deviation from
# (1 + psucc)/2, as a function of the key phase k of p, is one harmonic
# a cos(2 pi (t+1) k / p) + b sin(2 pi (t+1) k / p), because the zero modes
# that rounding noise mixes into P+ come from charge sectors 0 and t+1.
# Its amplitude depends on that noise; at r = 100 it measured 0.12497,
# 0.03123 and 9.66e-4 for t = 1, 3, 8. A failure of any other shape or
# size is not the known defect.
KNOWN_EVE_AMPLITUDE = {1: 0.125, 3: 0.0313, 8: 9.7e-4}
AMPLITUDE_MARGIN = 1.25
IDENTITY_NAMES = ("challenge-decomposition", "phase-average-vanishing",
                  "averaging-equivalence", "honest-round-certainty",
                  "response-uniformity")


class CheckFailed(Exception):
    pass


class KnownDefectSeen(CheckFailed):
    """The failure a query's ``known_defect`` describes, and nothing else."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reference values


def psucc(t: int) -> float:
    """Optimal guessing probability with t copies, from binomials."""
    if t <= 500:
        terms = (math.sqrt(math.comb(t, m) * math.comb(t, m + 1)) for m in range(t))
        return 0.5 + 0.5 * math.fsum(terms) / 2.0**t

    def log_comb(n, k):
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    terms = (math.exp(0.5 * (log_comb(t, m) + log_comb(t, m + 1)) - t * math.log(2.0))
             for m in range(t))
    return 0.5 + 0.5 * math.fsum(terms)


def attack_pass(t: int) -> float:
    return 0.5 * (1.0 + psucc(t))


def attack_cap(t: int) -> float:
    return 1.0 - 1.0 / (8.0 * (t + 1))


def break_bound(r: int, s: int, variant: str = "standard") -> Decimal:
    """r (1 - 1/(c r))^s to 40 digits."""
    c = 16 if variant == "hardened" else 8
    with localcontext() as ctx:
        ctx.prec = 40
        return Decimal(r) * (1 - Decimal(1) / Decimal(c * r)) ** s


def harmonic_fit(devs: list[float], phases, order: int, p: int) -> tuple[float, float]:
    """Least-squares fit of devs[j] = a cos(w k_j) + b sin(w k_j), w = 2 pi order / p.

    Returns (amplitude hypot(a, b), largest residual); (inf, inf) when the
    phases cannot tell the two terms apart.
    """
    w = 2.0 * math.pi * order / p
    cs = [(math.cos(w * k), math.sin(w * k)) for k in phases]
    scc = math.fsum(c * c for c, _ in cs)
    sss = math.fsum(s * s for _, s in cs)
    scs = math.fsum(c * s for c, s in cs)
    scy = math.fsum(c * y for (c, _), y in zip(cs, devs))
    ssy = math.fsum(s * y for (_, s), y in zip(cs, devs))
    det = scc * sss - scs * scs
    if not det > 1e-9 * scc * sss:
        return math.inf, math.inf
    a = (scy * sss - ssy * scs) / det
    b = (ssy * scc - scy * scs) / det
    resid = max(abs(y - a * c - b * s) for (c, s), y in zip(cs, devs))
    return math.hypot(a, b), resid


def _close(got: float, want: float, rel: float) -> bool:
    # Values below the smallest normal double cannot carry relative precision.
    return abs(got - want) <= rel * abs(want) or (abs(want) < 1e-300 and abs(got) < 1e-300)


def within_sigmas(rate: float, p: float, n: int) -> bool:
    return abs(rate - p) <= SIGMAS * math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# output parsing


def _json(payload: bytes):
    return json.loads(payload.decode("utf-8"))


def _json_lines(payload: bytes) -> list[dict]:
    text = payload.decode("utf-8")
    need(text.endswith("\n"), "output does not end with a newline")
    return [json.loads(line) for line in text.splitlines()]


def _rows(payload: bytes, fmt: str) -> list[dict]:
    if fmt == "json":
        return _json(payload)["rows"]
    reader = csv.DictReader(io.StringIO(payload.decode("utf-8")))
    return [{k: int(v) if k in ("t", "trials") else float(v) for k, v in row.items()}
            for row in reader]


def _sessions(lines: list[dict]) -> list[tuple[dict, list[dict], dict]]:
    sessions = []
    i = 0
    while i < len(lines):
        head = lines[i]
        need("session_id" in head, f"line {i}: expected a session header")
        j = i + 1
        while j < len(lines) and "verdict" not in lines[j]:
            j += 1
        need(j < len(lines), "session without a verdict line")
        sessions.append((head, lines[i + 1:j], lines[j]))
        i = j + 1
    return sessions


def _check_rounds(rounds: list[dict], s: int) -> None:
    need([rec.get("j") for rec in rounds] == list(range(1, s + 1)),
         f"round indices are not 1..{s}")


# ---------------------------------------------------------------------------
# checks by query family


def check_honest(q, out) -> None:
    e = q.expect
    p = e["r"] + 1 if e["variant"] == "standard" else 2 * e["r"] + 1
    sessions = _sessions(_json_lines(out.payload))
    need(len(sessions) == e["sessions"],
         f"{len(sessions)} sessions reported, expected {e['sessions']}")
    for i, (head, rounds, verdict) in enumerate(sessions):
        want = {"session_id": i, "r": e["r"], "s": e["s"], "p": p,
                "variant": e["variant"], "mode": e["mode"], "prover_tag": "honest"}
        need({k: head.get(k) for k in want} == want, f"session {i}: header {head}")
        _check_rounds(rounds, e["s"])
        if e["mode"] == "exact":
            need(head.get("seed") is None, "exact session reports a seed")
            worst = max(abs(1.0 - rec["pass_probability"]) for rec in rounds)
            need(worst <= HONEST_ATOL, f"session {i}: honest round off 1 by {worst:.3e}")
            need(all(rec["response_bit"] is None for rec in rounds),
                 "exact rounds report response bits")
        else:
            need(isinstance(head.get("seed"), int), "sampled session has no seed")
            need(all(rec["response_bit"] in (0, 1) for rec in rounds), "bad response bit")
            failed = sum(1 for rec in rounds if rec["pass"] is not True)
            need(failed == 0, f"session {i}: {failed} honest sampled rounds failed")
        need(verdict == {"verdict": "accept"}, f"session {i}: verdict {verdict}")
    if q.exit_code == EXIT_REFUSAL:
        need("refusal" in out.stderr, "refusal not reported on stderr")


def check_attack(q, out) -> None:
    e = q.expect
    rows = _rows(out.payload, e["format"])
    need([row["t"] for row in rows] == e["t"], f"t values {[row['t'] for row in rows]}")
    for row in rows:
        t = row["t"]
        want, cap = attack_pass(t), attack_cap(t)
        need(abs(row["p_pass"] - want) <= COMPARE_ATOL,
             f"t={t}: p_pass {row['p_pass']!r} != (1+psucc)/2 = {want!r}")
        need(row["p_pass"] < cap, f"t={t}: p_pass {row['p_pass']!r} not below {cap!r}")
        need(abs(row["p_pass_from_psucc"] - want) <= COMPARE_ATOL,
             f"t={t}: p_pass_from_psucc {row['p_pass_from_psucc']!r}")
        need(abs(row["p_pass_bound"] - cap) <= COMPARE_ATOL, f"t={t}: p_pass_bound")
        need(_close(row["fool_prob_s"], cap ** e["s"], COMPARE_ATOL), f"t={t}: fool_prob_s")
        if e["trials"] is not None:
            need(row["trials"] == e["trials"], f"t={t}: trials {row['trials']}")
            need(within_sigmas(row["empirical_pass_rate"], want, e["trials"]),
                 f"t={t}: sampled rate {row['empirical_pass_rate']!r} more than "
                 f"{SIGMAS} sigma from {want!r}")


def check_psucc_table(q, out) -> None:
    rows = _rows(out.payload, q.expect.get("format", "json"))
    need([row["t"] for row in rows] == list(range(1, q.expect["t_max"] + 1)), "t values")
    for row in rows:
        t = row["t"]
        want = psucc(t)
        for key in ("psucc_formula", "psucc_oracle"):
            need(abs(row[key] - want) <= COMPARE_ATOL, f"t={t}: {key} {row[key]!r} != {want!r}")
        cheung = 1.0 - 1.0 / (4.0 * (t + 1))
        need(abs(row["cheung_bound"] - cheung) <= COMPARE_ATOL, f"t={t}: cheung_bound")
        need(want <= cheung, f"t={t}: psucc above the Cheung bound")


def check_bounds(q, out) -> None:
    e = q.expect
    (row,) = _rows(out.payload, "json")
    need((row["r"], row["s"], row["variant"]) == (e["r"], e["s"], "standard"), f"row {row}")
    want = float(break_bound(e["r"], e["s"]))
    if (e["r"], e["s"]) == (2, 83):
        want = float(Fraction(2) * Fraction(15, 16) ** 83)
    need(_close(row["bound"], want, COMPARE_ATOL), f"bound {row['bound']!r} != {want!r}")


def check_advise(q, out) -> None:
    e = q.expect
    variant = e.get("variant", "standard")
    (row,) = _rows(out.payload, "json")
    need((row["r"], row["epsilon"], row["variant"]) == (e["r"], e["epsilon"], variant),
         f"row {row}")
    s_min = row["s_min"]
    need(isinstance(s_min, int) and s_min >= 1, f"s_min {s_min!r}")
    if "s_min" in e:
        need(s_min == e["s_min"], f"s_min {s_min} != {e['s_min']}")
    eps = Decimal(repr(e["epsilon"]))
    slack = Decimal(repr(COMPARE_ATOL))
    need(break_bound(e["r"], s_min, variant) <= eps * (1 + slack),
         f"bound(s_min={s_min}) exceeds epsilon")
    need(s_min == 1 or break_bound(e["r"], s_min - 1, variant) > eps * (1 - slack),
         f"s_min={s_min} is not minimal")


def check_keygen(q, out) -> None:
    e = q.expect
    doc = _json(out.payload)
    p = e["r"] + 1
    if e.get("public"):
        need(doc == {"p": p, "xs_redacted": True, "elements": e["s"]},
             f"public descriptor {doc}")
        return
    need(sorted(doc) == ["p", "r", "s", "seed", "variant", "xs"], f"keys {sorted(doc)}")
    need((doc["r"], doc["s"], doc["seed"], doc["variant"], doc["p"]) ==
         (e["r"], e["s"], e["seed"], "standard", p), "key parameters")
    xs = doc["xs"]
    need(len(xs) == e["s"] and all(isinstance(k, int) and 1 <= k <= p for k in xs),
         "key phases outside 1..p")


def check_identities(q, out) -> None:
    checks = _json(out.payload)["checks"]
    need(tuple(c["check"] for c in checks) == IDENTITY_NAMES, "identity names")
    for c in checks:
        need(c["passed"] is True and 0.0 <= c["max_deviation"] < HONEST_ATOL,
             f"{c['check']}: {c}")
    lines = out.stdout.splitlines()
    need(len(lines) == len(IDENTITY_NAMES) and
         all(line.startswith(f"{name}: pass") for line, name in zip(lines, IDENTITY_NAMES)),
         "stdout summary")


def check_eve_session(q, out) -> None:
    e = q.eve
    sessions = _sessions(_json_lines(out.payload))
    need(len(sessions) == 1, "expected one session")
    head, rounds, verdict = sessions[0]
    need((head["s"], head["p"], head["mode"], head["prover_tag"]) ==
         (e["s"], e["r"] + 1, e["mode"], "helstrom-eve"), f"header {head}")
    _check_rounds(rounds, e["s"])
    want = attack_pass(e["t"])
    if e["mode"] == "exact":
        need(verdict == {"verdict": "reject"}, f"verdict {verdict}")
        probs = [rec["pass_probability"] for rec in rounds]
        need(all(isinstance(x, (int, float)) and 0.0 <= x <= 1.0 for x in probs),
             f"t={e['t']}: a pass probability is not a number in [0, 1]")
        devs = [x - want for x in probs]
        off = sum(1 for d in devs if abs(d) > COMPARE_ATOL)
        if off:
            message = (f"t={e['t']}: {off}/{len(devs)} exact rounds differ from "
                       f"(1+psucc)/2 = {want:.12g}, by up to {max(map(abs, devs)):.3e}")
            need(q.known_defect is not None, message)
            amp, resid = harmonic_fit(devs, e["phases"], e["t"] + 1, e["r"] + 1)
            limit = AMPLITUDE_MARGIN * KNOWN_EVE_AMPLITUDE[e["t"]]
            need(resid <= COMPARE_ATOL and amp <= limit,
                 f"{message}; not the known defect: order-{e['t'] + 1} harmonic fit "
                 f"leaves {resid:.3e}, amplitude {amp:.3e} (limit {limit:.3e})")
            raise KnownDefectSeen(message)
    else:
        need(all(rec["response_bit"] in (0, 1) for rec in rounds), "bad response bit")
        passes = sum(1 for rec in rounds if rec["pass"] is True)
        need(verdict == {"verdict": "accept" if passes == e["s"] else "reject"},
             f"verdict {verdict} with {passes}/{e['s']} passes")
        need(within_sigmas(passes / e["s"], want, e["s"]),
             f"t={e['t']}: {passes}/{e['s']} passes, more than {SIGMAS} sigma "
             f"from {want:.6f}")


CHECKS = {
    "honest": check_honest,
    "attack": check_attack,
    "psucc_table": check_psucc_table,
    "bounds": check_bounds,
    "advise": check_advise,
    "keygen": check_keygen,
    "identities": check_identities,
    "eve_session": check_eve_session,
}


def check(q, out) -> tuple[str | None, bool]:
    """(reason the output of ``q`` is wrong or None, whether it is the known defect)."""
    if out.error is not None:
        return f"raised {out.error}", False
    if out.exit_code != q.exit_code:
        return f"exit code {out.exit_code}, expected {q.exit_code}", False
    try:
        CHECKS[q.check](q, out)
    except KnownDefectSeen as exc:
        return str(exc), True
    except CheckFailed as exc:
        return str(exc), False
    except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", False
    return None, False

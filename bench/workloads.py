"""Workload definitions: the query list of each workload, made from a seed.

A query is either a CLI invocation (an argv list for ``phaseid.cli.main``)
or a library Eve session (``protocol.run_session`` against an
``EveProver``), which has no CLI. Only the seeds, key phases and grid
points below come from the workload seed; the sizes are fixed, so every
seed costs the same and runs of different seeds can be compared.

Left out on purpose, because one query would dominate every run:
``bounds --r 100000 --epsilon 1e-12 --variant hardened`` runs about 28 s
and then exits 4 (the advisor's iteration cap), and ``run-attack --t 256``
takes about 13 s. The advisor's cost still shows through
``bounds.bound_evals_per_advice`` in the traced run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Exit codes documented in the phaseid README: success and refusal.
EXIT_OK = 0
EXIT_REFUSAL = 3

# Eve sessions use r = 100, so key phases come from p = 101 values. The
# uniform average over 101 phases equals the continuous one for every t
# used here, so a sampled session's expected pass rate is (1 + psucc)/2
# and its 3-sigma check tests the sampler, not the choice of modulus.
EVE_R = 100
EVE_S = 200
EVE_TS = (1, 3, 8)

KNOWN_EVE_DEFECT = (
    "known defect: the Helstrom projector is not phase-covariant (the sign of "
    "rounding noise picks the zero modes of P+), so an exact Eve round differs "
    "from (1 + psucc)/2 depending on the key phase"
)


@dataclass(frozen=True)
class Query:
    """One request of the closed loop.

    ``kind`` is "cli" (``argv`` is passed to ``phaseid.cli.main``) or
    "eve" (``eve`` holds the session inputs). ``check`` names the oracle
    in ``checks.py``; ``expect`` carries what the oracle needs to know
    about the inputs. ``known_defect`` explains an oracle failure the
    program is known to have on this query; such a failure is counted in
    ``failed`` but does not make the run incorrect.
    """

    label: str
    kind: str
    check: str
    argv: tuple[str, ...] = ()
    eve: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    exit_code: int = EXIT_OK
    known_defect: str | None = None


def _seeds(seed: int, salt: str):
    rnd = random.Random(f"{salt}:{seed}")
    while True:
        yield rnd.randrange(1, 2**31)


def _honest_session(label, r, s, seed, *, mode="exact", variant="standard",
                    trials=1, exit_code=EXIT_OK) -> Query:
    argv = ["run-honest", "--r", str(r), "--s", str(s), "--seed", str(seed)]
    if mode != "exact":
        argv += ["--mode", mode]
    if variant != "standard":
        argv += ["--variant", variant]
    if trials != 1:
        argv += ["--trials", str(trials)]
    expect = {"r": r, "s": s, "mode": mode, "variant": variant,
              "sessions": min(trials, r)}
    return Query(label, "cli", "honest", tuple(argv), expect=expect, exit_code=exit_code)


def honest(seed: int, tiny: bool = False) -> list[Query]:
    """Honest sessions, exact and sampled: protocol and qsim state construction
    dominate; adversary and bounds stay idle."""
    s_paper, s_big, s_hard = (4, 12, 6) if tiny else (83, 1000, 200)
    sd = _seeds(seed, "honest")
    return [
        _honest_session("paper-exact", 2, s_paper, next(sd)),
        _honest_session("paper-sampled", 2, s_paper, next(sd), mode="sampled"),
        _honest_session("s1000-exact", 2, s_big, next(sd)),
        _honest_session("s1000-sampled", 2, s_big, next(sd), mode="sampled"),
        _honest_session("hardened-exact", 3, s_hard, next(sd), variant="hardened"),
        _honest_session("hardened-sampled", 3, s_hard, next(sd), mode="sampled",
                        variant="hardened"),
        # r + 1 sessions under one key: the last one must be refused.
        _honest_session("refusal", 2, 20, next(sd), trials=3, exit_code=EXIT_REFUSAL),
    ]


def _attack_cli(label, argv, t_values, *, fmt="json", s=1, trials=None) -> Query:
    expect = {"t": list(t_values), "format": fmt, "s": s, "trials": trials}
    return Query(label, "cli", "attack", tuple(argv), expect=expect)


def attack(seed: int, tiny: bool = False) -> list[Query]:
    """run-attack up to t=128, psucc-table and library Eve sessions: the dense
    Helstrom build and the attacked-round grid average dominate."""
    t_max, t_mid, t_big, t_huge, t_table = (3, 4, 5, 6, 6) if tiny else (8, 32, 64, 128, 32)
    trials = 2000 if tiny else 100_000
    eve_s = 6 if tiny else EVE_S
    sd = _seeds(seed, "attack")
    sampled_seed = next(sd)
    queries = [
        _attack_cli("sweep-json", ["run-attack", "--t-max", str(t_max)], range(1, t_max + 1)),
        _attack_cli("sweep-csv", ["run-attack", "--t-max", str(t_max), "--format", "csv"],
                    range(1, t_max + 1), fmt="csv"),
        _attack_cli("t-big", ["run-attack", "--t", str(t_big)], [t_big]),
        _attack_cli("t-huge", ["run-attack", "--t", str(t_huge)], [t_huge]),
        Query("psucc-table", "cli", "psucc_table",
              ("psucc-table", "--t-max", str(t_table)), expect={"t_max": t_table}),
        _attack_cli("sampled", ["run-attack", "--t-max", "3", "--mode", "sampled",
                                "--trials", str(trials), "--seed", str(sampled_seed)],
                    range(1, 4), trials=trials),
        # Three mid-size queries make 15 per pass, so that p50 and p90 fall
        # inside one query's latencies rather than between two.
        _attack_cli("t-mid", ["run-attack", "--t", str(t_mid)], [t_mid]),
        _attack_cli("t-mid-s83", ["run-attack", "--t", str(t_mid // 2), "--s", "83"],
                    [t_mid // 2], s=83),
        Query("psucc-table-csv", "cli", "psucc_table",
              ("psucc-table", "--t-max", str(t_mid // 2), "--format", "csv"),
              expect={"t_max": t_mid // 2, "format": "csv"}),
    ]
    for t in EVE_TS:
        rnd = random.Random(next(sd))
        p = EVE_R + 1
        phases = tuple(rnd.randrange(1, p + 1) for _ in range(eve_s))
        for mode in ("exact", "sampled"):
            eve = {"t": t, "r": EVE_R, "s": eve_s, "phases": phases, "mode": mode,
                   "seed": next(sd) if mode == "sampled" else None}
            queries.append(Query(
                f"eve-t{t}-{mode}", "eve", "eve_session", eve=eve,
                known_defect=KNOWN_EVE_DEFECT if mode == "exact" else None,
            ))
    return queries


def advisor(seed: int, tiny: bool = False) -> list[Query]:
    """bounds, advisor, keygen and verify-identities: the advisor's linear search
    over s dominates; protocol and adversary stay nearly idle."""
    big_r = (10, 30) if tiny else (1000, 3000)
    rnd = random.Random(f"advisor:{seed}")
    key_r, key_s, key_seed = rnd.randint(2, 9), rnd.randint(4, 100), rnd.randrange(1, 2**31)
    keygen = ["keygen", "--r", str(key_r), "--s", str(key_s), "--seed", str(key_seed)]
    key_expect = {"r": key_r, "s": key_s, "seed": key_seed}
    queries = [
        Query("keygen", "cli", "keygen", tuple(keygen), expect=key_expect),
        Query("keygen-public", "cli", "keygen", tuple(keygen + ["--public"]),
              expect={**key_expect, "public": True}),
        Query("bounds-paper", "cli", "bounds", ("bounds", "--r", "2", "--s", "83"),
              expect={"r": 2, "s": 83}),
        Query("verify-identities", "cli", "identities", ("verify-identities",)),
        Query("psucc-table", "cli", "psucc_table", ("psucc-table", "--t-max", "4"),
              expect={"t_max": 4}),
        Query("advise-paper", "cli", "advise", ("bounds", "--r", "2", "--epsilon", "0.01"),
              expect={"r": 2, "epsilon": 0.01, "s_min": 83}),
        Query("advise-r1000", "cli", "advise",
              ("bounds", "--r", str(big_r[0]), "--epsilon", "1e-12"),
              expect={"r": big_r[0], "epsilon": 1e-12}),
        Query("advise-r1000-hardened", "cli", "advise",
              ("bounds", "--r", str(big_r[0]), "--epsilon", "1e-12", "--variant", "hardened"),
              expect={"r": big_r[0], "epsilon": 1e-12, "variant": "hardened"}),
        Query("advise-r3000", "cli", "advise",
              ("bounds", "--r", str(big_r[1]), "--epsilon", "1e-12"),
              expect={"r": big_r[1], "epsilon": 1e-12}),
    ]
    for i in range(6):
        r, s = rnd.randint(1, 10_000), rnd.randint(1, 100_000)
        queries.append(Query(f"bounds-grid-{i}", "cli", "bounds",
                             ("bounds", "--r", str(r), "--s", str(s)), expect={"r": r, "s": s}))
    return queries


# Each workload function's docstring is the workload's reason; BENCHMARK.json
# repeats it.
WORKLOADS = {"honest": honest, "attack": attack, "advisor": advisor}


def build(workload: str, seed: int, tiny: bool = False) -> list[Query]:
    """Query list of ``workload`` for ``seed``; ``tiny`` shrinks sizes for tests."""
    return WORKLOADS[workload](seed, tiny)

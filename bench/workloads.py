"""The benchmark's workloads: seeded lists of ebitcalc CLI calls.

A workload is a fixed recipe -- how many calls of which command at which
sizes -- and the seed fills in the random content and the call order.
The recipe never changes with the seed, so runs on different seeds do
the same amount of work of the same kinds.  Every call carries the
fields its JSON output must have, known by construction (see gen.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import gen

SWEEP_MAX_N = 12


@dataclass
class Call:
    """One CLI call: arguments, the input files it reads, its known answer.

    File arguments are bare names from ``files``; the runner places them
    in the run's input directory.
    """

    argv: list[str]
    expect: dict
    files: dict[str, str] = field(default_factory=dict)


# The one-generator input the set-up metric times: interpreter start,
# imports, argument parsing and output, with next to no arithmetic.
SETUP = Call(
    ["ebits", "--json", "setup.qcheck"],
    {"command": "ebits", "n": 1, "generators": 1, "ebits": 0},
    {"setup.qcheck": "qcheck 1 1\n1|0\n"},
)


def _ebits_large(rng) -> list[Call]:
    # ~512 qubits, 3n/4 generators, rows in random order: parsing and the
    # product matrix dominate; rank is cheap and sgsop is never called.
    calls = []
    for i in range(40):
        n = (448, 480, 512)[i % 3]
        m = 3 * n // 4
        c = int(rng.integers(m // 8, m // 2 + 1))
        z, x = gen.binary_set(rng, n, c, m - 2 * c)
        name = f"call{i:03d}.qcheck"
        calls.append(
            Call(
                ["ebits", "--json", name],
                {"command": "ebits", "n": n, "generators": m, "ebits": c},
                {name: gen.qcheck_text(z, x)},
            )
        )
    return calls


def _verify_file_call(rng, i: int, n: int, m: int, c: int) -> Call:
    z, x = gen.binary_set_commuting_first(rng, n, c, m - 2 * c)
    name = f"call{i:03d}.qcheck"
    return Call(
        ["verify", "--json", name],
        {
            "command": "verify",
            "n": n,
            "generators": m,
            "ebits": c,
            "formula": c,
            "procedure": c,
            "agreement": True,
        },
        {name: gen.qcheck_text(z, x)},
    )


def _verify(rng) -> list[Call]:
    # Commuting generators first, as codes are usually written: the sgsop
    # pair search then rescans the commuting block for every pair.  The
    # two 20-generator sets run span enumeration at its size limit with a
    # full-rank product matrix (c = 10), the largest case a sweep can
    # reach, so peak RSS does not hang on which sweep cases a seed draws.
    # A sweep's cost is heavy-tailed in its seed (a few 20-row
    # enumerations dominate), so the sweeps are few and short: 20 cases
    # per run keep them from swinging calls_per_s.
    calls = [
        _verify_file_call(rng, i, 256, 192, int(rng.integers(40, 57))) for i in range(34)
    ]
    calls += [_verify_file_call(rng, i, 12, 20, 10) for i in range(34, 36)]
    for _ in range(4):
        count = 5
        seed = int(rng.integers(0, 2**31))
        calls.append(
            Call(
                ["verify", "--json", "--random", str(count), "--max-n",
                 str(SWEEP_MAX_N), "--seed", str(seed)],
                {
                    "command": "verify",
                    "cases": count,
                    "seed": seed,
                    "failures": [],
                    "agreement": True,
                },
            )
        )
    return [calls[i] for i in rng.permutation(len(calls))]


def _conv_frames(rng) -> list[Call]:
    # About 9 generators on 8-10 qubits per frame, densely mixed; Laurent
    # elimination dominates and its cost grows steeply with the rank.
    specs = [(2, 5, 10)] * 24 + [(3, 3, 6)] * 16
    calls = []
    for i, (c, k, max_exp) in enumerate(specs):
        n = 8 + i % 3
        z, x = gen.conv_set(rng, n, c, k, max_exp, ops=1500)
        name = f"call{i:03d}.conv"
        calls.append(
            Call(
                ["conv", "--json", name],
                {
                    "command": "conv",
                    "n": n,
                    "generators": 2 * c + k,
                    "ebits": c,
                    "conjectured": True,
                },
                {name: gen.conv_text(z, x)},
            )
        )
    return [calls[i] for i in rng.permutation(len(calls))]


def _gf4_call(rng, i: int) -> Call:
    rows, n = 192, 384
    c = int(rng.integers(88, 105))
    h = gen.gf4_matrix(rng, rows, n, c)
    logical = 2 * (n - rows) - n + c
    name = f"call{i:03d}.gf4"
    return Call(
        ["gf4", "--json", name],
        {
            "command": "gf4",
            "n": n,
            "ebits": c,
            "logical": logical,
            "ancillas": 2 * rows - 2 * c,
            "generators": n - logical + c,
        },
        {name: gen.gf4_text(h)},
    )


def _css_call(rng, i: int) -> Call:
    n, r1, r2 = 512, 192, 192
    c = int(rng.integers(32, 161))
    h1, h2 = gen.css_pair(rng, n, r1, r2, c)
    a, b = f"call{i:03d}a.gf2", f"call{i:03d}b.gf2"
    return Call(
        ["css", "--json", a, b],
        {
            "command": "css",
            "n": n,
            "ebits": c,
            "logical": (n - r1) + (n - r2) - n + c,
            "ancillas": r1 + r2 - 2 * c,
        },
        {a: gen.gf2_text(h1), b: gen.gf2_text(h2)},
    )


def _qudit_call(rng, i: int) -> Call:
    d = (3, 5, 7)[i % 3]
    n = 128
    c = int(rng.integers(28, 37))
    k = 110 - 2 * c
    z, x = gen.qudit_set(rng, d, n, c, k)
    name = f"call{i:03d}.qcheckd"
    return Call(
        ["qudit", "--json", name],
        {"command": "qudit", "n": n, "generators": 2 * c + k, "ebits": c, "modulus": d},
        {name: gen.qcheckd_text(d, z, x)},
    )


def _cv_call(rng, i: int) -> Call:
    n = 128
    c = int(rng.integers(28, 37))
    k = 110 - 2 * c
    z, x = gen.real_set(rng, n, c, k)
    name = f"call{i:03d}.cvcheck"
    return Call(
        ["cv", "--json", name],
        {"command": "cv", "n": n, "generators": 2 * c + k, "ebits": c},
        {name: gen.cvcheck_text(z, x)},
    )


def _imports(rng) -> list[Call]:
    # The paper's corollaries.  GF(4) is sized to take most of the time;
    # css shares the gf2 transpose and matmul with the binary product
    # matrix, and qudit and cv guard their common cases.
    # GF(4) calls are the majority so that p50 and p75 both fall among them.
    makers = [_gf4_call] * 26 + [_css_call] * 5 + [_qudit_call] * 5 + [_cv_call] * 4
    calls = [make(rng, i) for i, make in enumerate(makers)]
    return [calls[i] for i in rng.permutation(len(calls))]


WORKLOADS = {
    "ebits-large": _ebits_large,
    "verify": _verify,
    "conv-frames": _conv_frames,
    "imports": _imports,
}


def build(workload: str, seed: int) -> list[Call]:
    """The workload's call list for ``seed``; the same seed, the same list."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng)

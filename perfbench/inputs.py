"""Seeded input generators: worksheets, arrival schedules, design spaces.

Everything the program under test receives is built here from the
``--seed`` argument, so one seed always yields the same requests, the
same arrival times and the same design spaces.
"""

from __future__ import annotations

import json
import random

import numpy as np

#: The six registry case studies every worksheet is jittered from.
STUDIES = ("fir", "matmul", "md", "pdf1d", "pdf2d", "stringmatch")

#: Share of invalid worksheets in every block of POOL_SIZE requests.
INVALID_SHARE = 0.05

#: Distinct worksheets per seed; requests cycle through a seeded order.
POOL_SIZE = 1000

#: ``mode`` mix as (value, count per block of 20): 80% / 10% / 10%.
MODE_MIX = (("both", 16), ("single", 2), ("double", 2))

#: Invalid edits, one validation rule each, applied round-robin so the
#: 400 diagnostics vary across rules and values.
_INVALID_EDITS = (
    ("clock_mhz", lambda ws, r: -round(r.uniform(1.0, 300.0), 3)),
    ("alpha_write", lambda ws, r: round(r.uniform(1.01, 2.0), 4)),
    ("alpha_read", lambda ws, r: 0.0),
    ("elements_in", lambda ws, r: -r.randint(1, 4096)),
    ("n_iterations", lambda ws, r: 0),
    ("t_soft", lambda ws, r: -round(r.uniform(0.1, 10.0), 4)),
    ("bytes_per_element", lambda ws, r: 0.0),
    ("elements_out", lambda ws, r: -r.randint(1, 64)),
)


def base_worksheets() -> dict[str, dict]:
    """Table-1 worksheet dicts of the six registry studies."""
    from repro.apps.registry import get_case_study

    return {name: get_case_study(name).rat.to_dict() for name in STUDIES}


def worksheet_pool(seed: int, bases: dict[str, dict]) -> list[dict]:
    """POOL_SIZE jittered worksheets, exactly INVALID_SHARE of them invalid."""
    rng = random.Random(f"worksheets/{seed}")
    pool = []
    for i in range(POOL_SIZE):
        study = rng.choice(STUDIES)
        ws = dict(bases[study])
        ws["name"] = f"{study}-{seed}-{i}"
        ws["clock_mhz"] = round(ws["clock_mhz"] * rng.uniform(0.6, 1.4), 3)
        ws["alpha_write"] = round(ws["alpha_write"] * rng.uniform(0.5, 1.0), 4)
        ws["alpha_read"] = round(ws["alpha_read"] * rng.uniform(0.5, 1.0), 4)
        ws["elements_in"] = max(1, int(ws["elements_in"] * rng.uniform(0.5, 1.5)))
        ws["elements_out"] = int(ws["elements_out"] * rng.uniform(0.5, 1.5))
        pool.append(ws)
    n_invalid = round(POOL_SIZE * INVALID_SHARE)
    for k, i in enumerate(sorted(rng.sample(range(POOL_SIZE), n_invalid))):
        key, edit = _INVALID_EDITS[k % len(_INVALID_EDITS)]
        pool[i][key] = edit(pool[i], rng)
    return pool


def request_mix(seed: int, n: int) -> list[tuple[int, str]]:
    """``n`` (pool index, mode) pairs: a seeded cyclic order of the pool.

    Every run of POOL_SIZE consecutive requests visits each worksheet
    once, so the invalid share is exact; modes follow MODE_MIX exactly
    in every block of 20.
    """
    rng = random.Random(f"mix/{seed}")
    order = list(range(POOL_SIZE))
    rng.shuffle(order)
    block = [mode for mode, count in MODE_MIX for _ in range(count)]
    out = []
    modes: list[str] = []
    for i in range(n):
        if not modes:
            modes = block[:]
            rng.shuffle(modes)
        out.append((order[i % POOL_SIZE], modes.pop()))
    return out


def request_body(worksheet: dict, mode: str) -> bytes:
    """The ``/v1/predict`` JSON body for one worksheet and mode."""
    return json.dumps(
        {"worksheet": worksheet, "mode": mode}, separators=(",", ":")
    ).encode()


def wire_request(body: bytes) -> bytes:
    """A keep-alive HTTP/1.1 ``POST /v1/predict`` carrying ``body``."""
    head = (
        "POST /v1/predict HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def poisson_schedule(seed: int, rate: float, duration_s: float) -> list[float]:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration_s)``."""
    rng = random.Random(f"arrivals/{seed}/{rate}")
    out = []
    t = rng.expovariate(rate)
    while t < duration_s:
        out.append(t)
        t += rng.expovariate(rate)
    return out


# ---- explore spaces --------------------------------------------------------

BULK_POINTS = 1_000_000
CHUNKED_CHUNK = 1024


def bulk_space(seed: int, base):
    """A 1e6-point seeded random space; every point is valid."""
    from repro.explore import DesignSpace

    return DesignSpace.random(
        base,
        BULK_POINTS,
        seed=seed,
        clock_mhz=(50.0, 300.0),
        alpha=(0.05, 1.0),
        throughput_proc=(1.0, 64.0),
    )


def chunked_space(seed: int, base):
    """A 1e5-point grid, ~10% of it invalid across three rules.

    Returns ``(space, invalid_mask)``: the mask is computed from the
    axis values alone, independently of the program's validation.
    """
    from repro.explore import DesignSpace

    rng = np.random.default_rng(seed)
    clock = rng.uniform(50.0, 300.0, 50)
    clock[rng.choice(50, 2, replace=False)] = -rng.uniform(1.0, 100.0, 2)
    alpha = rng.uniform(0.05, 1.0, 40)
    alpha[rng.choice(40, 2, replace=False)] = rng.uniform(1.01, 2.0, 2)
    elements = np.floor(rng.uniform(64.0, 65536.0, 50))
    elements[rng.integers(50)] = 0.0
    space = DesignSpace.grid(
        base, clock_mhz=clock, alpha_write=alpha, elements_in=elements
    )
    values = space.values
    invalid = (
        (values[:, 0] <= 0) | (values[:, 1] <= 0) | (values[:, 1] > 1)
        | (np.trunc(values[:, 2]) <= 0)
    )
    return space, invalid

"""Metric names and units, read from the repository's ``BENCHMARK.json``."""

from __future__ import annotations

import json
import os

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def load() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def units(*, per_layer: bool) -> dict[str, str]:
    """``{metric name: unit}`` of the end-to-end or per-layer list."""
    key = "per_layer" if per_layer else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in load()[key]}

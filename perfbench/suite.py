"""Frozen instance suites: where they live, how to read them, and how to
import the program under test from the source tree beside them."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from check import square_of, with_entries

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SUITE_DIR = BENCH_DIR / "suites"


def import_program():
    """Import ``twowalk`` from ``src/`` next to this directory, never from
    an installed copy.  Raises ImportError when the source tree is absent."""
    if not (SRC / "twowalk" / "__init__.py").is_file():
        raise ImportError(f"no twowalk source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twowalk

    if Path(twowalk.__file__).resolve().parent != SRC / "twowalk":
        raise ImportError(f"twowalk was imported from {twowalk.__file__}, not {SRC}")
    return twowalk


def suite_path(workload: str, suite_seed: int) -> Path:
    return SUITE_DIR / f"{workload}-{suite_seed}.json"


def load_suite(workload: str, suite_seed: int) -> dict:
    with open(suite_path(workload, suite_seed)) as f:
        return json.load(f)


def instance_rows(inst: dict) -> list[list[int]]:
    """The candidate matrix of a screen or hard instance: the square of its
    frozen graph with the frozen entry changes applied."""
    return with_entries(square_of(inst["n"], inst["edges"]), inst["changes"])


def dump_suite(suite: dict) -> str:
    """Canonical text of a suite: one instance per line, keys sorted, so the
    same suite always gives the same bytes."""
    head = {k: v for k, v in suite.items() if k != "instances"}
    lines = [json.dumps(i, sort_keys=True, separators=(",", ":")) for i in suite["instances"]]
    head_text = json.dumps(head, sort_keys=True, separators=(",", ":"))
    return head_text[:-1] + ',"instances":[\n' + ",\n".join(lines) + "\n]}\n"

"""Output checks applied to every op, and the simulated-statistics pin.

A check returns an empty string when the row is right and a reason
otherwise; the benchmark counts an op with a reason as failed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping, Optional, Tuple

from repro.bounds import (
    async_cte_bound,
    bfdn_bound,
    bfdn_ell_bound,
    potential_cte_bound,
    theorem3_bound,
    tree_mining_bound,
)
from repro.graphs.exploration import proposition9_bound
from repro.obs.budget import THEOREM1_ALGORITHMS, THEOREM10_ALGORITHMS


def budget(row: Mapping[str, object]) -> Optional[Tuple[str, float, float]]:
    """``(bound name, limit, measured value)`` for a row, or ``None``.

    Rows are read the way ``repro.scenario`` writes them: graph rows put
    edges and radius in ``n`` and ``depth``, game rows put the threshold
    Delta in ``depth``.  Async-cte's bound limits completion *time*, so
    it is held against ``clock_time``; every other bound limits billed
    rounds.  CTE and DFS have no budget of their own.
    """
    kind, algorithm = row["kind"], row["algorithm"]
    n, depth, k = int(row["n"]), int(row["depth"]), int(row["k"])
    max_degree = int(row.get("max_degree") or 0)
    delta = max_degree or None
    rounds = float(row["rounds"])
    if kind == "tree" and not row.get("adversary"):
        if algorithm in THEOREM1_ALGORITHMS:
            return "bfdn_bound", bfdn_bound(n, depth, k, delta), rounds
        if algorithm in THEOREM10_ALGORITHMS:
            ell = THEOREM10_ALGORITHMS[algorithm]
            return "bfdn_ell_bound", bfdn_ell_bound(n, depth, k, ell, delta), rounds
        if algorithm == "tree-mining":
            return "tree_mining_bound", tree_mining_bound(n, depth, k, delta), rounds
        if algorithm == "potential-cte":
            return "potential_cte_bound", potential_cte_bound(n, depth, k), rounds
    if kind == "async-tree" and algorithm == "async-cte":
        return "async_cte_bound", async_cte_bound(n, depth, k), float(row["clock_time"])
    if kind == "graph":
        return "proposition9_bound", proposition9_bound(n, depth, k, max_degree), rounds
    if kind == "game":
        return "theorem3_bound", theorem3_bound(k, depth), rounds
    return None


def check_row(row: Optional[Mapping[str, object]], backend: Optional[str] = None) -> str:
    """Why ``row`` is wrong, or ``""``.

    ``backend`` names the engine the op must have run on; a row from a
    silent fallback would time another engine than the one asked for.
    """
    if row is None:
        return "no result row"
    if not row.get("complete"):
        return "exploration incomplete"
    if not row.get("all_home"):
        return "robots not all home"
    if backend is not None and row.get("backend") != backend:
        return f"ran on backend {row.get('backend')!r}, expected {backend!r}"
    found = budget(row)
    if found is not None:
        name, limit, value = found
        if value > limit:
            return f"{value:g} exceeds {name} {limit:g}"
    return ""


def digest(records: Iterable[Tuple[int, int, int]]) -> str:
    """sha256 over sorted ``(index, rounds, wall_rounds)`` triples."""
    payload = json.dumps(sorted(records), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

"""Seeded workload inputs built without the geochrom package.

Drawings come from this file's own integer sampler, and crossings are
computed by the oracle's exact predicate. Constrained drawings are made by
deleting edges until the constraint holds, never by rejection sampling, so a
change to the package's generators or to its RNG use cannot change the
inputs. Every input is plain JSON data; `digest` fingerprints a list of them.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

from oracle import crossing_pairs, distance_conflict, turn

SPAN = 10**6  # coordinates lie in [-SPAN, SPAN]
CLASSES = ("free", "independent", "dist2")


def rng_for(seed: int, *labels: object) -> random.Random:
    """A generator that depends only on the seed and the labels."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def digest(items) -> str:
    """Short SHA-256 of the canonical JSON of `items`."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- drawings ---------------------------------------------------------------


def general_position_points(rng: random.Random, n: int) -> list[tuple[int, int]]:
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        cand = (rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN))
        if cand in pts or any(turn(p, q, cand) == 0 for p, q in combinations(pts, 2)):
            continue
        pts.append(cand)
    return pts


def drawing(rng: random.Random, n: int, density: float, cls: str) -> dict:
    """A graph JSON document; `cls` constrains its crossings by deleting edges."""
    pts = general_position_points(rng, n)
    edges = {e for e in combinations(range(n), 2) if rng.random() < density}
    if cls != "free":
        min_dist = 1 if cls == "independent" else 2
        crossings = crossing_pairs(pts, edges)  # deleting edges never adds a crossing
        while (bad := distance_conflict(edges, crossings, min_dist)) is not None:
            edges.discard(bad)
            crossings = [c for c in crossings if bad not in c]
    return {
        "vertices": [{"id": i, "x": x, "y": y} for i, (x, y) in enumerate(pts)],
        "edges": [list(e) for e in sorted(edges)],
    }

"""Solver witnesses pinned to the values the package has always returned.

The CLI prints these colorings and maps, so a change to any search order,
value order or tie-break shows here even when the answers stay correct.
Each entry: chi coloring, X' coloring, (X, target canonical hex, X map),
and find_noncollapsing_hom for chi and chi + 1 colors. Two digests pin the
same 300 random drawings: one for the solver answers, one for the lifts.
An X map is into the labelling of its target's witness in the committed
catalogs, which are the ones `geochrom catalog` builds, so a run without
`--catalog` prints the same map.
"""

import hashlib

import pytest

from geochrom import (
    FIGURE_TAGS,
    ChiOutOfRange,
    CollapsedCrossingPair,
    CrossingsNotIndependent,
    DistanceTooSmall,
    chromatic_number,
    figure_graphs,
    find_noncollapsing_hom,
    geochromatic_number,
    lift_dist2,
    lift_independent,
    lift_independent_noncollapsing,
    lift_small_chi,
    non_identifiable_pairs,
    pseudo_geochromatic_number,
    random_geometric_graph,
    star_crossing,
)

CONVEX_K4 = "0004000600010002000300060007000b00010000001b"
CONVEX_K6 = (
    "0006000f0001000200030004000500080009000a000b000f0010001100160017001d000f"
    "00000033000000350000003a00000041000000520000005e00000065000000770000007d"
    "0000008900000177000001790000019b000001a20000027a"
)
FIGURE1_LEFT_K6 = (
    "0006000f0001000200030004000500080009000a000b000f0010001100160017001d000a"
    "000000330000005200000077000000a1000000ca00000177000001790000019b000001a2"
    "0000027a"
)

PINNED = {
    "figure1_left": (
        (1, 2, 3, 4, 5, 6),
        (1, 2, 3, 4, 5, 6),
        (6, FIGURE1_LEFT_K6, (0, 1, 2, 5, 4, 3)),
        ((6, 1, 2, 3, 4, 5), (6, 1, 2, 3, 4, 5)),
    ),
    "figure1_right": (
        (1, 2, 3, 4, 5, 6),
        (1, 2, 3, 4, 5, 6),
        (6, CONVEX_K6, (0, 1, 5, 2, 3, 4)),
        ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)),
    ),
    "figure2_left": (
        (1, 2, 3, 2, 2, 1),
        (1, 2, 3, 5, 5, 4),
        (6, CONVEX_K6, (1, 4, 2, 5, 3, 0)),
        ((2, 3, 1, 3, 2, 1), (1, 2, 3, 4, 3, 1)),
    ),
    "figure2_right": (
        (2, 1, 2, 1, 1, 2),
        (4, 3, 4, 3, 1, 2),
        (4, CONVEX_K4, (3, 1, 3, 1, 0, 2)),
        (None, (2, 1, 2, 1, 1, 3)),
    ),
    "figure3_left": (
        (2, 1, 2, 1, 2, 1, 1, 2, 2),
        (2, 3, 4, 1, 2, 1, 2, 3, 4),
        (4, CONVEX_K4, (0, 1, 3, 2, 1, 0, 1, 3, 2)),
        (None, (2, 1, 3, 1, 2, 1, 1, 2, 3)),
    ),
    "figure3_right": (
        (2, 1, 1, 1, 2, 1, 2, 2),
        (2, 3, 1, 3, 4, 1, 2, 4),
        (4, CONVEX_K4, (0, 1, 0, 1, 3, 2, 3, 2)),
        (None, (2, 1, 1, 1, 3, 1, 2, 3)),
    ),
    "figure6": (
        (1, 2, 3, 2, 2, 1),
        (1, 2, 3, 5, 5, 4),
        (6, CONVEX_K6, (1, 4, 2, 5, 3, 0)),
        ((2, 3, 1, 3, 2, 1), (1, 2, 3, 4, 3, 1)),
    ),
    "star2": (
        (1, 2, 2, 1, 2),
        (1, 4, 4, 2, 3),
        (4, CONVEX_K4, (0, 2, 2, 1, 3)),
        (None, (1, 3, 3, 1, 2)),
    ),
    "star3": (
        (1, 2, 2, 2, 1, 2),
        (1, 4, 4, 4, 2, 3),
        (4, CONVEX_K4, (0, 2, 2, 2, 1, 3)),
        (None, (1, 3, 3, 3, 1, 2)),
    ),
    "star4": (
        (1, 2, 2, 2, 2, 1, 2),
        (1, 4, 4, 4, 4, 2, 3),
        (4, CONVEX_K4, (0, 2, 2, 2, 2, 1, 3)),
        (None, (1, 3, 3, 3, 3, 1, 2)),
    ),
    "star5": (
        (1, 2, 2, 2, 2, 2, 1, 2),
        (1, 4, 4, 4, 4, 4, 2, 3),
        (4, CONVEX_K4, (0, 2, 2, 2, 2, 2, 1, 3)),
        (None, (1, 3, 3, 3, 3, 3, 1, 2)),
    ),
}


def drawing(name):
    if name.startswith("star"):
        return star_crossing(int(name[len("star"):]))[0]
    return figure_graphs(name)


def test_pinned_cases_cover_figures_and_stars():
    assert set(PINNED) == set(FIGURE_TAGS) | {f"star{k}" for k in range(2, 6)}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_witnesses_are_pinned(name, store):
    col, pcol, (x, target_hex, x_map), noncollapsing = PINNED[name]
    g = drawing(name)
    chi, coloring = chromatic_number(g)
    assert (chi, coloring.colors) == (max(col), col)
    px, pseudo = pseudo_geochromatic_number(g)
    assert (px, pseudo.colors) == (max(pcol), pcol)
    result = geochromatic_number(g, store, max_n=6)
    assert (result.n, result.target.hex, result.witness.images) == (x, target_hex, x_map)
    found = tuple(find_noncollapsing_hom(g, k) for k in (chi, chi + 1))
    assert tuple(None if c is None else c.colors for c in found) == noncollapsing


def _answer_line(g, store):
    chi, coloring = chromatic_number(g)
    px, pseudo = pseudo_geochromatic_number(g)
    pairs = non_identifiable_pairs(g)
    provenance = tuple((pair, "".join(sorted(pairs.provenance[pair]))) for pair in sorted(pairs.forced_pairs))
    result = geochromatic_number(g, store, max_n=6)
    x = None if result is None else (result.n, result.target.hex, result.witness.images)
    noncollapsing = find_noncollapsing_hom(g, chi)
    return repr((chi, coloring.colors, px, pseudo.colors, provenance, pairs.lower_bound(), x,
                 None if noncollapsing is None else noncollapsing.colors))


# sha256 of every answer below on 300 seeded random drawings; any change to a
# value, a witness, a search order or a tie-break changes it.
ANSWER_DIGEST = "fe46fe9535c7c94a25ee1f3348d5542eda86101316633a77bea0a459034cb60a"


def _random_drawings():
    for i in range(300):
        yield random_geometric_graph(8 + i % 5, (0.3, 0.4)[i // 5 % 2], min_crossing_distance=i // 10 % 3, seed=i)


def test_answers_on_random_drawings_match_the_pinned_digest(store):
    lines = [_answer_line(g, store) for g in _random_drawings()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ANSWER_DIGEST


def _lift_line(g):
    chi, coloring = chromatic_number(g)
    # indep2n gets the non-collapsing coloring the CLI picks: chi colors, else chi + 1.
    noncollapsing = find_noncollapsing_hom(g, chi) or find_noncollapsing_hom(g, chi + 1)
    outcomes = []
    for lift, alpha in ((lift_dist2, coloring), (lift_independent_noncollapsing, noncollapsing),
                        (lift_independent, coloring), (lift_small_chi, coloring)):
        if alpha is None:
            outcomes.append(None)
            continue
        try:
            r = lift(g, alpha)
        except (ChiOutOfRange, CollapsedCrossingPair, CrossingsNotIndependent, DistanceTooSmall) as exc:
            outcomes.append(type(exc).__name__)
            continue
        outcomes.append((r.method, r.target_size, r.beta.images, tuple((c.e1, c.e2, tag) for c, tag in r.case_log)))
    return repr(outcomes)


# sha256 of every lift outcome on the same 300 drawings: method, target size,
# map and case log of each report, or the name of the refusal.
LIFT_DIGEST = "57c346dba5cf1f0bd42622ec6392ebeb4f7fa3b94f355155483e17be9f0cd35c"


def test_lifts_on_random_drawings_match_the_pinned_digest():
    lines = [_lift_line(g) for g in _random_drawings()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LIFT_DIGEST

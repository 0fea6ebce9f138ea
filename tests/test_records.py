"""The package's immutable records behave as frozen dataclasses with the same fields would.

Each record type is compared with a reference built by dataclasses.make_dataclass
on the same field names and values: the same repr, equality and hash, and
NotImplemented against other classes. CrossingStructure keeps its own
equality, hash and repr through the canonical form.
"""

import copy
import dataclasses
import functools
import itertools
import pickle

import pytest

from geochrom import (
    CatalogEntry,
    CliqueCatalog,
    Coloring,
    Crossing,
    CrossingStructure,
    DistinctnessGraph,
    GeochromError,
    GeometricGraph,
    LiftReport,
    Point,
    VertexMap,
    XResult,
    chromatic_number,
    crossing_structure,
    enumerate_clique_structures,
    figure_graphs,
    find_noncollapsing_hom,
    geochromatic_lower_bound,
    geochromatic_number,
    lift_dist2,
    lift_independent,
    lift_independent_noncollapsing,
    lift_small_chi,
    non_identifiable_pairs,
    pseudo_geochromatic_number,
)

FIG6 = figure_graphs("figure6")
STRUCTURE = crossing_structure(FIG6)
K4 = enumerate_clique_structures(4)


def _samples():
    """Two records of each type with fields (the second differs from the first), and their field names."""
    other_graph = figure_graphs("figure3_left")
    case_log = ((Crossing((0, 1), (2, 3)), "1"),)
    return [
        (Point(3, -4), Point(3, 5), ("x", "y")),
        (FIG6, other_graph, ("points", "edges")),
        (Coloring((1, 2, 1), 2), Coloring((1, 2, 1), 3), ("colors", "n")),
        (VertexMap((0, 1, 2), 3), VertexMap((0, 2, 1), 3), ("images", "target_size")),
        (XResult(6, STRUCTURE, VertexMap(tuple(range(6)), 6)), XResult(7, STRUCTURE, VertexMap(tuple(range(6)), 6)),
         ("n", "target", "witness")),
        (LiftReport("dist2", 6, VertexMap((0, 1, 2, 3), 6), case_log),
         LiftReport("indep3n", 6, VertexMap((0, 1, 2, 3), 6), case_log),
         ("method", "target_size", "beta", "case_log")),
        (non_identifiable_pairs(FIG6), non_identifiable_pairs(other_graph), ("n", "rows")),
        (K4.entries[0], K4.entries[1], ("witness",)),
        (K4, enumerate_clique_structures(5), ("n", "entries")),
    ]


@functools.cache
def _reference_class(name, names):
    return dataclasses.make_dataclass(name, names, frozen=True, order=name == "Point")


def _reference(record, names):
    """The record's values in a frozen dataclass of its class name and fields (ordered for Point)."""
    return _reference_class(type(record).__name__, names)(*(getattr(record, name) for name in names))


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


SAMPLES = _samples()


@pytest.mark.parametrize("first, second, names", SAMPLES, ids=[type(first).__name__ for first, _, _ in SAMPLES])
def test_record_matches_its_frozen_dataclass(first, second, names):
    cls = type(first)
    assert cls._fields == names
    ref_first, ref_second = _reference(first, names), _reference(second, names)
    assert repr(first) == repr(ref_first) and repr(second) == repr(ref_second)
    values = tuple(getattr(first, name) for name in names)
    assert _hash_or_error(first) == _hash_or_error(ref_first) == _hash_or_error(values)
    assert first == first and first != second and not first == second
    assert first == cls(*values) == cls(**dict(zip(names, values)))  # positional and keyword construction
    assert first.__eq__(values) is NotImplemented and first != values and first != ref_first
    for name in (*names, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(first, name, None)
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(first, name)
    assert tuple(getattr(first, name) for name in names) == values  # untouched
    assert copy.copy(first) == first


def test_a_solved_drawing_pickles_and_its_forced_pairs_hash():
    # X', the bound and the provenance memoize read-only mappings on the drawing; they travel with it.
    solved = figure_graphs("figure6")
    px, bound = pseudo_geochromatic_number(solved), geochromatic_lower_bound(solved)
    assert non_identifiable_pairs(solved).provenance
    restored = pickle.loads(pickle.dumps(solved))
    assert restored == solved and restored is not solved
    assert (pseudo_geochromatic_number(restored), geochromatic_lower_bound(restored)) == (px, bound)
    dg, again = non_identifiable_pairs(solved), non_identifiable_pairs(restored)
    assert again == dg and again is not dg and hash(again) == hash(dg) == hash((dg.n, dg.rows))
    assert dict(again.provenance) == dict(dg.provenance) and hash(again.provenance) == hash(dg.provenance)
    fresh = non_identifiable_pairs(GeometricGraph(FIG6.points, FIG6.edges))
    assert fresh == dg and hash(fresh) == hash(dg)
    assert len({dg, again, fresh, non_identifiable_pairs(figure_graphs("figure3_left"))}) == 2
    with pytest.raises(TypeError):
        dg.rows["A"] = ()


def test_a_drawing_whose_sorted_crossings_were_read_pickles_compares_and_hashes_as_before():
    g = GeometricGraph(FIG6.points, FIG6.edges)  # nothing of it is kept yet
    fresh = GeometricGraph(FIG6.points, FIG6.edges)
    before = hash(g)
    order = g.sorted_crossings
    assert "sorted_crossings" in vars(g) and "crossings" not in vars(g)
    assert g == fresh and hash(g) == hash(fresh) == before == hash((FIG6.points, FIG6.edges))
    restored = pickle.loads(pickle.dumps(g))
    assert restored == g == fresh and restored is not g and hash(restored) == before
    assert vars(restored).keys() == vars(g).keys() and restored.sorted_crossings == order
    assert restored.crossings == fresh.crossings == frozenset(order)
    assert restored != figure_graphs("figure3_left")


def _solve(g, store) -> list:
    """chi, X', the bound, X, the non-collapsing coloring and the four lifts' outcomes, run on g."""
    chi, alpha = chromatic_number(g)
    noncollapsing = find_noncollapsing_hom(g, chi) or find_noncollapsing_hom(g, chi + 1)
    answers = [chi, alpha, pseudo_geochromatic_number(g), geochromatic_lower_bound(g),
               geochromatic_number(g, store, max_n=6), noncollapsing]
    for lift, coloring in ((lift_dist2, alpha), (lift_independent, alpha), (lift_small_chi, alpha),
                           (lift_independent_noncollapsing, noncollapsing)):
        try:
            answers.append(lift(g, coloring).to_json_dict())
        except GeochromError as exc:
            answers.append((type(exc).__name__, str(exc)))
    return answers


@pytest.mark.parametrize("tag", ["figure3_right", "figure6"])
def test_a_drawing_pickles_after_every_solver_has_run_on_it(tag, store):
    # The source tables the solvers keep on a drawing's structure (rows, crossing partners, the forced pairs)
    # and on the drawing (the crossing-gap verdict) travel with it.
    drawing = figure_graphs(tag)
    g = GeometricGraph(drawing.points, drawing.edges)  # no table of it is kept yet
    answers = _solve(g, store)
    assert {"structure", "crossing_gap"} <= vars(g).keys()
    assert {"neighbour_rows", "crossing_partners", "_distinctness"} <= vars(g.structure).keys()
    restored = pickle.loads(pickle.dumps(g))
    assert restored == g and restored is not g and hash(restored) == hash(g)
    assert vars(restored).keys() == vars(g).keys()
    assert vars(restored.structure).keys() == vars(g.structure).keys()
    assert _solve(restored, store) == answers


def test_point_order_and_pickling_match_the_dataclass():
    points = [Point(x, y) for x, y in itertools.product((-2, 0, 2), (-1, 1))]
    for p, q in itertools.product(points, repeat=2):
        rp, rq = _reference(p, ("x", "y")), _reference(q, ("x", "y"))
        assert (p < q, p <= q, p > q, p >= q, p == q) == (rp < rq, rp <= rq, rp > rq, rp >= rq, rp == rq)
    assert sorted(reversed(points)) == points
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        assert getattr(Point(0, 0), op)((0, 0)) is NotImplemented
    with pytest.raises(TypeError):
        Point(0, 0) < (1, 1)
    assert not hasattr(Point(0, 0), "__dict__")
    restored = pickle.loads(pickle.dumps(Point(7, -8)))
    assert restored == Point(7, -8) and type(restored) is Point


def test_reprs():
    assert repr(Point(3, -4)) == "Point(x=3, y=-4)"
    assert repr(Coloring((1, 2, 1), 2)) == "Coloring(colors=(1, 2, 1), n=2)"
    assert repr(VertexMap((0, 2), 3)) == "VertexMap(images=(0, 2), target_size=3)"
    assert repr(GeometricGraph((Point(0, 0), Point(1, 0)), [(1, 0)])) == \
        "GeometricGraph(points=(Point(x=0, y=0), Point(x=1, y=0)), edges=frozenset({(0, 1)}))"
    assert repr(STRUCTURE) == "CrossingStructure(n=6, edges=5, crossings=4)"


def test_validation_messages():
    with pytest.raises(TypeError, match="coordinates must be int, got float"):
        Point(1.0, 2)
    with pytest.raises(TypeError, match="coordinates must be int, got bool"):
        Point(x=1, y=True)
    with pytest.raises(ValueError, match=r"coordinate -1073741825 exceeds the \+-2\^30 bound"):
        Point(0, -(1 << 30) - 1)
    pts = (Point(0, 0), Point(1, 0), Point(0, 1))
    with pytest.raises(ValueError, match=r"edge \(1,1\) must join two distinct ids of 0..2"):
        GeometricGraph(pts, [(1, 1)])
    with pytest.raises(ValueError, match="not in general position"):
        GeometricGraph(points=(Point(0, 0), Point(1, 1), Point(2, 2)), edges=())
    with pytest.raises(ValueError, match=r"edge \(0,3\) must join"):  # the edges are checked first
        GeometricGraph((Point(0, 0), Point(1, 1), Point(2, 2)), [(0, 3)])
    # an id that is not an int, bools included, is refused here, not by a later solver's TypeError
    with pytest.raises(ValueError, match=r"edge \(0,1.5\) must join two distinct ids of 0..2"):
        CrossingStructure(3, [(0, 1.5)], [])
    with pytest.raises(ValueError, match=r"edge \(0,1.0\) must join"):
        GeometricGraph.build([(0, 0), (1, 0), (0, 1)], [(0, 1.0)])
    with pytest.raises(ValueError, match=r"edge \(True,2\) must join"):
        CrossingStructure(3, [(True, 2)], [])
    with pytest.raises(ValueError, match="n must be a non-negative int, got True"):
        CrossingStructure(True, [], [])
    with pytest.raises(ValueError, match=r"crossing \(0, 1\)x\(2, 3\) uses a non-edge"):
        CrossingStructure(n=4, adjacency=[(0, 1)], crossings=[((0, 1), (2, 3))])
    with pytest.raises(ValueError, match=r"crossing \(0, 1\)x\(1, 2\) is not a disjoint pair"):
        CrossingStructure(3, [(0, 1), (1, 2)], [((0, 1), (1, 2))])
    with pytest.raises(ValueError, match=r"color 3 outside 1..2"):
        Coloring(colors=(1, 3), n=2)
    with pytest.raises(ValueError, match=r"image 3 outside target 0..2"):
        VertexMap(images=(0, 3), target_size=3)


def test_crossing_structure_keeps_its_canonical_form_semantics():
    s = crossing_structure(FIG6)
    assert s._canonical is None  # the memo bench/spans.py reads, empty until the form is asked for
    relabelled = CrossingStructure(n=s.n, adjacency=[(5 - u, 5 - v) for u, v in s.adjacency],
                                   crossings=[((5 - a, 5 - b), (5 - c, 5 - d)) for (a, b), (c, d) in s.crossings])
    assert relabelled == s and hash(relabelled) == hash(s) == hash(s.canonical_form)
    assert s._canonical == s.canonical_form
    assert s.__eq__(s.canonical_form) is NotImplemented
    assert s != crossing_structure(figure_graphs("figure3_left"))
    for name in ("n", "_canonical", "crossing_index"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(s, name, None)
    assert s.crossing_index is s.crossing_index  # cached_property writes past the refusing __setattr__
    assert isinstance(K4, CliqueCatalog) and isinstance(K4.entries[0], CatalogEntry)
    assert isinstance(non_identifiable_pairs(FIG6), DistinctnessGraph)

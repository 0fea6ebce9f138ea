"""Command-line front end.

Verbs: chi, x, px, lift, verify, bound, gen, catalog, render. Primary output
is one JSON document on stdout (or written to -o); every reported number
comes with its witness so `verify` can replay it. Exit codes: 0 success,
1 a computation reported a negative (verify false, x unresolved, a lift
hypothesis failed), 2 invalid input or a file that cannot be read or written.
Errors print one-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import (
    MAX_CATALOG_N,
    CatalogStore,
    catalog_to_json_dict,
    convex_clique,
    enumerate_clique_structures,
)
from .errors import (
    ChiOutOfRange,
    CollapsedCrossingPair,
    CrossingsNotIndependent,
    DistanceTooSmall,
    GeochromError,
    GraphFormatError,
)
from .generators import (
    FIGURE_TAGS,
    figure_graphs,
    random_geometric_graph,
    separation_family,
    star_crossing,
)
from .graphs import (
    GeometricGraph,
    _read_json,
    graph_from_json_dict,
    graph_to_json_dict,
)
from .homomorphism import (
    chromatic_number,
    geochromatic_number,
    pseudo_geochromatic_number,
)
from .lifts import (
    find_noncollapsing_hom,
    lift_dist2,
    lift_independent,
    lift_independent_noncollapsing,
    lift_small_chi,
)
from .obstructions import non_identifiable_pairs
from .verify import VertexMap, is_geometric_hom, is_graph_hom

NEGATIVE_ERRORS = (DistanceTooSmall, CrossingsNotIndependent, CollapsedCrossingPair,
                   ChiOutOfRange)


def _load_graph(path: str) -> GeometricGraph:
    return graph_from_json_dict(_read_json(path))


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, separators=(",", ":"))
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_chi(args) -> int:
    g = _load_graph(args.graph)
    n, coloring = chromatic_number(g)
    _emit({"chi": n, "coloring": list(coloring.colors)}, args.output)
    return 0


def _cmd_px(args) -> int:
    g = _load_graph(args.graph)
    n, coloring = pseudo_geochromatic_number(g)
    _emit({"px": n, "coloring": list(coloring.colors)}, args.output)
    return 0


def _cmd_x(args) -> int:
    if args.no_build and args.catalog is None:  # the store without a directory never builds
        raise ValueError("--no-build needs --catalog: without it the shipped catalogs are read and nothing is built")
    g = _load_graph(args.graph)
    store = CatalogStore(args.catalog, build_missing=not args.no_build)
    result = geochromatic_number(g, store, max_n=args.max_n)
    if result is None:
        _emit({"status": "unresolved", "searched_to": args.max_n}, args.output)
        return 1
    # The map is into the labelling of the catalog entry's own witness drawing, so that drawing is printed with it.
    entry = next(e for e in store.get(result.n).entries if e.structure is result.target)
    _emit(
        {
            "x": result.n,
            "target": {"n": result.target.n, "canonical": result.target.hex,
                       "witness": graph_to_json_dict(entry.witness)},
            "map": list(result.witness.images),
        },
        args.output,
    )
    return 0


_LIFTS = {
    "dist2": lift_dist2,
    "indep2n": lift_independent_noncollapsing,
    "indep3n": lift_independent,
    "smallchi": lift_small_chi,
}


def _cmd_lift(args) -> int:
    g = _load_graph(args.graph)
    chi, alpha = chromatic_number(g)
    if args.method == "indep2n" and g.crossing_gap[0] >= 1:
        # Only where the lift's first hypothesis holds, read from the verdict the lift reuses (distance 0
        # exactly when two crossings share a vertex); otherwise the lift refuses alpha itself.
        alpha = find_noncollapsing_hom(g, chi) or find_noncollapsing_hom(g, chi + 1) or alpha
    report = _LIFTS[args.method](g, alpha)
    _emit(report.to_json_dict(), args.output)
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.target)
    doc = _read_json(args.map)
    if isinstance(doc, dict) and "map" in doc:
        images = doc["map"]
    elif isinstance(doc, list):
        images = doc
    else:
        raise GraphFormatError("map JSON must be a list or an object with a 'map' key")
    if not (isinstance(images, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in images)):
        raise GraphFormatError("'map' must be a list of target ids")
    if len(images) != g.n or any(not 0 <= i < h.n for i in images):
        raise GraphFormatError("map shape does not match the graphs")
    f = VertexMap(tuple(images), h.n)
    geo_ok = is_geometric_hom(g, h, f)
    graph_ok = geo_ok or is_graph_hom(g, h, f)
    _emit({"graph_hom": graph_ok, "geometric_hom": geo_ok}, args.output)
    return 0 if geo_ok else 1


def _cmd_bound(args) -> int:
    g = _load_graph(args.graph)
    dg = non_identifiable_pairs(g)
    pairs = [
        {"pair": list(p), "rules": sorted(dg.provenance[p])}
        for p in sorted(dg.forced_pairs)
    ]
    _emit({"lower_bound": dg.lower_bound(), "pairs": pairs}, args.output)
    return 0


def _cmd_gen(args) -> int:
    fam = args.family
    if fam == "star":
        g, _ = star_crossing(args.k)
    elif fam == "separation":
        g = separation_family(args.n)
    elif fam == "convex":
        g = convex_clique(args.n)
    elif fam == "random":
        g = random_geometric_graph(
            args.vertices, args.prob, min_crossing_distance=args.min_dist, seed=args.seed
        )
    else:  # argparse admits only the families above and FIGURE_TAGS
        g = figure_graphs(fam)
    _emit(graph_to_json_dict(g), args.output)
    return 0


def _cmd_catalog(args) -> int:
    store = CatalogStore(args.out) if args.out else None  # refuses a path that is not a directory first
    cat = enumerate_clique_structures(args.n)  # always built: the fix for a stale file is this verb
    if store is not None:
        store._persist(cat)
        _emit({"n": cat.n, "entries": len(cat.entries), "path": str(store.path_for(args.n))}, None)
    else:
        _emit(catalog_to_json_dict(cat), None)
    return 0


def _segment_intersection_point(p1, p2, q1, q2) -> tuple[float, float]:
    """Where the lines p1p2 and q1q2 meet, each coordinate the float nearest the exact value.

    The meeting point is p1 + (t / denom) (p2 - p1); both coordinates are
    exact int ratios over denom, and int true division rounds correctly.
    """
    rx, ry = p2.x - p1.x, p2.y - p1.y
    sx, sy = q2.x - q1.x, q2.y - q1.y
    denom = rx * sy - ry * sx
    t = (q1.x - p1.x) * sy - (q1.y - p1.y) * sx
    return ((p1.x * denom + t * rx) / denom, (p1.y * denom + t * ry) / denom)


def render_svg(g: GeometricGraph) -> str:
    """Plain SVG drawing: vertices as labeled circles, crossings marked red."""
    xs = [p.x for p in g.points] or [0]
    ys = [p.y for p in g.points] or [0]
    minx, maxx, miny, maxy = min(xs), max(xs), min(ys), max(ys)
    spanx, spany = max(maxx - minx, 1), max(maxy - miny, 1)
    size, pad = 640, 30
    scale = (size - 2 * pad) / max(spanx, spany)

    def sx(x):
        return pad + (x - minx) * scale

    def sy(y):
        return size - pad - (y - miny) * scale  # flip: svg y grows downward

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for u, v in g.sorted_edges:
        lines.append(
            f'  <line x1="{sx(g.points[u].x):.1f}" y1="{sy(g.points[u].y):.1f}" '
            f'x2="{sx(g.points[v].x):.1f}" y2="{sy(g.points[v].y):.1f}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    for c in g.sorted_crossings:
        (a, b), (cc, d) = c.e1, c.e2
        ix, iy = _segment_intersection_point(
            g.points[a], g.points[b], g.points[cc], g.points[d]
        )
        lines.append(
            f'  <circle cx="{sx(ix):.1f}" cy="{sy(iy):.1f}" r="4" fill="none" '
            'stroke="red" stroke-width="1.5"/>'
        )
    for i, p in enumerate(g.points):
        lines.append(
            f'  <circle cx="{sx(p.x):.1f}" cy="{sy(p.y):.1f}" r="3.5" fill="black"/>'
        )
        lines.append(
            f'  <text x="{sx(p.x) + 6:.1f}" y="{sy(p.y) - 6:.1f}" '
            f'font-family="sans-serif" font-size="12">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_render(args) -> int:
    g = _load_graph(args.graph)
    svg = render_svg(g)
    if args.output:
        Path(args.output).write_text(svg, encoding="utf-8")
    else:
        print(svg, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geochrom",
        description="Exact crossing, coloring and geochromatic computations on geometric graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_output(p):
        p.add_argument("-o", "--output", help="write primary JSON here instead of stdout")
        return p

    p = with_output(sub.add_parser("chi", help="exact chromatic number with witness"))
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_chi)

    p = with_output(sub.add_parser("x", help="exact geochromatic number via catalogs"))
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=MAX_CATALOG_N, dest="max_n")
    p.add_argument("--catalog", default=None,
                   help="directory with k<n>.catalog.json files, each checked in full unless it is "
                        "the shipped catalog, a missing one built there; without it the K3-K7 "
                        "catalogs shipped with the package are read and nothing is built")
    p.add_argument("--no-build", action="store_true",
                   help="fail instead of building catalogs missing from --catalog; refused without --catalog")
    p.set_defaults(fn=_cmd_x)

    p = with_output(sub.add_parser("px", help="exact pseudo-geochromatic number"))
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_px)

    p = with_output(sub.add_parser("lift", help="run a constructive lifting method"))
    p.add_argument("graph")
    p.add_argument("--method", required=True, choices=sorted(_LIFTS))
    p.set_defaults(fn=_cmd_lift)

    p = with_output(sub.add_parser("verify", help="check a vertex map as graph/geometric hom"))
    p.add_argument("graph")
    p.add_argument("target")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_verify)

    bound = sub.add_parser("bound", help="obstruction-based bounds")
    bsub = bound.add_subparsers(dest="kind", required=True)
    p = with_output(bsub.add_parser("lower", help="non-identifiability lower bound for X"))
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_bound)

    p = with_output(sub.add_parser("gen", help="generate a named graph family"))
    p.add_argument("family", choices=("star", "separation", "convex", "random") + FIGURE_TAGS)
    p.add_argument("--k", type=int, default=1, help="crossing count for star")
    p.add_argument("--n", type=int, default=1, help="parameter for separation/convex")
    p.add_argument("--vertices", type=int, default=8)
    p.add_argument("--prob", type=float, default=0.3)
    p.add_argument("--min-dist", type=int, default=0, choices=(0, 1, 2), dest="min_dist")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("catalog", help="enumerate clique crossing structures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="directory to persist k<n>.catalog.json")
    p.set_defaults(fn=_cmd_catalog)

    p = with_output(sub.add_parser("render", help="draw the graph as SVG"))
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NEGATIVE_ERRORS as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 1
    except (GeochromError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Every subcommand takes one path.  Its subparser records a payload function,
which builds a JSON-native payload from the parsed arguments, and a render
function, a pure formatting of that payload; a cached command also records
its cache kind and a key function.  `_dispatch` looks the key up in the
store, computes and stores the payload on a miss, and renders it, so cache
hits and cold runs print byte-identical output.  The parser is built once,
at import.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import DomainError
from .congruence import space_congruences, weight_compatible
from .dims import dim_cusp_forms, dim_new
from .eigensystems import decompose, old_flags, operator_primes, sturm_bound
from .graph import chain_graph, characteristics, mazur_report
from .images import ImageClass, classify_image, is_adequate
from .mlt import EdgeContext, all_verdicts, best_verdict, find_good_dihedral
from .modsym import symbol_space, validate_level_weight
from .planner import connect as planner_connect
from .planner import plan_to_safe_form
from .store import (
    Store,
    checksum_of,
    descriptor_from_dict,
    descriptor_to_dict,
    plan_to_dict,
    resolve_cache_dir,
    verdict_to_dict,
)


def _label_str(label) -> str:
    return f"{label[0]}.{label[1]}.{label[2]}"


def _parse_label(text: str) -> tuple[int, int, int]:
    parts = text.split(".")
    if len(parts) != 3:
        raise DomainError(f"class label {text!r} must look like N.k.index")
    try:
        return int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"class label {text!r} must look like N.k.index") from exc


def _int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers, for argparse."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


# -- space --------------------------------------------------------------------


def _payload_space(args) -> dict:
    sp = symbol_space(args.N, args.k, args.ell)
    return {
        "N": args.N,
        "k": args.k,
        "ell": args.ell,
        "ambient": sp.dim,
        "cuspidal": sp.cuspidal_dim,
        "cusp_forms": dim_cusp_forms(args.N, args.k),
        "new": dim_new(args.N, args.k),
        "cusps": len(sp.cusp_classes),
        "sturm": sturm_bound(args.N, args.k),
    }


def _render_space(p: dict) -> str:
    return "\n".join(
        [
            f"space N={p['N']} k={p['k']} ell={p['ell']}",
            f"ambient dimension {p['ambient']}",
            f"cuspidal dimension {p['cuspidal']}",
            f"cusp forms dimension {p['cusp_forms']}",
            f"new subspace dimension {p['new']}",
            f"cusp count {p['cusps']}",
            f"sturm bound {p['sturm']}",
        ]
    )


# -- orbits -------------------------------------------------------------------


def _payload_orbits(args) -> dict:
    N, k, ell = args.N, args.k, args.ell
    systems = decompose(N, k, ell)
    qs = operator_primes(N, k, ell)
    orbits = []
    for s, old in zip(systems, old_flags(N, k, ell)):
        F = s.field
        orbits.append(
            {
                "label": s.label,
                "degree": s.degree,
                "multiplicity": s.multiplicity,
                "semisimple": s.semisimple,
                "old": old,
                "eigen": {str(q): [int(c) for c in F.decode(s.a(q))] for q in qs},
            }
        )
    return {"N": N, "k": k, "ell": ell, "sturm": sturm_bound(N, k), "orbits": orbits}


def _render_orbits(p: dict) -> str:
    lines = [
        f"orbits N={p['N']} k={p['k']} ell={p['ell']}",
        f"sturm bound {p['sturm']}",
    ]
    for o in p["orbits"]:
        kind = "old" if o["old"] else "new"
        semi = "yes" if o["semisimple"] else "no"
        lines.append(
            f"orbit {o['label']} degree={o['degree']} "
            f"multiplicity={o['multiplicity']} semisimple={semi} {kind}"
        )
        for q in sorted(o["eigen"], key=int):
            lines.append(f"  a[{q}]={json.dumps(o['eigen'][q])}")
    return "\n".join(lines)


# -- congruences --------------------------------------------------------------


def _payload_congruences(args) -> dict:
    N1, k1, N2, k2, lmax = args.N1, args.k1, args.N2, args.k2, args.lmax
    validate_level_weight(N1, k1)
    validate_level_weight(N2, k2)
    checked = []
    skipped = []
    edges = []
    for ell in characteristics(lmax):
        if not weight_compatible(k1, k2, ell):
            skipped.append([ell, f"weights {k1} and {k2} are incompatible at {ell}"])
            continue
        try:
            route, found = space_congruences(N1, k1, N2, k2, ell)
        except DomainError as exc:
            skipped.append([ell, str(exc)])
            continue
        checked.append([ell, route])
        edges.extend(
            {
                "left": e.left,
                "right": e.right,
                "ell": e.ell,
                "bound": e.bound,
                "witnesses": list(e.witnesses),
                "route": route,
            }
            for e in found
        )
    return {
        "N1": N1,
        "k1": k1,
        "N2": N2,
        "k2": k2,
        "lmax": lmax,
        "checked": checked,
        "skipped": skipped,
        "edges": edges,
    }


def _render_congruences(p: dict) -> str:
    lines = [
        f"congruences N1={p['N1']} k1={p['k1']} N2={p['N2']} k2={p['k2']} "
        f"lmax={p['lmax']}"
    ]
    by_ell: dict[int, list] = {ell: [] for ell, _ in p["checked"]}
    for e in p["edges"]:
        by_ell[e["ell"]].append(e)
    for ell, route in p["checked"]:
        if not by_ell[ell]:
            lines.append(f"ell {ell}: none")
        for e in by_ell[ell]:
            ws = ",".join(str(w) for w in e["witnesses"])
            tag = " (integral reduction)" if e["route"] == "reduced" else ""
            lines.append(
                f"ell {ell}: certified {e['left']} ~ {e['right']} "
                f"witnesses {ws} bound {e['bound']}{tag}"
            )
    for ell, reason in p["skipped"]:
        lines.append(f"skipped ell {ell}: {reason}")
    lines.append(f"total certified {len(p['edges'])}")
    return "\n".join(lines)


# -- classify -----------------------------------------------------------------


def _payload_classify(args) -> dict:
    N, k, ell, index = args.N, args.k, args.ell, args.index
    systems = decompose(N, k, ell)
    if index < 0 or index >= len(systems):
        raise DomainError(f"orbit index {index} out of range (have {len(systems)})")
    s = systems[index]
    img = classify_image(s)
    return {
        "N": N,
        "k": k,
        "ell": ell,
        "index": index,
        "label": s.label,
        "kind": img.kind,
        "parameter": img.parameter,
        "adequate": is_adequate(img, ell),
    }


def _render_classify(p: dict) -> str:
    param = "-" if p["parameter"] is None else str(p["parameter"])
    return "\n".join(
        [
            f"classify N={p['N']} k={p['k']} ell={p['ell']} index={p['index']}",
            f"orbit {p['label']} image {p['kind']} parameter {param}",
            f"adequate {'yes' if p['adequate'] else 'no'}",
        ]
    )


# -- mlt-edge -----------------------------------------------------------------


def _payload_mlt_edge(args) -> dict:
    parameter = args.parameter
    image = ImageClass(args.image, parameter)
    ordinary = None
    if args.ordinary is not None:
        ordinary = tuple(v == "true" for v in args.ordinary)
    fl = None if args.fontaine_laffaille is None else args.fontaine_laffaille == "true"
    ctx = EdgeContext(
        ell=args.ell,
        image=image,
        weights=(args.k1, args.k2),
        residually_modular=not args.not_residually_modular,
        ordinary=ordinary,
        good_dihedral=args.good_dihedral,
        fontaine_laffaille=fl,
    )
    verdicts = [verdict_to_dict(v) for v in all_verdicts(ctx)]
    best = best_verdict(ctx)
    return {
        "ell": args.ell,
        "image": args.image,
        "parameter": parameter,
        "weights": [args.k1, args.k2],
        "verdicts": verdicts,
        "best": None if best is None else best.theorem,
    }


def _render_mlt_edge(p: dict) -> str:
    param = "" if p["parameter"] is None else f" parameter {p['parameter']}"
    lines = [
        f"mlt-edge ell={p['ell']} image={p['image']}{param} "
        f"weights=({p['weights'][0]},{p['weights'][1]})"
    ]
    for n, v in enumerate(p["verdicts"], start=1):
        if v is None:
            lines.append(f"MLT{n} not stated for this image")
            continue
        app = "yes" if v["applicable"] else "no"
        assume = "yes" if v["assumption_used"] else "no"
        lines.append(f"MLT{n} applicable={app} assumptions={assume}")
        for name, status in v["conditions"]:
            lines.append(f"  {name}: {status}")
    lines.append("best none" if p["best"] is None else f"best MLT{p['best']}")
    return "\n".join(lines)


# -- graph --------------------------------------------------------------------


def _payload_graph(args) -> dict:
    report = mazur_report(args.N, args.k, characteristics(args.lmax))
    return {
        "N": args.N,
        "k": args.k,
        "lmax": args.lmax,
        "nodes": [_label_str(u) for u in report.nodes],
        "used": list(report.characteristics_used),
        "dropped": [[ell, reason] for ell, reason in report.characteristics_dropped],
        "witnesses": [[ell, list(qs)] for ell, qs in report.witnesses],
        "edges": [[_label_str(u), _label_str(v), ell] for u, v, ell in report.edges],
        "components": [
            [_label_str(u) for u in comp] for comp in report.components
        ],
        "connected": report.connected,
    }


def _render_graph(p: dict) -> str:
    lines = [f"graph N={p['N']} k={p['k']} lmax={p['lmax']}"]
    lines.append("nodes " + (" ".join(p["nodes"]) if p["nodes"] else "none"))
    lines.append("used " + (" ".join(str(e) for e in p["used"]) if p["used"] else "none"))
    for ell, reason in p["dropped"]:
        lines.append(f"dropped {ell}: {reason}")
    if p["edges"]:
        for u, v, ell in p["edges"]:
            lines.append(f"edge {u} ~ {v} ell={ell}")
    else:
        lines.append("edges none")
    for n, comp in enumerate(p["components"], start=1):
        lines.append(f"component {n}: " + " ".join(comp))
    lines.append(f"connected {'yes' if p['connected'] else 'no'}")
    return "\n".join(lines)


# -- chain --------------------------------------------------------------------


def _payload_chain(args) -> dict:
    src = _parse_label(args.src)
    dst = _parse_label(args.dst)
    g = chain_graph(src, dst, args.lmax)
    src_l, dst_l = _label_str(src), _label_str(dst)
    path = g.chain_search(src_l, dst_l, mlt_only=args.mlt_only)
    steps = None
    if path is not None:
        steps = [
            {
                "u": e.u,
                "v": e.v,
                "ell": e.ell,
                "theorem": None if e.verdict is None else e.verdict.theorem,
            }
            for e in path
        ]
    return {
        "src": src_l,
        "dst": dst_l,
        "lmax": args.lmax,
        "mlt_only": args.mlt_only,
        "path": steps,
    }


def _render_chain(p: dict) -> str:
    lines = [
        f"chain from={p['src']} to={p['dst']} lmax={p['lmax']} "
        f"mlt-only={'yes' if p['mlt_only'] else 'no'}"
    ]
    if p["path"] is None:
        lines.append("no chain found")
    else:
        for e in p["path"]:
            mlt = "-" if e["theorem"] is None else f"MLT{e['theorem']}"
            lines.append(f"edge {e['u']} ~ {e['v']} ell={e['ell']} mlt={mlt}")
        lines.append(f"length {len(p['path'])}")
    return "\n".join(lines)


# -- plan / connect -----------------------------------------------------------


def _load_descriptor(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read descriptor file {path}: {exc}") from exc
    # JSONDecodeError and UnicodeDecodeError are both ValueErrors.
    except ValueError as exc:
        raise DomainError(f"descriptor file {path} is not valid JSON: {exc}") from exc
    return descriptor_from_dict(doc)


def _fmt_conductor(conductor: dict) -> str:
    if not conductor:
        return "unramified"
    parts = []
    for q in sorted(conductor, key=int):
        t = conductor[q]
        kind = t["kind"]
        if kind in ("principal-series", "supercuspidal"):
            wild = ",wild" if t["wild"] else ""
            parts.append(f"{q}={kind}(order={t['char_order']}{wild})")
        elif kind == "good-dihedral":
            parts.append(f"{q}=good-dihedral(p={t['p']},bound={t['bound']})")
        else:
            parts.append(f"{q}={kind}")
    return " ".join(parts)


def _fmt_descriptor(d: dict) -> str:
    tags = []
    if d["dihedral"]:
        tags.append(" dihedral")
    if d["twist_conductor"]:
        tags.append(" twists=" + ",".join(str(t) for t in d["twist_conductor"]))
    return f"weight={d['weight']} conductor {_fmt_conductor(d['conductor'])}" + "".join(tags)


def _render_plan_steps(plan: dict, lines: list[str], prefix: str = "") -> None:
    lines.append(f"{prefix}start {_fmt_descriptor(plan['start'])}")
    assumed = 0
    for n, s in enumerate(plan["steps"], start=1):
        v = s["verdict"]
        if v is None:
            tag = "verdict=none"
        else:
            tag = f"verdict=MLT{v['theorem']} assumptions=" + (
                "yes" if v["assumption_used"] else "no"
            )
            assumed += 1 if v["assumption_used"] else 0
        lines.append(f"{prefix}step {n} {s['name']} ell={s['ell']} {tag} | {s['audit']}")
    lines.append(f"{prefix}final {_fmt_descriptor(plan['final'])}")
    lines.append(
        f"{prefix}pair p={plan['pair']['p']} q={plan['pair']['q']} aux {plan['aux']} "
        f"steps {len(plan['steps'])} assumed {assumed}"
    )


def _plan_key(args) -> tuple:
    return checksum_of(descriptor_to_dict(_load_descriptor(args.descriptor))), args.bound


def _payload_plan(args) -> dict:
    return plan_to_dict(plan_to_safe_form(_load_descriptor(args.descriptor), args.bound))


def _render_plan(p: dict) -> str:
    lines = [f"plan bound={p['bound']}"]
    _render_plan_steps(p, lines)
    return "\n".join(lines)


def _payload_connect(args) -> dict:
    d1 = _load_descriptor(args.descriptor1)
    d2 = _load_descriptor(args.descriptor2)
    result = planner_connect(d1, d2, args.bound)
    return {
        "bound": args.bound,
        "pair": {"p": result.pair.p, "q": result.pair.q},
        "aux": result.aux,
        "left": plan_to_dict(result.left),
        "right": plan_to_dict(result.right),
        "final": descriptor_to_dict(result.final),
    }


def _render_connect(p: dict) -> str:
    lines = [f"connect bound={p['bound']}"]
    lines.append("left:")
    _render_plan_steps(p["left"], lines, prefix="  ")
    lines.append("right:")
    _render_plan_steps(p["right"], lines, prefix="  ")
    lines.append(f"shared pair p={p['pair']['p']} q={p['pair']['q']} aux {p['aux']}")
    lines.append(f"final {_fmt_descriptor(p['final'])}")
    return "\n".join(lines)


# -- good-dihedral ------------------------------------------------------------


def _payload_good_dihedral(args) -> dict:
    pair = find_good_dihedral(args.bound, forbidden=args.forbidden)
    return {"p": pair.p, "q": pair.q}


def _render_good_dihedral(p: dict) -> str:
    return f"pair p={p['p']} q={p['q']}"


# -- dispatch -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckechain",
        description="congruence chains between eigensystems at desk scale",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (overrides HECKECHAIN_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, payload, render, ints=(), kind=None, key=None):
        # The subparser records its path through `_dispatch`; `ints` names
        # its leading integer positionals.
        p = sub.add_parser(name, help=help)
        p.set_defaults(payload=payload, render=render, kind=kind, key=key)
        for arg in ints:
            p.add_argument(arg, type=int)
        return p

    command(
        "space", "modular symbol space dimensions", _payload_space, _render_space,
        ("N", "k", "ell"), "space", lambda a: (a.N, a.k, a.ell),
    )
    command(
        "orbits", "eigensystem orbits with eigenvalue tables", _payload_orbits,
        _render_orbits, ("N", "k", "ell"), "orbits", lambda a: (a.N, a.k, a.ell),
    )
    p = command(
        "congruences", "certified congruences between two spaces", _payload_congruences,
        _render_congruences, ("N1", "k1", "N2", "k2"), "edges",
        lambda a: (a.N1, a.k1, a.N2, a.k2, a.lmax),
    )
    p.add_argument("--lmax", type=int, required=True)
    command(
        "classify", "residual image classification of one orbit", _payload_classify,
        _render_classify, ("N", "k", "ell", "index"),
    )

    p = command(
        "mlt-edge", "lifting-theorem verdicts for an edge context", _payload_mlt_edge,
        _render_mlt_edge, ("ell",),
    )
    p.add_argument("image", choices=["Reducible", "Dihedral", "Exceptional", "Large"])
    p.add_argument("k1", type=int)
    p.add_argument("k2", type=int)
    p.add_argument("--parameter", type=int, default=None)
    p.add_argument("--good-dihedral", action="store_true")
    p.add_argument("--ordinary", nargs=2, choices=["true", "false"], default=None)
    p.add_argument("--not-residually-modular", action="store_true")
    p.add_argument("--fontaine-laffaille", choices=["true", "false"], default=None)

    p = command(
        "graph", "connectedness report at one level", _payload_graph, _render_graph,
        ("N", "k"), "report", lambda a: (a.N, a.k, a.lmax),
    )
    p.add_argument("--lmax", type=int, required=True)

    p = command(
        "chain", "shortest congruence chain between two classes", _payload_chain,
        _render_chain,
    )
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--mlt-only", action="store_true")

    p = command(
        "plan", "rewrite a descriptor to the safe form", _payload_plan, _render_plan,
        kind="plan", key=_plan_key,
    )
    p.add_argument("descriptor")
    p.add_argument("--bound", type=int, required=True)

    p = command(
        "connect", "plan two descriptors to one safe form", _payload_connect,
        _render_connect,
    )
    p.add_argument("descriptor1")
    p.add_argument("descriptor2")
    p.add_argument("--bound", type=int, required=True)

    p = command(
        "good-dihedral", "smallest protecting prime pair", _payload_good_dihedral,
        _render_good_dihedral,
    )
    p.add_argument("--bound", type=int, required=True)
    p.add_argument(
        "--forbidden", type=_int_list, default="", help="comma-separated primes to avoid"
    )

    return parser


_PARSER = _build_parser()


def _dispatch(args, store: Store) -> str:
    if args.kind is None:
        return args.render(args.payload(args))
    key = args.key(args)
    payload = store.get(args.kind, *key)
    if payload is None:
        payload = args.payload(args)
        store.put(args.kind, payload, *key)
        return args.render(payload)
    # A stored payload passed its checksum, but nothing checked its shape.
    try:
        return args.render(payload)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        path = store.path(args.kind, key)
        raise DomainError(f"cache entry {path} does not match the {args.kind} payload") from exc


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        output = _dispatch(args, Store(resolve_cache_dir(args.cache_dir)))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # The reader is gone; the flush at exit would raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

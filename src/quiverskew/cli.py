"""Command-line surface.

Exit codes: 0 success/PASS, 1 domain failure (validation or FAIL),
2 usage or parse error.  All output is deterministic byte-for-byte.
"""

import argparse
import json
import sys

from . import io as qio
from .group import GroupError
from .quiver import QuiverError, validate_quiver
from .skew import (
    Section,
    SkewError,
    gross_tucker_reconstruct,
    quotient_quiver,
    skew_product,
)

# cstar, verify and randgen are imported by the commands that use them, so that
# the other commands start without compiling them.


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSON syntax, bytes that are not UTF-8 and
        # integers with more digits than int() accepts.
        raise qio.ParseError(f"{path}: {exc}") from None


def _write_out(text, out):
    """Write ``text`` to the file ``out``, or to stdout; return the exit code."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _load_quiver(path):
    return qio.parse_quiver_document(_load_json(path))


def cmd_validate(args):
    q = _load_quiver(args.quiver)
    report = validate_quiver(q)
    if report:
        for line in report:
            print(line)
        return 1
    print("ok")
    return 0


def _validated_quiver(path):
    q = _load_quiver(path)
    report = validate_quiver(q)
    if report:
        raise QuiverError("; ".join(report))
    return q


def cmd_skew(args):
    q = _validated_quiver(args.quiver)
    kappa = qio.parse_cocycle_document(_load_json(args.cocycle), q)
    product = skew_product(q, kappa)
    return _write_out(qio.dumps(qio.emit_quiver_document(product)), args.out)


def cmd_quotient(args):
    q = _validated_quiver(args.quiver)
    a = qio.parse_action_document(_load_json(args.action), q)
    quot, proj = quotient_quiver(q, a)
    doc = {
        "quotient": qio.emit_quiver_document(quot),
        "projection": {"vmap": proj.vmap, "emap": proj.emap},
    }
    return _write_out(qio.dumps(doc), args.out)


def cmd_reconstruct(args):
    q = _validated_quiver(args.quiver)
    a = qio.parse_action_document(_load_json(args.action), q)
    section = None
    if args.section:
        raw = _load_json(args.section)
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
        ):
            raise qio.ParseError("section document must map orbit ids to vertex ids")
        section = Section(raw)
    witness = gross_tucker_reconstruct(q, a, section)
    doc = {
        "quotient": qio.emit_quiver_document(witness.quotient),
        "cocycle": witness.cocycle.map,
        "phi": witness.phi,
        "sigma": witness.sigma,
    }
    return _write_out(qio.dumps(doc), args.out)


def cmd_invariants(args):
    from .cstar import (acyclic_block_structure, graded_dimensions, is_acyclic, k_theory,
                        regular_vertices, vertex_matrix)

    q = _validated_quiver(args.quiver)
    kappa = None
    if args.cocycle:
        kappa = qio.parse_cocycle_document(_load_json(args.cocycle), q)
    kt = k_theory(q)
    doc = {
        "regular_vertices": regular_vertices(q),
        "vertex_matrix": vertex_matrix(q),
        "k_theory": {
            "k0_invariant_factors": kt.k0_invariant_factors,
            "k0_free_rank": kt.k0_free_rank,
            "k1_rank": kt.k1_rank,
        },
        "acyclic": is_acyclic(q),
    }
    if doc["acyclic"]:
        doc["block_structure"] = acyclic_block_structure(q).blocks
        if kappa is not None:
            doc["graded_dimensions"] = graded_dimensions(q, kappa)
    return _write_out(qio.dumps(doc), args.out)


def _random_cases(n, seed):
    """N seeded random (label, quiver, cocycle) cases."""
    import random
    from .randgen import random_cocycle, random_group, random_quiver

    rng = random.Random(seed)
    for i in range(n):
        q = random_quiver(rng)
        yield f"case{i:03d} ", q, random_cocycle(rng, q, random_group(rng))


def cmd_verify(args):
    from .verify import run_suite

    if args.budget < 1:
        raise qio.ParseError("--budget must be at least 1")
    if args.random is not None:
        if args.random < 1:
            raise qio.ParseError("--random must be at least 1")
        if args.quiver or args.cocycle:
            raise qio.ParseError("--random takes no quiver or cocycle")
        cases = _random_cases(args.random, 0 if args.seed is None else args.seed)
    elif args.seed is not None:
        raise qio.ParseError("--seed requires --random")
    elif not args.quiver or not args.cocycle:
        raise qio.ParseError("verify requires a quiver and a cocycle (or --random N)")
    else:
        q = _validated_quiver(args.quiver)
        cases = [("", q, qio.parse_cocycle_document(_load_json(args.cocycle), q))]
    failures = 0
    for label, q, kappa in cases:
        results = run_suite(
            q, kappa, section_budget=args.budget, inject_fault=args.inject_fault
        )
        for name, ok, detail in results:
            tag = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"{tag} {label}{name}{suffix}")
            failures += not ok
    return 1 if failures else 0


def cmd_export_dot(args):
    q = _validated_quiver(args.quiver)
    return _write_out(qio.export_dot(q), args.out)


def build_parser():
    p = argparse.ArgumentParser(
        prog="quiverskew",
        description="Skew products, quotients, and algebra invariants of finite weighted quivers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a quiver document")
    sp.add_argument("quiver")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("skew", help="compute a skew product")
    sp.add_argument("quiver")
    sp.add_argument("cocycle")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_skew)

    sp = sub.add_parser("quotient", help="quotient by a free action")
    sp.add_argument("quiver")
    sp.add_argument("action")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_quotient)

    sp = sub.add_parser("reconstruct", help="Gross-Tucker reconstruction from a free action")
    sp.add_argument("quiver")
    sp.add_argument("action")
    sp.add_argument("--section")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_reconstruct)

    sp = sub.add_parser("invariants", help="algebra invariants of a quiver")
    sp.add_argument("quiver")
    sp.add_argument("--cocycle")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("verify", help="run the full theorem suite")
    sp.add_argument("quiver", nargs="?")
    sp.add_argument("cocycle", nargs="?")
    sp.add_argument("--budget", type=int, default=24,
                    help="max sections tried in the reconstruction roundtrip")
    sp.add_argument("--random", type=int, metavar="N",
                    help="verify N seeded random fixtures instead of files")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--inject-fault", action="store_true",
                    help="mutate one skew-product weight to exercise FAIL paths")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("export-dot", help="export a quiver as Graphviz DOT")
    sp.add_argument("quiver")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_export_dot)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except qio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (QuiverError, GroupError, SkewError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

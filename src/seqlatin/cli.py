"""Command-line surface over the classification, pipelines, and oracle.

All machine output is a single JSON document on stdout (schema "1",
sorted keys, compact separators) so identical invocations produce
byte-identical bytes; human summaries go to stderr.  Exit codes: 0
success, 1 negative mathematical result, 2 usage or scale error, 3
internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .errors import (
    ConstructionFailed,
    DeskScaleExceeded,
    GroupFormatError,
    SeqLatinError,
    ShapeMismatch,
)
from .graceful import graceful_with_first, walecki_graceful
from .groups import (
    AbelianSpec,
    SdSpec,
    _int,
    group_from_descriptor,
    group_to_descriptor,
)
from .latin import completeness_report, is_directed_terrace, sequencing_square
from .numtheory import classify_order
from .oracle import exhaustive_sequencings
from .pipelines import (
    NoGroupBasedCLS,
    TrivialOrder,
    sequence_cyclic,
    sequence_non3,
    sequence_order,
    sequence_theorem3,
)

SCHEMA = "1"
VERIFY_SQUARE_LIMIT = 512


def _parse_b(text: Optional[str]) -> Optional[AbelianSpec]:
    if not text:
        return None
    return AbelianSpec(tuple(int(tok) for tok in text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="seqlatin",
        description="Sequencings of finite groups and complete Latin squares.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sequenceability verdict for one order")
    p.add_argument("order", type=int)

    def group_flags(p):
        p.add_argument("--order", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--b", type=str, help="cofactor as comma-separated cyclic orders")
        p.add_argument("--nine", action="store_true")
        # None, not 0, so that an explicit --seed the route ignores is refused
        p.add_argument("--seed", type=int)

    p = sub.add_parser("sequence", help="construct a sequencing certificate")
    group_flags(p)
    p.add_argument("--out", type=str)
    p.add_argument("--format", choices=["json"], default="json")

    p = sub.add_parser("latin", help="construct a complete Latin square")
    group_flags(p)
    p.add_argument("--out", type=str)
    p.add_argument("--format", choices=["json", "csv"])

    p = sub.add_parser("verify", help="re-check an emitted certificate file")
    p.add_argument("certificate", type=str, help="path to JSON, or - for stdin")

    p = sub.add_parser("graceful", help="graceful permutation of 1..k")
    p.add_argument("k", type=int)
    p.add_argument("first", type=int, nargs="?")

    p = sub.add_parser("search", help="brute-force terraces of a descriptor group")
    p.add_argument("--group", type=str, required=True, help="group descriptor JSON file")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--limit", type=int)
    p.add_argument("--jobs", type=int, default=1)
    return top


def _emit(doc, args, human: str) -> None:
    if isinstance(doc, str):
        text = doc
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"{human} -> {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
        print(human, file=sys.stderr)


def _refuse_ignored_flags(args) -> None:
    """GroupFormatError naming a group flag that the chosen route ignores."""
    given = [f for f in ("q", "m", "p", "k", "b", "seed") if getattr(args, f) is not None]
    given += ["nine"] if args.nine else []
    for applies, flags, why in (
        (args.order is not None, ("q", "m", "p", "k", "b", "nine"), "with --order"),
        (args.p is not None, ("m",), "with --p"),
        (args.k is not None, ("nine",), "with --k"),
        (args.p is None, ("k", "b", "nine"), "without --p"),
        (args.m is not None, ("seed",), "with --m"),
    ):
        ignored = [f for f in flags if f in given]
        if applies and ignored:
            raise GroupFormatError(f"--{ignored[0]} is ignored {why}")


def _pick_group(args):
    """Run the pipeline selected by the flag combination."""
    _refuse_ignored_flags(args)
    seed = args.seed or 0
    if args.order is not None:
        return sequence_order(args.order, seed=seed)
    if args.p is not None:
        if args.q is None:
            raise GroupFormatError("--p needs --q")
        b = _parse_b(args.b)
        if args.k is not None:
            return sequence_non3(args.p, args.k, args.q, b, seed=seed)
        return sequence_theorem3(args.p, args.q, b, nine=args.nine, seed=seed)
    if args.q is not None and args.m is not None:
        return sequence_cyclic(args.q, args.m)
    raise GroupFormatError("give --order, or --q with --m, or --p with --q")


def cmd_classify(args) -> int:
    cls = classify_order(args.order)
    doc = {"schema": SCHEMA, "command": "classify", "order": args.order}
    doc.update(cls.to_json())
    _emit(doc, args, f"order {args.order}: {cls.verdict}")
    return 0


def cmd_sequence(args) -> int:
    result = _pick_group(args)
    if isinstance(result, TrivialOrder):
        doc = {"schema": SCHEMA, "command": "sequence", "order": 1, "trivial": True}
        _emit(doc, args, "order 1: trivial group, empty sequencing")
        return 0
    if isinstance(result, NoGroupBasedCLS):
        doc = {
            "schema": SCHEMA,
            "command": "sequence",
            "order": result.order,
            "sequenceable": False,
            "verdict": result.verdict,
        }
        _emit(doc, args, f"order {result.order}: no sequenceable group ({result.verdict})")
        return 1
    doc = {
        "schema": SCHEMA,
        "command": "sequence",
        "certificate": result.to_json(),
    }
    pipe = result.provenance.get("pipeline", "?")
    _emit(doc, args, f"order {result.group.order}: sequenced via {pipe} pipeline")
    return 0


def cmd_latin(args) -> int:
    result = _pick_group(args)
    if isinstance(result, TrivialOrder):
        grid = [[0]]
        cert = None
        n = 1
    elif isinstance(result, NoGroupBasedCLS):
        doc = {
            "schema": SCHEMA,
            "command": "latin",
            "order": result.order,
            "sequenceable": False,
            "verdict": result.verdict,
        }
        _emit(doc, args, f"order {result.order}: no group-based complete square")
        return 1
    else:
        cert = result
        square = sequencing_square(cert.group, cert.quotients)
        grid = [list(row) for row in square.grid]
        n = square.n
    fmt = args.format
    if fmt is None:
        fmt = "csv" if args.out and args.out.endswith(".csv") else "json"
    if fmt == "csv":
        text = "\n".join(",".join(str(v) for v in row) for row in grid) + "\n"
        _emit(text, args, f"{n} x {n} complete square (csv)")
        return 0
    doc = {"schema": SCHEMA, "command": "latin", "n": n, "grid": grid}
    if cert is not None:
        doc["group"] = group_to_descriptor(cert.group)
    _emit(doc, args, f"{n} x {n} complete square")
    return 0


def _decode_entries(group, rows):
    if not isinstance(rows, list):
        raise GroupFormatError("terrace and sequencing must be lists")
    if isinstance(group, (SdSpec, AbelianSpec)) and not all(isinstance(r, list) for r in rows):
        raise GroupFormatError("each group element must be a list of integers")
    what = "group element coordinate"
    try:
        if isinstance(group, SdSpec):
            return [(_int(r[0], what), tuple(_int(x, what) for x in r[1:])) for r in rows]
        if isinstance(group, AbelianSpec):
            return [tuple(_int(x, what) for x in r) for r in rows]
        return [_int(r[0] if isinstance(r, list) else r, what) for r in rows]
    except IndexError:
        raise GroupFormatError("malformed group element: empty list") from None


def cmd_verify(args) -> int:
    if args.certificate == "-":
        raw = sys.stdin.read()
    else:
        with open(args.certificate) as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        print(f"not JSON: {exc}", file=sys.stderr)
        return 2
    cert = doc.get("certificate", doc) if isinstance(doc, dict) else None
    if not isinstance(cert, dict):
        print("certificate must be a JSON object", file=sys.stderr)
        return 2
    for key in ("group", "terrace", "sequencing"):
        if key not in cert:
            print(f"certificate lacks {key!r}", file=sys.stderr)
            return 2
    group = group_from_descriptor(cert["group"])
    terrace = _decode_entries(group, cert["terrace"])
    claimed = _decode_entries(group, cert["sequencing"])
    # a terrace lists each element once, so a wrong length is answered
    # without enumerating a group whose declared order may be huge
    try:
        idx = group.indices(terrace) if len(terrace) == group.order else None
    except ShapeMismatch:  # an element of the wrong length: not a terrace
        idx = None
    ok, quots = (False, []) if idx is None else is_directed_terrace(group, idx)
    try:
        seq_ok = ok and group.indices(claimed) == quots
    except ShapeMismatch:
        seq_ok = False
    checks = {"terrace": ok, "sequencing": seq_ok}
    if ok and group.order <= VERIFY_SQUARE_LIMIT:
        square = sequencing_square(group, quots)
        checks["complete_square"] = completeness_report(square).is_complete
    valid = all(checks.values())
    out = {
        "schema": SCHEMA,
        "command": "verify",
        "valid": valid,
        "checks": checks,
        "order": group.order,
    }
    _emit(out, args, f"certificate {'valid' if valid else 'INVALID'}: {checks}")
    return 0 if valid else 1


def cmd_graceful(args) -> int:
    if args.first is None:
        perm = walecki_graceful(args.k)
        how = "zigzag"
    else:
        perm = graceful_with_first(args.k, args.first)
        how = "prescribed-first"
    doc = {
        "schema": SCHEMA,
        "command": "graceful",
        "k": args.k,
        "construction": how,
        "permutation": list(perm),
    }
    _emit(doc, args, f"graceful permutation of 1..{args.k} ({how})")
    return 0


def cmd_search(args) -> int:
    with open(args.group) as fh:
        try:
            descriptor = json.load(fh)
        except RecursionError as exc:  # nested past the stack: as for non-JSON
            print(f"error: {exc}", file=sys.stderr)
            return 2
    group = group_from_descriptor(descriptor)
    limit = 1 if args.limit is None and not args.exhaustive else args.limit
    res = exhaustive_sequencings(group, limit=limit, jobs=args.jobs)
    doc = {"schema": SCHEMA, "command": "search", "order": group.order}
    doc.update(res.to_json())
    _emit(
        doc,
        args,
        f"order {group.order}: {res.count} identity-anchored terrace(s)"
        f"{' (exhaustive)' if res.exhausted else ''}",
    )
    return 0 if res.count > 0 else 1


COMMANDS = {
    "classify": cmd_classify,
    "sequence": cmd_sequence,
    "latin": cmd_latin,
    "verify": cmd_verify,
    "graceful": cmd_graceful,
    "search": cmd_search,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (GroupFormatError, DeskScaleExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionFailed as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3
    except SeqLatinError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

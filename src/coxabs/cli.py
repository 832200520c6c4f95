"""Command line surface: build, length, interval, lattice, classify,
verify.

Types are named labels (A3, B4, D6, E8, F4, H3, H4, I2(m), G2) or paths
to a Coxeter matrix file whose first token is the rank followed by the
rank-squared matrix entries.  Elements are given as comma-separated
generator words via --word (s1,s2,... or bare 1-based numbers; s and t
work for rank 2) or as --w0 for the longest element.  Exit codes: 0 on
success, 1 when verification fails, 2 on usage errors, a path that
cannot be read or written among them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .absorder import (
    interval_of_involution,
    is_lattice_bruteforce,
    poset_to_dot,
    poset_to_json,
)
from .classify import (
    dihedral_involution_class_table,
    involution_class_table,
    lattice_verdicts,
)
from .dihedral import Dihedral
from .element import Element, from_word, longest_element
from .oracles import DYER_MAX_WORD, dyer_reflection_length
from .parabolic import Parabolic
from .rootsystem import (
    CoxeterError,
    CoxeterMatrix,
    RootSystem,
    TypeLabel,
    format_type_multiset,
    parse_label,
)
from .verify import report_to_dict, run_all


class UsageError(Exception):
    pass


def _resolve_label(text: str) -> TypeLabel | None:
    try:
        return parse_label(text)
    except ValueError:
        return None


def _symbolic_bond(text: str) -> int | None:
    """Bond of an I2(m) label outside the geometric range, else None."""
    label = _resolve_label(text)
    if label is not None and label.family == "I" and label.bond > 6:
        return label.bond
    return None


def _load_system(text: str) -> RootSystem:
    label = _resolve_label(text)
    if label is not None:
        return RootSystem.named(label)
    if os.path.exists(text):
        with open(text) as handle:
            try:
                matrix = CoxeterMatrix.from_text(handle.read())
            except ValueError as exc:
                raise UsageError(f"bad matrix file {text!r}: {exc}") from exc
        return RootSystem(matrix)
    raise UsageError(f"unknown type or missing matrix file: {text!r}")


def _parse_word(text: str, rank: int) -> list[int]:
    word = []
    for token in text.replace(" ", "").split(","):
        if not token:
            continue
        if rank == 2 and token in ("s", "t"):
            word.append(0 if token == "s" else 1)
            continue
        digits = token[1:] if token.startswith("s") else token
        if not digits.isdigit():
            raise UsageError(f"malformed word token {token!r}")
        k = int(digits)
        if not 1 <= k <= rank:
            raise UsageError(f"generator {token!r} out of range 1..{rank}")
        word.append(k - 1)
    if not word:
        raise UsageError("empty word")
    return word


def _word_from_args(args, rank: int) -> list[int] | None:
    """The generator word of --word, or None for --w0."""
    if args.w0:
        return None
    if args.word is None:
        raise UsageError("need --word or --w0")
    return _parse_word(args.word, rank)


def _element_from_args(args) -> Element:
    """The element named by --word or --w0 in a geometric type."""
    if _symbolic_bond(args.type) is not None:
        raise UsageError(
            "bond labels above 6 are symbolic-only; "
            f"{args.command} needs a geometric type"
        )
    system = _load_system(args.type)
    word = _word_from_args(args, system.rank)
    return longest_element(system) if word is None else from_word(system, word)


def _cmd_build(args) -> int:
    bond = _symbolic_bond(args.type)
    if bond is not None:
        # closed forms: m reflections, order 2m, w0 = -Id exactly for even m
        print(f"type: I2({bond}) (symbolic)")
        print("rank: 2")
        print(f"reflections: {bond}")
        print(f"group order: {2 * bond}")
        print(f"w0 acts as -Id: {'yes' if bond % 2 == 0 else 'no'}")
        return 0
    system = _load_system(args.type)
    full = Parabolic(system, (1 << system.n_pos) - 1)
    name = system.describe()
    if system.label is None:
        name = " x ".join(str(t) for t in full.type_labels)
    print(f"type: {name}")
    print(f"rank: {system.rank}")
    print(f"positive roots: {system.n_pos}")
    print(f"group order: {full.group_order}")
    print(f"w0 acts as -Id: {'yes' if full.is_involutive else 'no'}")
    return 0


def _cmd_length(args) -> int:
    element = _element_from_args(args)
    carter = element.reflection_length()
    reduced = element.reduced_word()
    print(f"l_S = {len(reduced)}")
    print(f"l_T (fixed-space rank) = {carter}")
    if len(reduced) > DYER_MAX_WORD:
        print(f"l_T (deletion oracle) = skipped (word cap {DYER_MAX_WORD})")
    else:
        oracle = dyer_reflection_length(element.system, reduced)
        verdict = "agrees" if oracle == carter else "DISAGREES"
        print(f"l_T (deletion oracle) = {oracle}, {verdict}")
        return 0 if oracle == carter else 1
    return 0


def _cmd_interval(args) -> int:
    element = _element_from_args(args)
    if not element.is_involution:
        raise UsageError("interval requires an involution word")
    poset = interval_of_involution(element)
    lattice_ok, witness = is_lattice_bruteforce(poset)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(poset_to_dot(poset) + "\n")
    print(poset_to_json(poset, lattice_ok, witness))
    return 0


def _cmd_lattice(args) -> int:
    bond = _symbolic_bond(args.type)
    witness = ""
    if bond is not None:
        group = Dihedral(bond)
        word = _word_from_args(args, 2)
        u = group.longest_element() if word is None else group.from_word(word)
        if not group.is_involution(u):
            raise UsageError("lattice requires an involution word")
        verdicts = group.verdicts(u)
    else:
        element = _element_from_args(args)
        if not element.is_involution:
            raise UsageError("lattice requires an involution word")
        verdicts, failure = lattice_verdicts(element)
        if failure is not None:
            inter = format_type_multiset(failure.intersection.type_labels)
            witness = f"; witness: P1 ∩ P2 of type {inter}"
    brute, structural, classified = verdicts
    agree = brute == structural == classified
    print("LATTICE" if all(verdicts) else f"NOT A LATTICE{witness}")
    print(
        f"brute={brute} structural={structural} "
        f"classification={classified} agree={agree}"
    )
    return 0 if agree else 1


def _cmd_classify(args) -> int:
    bond = _symbolic_bond(args.type)
    if bond is not None:
        rows = dihedral_involution_class_table(bond)
    else:
        rows = involution_class_table(_load_system(args.type))
    header = (
        "t-word",
        "size",
        "l_T",
        "closure",
        "brute",
        "structural",
        "classification",
    )
    table = [header]
    for row in rows:
        word = "e" if not row["t_word"] else "*".join(
            f"t{t}" for t in row["t_word"]
        )
        table.append(
            (
                word,
                str(row["class_size"]),
                str(row["reflection_length"]),
                row["closure_type"],
                str(row["is_lattice_bruteforce"]),
                str(row["is_lattice_structural"]),
                str(row["is_lattice_by_classification"]),
            )
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    if args.json:
        payload = {
            "type": args.type,
            "classes": [
                {**row, "t_word": list(row["t_word"])} for row in rows
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 0 if all(len(set(r[4:])) == 1 for r in table[1:]) else 1  # verdicts agree


def _cmd_verify(args) -> int:
    results = run_all(deep=args.deep, only=args.only)
    if not results:
        raise UsageError(f"no check matches {args.only!r}")
    for result in results:
        print(result.summary())
        for line in result.lines:
            print(f"    {line}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report_to_dict(results), handle, indent=2)
            handle.write("\n")
    passed = all(r.passed for r in results)
    print("ALL CHECKS PASSED" if passed else "CHECKS FAILED")
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxabs",
        description=(
            "absolute order, parabolic closures, and interval lattice "
            "tests on finite Coxeter groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="root system summary")
    p_build.add_argument("type", help="named type or matrix file")
    p_build.set_defaults(handler=_cmd_build)

    def with_element(p):
        p.add_argument("type", help="named type or matrix file")
        p.add_argument("--word", help="comma-separated generator word")
        p.add_argument(
            "--w0", action="store_true", help="use the longest element"
        )

    p_length = sub.add_parser("length", help="both word lengths")
    with_element(p_length)
    p_length.set_defaults(handler=_cmd_length)

    p_interval = sub.add_parser(
        "interval", help="JSON interval poset below an involution"
    )
    with_element(p_interval)
    p_interval.add_argument("--dot", help="also write a DOT Hasse diagram")
    p_interval.set_defaults(handler=_cmd_interval)

    p_lattice = sub.add_parser(
        "lattice", help="lattice verdicts for an interval"
    )
    with_element(p_lattice)
    p_lattice.set_defaults(handler=_cmd_lattice)

    p_classify = sub.add_parser(
        "classify", help="involution class table for a type"
    )
    p_classify.add_argument("type", help="named type or matrix file")
    p_classify.add_argument("--json", help="also write the table as JSON")
    p_classify.set_defaults(handler=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run the full check suite")
    p_verify.add_argument(
        "--deep",
        action="store_true",
        help="include the E6 exhaustion and the full H4 checks",
    )
    p_verify.add_argument("--json", help="also write a JSON report")
    p_verify.add_argument(
        "--only", help="run only checks whose name contains this text"
    )
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, CoxeterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands run one computation per process and emit deterministic output:
identical inputs produce byte-identical bytes.  Exit codes: 0 success,
1 usage/parse error or unwritable --out path (UsageError), 2 capability
bound hit, 3 verification mismatch, a failed internal cross-check or any
other ValueError from the library.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Sequence

from . import __version__, layers, oracle, verify
from .errors import CapabilityError, UsageError, require_work
from .rootsys import TypeSymbol, build, format_type, parse_type, type_invariants

# Each command: its help line, its output formats, and whether it takes --poset-rank.
_COMMANDS = {
    "points": ("count the points of the arrangement and their orbit table", ("json", "text"), False),
    "layers": ("per-dimension layer counts", ("json", "text"), False),
    "census": ("full layer census with tangent types", ("json", "text", "csv"), False),
    "poincare": ("Poincare polynomial of the complement", ("json", "text"), False),
    "euler": ("Euler characteristic, both routes", ("json", "text"), False),
    "identity": ("the degree identity check", ("json", "text"), False),
    "poset": ("explicit layer poset", ("json", "text", "dot"), True),
    "verify": ("run the oracle-vs-formula suite", ("json", "text"), True),
}
_FORMAT_CHOICES = ("json", "csv", "dot", "text")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPABILITY = 2
EXIT_MISMATCH = 3


def _num(x: int) -> str:
    """Counts are serialized as decimal strings; they can exceed 2^53."""
    return str(x)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _poly_json(p: layers.IntPolynomial) -> dict:
    return {"coefficients": [_num(c) for c in p.coeffs], "display": str(p)}


# -- argument parsing -----------------------------------------------------------
# A long option matches exactly or by a unique prefix and takes its value from the next
# token or after "="; the last repeat wins.  No token after the first "--" is an option.


def _option(token: str, names: tuple[str, ...]) -> Optional[tuple[str, Optional[str]]]:
    """None for a value, else (option, its text after "=" or None); option "" is unknown."""
    if token[:1] != "-" or token == "-":
        return None
    flag, value = token.split("=", 1) if "=" in token else (token, None)
    if flag not in names and token[1] == "-":
        flag = next((name for name in names if len(flag) > 2 and name.startswith(flag)), "")
    elif flag not in names:  # a short option takes the rest of its token as its value
        flag, value = (token[:2], token[2:]) if token[:2] in names else ("", None)
    return None if not flag and (" " in token or re.match(r"^-\d+$|^-\d*\.\d+$", token)) else (flag, value)


def _help(option: str, value: Optional[str], command: Optional[str]) -> None:
    """Print the version, or the help of `command` or of the program."""
    rest = value.lstrip("h") if value and option == "-h" else value  # -hh is -h -h
    if rest is not None and (rest or not value):
        name = "--version" if option == "--version" else "-h/--help"
        raise UsageError(f"argument {name}: ignored explicit argument {rest!r}")
    if option == "--version":
        text = __version__
    elif command is None:
        text = "usage: toricarr [-h] [--version] COMMAND --type TYPE [options]\n\ncommands:"
        text += "".join(f"\n  {name:10}{entry[0]}" for name, entry in _COMMANDS.items())
    else:
        line, formats, takes_rank = _COMMANDS[command]
        text = f"usage: toricarr {command} [-h] --type TYPE [--format {{{','.join(formats)}}}] [--out PATH]"
        text += " [--poset-rank N]" * takes_rank + f"\n\n{line}; TYPE is a root system such as F4 or A3xA1"
    sys.stdout.write(text + "\n")


def _parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command and its options, or None once the help or the version is printed."""
    args = SimpleNamespace(command=None, type=None, format="text", out=None)
    args.poset_rank = oracle.DEFAULT_POSET_RANK
    names, extras, k = ("-h", "--help", "--version"), [], 0
    for token in argv[: argv.index("--") if "--" in argv else None]:
        if token.startswith("--="):  # an empty prefix names every long option at once
            raise UsageError(f"ambiguous option: {token} could match --help, --version")
    while k < len(argv):
        token, k = argv[k], k + 1
        opt = _option(token, names)
        # Before the command, a "--" that is not the last token is read as the command.
        if args.command is None and (opt is None or (token == "--" and k < len(argv))):
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise UsageError(f"argument command: invalid choice: {token!r} (choose from {choices})")
            args.command = token
            names = ("-h", "--help", "--type", "--format", "--out") + ("--poset-rank",) * _COMMANDS[token][2]
        elif not (opt and opt[0]):
            extras.append(token)
            names = () if token == "--" else names
        elif opt[0] in ("-h", "--help", "--version"):
            return _help(*opt, args.command)
        else:
            option, value = opt
            if value is None:
                if k == len(argv) or _option(argv[k], names) is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                value, k = argv[k], k + 1
            if option == "--format" and value not in _FORMAT_CHOICES:
                choices = ", ".join(map(repr, _FORMAT_CHOICES))
                raise UsageError(f"argument --format: invalid choice: {value!r} (choose from {choices})")
            if option == "--poset-rank":
                try:
                    rank = int(value)
                except ValueError:
                    rank = 0
                if rank < 1:
                    raise UsageError(
                        f"argument --poset-rank: capability bounds must be positive integers, not {value!r}"
                    )
                value = rank
            setattr(args, option[2:].replace("-", "_"), value)
    if args.command is None or args.type is None:
        raise UsageError(f"the following arguments are required: {'--type' if args.command else 'command'}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    if args.format not in _COMMANDS[args.command][1]:
        raise UsageError(f"format {args.format!r} is not available for {args.command!r}")
    return args


def _json_payload(factors: tuple[TypeSymbol, ...], command: str, results: dict) -> str:
    doc = {
        "type": format_type(factors),
        "rank": _rank(factors),
        "command": command,
        "tool_version": __version__,
        "results": results,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- command handlers ---------------------------------------------------------
# Each takes the parsed factors; only those that read roots close the root system.


def _rank(factors: tuple[TypeSymbol, ...]) -> int:
    return sum(sym.rank for sym in factors)


def _cmd_points(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str]]:
    total = layers.count_points(factors)
    factors_out = []
    lines = [f"type {format_type(factors)}: {total} points"]
    for sym in factors:
        records = layers.point_orbits(sym)
        factor_total = layers.count_points((sym,))
        rows = []
        for r in records:
            rows.append(
                {
                    "vertex": r.vertex,
                    "orbit_size": _num(r.orbit_size),
                    "point_type": format_type(r.point_type),
                    "stabilizer_order": _num(r.stabilizer_order),
                    "aut_stabilizer_order": _num(r.aut_stabilizer_order),
                    "aut_orbit": r.aut_orbit,
                }
            )
        factors_out.append({"factor": str(sym), "total": _num(factor_total), "orbits": rows})
        lines.append(f"factor {sym}: {factor_total} points")
        for r in records:
            lines.append(
                f"  vertex {r.vertex}: orbit {r.orbit_size}, type {format_type(r.point_type)}, "
                f"|W_p| {r.stabilizer_order}, |Stab_Aut| {r.aut_stabilizer_order}, Q-orbit {r.aut_orbit}"
            )
    return {"total": _num(total), "factors": factors_out}, lines


def _cmd_layers(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str]]:
    rs = build(factors)
    counts = [layers.count_layers(rs, d) for d in range(rs.rank + 1)]
    lines = [f"type {format_type(factors)}: layers by dimension"]
    for d, c in enumerate(counts):
        lines.append(f"  d={d}: {c}")
    lines.append(f"  total: {sum(counts)}")
    return {
        "by_dimension": [_num(c) for c in counts],
        "total": _num(sum(counts)),
    }, lines


def _cmd_census(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str]]:
    records = layers.layer_census(build(factors))
    out_records = []
    lines = [f"type {format_type(factors)}: layer census"]
    for rec in records:
        out_records.append(
            {
                "dim": rec.dimension,
                "theta_type": format_type(rec.theta_type),
                "theta_orbit_size": _num(rec.orbit_size),
                "n_theta": _num(rec.n_theta),
                "layers_per_theta": _num(rec.layer_count),
                "phi_c_types": [
                    {"type": format_type(t), "count": _num(c)} for t, c in rec.phi_c_types
                ],
            }
        )
        types = ", ".join(f"{format_type(t)}:{c}" for t, c in rec.phi_c_types)
        lines.append(
            f"  d={rec.dimension} theta {format_type(rec.theta_type)} x{rec.orbit_size} "
            f"n_theta={rec.n_theta} layers/theta={rec.layer_count} [{types}]"
        )
    return {"records": out_records}, lines


def _cmd_poincare(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str]]:
    # poincare computes both routes and raises when they differ, so they agree here.
    poly = layers.poincare(build(factors))
    results = {
        "route": "both",
        "closed": _poly_json(poly),
        "layers": _poly_json(poly),
        "routes_agree": True,
    }
    lines = [
        f"type {format_type(factors)}: Poincare polynomial",
        f"  closed-form: {poly}",
        f"  layer-sum:   {poly}",
        "  routes agree: True",
    ]
    return results, lines


def _cmd_euler(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str]]:
    value = layers.euler_characteristic(factors)
    sign = (-1) ** _rank(factors)
    closed = sign * type_invariants(factors).weyl_order
    results = {
        "point_sum": _num(value),
        "closed_form": _num(closed),
        "equivariant_multiple": _num(sign),
    }
    lines = [
        f"type {format_type(factors)}: Euler characteristic",
        f"  point-orbit sum: {value}",
        f"  (-1)^n |W|:      {closed}",
    ]
    try:
        p_eval = layers.poincare(build(factors))(-1)
        results["poincare_at_minus_one"] = _num(p_eval)
        lines.append(f"  P(-1):           {p_eval}")
    except CapabilityError as exc:
        results["poincare_at_minus_one"] = None
        lines.append(f"  P(-1):           ({exc})")
    lines.append(f"  equivariant: {sign} * regular character")
    return results, lines


def _cmd_identity(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str]]:
    factors_out = []
    lines = [f"type {format_type(factors)}: degree identity"]
    for sym in factors:
        res = layers.verify_degree_identity(sym)
        factors_out.append(
            {
                "factor": str(sym),
                "holds": res.holds,
                "total": _frac(res.total),
                "terms": [
                    {"vertex": p, "value": _frac(v)} for p, v in res.terms
                ],
            }
        )
        lines.append(f"  {sym}: sum = {_frac(res.total)} ({'ok' if res.holds else 'FAIL'})")
        for p, v in res.terms:
            lines.append(f"    vertex {p}: {_frac(v)}")
    return {"factors": factors_out}, lines


def _poset_payload(factors: tuple[TypeSymbol, ...], args):
    poset = oracle.build_poset(build(factors), max_rank=args.poset_rank)
    elements = []
    for el in poset.elements:
        elements.append(
            {
                "dim": el.dimension,
                "theta_type": format_type(el.theta.type),
                "base_point": [_frac(x) for x in el.base_point],
            }
        )
    covers = [list(c) for c in poset.covers()]
    return poset, elements, covers


def _cmd_poset(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str]]:
    poset, elements, covers = _poset_payload(factors, args)
    lines = [f"type {format_type(factors)}: layer poset ({len(elements)} layers)"]
    for i, el in enumerate(elements):
        lines.append(
            f"  [{i}] d={el['dim']} {el['theta_type']} @ ({', '.join(el['base_point'])})"
        )
    lines.append("  covering relations: " + " ".join(f"{i}<{j}" for i, j in covers))
    return {"elements": elements, "covers": covers}, lines


def _poset_dot(factors: tuple[TypeSymbol, ...], args) -> str:
    poset, elements, covers = _poset_payload(factors, args)
    out = ["digraph layers {"]
    for i, el in enumerate(elements):
        label = f"{el['theta_type']}@{el['dim']}"
        out.append(f'  n{i} [label="{label}"];')
    for i, j in covers:
        out.append(f"  n{i} -> n{j};")
    out.append("}")
    return "\n".join(out) + "\n"


def _cmd_verify(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    checks = verify.run_checks(build(factors), args.poset_rank)
    lines = [f"type {format_type(factors)}: verification suite"]
    for name, status, detail in checks:
        lines.append(f"  {name}: {status}" + (f" ({detail})" if detail else ""))
    results = {
        "checks": [
            {"name": n, "status": s, "detail": d} for n, s, d in checks
        ]
    }
    status = EXIT_MISMATCH if any(s == "mismatch" for _, s, _ in checks) else EXIT_OK
    return results, lines, status


# -- dispatch -----------------------------------------------------------------


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    status = EXIT_OK
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return EXIT_OK
        factors = parse_type(args.type)
        if args.command in ("points", "identity", "euler"):
            # Their per-type data is n + 1 deletions from each factor's affine diagram, each a pass over it.
            work = sum((sym.rank + 1) ** 3 for sym in factors)
            require_work(f"affine vertex deletions of {format_type(factors)}: sum of (rank + 1)^3", work)
        if args.command == "poset" and args.format == "dot":
            _emit(_poset_dot(factors, args), args.out)
            return EXIT_OK

        handlers = {
            "points": _cmd_points,
            "layers": _cmd_layers,
            "census": _cmd_census,
            "poincare": _cmd_poincare,
            "euler": _cmd_euler,
            "identity": _cmd_identity,
            "poset": _cmd_poset,
        }
        if args.command == "verify":
            results, lines, status = _cmd_verify(factors, args)
        else:
            results, lines = handlers[args.command](factors, args)
        if args.format == "csv":  # census only: one row per phi_c type of each record
            buf = io.StringIO()
            writer = csv.DictWriter(
                buf,
                fieldnames=["dim", "theta_type", "theta_orbit_size", "n_theta", "phi_c_type", "count"],
                extrasaction="ignore",
                lineterminator="\n",
            )
            writer.writeheader()
            for rec in results["records"]:
                for ptype in rec["phi_c_types"]:
                    writer.writerow(dict(rec, phi_c_type=ptype["type"], count=ptype["count"]))
            _emit(buf.getvalue(), args.out)
        elif args.format == "json":
            _emit(_json_payload(factors, args.command, results), args.out)
        else:
            _emit("\n".join(lines) + "\n", args.out)
        return status
    except CapabilityError as exc:
        sys.stderr.write(f"capability: {exc}\n")
        return EXIT_CAPABILITY
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (AssertionError, ValueError) as exc:  # any other ValueError is an internal failure
        sys.stderr.write(f"mismatch: {exc}\n")
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every request takes one path through `main`: parse the arguments, run the
command's handler from `_COMMANDS`, which returns (results, text lines, exit
status), render the chosen format and emit it.  JSON, `census` CSV and
`poset` dot all render the results; text joins the lines.  `_json` writes
the bytes of the stdlib's `dumps(doc, indent=2, sort_keys=True)` itself:
with an indent the `json` module always runs its pure-Python encoder, and in
a fresh process the first call of each Python function is several times
slower than a later one, so that encoder was a fixed cost of every JSON
request.  The results hold only str-keyed dicts, lists, str, int, bool and
None, with no float.

Commands run one computation per process and emit deterministic output:
identical inputs produce byte-identical bytes.  Exit codes: 0 success,
1 usage/parse error or unwritable --out path (UsageError), 2 capability
bound hit, 3 verification mismatch, a failed internal cross-check or any
other ValueError from the library.
"""

from __future__ import annotations

import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Optional, Sequence

from . import __version__, layers, oracle, verify
from .errors import CapabilityError, UsageError, require_work
from .rootsys import TypeSymbol, build, format_type, parse_type

_FORMAT_CHOICES = ("json", "csv", "dot", "text")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPABILITY = 2
EXIT_MISMATCH = 3


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
        line, formats, takes_rank, _ = _COMMANDS[command]
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
    # The handlers give counts as decimal strings: they can exceed 2^53.
    doc = {
        "type": format_type(factors),
        "rank": _rank(factors),
        "command": command,
        "tool_version": __version__,
        "results": results,
    }
    return _json(doc, "") + "\n"


def _json(value, indent: str) -> str:
    """The stdlib's `dumps(value, indent=2, sort_keys=True)` at this indent, for the results' types; else TypeError.

    Strings are quoted by the stdlib's C function, which raises TypeError on a key that is not a str.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:
        return "true" if value is True else "false" if value is False else "null"
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is dict:
        items = [f"{inner}{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    return "[\n" + ",\n".join([inner + _json(item, inner) for item in value]) + "\n" + indent + "]"


def _census_csv(results: dict) -> str:
    """One row per phi_c type of each census record; no field needs quoting, being a number or a type name."""
    out = ["dim,theta_type,theta_orbit_size,n_theta,phi_c_type,count"]
    for rec in results["records"]:
        head = f"{rec['dim']},{rec['theta_type']},{rec['theta_orbit_size']},{rec['n_theta']}"
        out += [f"{head},{ptype['type']},{ptype['count']}" for ptype in rec["phi_c_types"]]
    return "\n".join(out) + "\n"


def _poset_dot(results: dict) -> str:
    out = ["digraph layers {"]
    out += [f'  n{i} [label="{el["theta_type"]}@{el["dim"]}"];' for i, el in enumerate(results["elements"])]
    out += [f"  n{i} -> n{j};" for i, j in results["covers"]]
    return "\n".join(out + ["}"]) + "\n"


# -- command handlers ---------------------------------------------------------
# Each takes the parsed factors and options and returns (results, text lines, exit status);
# only those that read roots close the root system.


def _rank(factors: tuple[TypeSymbol, ...]) -> int:
    return sum(sym.rank for sym in factors)


def _cmd_points(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    total = layers.count_points(factors)
    factors_out = []
    lines = [f"type {format_type(factors)}: {total} points"]
    for sym in factors:
        factor_total = layers.count_points((sym,))
        rows = []
        lines.append(f"factor {sym}: {factor_total} points")
        for r in layers.point_orbits(sym):
            rows.append(
                {
                    "vertex": r.vertex,
                    "orbit_size": str(r.orbit_size),
                    "point_type": format_type(r.point_type),
                    "stabilizer_order": str(r.stabilizer_order),
                    "aut_stabilizer_order": str(r.aut_stabilizer_order),
                    "aut_orbit": r.aut_orbit,
                }
            )
            lines.append(
                f"  vertex {r.vertex}: orbit {r.orbit_size}, type {format_type(r.point_type)}, "
                f"|W_p| {r.stabilizer_order}, |Stab_Aut| {r.aut_stabilizer_order}, Q-orbit {r.aut_orbit}"
            )
        factors_out.append({"factor": str(sym), "total": str(factor_total), "orbits": rows})
    return {"total": str(total), "factors": factors_out}, lines, EXIT_OK


def _cmd_layers(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    rs = build(factors)
    counts = [layers.count_layers(rs, d) for d in range(rs.rank + 1)]
    lines = [f"type {format_type(factors)}: layers by dimension"]
    for d, c in enumerate(counts):
        lines.append(f"  d={d}: {c}")
    lines.append(f"  total: {sum(counts)}")
    return {"by_dimension": [str(c) for c in counts], "total": str(sum(counts))}, lines, EXIT_OK


def _cmd_census(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    records = layers.layer_census(build(factors))
    out_records = []
    lines = [f"type {format_type(factors)}: layer census"]
    for rec in records:
        out_records.append(
            {
                "dim": rec.dimension,
                "theta_type": format_type(rec.theta.type),
                "theta_orbit_size": str(rec.orbit_size),
                "n_theta": str(rec.n_theta),
                "layers_per_theta": str(rec.layer_count),
                "phi_c_types": [{"type": format_type(t), "count": str(c)} for t, c in rec.phi_c_types],
            }
        )
        types = ", ".join(f"{format_type(t)}:{c}" for t, c in rec.phi_c_types)
        lines.append(
            f"  d={rec.dimension} theta {format_type(rec.theta.type)} x{rec.orbit_size} "
            f"n_theta={rec.n_theta} layers/theta={rec.layer_count} [{types}]"
        )
    return {"records": out_records}, lines, EXIT_OK


def _cmd_poincare(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    # poincare computes both routes and raises when they differ, so they agree here.
    poly = layers.poincare(build(factors))
    display = layers.format_polynomial(poly)
    both = {"coefficients": [str(c) for c in poly], "display": display}
    results = {"route": "both", "closed": both, "layers": both, "routes_agree": True}
    lines = [
        f"type {format_type(factors)}: Poincare polynomial",
        f"  closed-form: {display}",
        f"  layer-sum:   {display}",
        "  routes agree: True",
    ]
    return results, lines, EXIT_OK


def _cmd_euler(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    # euler_characteristic raises when the point sum differs from (-1)^n |W|, so both are this value.
    value = layers.euler_characteristic(factors)
    sign = (-1) ** _rank(factors)
    results = {"point_sum": str(value), "closed_form": str(value), "equivariant_multiple": str(sign)}
    lines = [
        f"type {format_type(factors)}: Euler characteristic",
        f"  point-orbit sum: {value}",
        f"  (-1)^n |W|:      {value}",
    ]
    try:
        layers.poincare(build(factors))  # raises when P(-1) differs from the Euler characteristic
        results["poincare_at_minus_one"] = str(value)
        lines.append(f"  P(-1):           {value}")
    except CapabilityError as exc:
        results["poincare_at_minus_one"] = None
        lines.append(f"  P(-1):           ({exc})")
    lines.append(f"  equivariant: {sign} * regular character")
    return results, lines, EXIT_OK


def _cmd_identity(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    factors_out = []
    lines = [f"type {format_type(factors)}: degree identity"]
    for sym in factors:
        res = layers.verify_degree_identity(sym)
        total = layers.format_fraction(*res.total)
        factors_out.append(
            {
                "factor": str(sym),
                "holds": res.total == (1, 1),
                "total": total,
                "terms": [{"vertex": p, "value": layers.format_fraction(*v)} for p, v in res.terms],
            }
        )
        lines.append(f"  {sym}: sum = {total} ({'ok' if res.total == (1, 1) else 'FAIL'})")
        for p, v in res.terms:
            lines.append(f"    vertex {p}: {layers.format_fraction(*v)}")
    return {"factors": factors_out}, lines, EXIT_OK


def _cmd_poset(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    poset = oracle.build_poset(build(factors), max_rank=args.poset_rank)
    elements = [
        {
            "dim": d,
            "theta_type": format_type(poset.thetas[t].type),
            "base_point": [layers.format_fraction(c, poset.modulus) for c in base],
        }
        for d, t, base in poset.layers
    ]
    covers = [list(c) for c in poset.covers()]
    lines = [f"type {format_type(factors)}: layer poset ({len(elements)} layers)"]
    for i, el in enumerate(elements):
        lines.append(f"  [{i}] d={el['dim']} {el['theta_type']} @ ({', '.join(el['base_point'])})")
    lines.append("  covering relations: " + " ".join(f"{i}<{j}" for i, j in covers))
    return {"elements": elements, "covers": covers}, lines, EXIT_OK


def _cmd_verify(factors: tuple[TypeSymbol, ...], args) -> tuple[dict, list[str], int]:
    checks = verify.run_checks(build(factors), args.poset_rank)
    lines = [f"type {format_type(factors)}: verification suite"]
    for name, status, detail in checks:
        lines.append(f"  {name}: {status}" + (f" ({detail})" if detail else ""))
    results = {"checks": [{"name": n, "status": s, "detail": d} for n, s, d in checks]}
    status = EXIT_MISMATCH if any(s == "mismatch" for _, s, _ in checks) else EXIT_OK
    return results, lines, status


# Each command: its help line, its output formats, whether it takes --poset-rank, and its handler.
_COMMANDS = {
    "points": ("count the points of the arrangement and their orbit table", ("json", "text"), False, _cmd_points),
    "layers": ("per-dimension layer counts", ("json", "text"), False, _cmd_layers),
    "census": ("full layer census with tangent types", ("json", "text", "csv"), False, _cmd_census),
    "poincare": ("Poincare polynomial of the complement", ("json", "text"), False, _cmd_poincare),
    "euler": ("Euler characteristic, both routes", ("json", "text"), False, _cmd_euler),
    "identity": ("the degree identity check", ("json", "text"), False, _cmd_identity),
    "poset": ("explicit layer poset", ("json", "text", "dot"), True, _cmd_poset),
    "verify": ("run the oracle-vs-formula suite", ("json", "text"), True, _cmd_verify),
}


# -- request path -------------------------------------------------------------


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
    """Parse the arguments, run the command's handler, render the chosen format, then emit it."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return EXIT_OK
        factors = parse_type(args.type)
        if args.command in ("points", "identity", "euler"):
            # Their per-type data builds each factor's (n + 1)^2 affine diagram and types its n + 1 vertex
            # deletions on its adjacency lists; the (n + 1)^3 bound stays until the automorphism search and
            # the |W| products past A214 are measured.
            work = sum((sym.rank + 1) ** 3 for sym in factors)
            require_work(f"affine vertex deletions of {format_type(factors)}: sum of (rank + 1)^3", work)
        results, lines, status = _COMMANDS[args.command][3](factors, args)
        if args.format == "json":
            text = _json_payload(factors, args.command, results)
        elif args.format == "csv":  # census only
            text = _census_csv(results)
        elif args.format == "dot":  # poset only
            text = _poset_dot(results)
        else:
            text = "\n".join(lines) + "\n"
        _emit(text, args.out)
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

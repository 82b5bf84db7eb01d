"""Command-line surface: describe / compute verbs / verify.

Exit codes: 0 success, 1 usage error, 2 input validation error, 3 property
suite failure, 4 internal defect (a broken internal invariant or an
enumeration past its bound, reported as one line on stderr), 141 stdout
closed by its reader before the answer was written.  Every number
emitted is exact: integers, or fractions rendered "p/q"; identical
configurations produce byte-identical output.

A well-formed command line, `<command> <every positional> (--flag value)*`
with each flag spelt out in full, is read straight from the `SUBCOMMANDS`
table, so answering it never imports argparse (nor the gettext and locale
modules argparse loads).  Every other command line goes to an argparse
parser built from the same table: it prints help, reports usage errors,
and still accepts `--flag=value`, abbreviated flags and options placed
before positionals.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .abelian import InvariantViolation
from .coweights import dominant_image_monoid, enumerate_dominant_classes
from .dual import fixed_group_descriptor, parse_profile
from .galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    coinvariants,
    group_order,
    kottwitz_components,
    relative_simple_roots,
)
from .rep import (
    UnsupportedDecompositionError,
    branch_to_fixed_group,
    decompose_tensor,
    total_dimension,
)
from .rootdatum import BasedRootDatum, InvalidDatumError, full_root_system
from .presets import UnknownPresetError, get_preset
from .satake import (
    closure_poset,
    conv_cell,
    corr,
    format_class,
    mv_cell,
    poset_document,
    poset_to_dot,
)
from .suites import SUITE_NAMES, run_suite
from .weyl import relative_weyl

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PROPERTY = 3
EXIT_DEFECT = 4
EXIT_PIPE = 141   # 128 + SIGPIPE: what a shell reports when the reader of stdout quit early

# `-h` shows the first two paragraphs of this docstring (none under -OO).
_HELP_DESCRIPTION = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])


class UsageExit(Exception):
    pass


class InputError(Exception):
    pass


def parse_class(text: str):
    """ "1,0" or "1,0;1" -> ((1, 0), (1,)) coinvariant normal form."""
    try:
        if ";" in text:
            free_s, tors_s = text.split(";", 1)
            torsion = tuple(int(x) for x in tors_s.split(",") if x != "")
        else:
            free_s, torsion = text, ()
        free = tuple(int(x) for x in free_s.split(",") if x != "")
        return (free, torsion)
    except ValueError as e:
        raise InputError(f"cannot parse class {text!r}: {e}") from None


def parse_vector(text: str):
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as e:
        raise InputError(f"cannot parse vector {text!r}: {e}") from None


def load_datum_file(path: str):
    """(display name, datum) from a JSON datum file; the name is the
    file's "name" field, or empty."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    datum = datum_from_dict(data, where=path)
    name = data.get("name", "")
    if not isinstance(name, str):
        raise InputError(f"{path}: field 'name' must be a string, got {json.dumps(name)}")
    return name, datum


def _integers(value, field, where, depth):
    """A JSON integer (depth 0) or a list of depth - 1 values, checked entry
    by entry; anything else is an input error naming the field."""
    if depth == 0:
        if type(value) is not int:  # JSON true and false load as bool, an int subclass
            raise InputError(f"{where}: field '{field}' must be an integer, got {json.dumps(value)}")
        return value
    if not isinstance(value, list):
        raise InputError(f"{where}: field '{field}' must be a list")
    return [_integers(x, f"{field}[{i}]", where, depth - 1) for i, x in enumerate(value)]


def _object(value, field, where, keys):
    """A JSON object holding every one of keys."""
    if not isinstance(value, dict):
        raise InputError(f"{where}: field '{field}' must be an object")
    for key in keys:
        if key not in value:
            raise InputError(f"{where}: missing field '{field}.{key}'")
    return value


def datum_from_dict(data, where="input") -> TwistedRootDatum:
    if not isinstance(data, dict) or "base" not in data:
        raise InputError(f"{where}: missing field 'base'")
    base = _object(data["base"], "base", where, ("rank", "simple_roots", "simple_coroots"))
    rank = _integers(base["rank"], "base.rank", where, 0)
    if rank < 0:
        raise InputError(f"{where}: field 'base.rank' must be nonnegative, got {rank}")
    datum = BasedRootDatum.make(
        rank,
        _integers(base["simple_roots"], "base.simple_roots", where, 2),
        _integers(base["simple_coroots"], "base.simple_coroots", where, 2),
    )
    generators = data.get("generators", [])
    if not isinstance(generators, list):
        raise InputError(f"{where}: field 'generators' must be a list")
    gens = []
    for idx, g in enumerate(generators):
        field = f"generators[{idx}]"
        g = _object(g, field, where, ("lattice_map", "root_permutation"))
        lattice_map = _integers(g["lattice_map"], f"{field}.lattice_map", where, 2)
        root_permutation = _integers(g["root_permutation"], f"{field}.root_permutation", where, 1)
        try:
            gens.append(DiagramAutomorphism.make(lattice_map, root_permutation))
        except (ValueError, InvariantViolation) as e:
            raise InputError(f"{where}: bad generator {idx}: {e}") from None
    return TwistedRootDatum.make(datum, tuple(gens))


def _resolve_datum(args):
    """(display name, datum): a preset's registry name, or a file's "name"."""
    if getattr(args, "file", None):
        return load_datum_file(args.file)
    if not args.preset:
        raise InputError("pass a preset name or --file PATH")
    try:
        entry = get_preset(args.preset)
    except UnknownPresetError as e:
        raise InputError(f"unknown preset {e}") from None
    return entry.name, entry.twisted


def _arg(name, **spec):
    """One argument of a subcommand: its flag or positional name and the
    keywords `add_argument` takes for it."""
    return (name, spec)


_PRESET = _arg("preset", nargs="?", help="preset name (or use --file)")
_FILE = _arg("--file", help="JSON twisted-datum file")
_FORMAT = _arg("--format", choices=("table", "json"), default="table")
_DOT_FORMAT = _arg("--format", choices=("table", "json", "dot"), default="table")
_COEFF = _arg("--coeff", default="char0", help="coefficient profile: char0 | Zl:<p> | Fl:<p>")
_BOUND = _arg("--bound", type=int, default=6, help="rho-height bound on classes")
_COORD_BOUND = _arg("--coord-bound", type=int, default=None,
                    help="coordinate box for data with central directions")
_DATUM = (_PRESET, _FILE, _FORMAT)

# (name, help, arguments) per subcommand, in help order; arguments in the
# order argparse is given them.  Each command takes only the flags it reads.
SUBCOMMANDS = (
    ("describe", "datum summary", _DATUM + (_COEFF,)),
    ("schubert", "Schubert strata and closure order", (_PRESET, _FILE, _DOT_FORMAT, _BOUND, _COORD_BOUND)),
    ("mv", "attractor-intersection cell", _DATUM + (
        _arg("--mu", required=True),
        _arg("--lam", required=True),
    )),
    ("conv", "convolution cell", _DATUM + (
        _arg("--mu", required=True),
        _arg("--mu2", required=True),
        _arg("--lam", required=True),
        _arg("--lam2", required=True),
    )),
    ("branch", "restrict an irreducible to the fixed group", _DATUM + (
        _COEFF,
        _arg("--weight", required=True, help="dominant character, comma separated"),
    )),
    ("tensor", "folded tensor decomposition", (
        _arg("preset", nargs="?"),
        _arg("lam", help="dominant folded class"),
        _arg("mu", help="dominant folded class"),
        _FILE,
        _FORMAT,
        _COEFF,
    )),
    ("dominant-image", "image of the dominant projection", _DATUM + (_BOUND, _COORD_BOUND)),
    ("corr", "constant-term normalization shift", _DATUM + (
        _arg("--levi", default="all", help="orbit indices 'all', 'none', or '0,1'"),
        _arg("--vector", required=True, help="lattice vector, comma separated"),
    )),
    ("verify", "run property suites", _DATUM + (
        _arg("suite", choices=SUITE_NAMES + ("all",)),
    )),
)


def _parse_plain(argv):
    """The attributes argparse would set for argv, read from `SUBCOMMANDS`
    when argv has the plain shape `<command> <every positional>
    (--flag value)*`; None for any other argv, which is left to argparse.

    Declined: a flag that is not one of the command's flags spelt out in
    full, `--flag=value`, a repeated flag, a token starting with "-" where
    a positional or a value belongs (so `-h`, `--help` and `--`), a value
    its type or choices reject, and a missing required option."""
    arguments = next((a for name, _help, a in SUBCOMMANDS if argv and argv[0] == name), None)
    if arguments is None:
        return None
    specs = dict(arguments)
    positionals = [name for name in specs if not name.startswith("-")]
    tokens = argv[1:]
    n = len(positionals)
    if len(tokens) < n or (len(tokens) - n) % 2:
        return None
    given = dict(zip(positionals, tokens))
    for flag, value in zip(tokens[n::2], tokens[n + 1::2]):
        if flag in given or flag not in specs:
            return None
        given[flag] = value
    if any(value.startswith("-") for value in given.values()):
        return None
    out = {"command": argv[0]}
    for name, spec in arguments:
        if name in given:
            value = given[name]
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default")
        dest = name.lstrip("-").replace("-", "_") if name.startswith("-") else name
        out[dest] = value
    return out


def build_parser(argv=None):
    """The argparse parser, built from `SUBCOMMANDS` for help and usage
    errors.  When argv starts with a known subcommand, only that
    subcommand's parser is built; otherwise (no arguments, an option first,
    or an unknown command) all of them are, so help and usage errors list
    every command."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageExit(message)

    p = Parser(prog="twisted-satake", description=_HELP_DESCRIPTION)
    sub = p.add_subparsers(dest="command", required=True)
    known = bool(argv) and any(argv[0] == name for name, _help, _args in SUBCOMMANDS)
    for name, help_text, arguments in SUBCOMMANDS:
        if not known or name == argv[0]:
            sp = sub.add_parser(name, help=help_text)
            for flag, spec in arguments:
                sp.add_argument(flag, **spec)
    return p


def _emit(args, payload, extra_text_lines):
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in extra_text_lines:
            print(line)


def cmd_describe(args, t):
    rel = relative_simple_roots(t)
    desc = fixed_group_descriptor(t, parse_profile(args.coeff))
    system = full_root_system(t.base)
    payload = {
        "name": args.display_name or "(anonymous)",
        "rank": t.rank,
        "absolute_roots": len(system.roots),
        "inertia_order": group_order(t),
        "orbits": [
            {"indices": list(orbit), "type": kind}
            for orbit, kind in zip(rel.simple_orbit_list, rel.orbit_type)
        ],
        "coinvariants": str(coinvariants(t).quotient),
        "pi1_coinvariants": str(kottwitz_components(t)),
        "relative_weyl_order": relative_weyl(t).order,
        "fixed_group": {
            "label": desc.folded_cartan.type_label if desc.folded_cartan else None,
            "folded_cartan": (
                {
                    "type": desc.folded_cartan.type_label,
                    "simple_roots": [list(r) for r in desc.folded_cartan.datum.simple_roots],
                    "simple_coroots": [list(r) for r in desc.folded_cartan.datum.simple_coroots],
                }
                if desc.folded_cartan
                else None
            ),
            "smooth_over_Z_ell": desc.smooth_over_Z_ell,
            "quasi_reductive_nonreductive_at_2": desc.smooth_over_Z_ell == "no",
            "ell2_quasi_reductive_mechanism": desc.has_adjacent_pair_orbit,
            "connected_char0": desc.connected_char0,
        },
    }
    lines = [
        f"datum: {payload['name']}  rank {t.rank}  roots {payload['absolute_roots']}  |I| {payload['inertia_order']}",
        "orbits: " + (", ".join(
            f"{{{','.join(str(i) for i in o['indices'])}}}:{o['type']}" for o in payload["orbits"]
        ) or "(none)"),
        f"coinvariants X_*(T)_I: {payload['coinvariants']}",
        f"pi1(G)_I: {payload['pi1_coinvariants']}",
        f"relative Weyl order: {payload['relative_weyl_order']}",
        f"fixed group: label={payload['fixed_group']['label']} "
        f"smooth/Z_ell={payload['fixed_group']['smooth_over_Z_ell']} "
        f"ell2-quasi-reductive={payload['fixed_group']['ell2_quasi_reductive_mechanism']} "
        f"connected(char0)={payload['fixed_group']['connected_char0']}",
    ]
    _emit(args, {"result": payload}, lines)
    return EXIT_OK


def cmd_schubert(args, t):
    poset = closure_poset(t, max_height=2 * args.bound, coord_bound=args.coord_bound)
    if args.format == "dot":
        print(poset_to_dot(poset))
        return EXIT_OK
    lines = [
        f"stratum {format_class(s.label):12s} dim {s.dim:4d} component {format_class(s.component)}"
        for s in poset.strata
    ]
    # the table lists strata only; the JSON document adds the Hasse edges
    _emit(args, {"result": poset_document(poset)} if args.format == "json" else {}, lines)
    return EXIT_OK


def cmd_mv(args, t):
    mu, lam = parse_class(args.mu), parse_class(args.lam)
    cell = mv_cell(t, mu, lam)
    payload = {
        "mu": format_class(mu), "lam": format_class(lam),
        "nonempty": cell.nonempty, "dim": cell.dim,
    }
    text = (
        f"cell S_{payload['mu']} within closure of {payload['lam']}: "
        + (f"nonempty, dim {cell.dim}" if cell.nonempty else "empty")
    )
    _emit(args, {"result": payload}, [text])
    return EXIT_OK


def cmd_conv(args, t):
    mu, mu2, lam, lam2 = map(parse_class, (args.mu, args.mu2, args.lam, args.lam2))
    cell = conv_cell(t, mu, mu2, lam, lam2)
    payload = {
        "mu": format_class(mu), "mu2": format_class(mu2),
        "lam": format_class(lam), "lam2": format_class(lam2),
        "nonempty": cell.nonempty, "dim": cell.dim,
    }
    text = "convolution cell: " + (f"nonempty, dim {cell.dim}" if cell.nonempty else "empty")
    _emit(args, {"result": payload}, [text])
    return EXIT_OK


def _summands_text(result):
    ordered = sorted(result.summands, reverse=True)
    return " + ".join(
        (f"{m} V({format_class(cls)})" if m != 1 else f"V({format_class(cls)})")
        for cls, m in ordered
    ) or "0"


def _refuse(args, e: UnsupportedDecompositionError):
    """Report a refused decomposition as an answer (exit 0), with the
    restriction multiset when one was computed."""
    payload = {
        "error": str(e),
        "restriction": (
            [[format_class(k), m] for k, m in e.restriction.entries]
            if e.restriction is not None else None
        ),
    }
    lines = [f"unsupported decomposition: {e}"]
    if e.restriction is not None:
        lines.extend(f"  weight {format_class(k)} multiplicity {m}"
                     for k, m in e.restriction.entries)
    _emit(args, {"result": payload}, lines)
    return EXIT_OK


def cmd_branch(args, t):
    profile = parse_profile(args.coeff)
    weight = parse_vector(args.weight)
    try:
        result = branch_to_fixed_group(t, weight, profile)
    except UnsupportedDecompositionError as e:
        return _refuse(args, e)
    payload = {
        "summands": [[format_class(cls), m] for cls, m in result.summands],
        "restriction": [[format_class(k), m] for k, m in result.restriction.entries],
        "total_dimension": total_dimension(result.restriction),
    }
    _emit(args, {"result": payload}, [_summands_text(result)])
    return EXIT_OK


def cmd_tensor(args, t):
    profile = parse_profile(args.coeff)
    try:
        result = decompose_tensor(t, parse_class(args.lam), parse_class(args.mu), profile)
    except UnsupportedDecompositionError as e:
        return _refuse(args, e)
    payload = {"summands": [[format_class(cls), m] for cls, m in result.summands]}
    _emit(args, {"result": payload}, [_summands_text(result)])
    return EXIT_OK


def cmd_dominant_image(args, t):
    image = dominant_image_monoid(t, 2 * args.bound, args.coord_bound)
    cone = enumerate_dominant_classes(t, 2 * args.bound, args.coord_bound)
    payload = {
        "image": [format_class(c) for c in image],
        "dominant_cone": [format_class(c) for c in cone],
        "surjective_within_bound": set(image) == set(cone),
    }
    lines = [
        "image: {" + ", ".join(payload["image"]) + "}",
        "cone:  {" + ", ".join(payload["dominant_cone"]) + "}",
        f"surjective within bound: {payload['surjective_within_bound']}",
    ]
    _emit(args, {"result": payload}, lines)
    return EXIT_OK


def cmd_corr(args, t):
    rel = relative_simple_roots(t)
    if args.levi == "all":
        orbits = tuple(range(rel.relative_rank))
    elif args.levi == "none":
        orbits = ()
    else:
        try:
            orbits = tuple(int(x) for x in args.levi.split(",") if x != "")
        except ValueError:
            raise InputError(f"cannot parse --levi {args.levi!r}") from None
    value = corr(t, orbits, parse_vector(args.vector))
    _emit(args, {"result": {"corr": value}}, [f"corr = {value}"])
    return EXIT_OK


def cmd_verify(args, t_or_error):
    if isinstance(t_or_error, Exception):
        records = [{
            "suite": "load", "name": "datum-invariants", "passed": False,
            "detail": str(t_or_error),
        }]
    else:
        results = run_suite(t_or_error, args.suite)
        records = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
    failed = [r for r in records if not r["passed"]]
    lines = [
        f"{'ok  ' if r['passed'] else 'FAIL'} {r['suite']}/{r['name']}"
        + (f"  ({r['detail']})" if r["detail"] else "")
        for r in records
    ]
    lines.append(f"{'pass' if not failed else 'fail'}: {len(records) - len(failed)}/{len(records)} checks")
    _emit(args, {"result": {"checks": records, "passed": not failed}}, lines)
    return EXIT_OK if not failed else EXIT_PROPERTY


def main(argv=None) -> int:
    """Answer one command line; the exit code.  When the reader of stdout
    has gone, stdout is pointed at os.devnull, so the flush at exit stays
    quiet, and the code is EXIT_PIPE; no signal handler is installed."""
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()  # also after help, which exits by SystemExit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


def _run(argv):
    if argv is None:
        argv = sys.argv[1:]
    plain = _parse_plain(argv)
    if plain is not None:
        args = SimpleNamespace(**plain)
    else:
        try:
            args = build_parser(argv).parse_args(argv)
        except UsageExit as e:
            print(f"usage error: {e}", file=sys.stderr)
            return EXIT_USAGE

    try:
        if getattr(args, "bound", None) is not None and args.bound <= 0:
            raise InputError("--bound must be positive")
        if getattr(args, "coord_bound", None) is not None and args.coord_bound <= 0:
            raise InputError("--coord-bound must be positive")
        try:
            args.display_name, t = _resolve_datum(args)
        except (InputError, InvalidDatumError, InvariantViolation) as e:
            # verify reports datum violations as failing checks, not input errors
            if args.command == "verify" and not isinstance(e, InputError):
                return cmd_verify(args, e)
            raise

        dispatch = {
            "describe": cmd_describe,
            "schubert": cmd_schubert,
            "mv": cmd_mv,
            "conv": cmd_conv,
            "branch": cmd_branch,
            "tensor": cmd_tensor,
            "dominant-image": cmd_dominant_image,
            "corr": cmd_corr,
            "verify": cmd_verify,
        }
        return dispatch[args.command](args, t)
    except (InputError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as e:
        print(f"internal defect: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DEFECT


if __name__ == "__main__":
    sys.exit(main())

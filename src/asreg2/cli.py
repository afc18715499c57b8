"""Command-line surface.

Subcommands: info, hdet, fixed, ample, quiver {qs,qsg,covering,canonical},
reflect {at,search}, check.  A config file of key=value lines can seed any
flag: a flag beats a config value, which beats the flag's declared default.
Identical configs produce byte-identical output.

Cyclotomic scalars are accepted as "p", "p/q", "zeta(n)", "zeta(n)^k" or
"p/q*zeta(n)^k" with an optional leading minus; exactness without a general
expression parser.
"""

import argparse
import functools
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd, lcm

from .cyclotomic import ONE, cyc, zeta
from .algebra import MONO_ONE, AlgebraSpec, hilbert_dims, quantum_spec
from .automorphisms import (
    DEFAULT_POWERS,
    NotTabulatedError,
    hdet,
    make_cyclic_group,
    make_diagonal_action,
)
from .skew import (
    ampleness_report,
    corner_dimension_checks,
    fixed_ring_dims,
    min_phi_degree,
    molien_dims,
    rho_system,
    skew_mul_basis,
)
from .quivers import (
    bgp_reflect,
    covering_quiver,
    cycle_classes,
    direction_counts,
    make_canonical_quiver,
    path_count,
    quiver_qs,
    quiver_qsg,
    reflection_search,
    tagged_and_untagged_classes,
)
from .beilinson import (
    gabriel_quiver_oracle,
    nabla_dim,
    nabla_skew_structure_check,
)

_ZETA_RE = re.compile(
    r"""^\s*(?P<sign>-)?\s*
        (?:(?P<num>\d+)(?:/(?P<den>\d+))?)?
        \s*(?:(?P<star>\*)?\s*zeta\((?P<n>\d+)\)(?:\^(?P<k>-?\d+))?)?\s*$""",
    re.VERBOSE,
)


def parse_cyclotomic(text):
    """Parse 'p', 'p/q', 'zeta(n)^k' or 'p/q*zeta(n)^k', optionally negated."""
    m = _ZETA_RE.match(text)
    g = m.groupdict() if m else {}
    num, den, n = g.get("num"), g.get("den"), g.get("n")
    if num is None and n is None:
        raise ValueError("cannot parse cyclotomic value %r" % text)
    if num is not None and n is not None and not g["star"]:
        raise ValueError("missing '*' between coefficient and zeta in %r" % text)
    if den is not None and not int(den):
        raise ValueError("zero denominator in %r" % text)
    value = zeta(int(n), int(g["k"] or 1)) if n is not None else None
    if num is not None:
        # an integer coefficient needs no Fraction, and a bare zeta(n)^k no factor 1
        c = cyc(int(num) if den is None else Fraction(int(num), int(den)))
        value = c if value is None else c * value
    return -value if g["sign"] else value


class _Parser(argparse.ArgumentParser):
    """argparse reads "-1" after a flag as the flag's value, but takes
    "-1/2", "-zeta(3)" or "-1,1" for an unknown option and stops with
    "expected one argument".  Here a token with one leading '-' that names
    no option is a value, so "--alpha -1/2" parses as "--alpha=-1/2".
    Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


# needed from a flag or --config; argparse's required=True would not count a config value
_REQUIRED = ("vertex", "target_i", "target_j")


def _convert(flag, text):
    """A flag's value from its text as argparse converts it: the flag's
    type, then its choices.  The type raises ValueError (or TypeError); a
    value outside the choices raises LookupError."""
    _, type_, choices = flag
    value = text if type_ is None else type_(text)
    if choices is not None and value not in choices:
        raise LookupError(value)
    return value


def _read_config(path, leaf):
    """The values of the key=value file at path, each converted as its flag
    of the parser leaf converts it, by dest."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit("cannot read config %s: %s" % (path, exc.strerror))
    except UnicodeDecodeError:
        raise SystemExit("cannot read config %s: not UTF-8 text" % path)
    assigned = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit("config %s line %d: expected key=value" % (path, lineno))
        key, value = line.split("=", 1)
        assigned[key.strip().replace("-", "_")] = value.strip()
    # only the option flags of the chosen subcommand, not --config itself
    flags = {flag[0]: flag for flag in _FLAGS[leaf][0].values() if flag[0] != "config"}
    for key, value in assigned.items():
        if key not in flags:
            raise SystemExit("config: unknown key %r" % key)
        try:
            assigned[key] = _convert(flags[key], value)
        except LookupError:
            raise SystemExit("config %s: key %r must be one of %s, got %r"
                             % (path, key, ", ".join(flags[key][2]), value))
        except ValueError:
            # int is the only type the parser uses
            raise SystemExit("config %s: key %r needs an integer, got %r"
                             % (path, key, value))
    return assigned


def _spec_from_args(args):
    try:
        if args.family == "jordan":
            # the spec refuses a Jordan alpha, so its text is never parsed
            return AlgebraSpec(args.wx, args.wy, "jordan", args.alpha)
        alpha = parse_cyclotomic(args.alpha) if args.alpha is not None else cyc(1)
        return quantum_spec(args.wx, args.wy, alpha)
    except ValueError as exc:
        raise SystemExit("invalid algebra: %s" % exc)


def _action_from_args(spec, args):
    powers = getattr(args, "action_powers", None)
    try:
        if powers is not None:
            try:
                px, py = (int(p) for p in powers.split(","))
            except ValueError:
                raise SystemExit("invalid action: --action-powers needs two integers px,py,"
                                 " got %r" % powers)
            return make_diagonal_action(spec, args.r, px, py)
        return make_cyclic_group(spec, args.r)
    except ValueError as exc:
        raise SystemExit("invalid action: %s" % exc)


def _json(o, pad="\n"):
    """json.dumps(o, sort_keys=True, indent=2), pad the line break and indent
    before o's closing bracket; the stdlib indents only in pure Python.  A
    report holds dicts with str keys, lists, tuples, str, int, bool and None,
    and the branch is picked by the value's exact type: any other type, a
    float or a subclass too, raises TypeError."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is bool or o is None:
        return "null" if o is None else "true" if o else "false"
    inner = pad + "  "
    if t is list or t is tuple:
        # the dims lists, most of an ample report, in one repr; True is no int here
        if o and type(o[0]) is int and set(map(type, o)) == {int}:
            return "[" + inner + repr(list(o))[1:-1].replace(", ", "," + inner) + pad + "]"
        items = [_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if o else "[]"
    if t is dict:
        # encode_basestring_ascii raises TypeError on a key that is no str
        items = [encode_basestring_ascii(k) + ": " + _json(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if o else "{}"
    raise TypeError("a report holds no %s" % t.__name__)


def _emit(args, text_lines, payload, dot=None):
    """Write the report as --format text, json or dot to --out or stdout;
    JSON as _json's bytes and a newline.  Each writer is a callable, called
    only for its own format: text_lines for the lines, payload for the JSON
    tree and dot for the DOT text."""
    if args.format == "dot":
        body = dot()
    elif args.format == "json":
        body = _json(payload()) + "\n"
    else:
        body = "\n".join(text_lines()) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise SystemExit("cannot write %s: %s" % (args.out, exc.strerror))
    else:
        sys.stdout.write(body)


def to_lines(q):
    return ["vertices: %s" % " ".join(q.vertices)] + [
        "%s -> %s%s" % (s, t, " [%s]" % tag if tag else "") for (s, t, tag) in q.arrows]


def to_dot(q):
    lines = ["digraph Q {"]
    lines += ['  "%s";' % v for v in q.vertices]
    for (s, t, tag) in q.arrows:
        lines.append('  "%s" -> "%s"%s;' % (s, t, " [label=%s]" % tag if tag else ""))
    return "\n".join(lines + ["}"]) + "\n"


def to_json_dict(q):
    return {"vertices": list(q.vertices),
            "arrows": [{"src": s, "dst": t, "tag": tag or None} for (s, t, tag) in q.arrows]}


def _quiver_report(q, params):
    """The _emit writers after args for a quiver: text lines, JSON payload, DOT."""
    return (lambda: to_lines(q),
            lambda: {"command": "quiver", "params": params, "result": to_json_dict(q)},
            lambda: to_dot(q))


def cmd_info(args):
    spec = _spec_from_args(args)
    D = args.max_degree if args.max_degree is not None else 2 * spec.ell
    dims = hilbert_dims(spec, D)
    _emit(args,
          lambda: ["algebra: %s" % spec.describe(),
                   "ell=%d" % spec.ell,
                   "hilbert dims (d=0..%d): %s" % (D, dims)],
          lambda: {"command": "info",
                   "params": {"wx": spec.w_x, "wy": spec.w_y, "family": spec.family,
                              "alpha": str(spec.alpha) if spec.alpha is not None else None,
                              "max_degree": D},
                   "result": {"ell": spec.ell, "hilbert_dims": dims}})
    return 0


def _map_coefficients(spec, args):
    """(a, b, c, d) of the map the flags give; a flag that its form cannot
    carry is an error."""
    a = parse_cyclotomic(args.a) if args.a is not None else cyc(1)
    b = parse_cyclotomic(args.b) if args.b is not None else cyc(0)
    c = parse_cyclotomic(args.c) if args.c is not None else cyc(0)
    d_default = a ** spec.q if spec.family == "jordan" else cyc(1)
    d = parse_cyclotomic(args.d) if args.d is not None else d_default
    if args.b is not None and (spec.w_x, spec.w_y) != (1, 1):
        raise ValueError("--b, the y-coefficient of sigma(x), needs weights (1, 1)")
    if args.c is not None and spec.w_x != 1:
        raise ValueError("--c, the x^q-coefficient of sigma(y), needs w_x = 1")
    return a, b, c, d


def cmd_hdet(args):
    spec = _spec_from_args(args)
    try:
        coefficients = _map_coefficients(spec, args)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit("invalid automorphism parameters: %s" % exc)
    try:
        value = hdet(spec, *coefficients)
    except NotTabulatedError:
        raise SystemExit("the given images do not define a graded automorphism "
                         "(relation not preserved or map not invertible)")
    in_hsl = value.is_one()
    _emit(args,
          lambda: ["algebra: %s" % spec.describe(),
                   "hdet = %s" % value,
                   "in HSL: %s" % ("yes" if in_hsl else "no")],
          lambda: {"command": "hdet",
                   "params": {k: getattr(args, k) for k in ("a", "b", "c", "d")},
                   "result": {"hdet": str(value), "hsl": in_hsl}})
    return 0


def cmd_fixed(args):
    spec = _spec_from_args(args)
    action = _action_from_args(spec, args)
    D = args.max_degree
    dims = fixed_ring_dims(action, D)
    mdims = molien_dims(action, D)
    ok = dims == mdims
    _emit(args,
          lambda: ["algebra: %s" % spec.describe(),
                   "action: %s" % action.describe(),
                   "fixed dims (d=0..%d): %s" % (D, dims),
                   "trace-average dims:    %s" % mdims,
                   "agreement: %s" % ("yes" if ok else "NO")],
          lambda: {"command": "fixed",
                   "params": {"r": action.r, "max_degree": D},
                   "result": {"fixed_dims": dims, "molien_dims": mdims, "agree": ok}})
    return 0 if ok else 1


def cmd_ample(args):
    spec = _spec_from_args(args)
    action = _action_from_args(spec, args)
    D, dims, verdict, first_zero = ampleness_report(action, args.max_degree)
    hsl, total = action.is_hsl_action(), sum(dims)

    def lines():
        out = ["algebra: %s" % spec.describe(), "action: %s" % action.describe(),
               "window: degrees 0..%d" % D, "quotient dims: %s" % dims,
               "total dimension up to window: %d" % total]
        if first_zero is not None:
            out.append("zero from degree %d on (within the window)" % first_zero)
        need = spec.ell * action.r  # the zero tail that a FINITE verdict needs
        if hsl and D + 1 < need:
            out.append("window too short to certify: FINITE needs %d zero degrees, the window has %d"
                       % (need, D + 1))
        return out + ["verdict: %s" % verdict]

    _emit(args, lines,
          lambda: {"command": "ample",
                   "params": {"r": action.r, "max_degree": D,
                              "action_powers": [action.px, action.py]},
                   "result": {"dims": dims, "verdict": verdict, "hsl": hsl,
                              "first_zero_degree": first_zero, "total_dim": total}})
    return 0


def _quiver_from_args(args):
    """The quiver named by args.kind, and its JSON params."""
    try:
        if args.kind == "canonical":
            if args.i is None or args.j is None:
                raise SystemExit("canonical quiver needs --i and --j")
            return make_canonical_quiver(args.i, args.j), {"kind": "canonical", "i": args.i, "j": args.j}
        spec = _spec_from_args(args)
        params = {"kind": args.kind, "wx": spec.w_x, "wy": spec.w_y}
        if args.kind == "qs":
            return quiver_qs(spec), params
        if args.kind == "qsg":
            params["r"] = args.r
            return quiver_qsg(make_cyclic_group(spec, args.r)), params
        params["c"] = args.c
        return covering_quiver(spec, args.c), params
    except ValueError as exc:
        raise SystemExit("invalid quiver: %s" % exc)


def cmd_quiver(args):
    _emit(args, *_quiver_report(*_quiver_from_args(args)))
    return 0


def cmd_reflect_at(args):
    q, _ = _quiver_from_args(args)
    try:
        refl = bgp_reflect(q, args.vertex)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _emit(args, *_quiver_report(refl, {"kind": args.kind, "vertex": args.vertex}))
    return 0


def cmd_reflect_search(args):
    spec = _spec_from_args(args)
    try:
        source = covering_quiver(spec, args.c)
        target = make_canonical_quiver(args.target_i, args.target_j)
    except ValueError as exc:
        raise SystemExit("invalid quiver: %s" % exc)
    # the canonical quiver is one cycle, so its class is one word
    goal_class = cycle_classes(target)
    seq = reflection_search(source, goal_class[0], args.max_depth)
    lines = ["source: covering c=%d of weights (%d, %d)" % (args.c, spec.w_x, spec.w_y),
             "target: canonical (%d, %d)" % (args.target_i, args.target_j)]
    payload = {"command": "reflect-search",
               "params": {"c": args.c, "target": [args.target_i, args.target_j]}}
    if seq is None:
        lines.append("no reflection sequence found")
        payload["result"] = {"found": False}
        _emit(args, lambda: lines, lambda: payload)
        return 1
    try:
        state = bgp_reflect(source, *seq)
    except ValueError:
        state = None  # a witness that does not replay is reported, not raised
    verified = state is not None and cycle_classes(state) == goal_class
    lines += ["reflection sequence (%d steps): %s" % (len(seq), " ".join(seq) if seq else "(empty)"),
              "replay verified: %s" % ("yes" if verified else "NO")]
    payload["result"] = {"found": True, "sequence": seq, "verified": verified}
    _emit(args, lambda: lines, lambda: payload)
    return 0 if verified else 1


def cmd_check(args):
    spec = _spec_from_args(args)
    action = _action_from_args(spec, args)
    r = action.r
    D = args.max_degree
    results = []

    def record(name, ok):
        results.append((name, bool(ok)))

    e = (MONO_ONE, 0)  # e = rho_0, a unit vector of the basis of S*G
    record("idempotent e^2 = e", skew_mul_basis(action, e, e) == {e: ONE})
    # one run of the rho certificate serves its own line and the Lambda
    # line: its docstring proves the e_i^j orthogonal, complete and basic
    rho_ok = rho_system(action)
    record("rho idempotents orthogonal and complete", rho_ok)

    corners = corner_dimension_checks(action, D)
    record("corner dimension identities (d <= %d)" % D, corners["ok"])
    # the corner rows count dim (S^G)_d, one count per degree for both lines
    record("trace-average fixed dims (d <= %d)" % D,
           molien_dims(action, D) == [row["fixed"] for row in corners["rows"]])
    # s*g -> [t -> s g(t)] is injective on S_{<=D} from min_phi_degree on
    # (its docstring proves it), and the scan runs the leading-term guard
    d_phi = min_phi_degree(action)
    record("operator-representation injectivity (d <= %d)" % d_phi, d_phi is not None)

    # Q_{S,G} is gcd(ell, r) copies of the c-fold covering quiver (one cycle)
    # one walk of it serves the tagged and the untagged comparisons
    qsg = quiver_qsg(action)
    tagged, classes = tagged_and_untagged_classes(qsg)
    n_expected = gcd(spec.ell, r)
    c_expected = lcm(spec.ell, r) // spec.ell
    record("skew quiver decomposes into %d copies of the %d-covering"
           % (n_expected, c_expected),
           tagged == cycle_classes(covering_quiver(spec, c_expected), True) * n_expected)
    canonical = tuple(sorted((c_expected * spec.w_x, c_expected * spec.w_y)))
    record("component canonical type (%d, %d)" % canonical,
           classes is not None and all(direction_counts(word) == canonical for word in classes))

    dim_nabla = nabla_dim(spec)
    dim_lambda = r * dim_nabla
    # Lambda's basis is the path basis of Q_{S,G} (beilinson's docstring)
    record("dim Lambda = r * dim nabla", path_count(qsg) == dim_lambda)
    record("nabla path count identity", dim_nabla == path_count(quiver_qs(spec)))
    record("Lambda idempotent system basic", rho_ok)
    if spec.ell * r <= 36:
        record("Gabriel oracle matches skew quiver",
               classes is not None
               and cycle_classes(gabriel_quiver_oracle(action)) == classes)
    if dim_lambda <= 60:
        record("skew-of-nabla structure constants", nabla_skew_structure_check(action))

    ok_all = all(ok for (_, ok) in results)

    def lines():
        return (["algebra: %s" % spec.describe(), "action: %s" % action.describe()]
                + ["%-55s %s" % (name, "ok" if ok else "FAIL") for (name, ok) in results]
                + ["overall: %s" % ("ok" if ok_all else "FAIL")])

    _emit(args, lines,
          lambda: {"command": "check",
                   "params": {"r": r, "max_degree": D},
                   "result": {"checks": [{"name": n, "ok": o} for (n, o) in results],
                              "ok": ok_all}})
    return 0 if ok_all else 1


# flag rows (option, type, default, choices, help), each flag declared once
# for argparse and the table parse alike, in the order of the help lines
_SPEC = (("--wx", int, 1, None, "weight of x"),
         ("--wy", int, 1, None, "weight of y"),
         ("--family", None, "quantum", ("quantum", "jordan"), None),
         ("--alpha", None, None, None, "quantum parameter, e.g. 1, -1, 2/3, zeta(5)^2"),
         ("--config", None, None, None, "key=value file seeding any flag"))
_OUT = ("--out", None, None, None, "write output to this file")
_TEXT_JSON = (("--format", None, "text", ("text", "json"), None), _OUT)
_TEXT_JSON_DOT = (("--format", None, "text", ("text", "json", "dot"), None), _OUT)

# each subcommand: its help, its handler and its flag rows; or, for reflect,
# its help, the dest of its own subcommands and their table
_COMMANDS = {
    "info": ("weights, family, Gorenstein parameter, Hilbert dims", cmd_info,
             _SPEC + (("--max-degree", int, None, None, None),) + _TEXT_JSON),
    "hdet": ("homological determinant of an automorphism", cmd_hdet, _SPEC + (
        ("--a", None, None, None, "x -> a x (+ b y)"),
        ("--b", None, None, None, "y-coefficient of sigma(x), weights (1,1) only"),
        ("--c", None, None, None, "x^q-coefficient of sigma(y)"),
        ("--d", None, None, None, "y-coefficient of sigma(y); default 1 (a^q for jordan)"),
    ) + _TEXT_JSON),
    "fixed": ("fixed-ring dimensions and trace-average check", cmd_fixed, _SPEC + (
        ("--r", int, 1, None, "group order"),
        ("--max-degree", int, 12, None, None),
    ) + _TEXT_JSON),
    "ample": ("graded dimensions of S*G/(e) and the verdict", cmd_ample, _SPEC + (
        ("--r", int, 1, None, None),
        ("--max-degree", int, None, None, "window top; default 4*ell*r"),
        ("--action-powers", None, None, None,
         "px,py for exploratory diagonal actions (default %d,%d)" % DEFAULT_POWERS),
    ) + _TEXT_JSON),
    "quiver": ("emit a quiver as text, JSON or DOT", cmd_quiver, (
        ("kind", None, None, ("qs", "qsg", "covering", "canonical"), None),
    ) + _SPEC + (
        ("--r", int, 1, None, "group order (qsg)"),
        ("--c", int, 1, None, "covering degree"),
        ("--i", int, None, None, "canonical path length i"),
        ("--j", int, None, None, "canonical path length j"),
    ) + _TEXT_JSON_DOT),
    "reflect": ("BGP reflections", "mode", {
        "at": ("reflect a constructed quiver at one vertex", cmd_reflect_at, (
            ("--kind", None, "qs", ("qs", "qsg", "covering"), None),
        ) + _SPEC + (
            ("--r", int, 1, None, None),
            ("--c", int, 1, None, None),
            ("--vertex", None, None, None, "required (or set in --config)"),
        ) + _TEXT_JSON_DOT),
        "search": ("search a reflection path to a canonical quiver", cmd_reflect_search, _SPEC + (
            ("--c", int, 1, None, "covering degree of the source"),
            ("--target-i", int, None, None, "required (or set in --config)"),
            ("--target-j", int, None, None, "required (or set in --config)"),
            ("--max-depth", int, None, None, None),
        ) + _TEXT_JSON),
    }),
    "check": ("run the full invariant suite for one spec/action", cmd_check, _SPEC + (
        ("--r", int, 1, None, None),
        ("--max-degree", int, 8, None, None),
    ) + _TEXT_JSON),
}

# build_parser's tree, recorded as it is built: a parser with subcommands maps
# to their dest and {name: parser}; a leaf to its "--long" flags,
# {option: (dest, type, choices)}, and the defaults of its namespace, handler
# included, or None where a positional (quiver's kind) leaves its argv to argparse
_SUBCOMMANDS = {}
_FLAGS = {}


@functools.cache
def build_parser():
    # built once per process: parse_args reads the parser and never changes it
    ap = _Parser(prog="asreg2", description=__doc__.splitlines()[0])
    _add_commands(ap, "command", _COMMANDS)
    return ap


def _add_commands(parser, dest, commands):
    """Add the subcommands of a _COMMANDS table to parser under dest."""
    sub = parser.add_subparsers(dest=dest, required=True)
    children = {}
    _SUBCOMMANDS[parser] = dest, children
    for name, (summary, handler, rows) in commands.items():
        p = children[name] = sub.add_parser(name, help=summary)
        if isinstance(rows, dict):
            _add_commands(p, handler, rows)  # handler holds their dest
            continue
        flags, defaults = {}, {"handler": handler}
        for option, type_, default, choices, help_ in rows:
            p.add_argument(option, type=type_, default=default, choices=choices, help=help_)
            if option.startswith("--"):
                flag_dest = option[2:].replace("-", "_")
                flags[option], defaults[flag_dest] = (flag_dest, type_, choices), default
        p.set_defaults(handler=handler)
        _FLAGS[p] = flags, defaults if len(flags) == len(rows) else None


def _read_flags(leaf, rest, args):
    """Set the flags of rest on args, and the leaf's defaults where args has
    no value, and return True; or return False, args untouched, on a token
    _parse leaves to argparse."""
    flags, defaults = _FLAGS.get(leaf, (None, None))
    if defaults is None:
        return False
    values = defaults | vars(args)  # a value on args stands unless its flag is given
    i = 0
    while i < len(rest):
        option, eq, value = rest[i].partition("=")
        flag = flags.get(option)
        if flag is None:
            return False
        if not eq:
            i += 1
            if i == len(rest) or rest[i].startswith("-"):
                return False
            value = rest[i]
        elif value == "--":
            return False  # argparse before 3.12 drops a "--" value and stores []
        i += 1
        try:
            values[flag[0]] = _convert(flag, value)
        except (TypeError, ValueError, LookupError):
            return False
    vars(args).update(values)
    return True


def _parse(argv, seed=None):
    """build_parser().parse_args(argv) and the parser of its (sub)command,
    by one parse: argparse hands all after a subcommand name to its parser
    untouched, so the leading names are followed down, each kept in its
    dest, and the deepest parser they name (the top one if none) parses,
    from a namespace holding seed, a dict of values by dest: as argparse
    does with a namespace it is handed, a seeded value stands unless its
    flag is given.

    _read_flags first reads that parser's flags by one lookup per token in
    its table (_FLAGS): "--opt value" with a value not starting with "-",
    or "--opt=value" with a value other than "--".  argparse does the same
    on such tokens: it looks a token up whole, then its part before "=",
    before any abbreviation; the text after "=" is the one value; and a
    token not starting with "-" is an argument, which the flag before it
    consumes.  The value goes through the type, then the choices; each
    flag's last value stands and every flag neither given nor seeded takes
    its default, so the namespace is argparse's.  Every other argv (-h, an
    abbreviation, a positional, a missing or bad value, "--", an unknown
    token) goes whole to argparse, with its own messages and exit codes."""
    ap = build_parser()
    args, leaf = argparse.Namespace(**(seed or {})), ap
    rest = sys.argv[1:] if argv is None else list(argv)
    while rest and leaf in _SUBCOMMANDS:
        dest, children = _SUBCOMMANDS[leaf]
        if rest[0] not in children:
            # argparse 3.13.13 drops a "--" here and parses the subcommand after it
            if rest[0] == "--":
                leaf.error("expected a subcommand, got '--'")
            # argparse would name the option's value as the unknown subcommand;
            # "-" and -h, --help or an abbreviation of it keep argparse's reply
            if rest[0].startswith("-") and rest[0] != "-h" and not "--help".startswith(rest[0]):
                leaf.error("option %s comes before the subcommand; options go after it"
                           % rest[0].split("=", 1)[0])
            break
        setattr(args, dest, rest[0])
        leaf, rest = children[rest[0]], rest[1:]
    if _read_flags(leaf, rest, args):
        return args, leaf
    args, extras = leaf.parse_known_args(rest, args)
    if extras:
        ap.error("unrecognized arguments: %s" % " ".join(extras))
    for option, (dest, _, _) in _FLAGS[leaf][0].items():
        # argparse before 3.12 drops a "--opt=--" value and stores []
        if type(getattr(args, dest, None)) is list:
            leaf.error("argument %s: expected one argument" % option)
    return args, leaf


def main(argv=None):
    args, leaf = _parse(argv)
    if args.config is not None:
        args, leaf = _parse(argv, _read_config(args.config, leaf))
    missing = ["--" + key.replace("_", "-") for key in _REQUIRED if getattr(args, key, 0) is None]
    if missing:
        leaf.error("the following arguments are required: %s" % ", ".join(missing))
    # one check for flags and config values alike
    for key in ("max_degree", "max_depth"):
        value = getattr(args, key, None)
        if value is not None and value < 0:
            raise SystemExit("--%s must be >= 0, got %d" % (key.replace("_", "-"), value))
    # the module's attribute of that name, so a wrapper set on it (perfbench's tracer) runs
    return globals()[args.handler.__name__](args)


if __name__ == "__main__":
    sys.exit(main())

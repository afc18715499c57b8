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
from .algebra import (
    MONO_ONE,
    SpecError,
    hilbert_dims,
    jordan_spec,
    quantum_spec,
)
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
    nabla_skew_dim_formula,
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
    if not m or (m.group("num") is None and m.group("n") is None):
        raise ValueError("cannot parse cyclotomic value %r" % text)
    if m.group("num") is not None and m.group("n") is not None and not m.group("star"):
        raise ValueError("missing '*' between coefficient and zeta in %r" % text)
    value = cyc(1)
    if m.group("num") is not None:
        den = int(m.group("den")) if m.group("den") else 1
        if den == 0:
            raise ValueError("zero denominator in %r" % text)
        value = cyc(Fraction(int(m.group("num")), den))
    if m.group("n") is not None:
        k = int(m.group("k")) if m.group("k") else 1
        value = value * zeta(int(m.group("n")), k)
    if m.group("sign"):
        value = -value
    return value


def _add_spec_flags(p):
    p.add_argument("--wx", type=int, default=1, help="weight of x")
    p.add_argument("--wy", type=int, default=1, help="weight of y")
    p.add_argument("--family", choices=["quantum", "jordan"], default="quantum")
    p.add_argument("--alpha", default=None,
                   help="quantum parameter, e.g. 1, -1, 2/3, zeta(5)^2")
    p.add_argument("--config", default=None, help="key=value file seeding any flag")


def _add_out_flags(p, formats=("text", "json")):
    p.add_argument("--format", choices=list(formats), default="text")
    p.add_argument("--out", default=None, help="write output to this file")


class _Parser(argparse.ArgumentParser):
    """argparse reads "-1" after a flag as the flag's value, but takes
    "-1/2", "-zeta(3)" or "-1,1" for an unknown option and stops with
    "expected one argument".  Here a token with one leading '-' that names
    no option is a value, so "--alpha -1/2" parses as "--alpha=-1/2".
    Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[^-]")


@functools.cache
def build_parser():
    # built once per process: parse_args reads the parser and never changes it
    ap = _Parser(prog="asreg2", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="weights, family, Gorenstein parameter, Hilbert dims")
    _add_spec_flags(p)
    p.add_argument("--max-degree", type=int, default=None)
    _add_out_flags(p)
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser("hdet", help="homological determinant of an automorphism")
    _add_spec_flags(p)
    p.add_argument("--a", default=None, help="x -> a x (+ b y)")
    p.add_argument("--b", default=None, help="y-coefficient of sigma(x), weights (1,1) only")
    p.add_argument("--c", default=None, help="x^q-coefficient of sigma(y)")
    p.add_argument("--d", default=None, help="y-coefficient of sigma(y); default 1 (a^q for jordan)")
    _add_out_flags(p)
    p.set_defaults(handler=cmd_hdet)

    p = sub.add_parser("fixed", help="fixed-ring dimensions and trace-average check")
    _add_spec_flags(p)
    p.add_argument("--r", type=int, default=1, help="group order")
    p.add_argument("--max-degree", type=int, default=12)
    _add_out_flags(p)
    p.set_defaults(handler=cmd_fixed)

    p = sub.add_parser("ample", help="graded dimensions of S*G/(e) and the verdict")
    _add_spec_flags(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=None,
                   help="window top; default 4*ell*r")
    p.add_argument("--action-powers", default=None,
                   help="px,py for exploratory diagonal actions (default %d,%d)"
                   % DEFAULT_POWERS)
    _add_out_flags(p)
    p.set_defaults(handler=cmd_ample)

    p = sub.add_parser("quiver", help="emit a quiver as text, JSON or DOT")
    p.add_argument("kind", choices=["qs", "qsg", "covering", "canonical"])
    _add_spec_flags(p)
    p.add_argument("--r", type=int, default=1, help="group order (qsg)")
    p.add_argument("--c", type=int, default=1, help="covering degree")
    p.add_argument("--i", type=int, default=None, help="canonical path length i")
    p.add_argument("--j", type=int, default=None, help="canonical path length j")
    _add_out_flags(p, formats=("text", "json", "dot"))
    p.set_defaults(handler=cmd_quiver)

    p = sub.add_parser("reflect", help="BGP reflections")
    refl = p.add_subparsers(dest="mode", required=True)
    pa = refl.add_parser("at", help="reflect a constructed quiver at one vertex")
    pa.add_argument("--kind", choices=["qs", "qsg", "covering"], default="qs")
    _add_spec_flags(pa)
    pa.add_argument("--r", type=int, default=1)
    pa.add_argument("--c", type=int, default=1)
    pa.add_argument("--vertex", default=None, help="required (or set in --config)")
    _add_out_flags(pa, formats=("text", "json", "dot"))
    pa.set_defaults(handler=cmd_reflect_at)
    ps = refl.add_parser("search", help="search a reflection path to a canonical quiver")
    _add_spec_flags(ps)
    ps.add_argument("--c", type=int, default=1, help="covering degree of the source")
    ps.add_argument("--target-i", type=int, default=None, help="required (or set in --config)")
    ps.add_argument("--target-j", type=int, default=None, help="required (or set in --config)")
    ps.add_argument("--max-depth", type=int, default=None)
    _add_out_flags(ps)
    ps.set_defaults(handler=cmd_reflect_search)

    p = sub.add_parser("check", help="run the full invariant suite for one spec/action")
    _add_spec_flags(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=8)
    _add_out_flags(p)
    p.set_defaults(handler=cmd_check)

    return ap


# needed from a flag or --config; argparse's required=True would not count a config value
_REQUIRED = ("vertex", "target_i", "target_j")


def _convert(action, text):
    """A flag's value from its text as argparse converts it: the action's
    type, then its choices.  The type raises ValueError (or TypeError); a
    value outside the choices raises LookupError."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
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
    # only the option flags of the chosen subcommand, not -h or --config itself
    actions = {a.dest: a for a in leaf._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, value in assigned.items():
        if key not in actions:
            raise SystemExit("config: unknown key %r" % key)
        action = actions[key]
        try:
            assigned[key] = _convert(action, value)
        except LookupError:
            raise SystemExit("config %s: key %r must be one of %s, got %r"
                             % (path, key, ", ".join(action.choices), value))
        except ValueError:
            # int is the only type the parser uses
            raise SystemExit("config %s: key %r needs an integer, got %r"
                             % (path, key, value))
    return assigned


def _spec_from_args(args):
    try:
        if args.family == "jordan":
            if args.wx != 1:
                raise SpecError("jordan-weight", "jordan family needs w_x = 1")
            if args.alpha is not None:
                raise SpecError("alpha", "jordan family takes no alpha")
            return jordan_spec(args.wy)
        alpha = parse_cyclotomic(args.alpha) if args.alpha is not None else cyc(1)
        return quantum_spec(args.wx, args.wy, alpha)
    except (SpecError, ValueError) as exc:
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
    and the writer is looked up by the value's type: any other type, a float
    or a subclass too, raises TypeError."""
    writer = _JSON_WRITERS.get(type(o))
    if writer is None:
        raise TypeError("a report holds no %s" % type(o).__name__)
    return writer(o, pad)


def _json_array(o, pad):
    inner = pad + "  "
    # the dims lists, most of an ample report; True is no int here
    items = map(str, o) if all(type(v) is int for v in o) else [_json(v, inner) for v in o]
    return "[" + inner + ("," + inner).join(items) + pad + "]" if o else "[]"


def _json_object(o, pad):
    inner = pad + "  "
    # encode_basestring_ascii raises TypeError on a key that is no str
    items = [encode_basestring_ascii(k) + ": " + _json(o[k], inner) for k in sorted(o)]
    return "{" + inner + ("," + inner).join(items) + pad + "}" if o else "{}"


_JSON_WRITERS = {
    type(None): lambda o, pad: "null",
    bool: lambda o, pad: "true" if o else "false",
    str: lambda o, pad: encode_basestring_ascii(o),
    int: lambda o, pad: int.__repr__(o),
    list: _json_array,
    tuple: _json_array,
    dict: _json_object,
}


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
    tagged, classes = tagged_and_untagged_classes(quiver_qsg(action))
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
    record("dim Lambda = r * dim nabla", nabla_skew_dim_formula(action) == dim_lambda)
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


def _read_flags(leaf, rest, args):
    """Set the flags of rest on args, and the leaf's defaults where args has
    no value, and return True; or return False, args untouched, on a token
    _parse leaves to argparse."""
    values = dict(leaf._defaults)
    for action in leaf._actions:
        # argparse would demand a positional or a required flag, and would
        # run an unseen flag's str default through its type
        if (not action.option_strings or action.required
                or (action.type is not None and isinstance(action.default, str))):
            return False
        if action.default is not argparse.SUPPRESS:  # -h has no default
            values[action.dest] = action.default
    values.update(vars(args))  # as argparse does, a value on args stands unless its flag is given
    i = 0
    while i < len(rest):
        option, eq, value = rest[i].partition("=")
        action = leaf._option_string_actions.get(option)
        if (type(action) is not argparse._StoreAction or action.nargs is not None
                or not option.startswith("--")):
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
            values[action.dest] = _convert(action, value)
        except (TypeError, ValueError, LookupError):
            return False
    vars(args).update(values)
    return True


def _parse(argv, seed=None):
    """build_parser().parse_args(argv) and the parser of its (sub)command,
    by one parse: argparse hands all after a subcommand name to its parser
    untouched, so the leading names are followed down, each kept in its
    dest, and the deepest parser they name (the top one if none) parses.
    That parser starts from a namespace holding seed, a dict of values by
    dest: as argparse does with a namespace it is handed, a seeded value
    stands unless its flag is given.

    That parser's flags are first read by one lookup per token in its own
    option table (_read_flags).  It takes a token only as an exact long
    option of a plain store action with one value, written "--opt value"
    with a value that does not start with "-", or "--opt=value" with a
    value other than "--"; and only when the parser has no positional and
    no required flag.  On such tokens argparse does the same: it looks a
    token up whole, then its part before "=", before it tries any
    abbreviation; it takes the text after "=" as the one value; and a
    token that does not start with "-" is an argument, which the flag
    before it consumes.  The value goes through the type, then the choices
    (_convert); each flag's last value stands and every flag neither given
    nor seeded takes its default, so the namespace is argparse's.  Every
    other argv, -h, an abbreviation, a positional, a value after a space
    starting with "-", a missing or bad value, "--" or an unknown token,
    goes whole to argparse, so its messages, exit codes and help are
    argparse's own."""
    ap = build_parser()
    args, leaf = argparse.Namespace(**(seed or {})), ap
    rest = sys.argv[1:] if argv is None else list(argv)
    while rest:
        sub = next((a for a in leaf._actions if isinstance(a, argparse._SubParsersAction)), None)
        if sub is None:
            break
        if rest[0] not in sub.choices:
            # argparse would name the option's value as the unknown subcommand;
            # "-", "--" and -h, --help or an abbreviation of it keep argparse's reply
            if rest[0].startswith("-") and rest[0] != "-h" and not "--help".startswith(rest[0]):
                leaf.error("option %s comes before the subcommand; options go after it"
                           % rest[0].split("=", 1)[0])
            break
        setattr(args, sub.dest, rest[0])
        leaf, rest = sub.choices[rest[0]], rest[1:]
    if _read_flags(leaf, rest, args):
        return args, leaf
    args, extras = leaf.parse_known_args(rest, args)
    if extras:
        ap.error("unrecognized arguments: %s" % " ".join(extras))
    for action in leaf._actions:
        # argparse before 3.12 drops a "--opt=--" value and stores []
        if type(getattr(args, action.dest, None)) is list:
            leaf.error("argument %s: expected one argument" % "/".join(action.option_strings))
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

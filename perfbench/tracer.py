"""Per-layer tracing of asreg2 from outside the package.

The tracer wraps every public function of each layer module, at every
module attribute that names it (``asreg2.cli.ampleness_report`` beside
``asreg2.skew.ampleness_report``), and a few hot methods on their class.
It keeps counts, times and boundary spans in memory; ``restore`` puts every
patched attribute back.  Nothing under ``src/`` is edited.

For each wrapped name it records:

- ``calls``: every call, recursive ones included;
- ``s``: time inside the call, counted at the outermost call only;
- ``self_s``: time inside the call minus the time of wrapped children;
- ``hits``: calls whose outcome was useful, for names that define it.

Layers are the modules of ``asreg2``.  ``rationals`` only selects the
number backend and is not timed.
"""

import functools
import sys
import time
import types

# spans kept per run; counts and times stay exact beyond it
SPAN_LIMIT = 10000

LAYERS = ("cli", "automorphisms", "algebra", "cyclotomic", "linalg", "skew", "beilinson", "quivers")


def _rank_grew(args, result):
    return result is True


def _both_rational(args, result):
    self, other = args
    return self.conductor == 1 and getattr(other, "conductor", 1) == 1


def _found(args, result):
    return result is not None


# (layer, class, attribute, metric name, useful-outcome test)
METHODS = (
    ("linalg", "Echelon", "add", "echelon_add", _rank_grew),
    ("linalg", "Echelon", "residue", "residue", None),
    ("cyclotomic", "Cyclotomic", "__mul__", "mul", _both_rational),
    ("cyclotomic", "Cyclotomic", "__rmul__", "mul", _both_rational),
    ("cyclotomic", "Cyclotomic", "inverse", "inverse", None),
    ("beilinson", "LambdaElement", "__mul__", "lambda_mul", None),
    ("automorphisms", "CyclicGroupAction", "char", "char", None),
)

FUNCTION_HITS = {"quivers.quiver_isomorphic": _found}


def _asreg2_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if (name == "asreg2" or name.startswith("asreg2.")) and mod is not None}


def snapshot():
    """Identity of every attribute the tracer may patch, to prove a restore."""
    state = {}
    for name, mod in _asreg2_modules().items():
        for attr, value in vars(mod).items():
            state[(name, attr)] = id(value)
    for layer, cls, attr, _, _ in METHODS:
        klass = getattr(sys.modules["asreg2." + layer], cls)
        state[("asreg2.%s.%s" % (layer, cls), attr)] = id(klass.__dict__[attr])
    return state


class Tracer:
    def __init__(self):
        self.stats = {}  # metric name -> [calls, hits, outermost s, self s]
        self.layer_s = dict.fromkeys(LAYERS, 0.0)
        self.layer_self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = []  # (id, name, start, end, parent id, job)
        self.spans_dropped = 0
        self.job = None
        self._stack = []  # frames: [layer, wrapped-children time, span id]
        self._layer_depth = {layer: [0] for layer in LAYERS}
        self._patches = []

    def _wrap(self, fn, name, layer, useful=None):
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        depth = [0]
        layer_depth = self._layer_depth[layer]
        layer_s, layer_self_s = self.layer_s, self.layer_self_s
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if parent is None or parent[0] != layer:
                # a layer boundary
                if len(spans) < SPAN_LIMIT:
                    span = len(spans)
                    spans.append(None)
                else:
                    self.spans_dropped += 1
            frame = [layer, 0.0, span]
            stack.append(frame)
            depth[0] += 1
            layer_depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                depth[0] -= 1
                layer_depth[0] -= 1
                stat[0] += 1
                stat[3] += dt - frame[1]
                layer_self_s[layer] += dt - frame[1]
                if not depth[0]:
                    stat[2] += dt
                if not layer_depth[0]:
                    layer_s[layer] += dt
                if span >= 0:
                    spans[span] = (span, name, t0, t1, parent[2] if parent else -1, self.job)
            if useful is not None and useful(args, result):
                stat[1] += 1
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = _asreg2_modules()
        wrappers = {}
        for layer in LAYERS:
            mod = modules["asreg2." + layer]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    name = "%s.%s" % (layer, attr)
                    wrappers[fn] = self._wrap(fn, name, layer, FUNCTION_HITS.get(name))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for layer, cls, attr, metric, useful in METHODS:
            klass = getattr(modules["asreg2." + layer], cls)
            self._patch(klass, attr, self._wrap(
                klass.__dict__[attr], "%s.%s" % (layer, metric), layer, useful))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self):
        return {name: {"calls": c, "hits": h, "s": s, "self_s": ss}
                for name, (c, h, s, ss) in sorted(self.stats.items())}

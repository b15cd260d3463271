"""Per-layer tracing: call counts and self time at hovm's public functions.

`Tracer.install()` wraps every public function of the layer modules and
puts the wrapper into every `hovm.*` namespace that holds the function, so
calls made through `from .x import f` names, module attributes and the
module's own globals are all counted.  A function's self time is its
elapsed time minus the elapsed time of the traced calls it made.

Run as a script, this is a traced `hovm` command line: it takes the same
arguments and stdin, prints the same stdout and exits with the same code,
and writes one extra line `PERFBENCH_TRACE <json>` to stderr.  The source
tree must be on PYTHONPATH.
"""

import functools
import importlib
import json
import sys
import time

LAYERS = (
    "rootdata", "weights", "characters", "holes", "weightsets", "weyl",
    "resolutions", "cat_o", "oracle", "verify", "cli",
)

# Per-element arithmetic helpers called inside the hottest loops; wrapping
# them would multiply the traced run's cost and move their time out of the
# functions whose loops they are.  depth_vectors is a generator, whose call
# returns before any work is done.
UNTRACED = {"weights.eval_at", "weights.is_nonneg_int", "weights.height",
            "weights.add_vectors", "weights.depth_vectors"}

# Output sizes recorded at the boundary: name -> metric suffix.
OUTPUT_SIZES = {
    "holes.transversals": "sets_out",
    "holes.admissible_sets": "families_out",
    "oracle.oracle_jh": "factors_out",
}

TRACE_MARK = "PERFBENCH_TRACE "


class Tracer:
    def __init__(self):
        self.stats = {}  # "module.function" -> {"calls", "self_s", [size]}
        self._child_time = []  # one accumulator per active traced call

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        size_key = OUTPUT_SIZES.get(name)
        if size_key:
            st[size_key] = 0
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st["calls"] += 1
                st["self_s"] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if size_key:
                st[size_key] += len(result)
            return result

        return traced

    def install(self):
        modules = {m: importlib.import_module("hovm." + m) for m in LAYERS}
        wrappers = {}
        for mod_name, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (mod_name, attr)
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name in [m for m in sys.modules if m == "hovm" or m.startswith("hovm.")]:
            namespace = vars(sys.modules[mod_name])
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    namespace[attr] = hit[1]
        return self


def merge(total, stats):
    """Add one stats dict into another, key by key."""
    for name, st in stats.items():
        acc = total.setdefault(name, dict.fromkeys(st, 0))
        for key, val in st.items():
            acc[key] = acc.get(key, 0) + val
    return total


def _traced_cli(argv):
    tracer = Tracer().install()
    cli = sys.modules["hovm.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.stats) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))

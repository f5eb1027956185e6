"""Per-layer tracing installed from outside the package.

Every public function of each ``tmcavity`` module is replaced, in every
module namespace that binds it, by a wrapper that records a span. A name
imported into several modules (``simulate_full`` into ``analysis`` and
``cli``, ``inner_product`` into ``modes``) gets the same wrapper everywhere.
Public classes that validate in ``__post_init__`` (``TemporalSignal``,
``ModeFamily``, ...) are traced through that method, so their construction
cost is counted once per object.

Spans stay in memory as ``[name, start_ns, end_ns, parent, pass, child_ns,
extra]`` and are written out when the benchmark ends. A span's self time is
its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
from time import perf_counter_ns

LAYERS = ("config", "signals", "modes", "design", "cavity", "analysis", "cli")
# Layers that work inside a pass. ``config`` works before one: its cost is
# reported as ``config.load_config.self_s`` from separate load rounds.
PASS_LAYERS = LAYERS[1:]

NAME, START, END, PARENT, PASS, CHILD, EXTRA = range(7)


def _path_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


def _rk4_steps(args, kwargs, result):
    return result.grid.n_samples - 1


def _values_bytes(args, kwargs, result):
    return args[0].values.nbytes


def _diverged(args, kwargs, result):
    return (sum(result.diverged), len(result.diverged))


# Traced names the per-layer metrics read. A name missing from the package
# (removed or renamed by a later change) is reported as absent; its
# metrics read 0.
COUNTED = ("cavity.simulate_full", "cavity.simulate_reduced",
           "cavity.analytic_conversion", "modes.ModeFamily",
           "signals.inner_product")
WRITERS = ("cavity.trajectory_to_csv", "signals.signal_to_csv",
           "modes.mode_family_to_csv")
TIMED = ("modes.gram_schmidt_family", "analysis.green_kernel",
         "modes.optimal_input_mode", "analysis.scan_alpha",
         "analysis.unconverted_energy", "analysis.conservation_residual",
         "design.design_control", "design.impedance_residual", "cli.run")
NAMED = COUNTED + WRITERS + TIMED + ("signals.TemporalSignal", "config.load_config")

# What a span records besides its time, by traced name.
EXTRA_HOOKS = {
    "cavity.simulate_full": _rk4_steps,
    "cavity.simulate_reduced": _rk4_steps,
    "cavity.trajectory_to_csv": _path_bytes,
    "signals.signal_to_csv": _path_bytes,
    "modes.mode_family_to_csv": _path_bytes,
    "signals.TemporalSignal": _values_bytes,
    "analysis.scan_alpha": _diverged,
}


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.traced: list[str] = []
        self.hook_errors: set[str] = set()

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0, 0, parent, self.pass_id, 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[END] = end = perf_counter_ns()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += end - rec[START]

    def wrap(self, name, fn):
        hook = EXTRA_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                try:
                    rec[EXTRA] = hook(args, kwargs, result)
                except Exception:  # a changed signature must not fail the scenario
                    self.hook_errors.add(name)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name, pass_id):
        """Root span of one pass, or of one round of config loading."""
        self.pass_id = pass_id
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function and ``__post_init__`` of the layers,
        and restore the originals on exit."""
        package = importlib.import_module("tmcavity")
        modules = [package] + [
            importlib.import_module(f"tmcavity.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        patched = []  # (owner, attribute, original)
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(name, obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    patched.append((obj, "__post_init__", obj.__post_init__))
                    obj.__post_init__ = self.wrap(name, obj.__post_init__)
                else:
                    continue
                if name not in self.traced:
                    self.traced.append(name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        try:
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump every span as one CSV row."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("pass,index,parent,name,start_ns,end_ns,self_ns,extra\n")
            for i, s in enumerate(self.spans):
                self_ns = s[END] - s[START] - s[CHILD]
                extra = "" if s[EXTRA] is None else str(s[EXTRA]).replace(",", ";")
                fh.write(f"{s[PASS]},{i},{s[PARENT]},{s[NAME]},{s[START]},"
                         f"{s[END]},{self_ns},{extra}\n")

    def per_pass(self) -> dict:
        """Aggregate spans into per-pass {name: [calls, self_ns, extra]}."""
        out: dict = {}
        for s in self.spans:
            agg = out.setdefault(s[PASS], {}).setdefault(s[NAME], [0, 0, None])
            agg[0] += 1
            agg[1] += s[END] - s[START] - s[CHILD]
            if s[EXTRA] is not None:
                if isinstance(s[EXTRA], tuple):
                    prev = agg[2] or (0,) * len(s[EXTRA])
                    agg[2] = tuple(a + b for a, b in zip(prev, s[EXTRA]))
                else:
                    agg[2] = (agg[2] or 0) + s[EXTRA]
        return out


def layer_metrics(per_pass: dict, pass_ids: list, load_ids: list,
                  output_bytes: list[int]):
    """Per-layer metrics from traced passes, and the counts that must repeat.

    ``pass_ids`` name the traced passes and ``load_ids`` the rounds that
    loaded the workload's configs. Returns ``(metrics, counts)``:
    ``metrics`` maps a name to ``(value, unit)``, self times being medians
    per pass; ``counts`` holds, per pass, every call count, step count and
    byte count, which a pass of the same seed must reproduce exactly.
    """

    def stat(name, field, ids=pass_ids):
        return [per_pass[p].get(name, [0, 0, None])[field] for p in ids]

    def med_s(values):
        return statistics.median(values) / 1e9

    def extra(name, default=0):
        return [default if v is None else v for v in stat(name, 2)]

    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = (stat(name, 0)[0], "count")
        m[f"{name}.self_s"] = (med_s(stat(name, 1)), "s")
    steps = [a + b for a, b in zip(extra("cavity.simulate_full"),
                                   extra("cavity.simulate_reduced"))]
    rk4_ns = [a + b for a, b in zip(stat("cavity.simulate_full", 1),
                                    stat("cavity.simulate_reduced", 1))]
    m["cavity.rk4_steps"] = (steps[0], "count")
    m["cavity.ns_per_rk4_step"] = (
        statistics.median([ns / n for ns, n in zip(rk4_ns, steps)]) if steps[0] else 0.0,
        "ns",
    )
    for name in WRITERS:
        m[f"{name}.self_s"] = (med_s(stat(name, 1)), "s")
        m[f"{name}.bytes"] = (extra(name)[0], "B")
    m["cli.output_bytes"] = (output_bytes[0], "B")
    m["signals.TemporalSignal.calls"] = (stat("signals.TemporalSignal", 0)[0], "count")
    m["signals.TemporalSignal.bytes_computed"] = (extra("signals.TemporalSignal")[0], "B")
    for name in TIMED:
        m[f"{name}.self_s"] = (med_s(stat(name, 1)), "s")
    diverged, attempted = extra("analysis.scan_alpha", (0, 0))[0]
    m["analysis.scan_alpha.diverged_ratio"] = (
        diverged / attempted if attempted else 0.0, "ratio")
    m["config.load_config.self_s"] = (med_s(stat("config.load_config", 1, load_ids)), "s")
    for layer in PASS_LAYERS:
        per = [sum(agg[1] for name, agg in per_pass[p].items()
                   if name.startswith(layer + "."))
               for p in pass_ids]
        m[f"{layer}.self_s"] = (med_s(per), "s")

    counts = []
    for p, nbytes in zip(pass_ids, output_bytes):
        row = {"cli.output_bytes": nbytes}
        for name, (calls, _, ext) in per_pass[p].items():
            row[f"{name}.calls"] = calls
            if ext is not None:
                row[f"{name}.extra"] = ext
        counts.append(row)
    return m, counts

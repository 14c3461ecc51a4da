"""In-memory span tracing of phaselab's public functions, installed from outside.

A `Tracer` replaces each target function at every module attribute that is
bound to it (for example `phaselab.erm.project`, the name `solve_pgd` looks
up, besides `phaselab.sets.project`), so calls made inside the package are
recorded too.  Spans are kept in memory as
`(span_id, name, start, end, parent_id, trial)` tuples and written out by the
caller when the run ends.  `restore()` puts every patched attribute back.

Spans recorded in pool workers stay in those processes: a forked worker
inherits the wrappers but its spans are never sent back.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import time

# (layer, function name) pairs wrapped by the traced run; the span name is
# "<layer>.<name>".  cli is the entry point and gets its span from the caller.
TARGETS = (
    ("ensembles", "generate_sample"),
    ("erm", "objective"),
    ("erm", "gradient"),
    ("erm", "solve_pgd"),
    ("erm", "solve_oracle"),
    ("sets", "project"),
    ("sets", "fixed_point"),
    ("sets", "packing_count"),
    ("harness", "run_experiment"),
    ("harness", "export_results"),
    ("harness", "load_results"),
    ("harness", "load_config"),
    ("empirics", "psi_alpha_norm"),
    ("empirics", "rearrangement_functional"),
    ("empirics", "paley_zygmund_fraction"),
    ("empirics", "norm_equivalence_violations"),
)

PACKAGE = "phaselab"

# A span with this name starts a new trial; the trial ends with the
# enclosing experiment span.
_TRIAL_START = "ensembles.generate_sample"
_TRIAL_SCOPE = "harness.run_experiment"


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Records a span per call of each target and keeps chosen return values.

    `keep` maps a span name to a function of the call's positional
    arguments and return value; what it returns is stored in `kept[name]` as
    `(span_id, value)`.
    """

    def __init__(self, keep=None):
        self.keep = dict(keep or {})
        self.spans = []
        self.kept = {name: [] for name in self.keep}
        self.item = ""
        self._trial = 0
        self._ids = itertools.count()
        self._stack = []
        self._patched = []

    def install(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        by_name = {mod.__name__: mod for mod in modules}
        for layer, attr in TARGETS:
            home = by_name[f"{PACKAGE}.{layer}"]
            original = getattr(home, attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def restore(self):
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the caller's with-block."""
        state = self._open(name)
        try:
            yield
        finally:
            self._close(name, *state)

    def _open(self, name):
        if name == _TRIAL_START:
            self._trial += 1
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        trial = f"{self.item}#{self._trial}" if self._trial else self.item
        self.spans.append((sid, name, start, end, parent, trial))
        if name == _TRIAL_SCOPE:
            self._trial = 0

    def _wrap(self, name, fn):
        keep = self.keep.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            if keep is not None:
                self.kept[name].append((sid, keep(args, result)))
            return result

        return traced

    def write(self, path):
        """Write the spans as JSON lines: [id, name, start, end, parent, trial]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize_spans(spans):
    """Per span name: calls, busy seconds and self seconds; per layer: busy and self.

    A span's self time is its duration minus the time its child spans cover.
    A layer's busy time counts each span whose parent is in another layer.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    per_name = {}
    per_layer = {}
    for sid, name, start, end, parent, _ in spans:
        dur = end - start
        own = dur - child_time.get(sid, 0.0)
        entry = per_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += own
        layer = layer_of(name)
        lentry = per_layer.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
        lentry["self_s"] += own
        if parent is None or layer_of(by_id[parent][1]) != layer:
            lentry["busy_s"] += dur
    return per_name, per_layer

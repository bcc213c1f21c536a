"""Span tracing of the twinfock layers, installed from outside the package.

`install(tracer)` replaces every public function of the six layer modules,
and every public method of the classes they define, with a timing wrapper.
The wrapper is also bound under each name that another twinfock module
imported through `from .x import y`, so calls between layers are traced.
`uninstall` puts the originals back.

Each wrapped call records one span, unless its pass only counts: (span id,
parent span id, name, pass id, start, end, busy, self).  For a call, busy is end - start.  A generator
function (`compositions`, `SparseState.terms`) records one span per
generator whose busy time is the time spent inside its `next()` steps; that
time is charged to whichever span consumed the step.  Self time is busy time
minus the busy time of the spans nested inside it, so the self times of all
spans in a pass add up to the root spans' total.
"""

import functools
import gzip
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter

LAYERS = ("combinat", "fock", "states", "loss", "detection", "cli")
ROOT = "bench.op"

#: Inclusive-time metrics: the time of the outermost span of any listed name.
GROUPS = {
    "states.direct_s": ("states.pair_state_direct",),
    "states.recursive_s": ("states.pair_state_recursive",),
    "loss.weight_s": ("loss.absorption_weight",),
    "detection.closed_s": (
        "detection.p_fa_closed", "detection.p_md_closed", "detection.false_alarm_terms",
    ),
    "detection.oracle_s": ("detection.p_fa_oracle", "detection.p_md_oracle"),
    "cli.format_s": ("cli.fmt_log", "cli.fmt_float"),
}


class Tracer:
    """Span recorder and per-pass counters; one per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layer: list[str] = []
        self._groups: list[str | None] = []
        # spans packed flat, four numbers each: (span, parent, name, pass) and
        # (start, end, busy, self); a sweep pass makes about a million spans
        self._span_ids = array("q")
        self._span_times = array("d")
        self.keep_spans = True
        self.counts: Counter = Counter()
        self.recording = False
        self.memory = False
        self.pass_id = -1
        self._next_span = 0
        # open frames: [span id, name id, start, child busy, parent span id]
        self._stack: list[list] = []
        self._group_depth: Counter = Counter()
        self._fock_depth = 0
        self._clock = time.perf_counter

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer.append(name.split(".", 1)[0])
            self._groups.append(next((g for g, members in GROUPS.items() if name in members), None))
        return self._ids[name]

    # -- passes and root spans ------------------------------------------------

    def begin_pass(self, pass_id: int, memory: bool = False, keep_spans: bool = True) -> None:
        """Start counting a new pass.

        `memory` switches to tracemalloc sampling; with `keep_spans` off the
        pass only adds to the counters.
        """
        self.pass_id = pass_id
        self.counts = Counter()
        self.memory = memory
        self.keep_spans = keep_spans

    def spans(self):
        """Recorded spans as (span, parent, name, pass, start, end, busy, self) tuples."""
        ids, times = self._span_ids, self._span_times
        for i in range(0, len(ids), 4):
            yield (ids[i], ids[i + 1], self.names[ids[i + 2]], ids[i + 3], *times[i:i + 4])

    def span_count(self) -> int:
        return len(self._span_ids) // 4

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        self.recording = True
        try:
            return self.call(self.name_id(ROOT), fn, args, {})
        finally:
            self.recording = False

    # -- span bookkeeping -----------------------------------------------------

    def _open(self, name_id: int) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_span, name_id, 0.0, 0.0, parent]
        self._next_span += 1
        return frame

    def _close(self, frame: list, start: float, end: float, busy: float) -> None:
        name_id = frame[1]
        self_s = busy - frame[3]
        layer = self._layer[name_id]
        self.counts[layer + ".self_s"] += self_s
        if self.keep_spans:
            self._span_ids.extend((frame[0], frame[4], name_id, self.pass_id))
            self._span_times.extend((start, end, busy, self_s))

    def call(self, name_id: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) as a span of the given name."""
        frame = self._open(name_id)
        group = self._groups[name_id]
        track_memory = self.memory and self._layer[name_id] == "fock" and self._fock_depth == 0
        if self._layer[name_id] == "fock":
            self._fock_depth += 1
        if group:
            self._group_depth[group] += 1
        if track_memory:
            # tracing only inside top-level fock spans keeps the other layers at full speed
            tracemalloc.start()
        self._stack.append(frame)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            self._stack.pop()
            if track_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counts["fock.peak_bytes"] = max(self.counts["fock.peak_bytes"], peak)
            if self._layer[name_id] == "fock":
                self._fock_depth -= 1
            busy = end - start
            if group:
                self._group_depth[group] -= 1
                if self._group_depth[group] == 0:
                    self.counts[group] += busy
            if self._stack:
                self._stack[-1][3] += busy
            self._close(frame, start, end, busy)

    def iterate(self, name_id: int, gen):
        """Yield from gen, timing each step as part of one generator span."""
        frame = self._open(name_id)
        created = self._clock()
        busy = 0.0
        under = "yield_under:" + (self.names[self._stack[-1][1]] if self._stack else "")
        yielded = "yield:" + self.names[name_id]
        try:
            while True:
                self._stack.append(frame)
                start = self._clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    step = self._clock() - start
                    self._stack.pop()
                    busy += step
                    if self._stack:
                        self._stack[-1][3] += step
                self.counts[yielded] += 1
                self.counts[under] += 1
                yield item
        finally:
            self._close(frame, created, self._clock(), busy)


# ---------------------------------------------------------------------------
# result hooks: counters that need the arguments or the result of a call


def _len_hook(counter):
    def hook(counts, args, result):
        counts[counter] += len(result)
    return hook


def _falling_ratio_term_hook(counts, args, result):
    counts["combinat.log_terms"] += args[2]


HOOKS = {
    "combinat.falling_ratio_logs": _len_hook("combinat.log_terms"),
    "combinat.falling_ratio_term": _falling_ratio_term_hook,
    "states.pair_state_direct": _len_hook("states.terms_built"),
    "states.pair_state_recursive": _len_hook("states.terms_built"),
    "loss.beamsplitter_oracle": _len_hook("loss.oracle_amplitudes"),
    "loss.split_by_environment": _len_hook("loss.components"),
    "detection.projector_components": _len_hook("detection.projector_components"),
}


def _make_wrapper(tracer: Tracer, fn, name: str, sparse_state_type):
    name_id = tracer.name_id(name)
    calls = "calls:" + name
    hook = HOOKS.get(name)
    is_fock = name.startswith("fock.")
    is_combine = name == "fock.combine"

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.counts[calls] += 1
            return tracer.iterate(name_id, fn(*args, **kwargs))
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        counts = tracer.counts
        counts[calls] += 1
        if is_combine:
            args = (_counting_terms(counts, args[0]),) + args[1:]
        result = tracer.call(name_id, fn, args, kwargs)
        if type(result) is sparse_state_type:
            size = len(result)
            if size > counts["fock.peak_amplitudes"]:
                counts["fock.peak_amplitudes"] = size
            if is_fock:
                counts["fock.amplitudes_out"] += size
            if is_combine:
                counts["fock.combine_kept"] += size
        if hook is not None:
            hook(counts, args, result)
        return result
    return wrapper


def _counting_terms(counts, terms):
    """Pass the (coeff, state) terms of combine through, counting accumulated amplitudes."""
    for coeff, state in terms:
        if coeff != 0:
            counts["fock.combine_accumulated"] += len(state)
        yield coeff, state


def _public_callables(module):
    """(owner, attribute, qualified name, function, kind) for each traced callable."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, attr, f"{layer}.{attr}", value, "function"
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            for method, raw in sorted(vars(value).items()):
                if method.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    yield value, method, f"{layer}.{attr}.{method}", raw.__func__, "classmethod"
                elif inspect.isfunction(raw):
                    yield value, method, f"{layer}.{attr}.{method}", raw, "function"


def install(tracer: Tracer):
    """Wrap every public layer callable; returns a function that undoes it."""
    import twinfock
    from twinfock import fock

    modules = [sys.modules[f"twinfock.{layer}"] for layer in LAYERS]
    namespaces = [twinfock] + modules
    restore = []
    for module in modules:
        for owner, attr, name, fn, kind in list(_public_callables(module)):
            wrapper = _make_wrapper(tracer, fn, name, fock.SparseState)
            original = vars(owner)[attr]
            replacement = classmethod(wrapper) if kind == "classmethod" else wrapper
            setattr(owner, attr, replacement)
            restore.append((owner, attr, original))
            if owner is module:
                for namespace in namespaces:
                    for other, value in list(vars(namespace).items()):
                        if value is fn and namespace is not module:
                            setattr(namespace, other, wrapper)
                            restore.append((namespace, other, fn))

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's counters


def layer_metrics(counts: Counter) -> dict[str, float]:
    """Derive the named per-layer metrics from the counters of one traced pass."""
    calls = {key[6:]: value for key, value in counts.items() if key.startswith("calls:")}

    def calls_of(*names):
        return sum(calls.get(name, 0) for name in names)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = counts[f"{layer}.self_s"]
    for name in (*GROUPS, "bench.self_s", "combinat.log_terms", "fock.amplitudes_out",
                 "fock.peak_amplitudes", "states.terms_built", "loss.oracle_amplitudes",
                 "detection.projector_components"):
        out[name] = counts[name]
    out["combinat.compositions_yielded"] = counts["yield:combinat.compositions"]
    out["combinat.exact_calls"] = calls_of(
        "combinat.binomial", "combinat.count_compositions", "combinat.falling_ratio_exact")
    out["combinat.falling_ratio_logs.calls"] = calls_of("combinat.falling_ratio_logs")
    out["fock.ladder_calls"] = calls_of("fock.SparseState.create", "fock.SparseState.annihilate")
    accumulated = counts["fock.combine_accumulated"]
    out["fock.combine_keep_ratio"] = counts["fock.combine_kept"] / accumulated if accumulated else 0.0
    out["loss.components"] = calls_of("loss.loss_component") + counts["loss.components"]
    weights = calls_of("loss.absorption_weight")
    walked = counts["yield_under:loss.absorption_weight"]
    out["loss.enum_per_component"] = walked / weights if weights else 0.0
    return out


def write_spans(tracer: Tracer, path) -> int:
    """Write every recorded span as gzipped tab-separated text; returns the span count."""
    with gzip.open(path, "wt", compresslevel=1) as handle:
        handle.write("span\tparent\tname\tpass\tstart\tend\tbusy\tself\n")
        for span, parent, name, pass_id, start, end, busy, self_s in tracer.spans():
            handle.write(f"{span}\t{parent}\t{name}\t{pass_id}\t"
                         f"{start:.9f}\t{end:.9f}\t{busy:.9f}\t{self_s:.9f}\n")
    return tracer.span_count()

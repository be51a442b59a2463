"""In-memory span tracer that wraps bfdsim's public functions from outside.

Every public function defined in one of the traced modules is replaced,
in every ``bfdsim`` module namespace that binds it (``evolution.symbol_table``,
``studies.energy_report`` and ``bfdsim.evolve`` are separate bindings), by a
wrapper that records a span ``(id, parent, name, start, end)``.  The FFT
methods of ``GridSpec`` and the ``SymbolTable.ratio_sqrt`` property are
wrapped on their classes.  ``uninstall`` puts every original back.  Spans
stay in memory until ``write`` is called at the end of a run.

A span's name is ``<module>.<function>``, so the layers are the module names.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import statistics
import sys
import time

LAYERS = ("spectral", "symbols", "system", "evolution", "energy",
          "initial_data", "snapshots", "studies")

STEP_SPANS = ("evolution.step_exponential", "evolution.step_classical")

# marker set on every wrapper so a leftover one can be found after uninstall
WRAPPER_MARK = "__perfbench_wrapper__"


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class NullTracer:
    """Stands in for Tracer in untraced runs: phase spans cost nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patched: list[tuple] = []
        # name -> hook(span_id, args, result), for computed byte counts
        self.hooks: dict = {}

    # recording ------------------------------------------------------------

    def span(self, name: str):
        """Span around a phase of the benchmark itself (setup, monitor);
        recorded only while the tracer is installed."""
        return self._span(name) if self._patched else NullTracer._null

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, self.clock
        hooks = self.hooks

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            hook = hooks.get(name)
            if hook is not None:
                hook(sid, args, result)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the traced modules everywhere."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bfdsim" or name.startswith("bfdsim."))]
        for layer in LAYERS:
            mod = sys.modules[f"bfdsim.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for m in modules:
                    for name, bound in list(vars(m).items()):
                        if bound is obj:
                            self._set(m, name, wrapper)

        spectral = sys.modules["bfdsim.spectral"]
        for meth in ("fft", "ifft", "ifft_real"):
            orig = spectral.GridSpec.__dict__[meth]
            self._set(spectral.GridSpec, meth, self._wrap(f"spectral.{meth}", orig))
        symbols = sys.modules["bfdsim.symbols"]
        prop = symbols.SymbolTable.__dict__["ratio_sqrt"]
        self._set(symbols.SymbolTable, "ratio_sqrt",
                  property(self._wrap("symbols.ratio_sqrt", prop.fget), doc=prop.__doc__))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def leftover_wrappers(self) -> list[str]:
        """Names in bfdsim still bound to a tracer wrapper (empty when clean)."""
        found = []
        for name, m in sorted(sys.modules.items()):
            if m is None or not (name == "bfdsim" or name.startswith("bfdsim.")):
                continue
            for attr, obj in vars(m).items():
                targets = [obj]
                if isinstance(obj, type):
                    targets = [(v.fget if isinstance(v, property) else v)
                               for v in vars(obj).values()]
                if any(getattr(t, WRAPPER_MARK, False) for t in targets):
                    found.append(f"{name}.{attr}")
        return found

    def write(self, path) -> None:
        """One JSON object per span; names are dotted identifiers, so they
        need no escaping, and formatting by hand keeps long runs quick."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f'{{"id": {sid}, "parent": {parent}, "name": "{name}", '
                         f'"start": {t0!r}, "end": {t1!r}}}\n')


class SpanStats:
    """Durations, self times and step attribution computed from spans."""

    def __init__(self, spans):
        self.spans = spans
        info = {sid: (parent, name) for sid, parent, name, _, _ in spans}
        child = dict.fromkeys(info, 0.0)
        for _, parent, _, t0, t1 in spans:
            if parent:
                child[parent] += t1 - t0
        self.self_time = {sid: (t1 - t0) - child[sid] for sid, _, _, t0, t1 in spans}
        self.duration = {sid: t1 - t0 for sid, _, _, t0, t1 in spans}
        self.info = info

        memo: dict[int, int] = {}

        def enclosing_step(sid):
            """Nearest step span strictly above sid, 0 when there is none."""
            if sid not in memo:
                parent = info[sid][0]
                if not parent:
                    memo[sid] = 0
                elif info[parent][1] in STEP_SPANS:
                    memo[sid] = parent
                else:
                    memo[sid] = enclosing_step(parent)
            return memo[sid]

        self.in_step = {sid: enclosing_step(sid) for sid in info}
        self.by_name: dict[str, list[int]] = {}
        for sid, (_, name) in info.items():
            self.by_name.setdefault(name, []).append(sid)
        self.steps = sum(len(self.named(name)) for name in STEP_SPANS)

    def named(self, name) -> list[int]:
        return self.by_name.get(name, [])

    def ms(self, name, q):
        return 1e3 * percentile([self.duration[s] for s in self.named(name)], q)

    def first_ms(self, name):
        sids = self.named(name)
        return 1e3 * self.duration[min(sids)] if sids else 0.0

    def step_calls(self, name) -> list[int]:
        """Calls of name inside each step span, one entry per step."""
        per = {sid: 0 for step in STEP_SPANS for sid in self.named(step)}
        for sid in self.named(name):
            if self.in_step[sid]:
                per[self.in_step[sid]] += 1
        return list(per.values())

    def calls_per_step(self, name):
        if not self.steps:
            return 0.0
        return sum(1 for s in self.named(name) if self.in_step[s]) / self.steps

    def self_ms_per_step(self, name):
        """Self time per step of name's calls inside steps; for the steppers
        and the evolve loop themselves, all of their calls."""
        if not self.steps:
            return 0.0
        sids = self.named(name)
        if name not in STEP_SPANS and name != "evolution.evolve":
            sids = [s for s in sids if self.in_step[s]]
        return 1e3 * sum(self.self_time[s] for s in sids) / self.steps

    def self_ms_per_call(self, name):
        sids = self.named(name)
        if not sids:
            return 0.0
        return 1e3 * statistics.fmean(self.self_time[s] for s in sids)

    def self_ms_median(self, name):
        return 1e3 * percentile([self.self_time[s] for s in self.named(name)], 0.5)

"""Outside-in span recorder for the holobath layers.

The package source is never edited.  Instead :class:`SpanRecorder` replaces
every public callable of each layer module with a timing wrapper, at every
name a caller can look it up under: ``from .channel import build_channel``
gives ``holobath.sweep`` its own binding, so patching only
``holobath.channel.build_channel`` would silently miss the sweep's calls.
Methods are wrapped on their class.  Properties are left alone: they are
attribute reads, not layer boundaries.

Each span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root).  Spans stay in memory until the caller
writes them out.  Besides spans the recorder keeps three exact counters that
a timing wrapper cannot derive:

- ``sweep.refine.evals``: calls of the objective handed to
  ``golden_section_maximize``;
- ``sweep.csv_bytes``: UTF-8 bytes returned by ``format_curves_csv``;
- the ``(N, beta*alpha)`` key of every ``thermal_weights`` call, from which
  the repeat fraction follows.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = (
    "lambda_system",
    "error_model",
    "spin_bath",
    "channel",
    "sweep",
    "reference",
    "cli",
)


def public_callables(module):
    """(qualified name, owner, attribute) of every public function of a layer.

    Public means defined in ``module`` under a name without a leading
    underscore, whether or not it is listed in ``__all__``: the CLI has no
    ``__all__`` and ``format_curves_csv`` is not in the sweep's.
    """
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                    yield f"{layer}.{obj.__name__}.{attr}", obj, attr


class SpanRecorder:
    """Installs timing wrappers on the holobath layers and collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"sweep.refine.evals": 0, "sweep.csv_bytes": 0}
        self.weight_keys: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Forget the spans and counters of the previous iteration."""
        self.spans = []
        self.counts = dict.fromkeys(self.counts, 0)
        self.weight_keys = []

    def _timed(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # reset() rebinds self.spans, so look the list up on every call.
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def _probed(self, name: str, fn):
        """The timing wrapper plus the counter probe this callable needs, if any."""
        if name == "spin_bath.thermal_weights":
            def probe(bath, *args, **kwargs):
                self.weight_keys.append((bath.n_spins, bath.beta_alpha))
                return fn(bath, *args, **kwargs)
        elif name == "sweep.golden_section_maximize":
            def probe(f, *args, **kwargs):
                def counted(x):
                    self.counts["sweep.refine.evals"] += 1
                    return f(x)
                return fn(counted, *args, **kwargs)
        elif name == "sweep.format_curves_csv":
            def probe(*args, **kwargs):
                text = fn(*args, **kwargs)
                self.counts["sweep.csv_bytes"] += len(text.encode("utf-8"))
                return text
        else:
            return self._timed(name, fn)
        return self._timed(name, functools.wraps(fn)(probe))

    def install(self) -> None:
        """Wrap every public callable of every layer at every binding of it."""
        if self._undo:
            raise RuntimeError("recorder is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "holobath" or n.startswith("holobath."))]
        for layer in LAYERS:
            module = sys.modules[f"holobath.{layer}"]
            for name, owner, attr in public_callables(module):
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    self._set(owner, attr, raw, type(raw)(self._probed(name, raw.__func__)))
                    continue
                wrapped = self._probed(name, raw)
                # A module-level function may also be bound in every module
                # that imported it; a method lives on its class only.
                for other in modules if owner is module else [owner]:
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            self._set(other, key, raw, wrapped)

    def _set(self, owner, attr, raw, wrapped) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the time its direct child spans cover.

    Children run strictly inside their parent on one thread, so their
    durations never overlap and can simply be subtracted.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-callable ``calls``, ``self_s`` and ``total_s`` over a list of spans.

    ``total_s`` counts only outermost spans of a name, so recursion is not
    counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["total_s"] += end - start
    return out

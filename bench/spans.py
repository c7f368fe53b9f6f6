"""Span recording around smoothlab's public functions, installed from outside.

The program is not edited.  Every public function (and public method of a
public class) defined in a ``smoothlab`` module is replaced by a wrapper
that records one span per call.  Because several modules bind helpers with
``from .x import y``, each wrapper is installed in every namespace that
holds the original object (module globals and module-level dicts such as
``suites.SUITE_RUNNERS``), so callers look up the wrapper, not the
original.  Transforms are counted by wrapping ``scipy.fft.fftn``/``ifftn``,
which ``grid._fftn``/``_ifftn`` look up at call time.

A span is ``[name, parent, start, end, elements]``; ``parent`` is the index
of the enclosing span (-1 for a root) and ``elements`` is the transform
size for FFT spans.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types

FFT_SPAN = "grid.fft"
#: computed bytes moved per complex128 transform element: read + write
FFT_BYTES_PER_ELEMENT = 16 * 2
#: the CLI module drives a run and is never wrapped (its bindings are)
UNWRAPPED_MODULES = {"cli"}


class Tracer:
    """Holds the spans of one process and installs the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, sized: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    args[0].size if sized else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public smoothlab function and the two transforms."""
        import scipy.fft
        import smoothlab

        modules = [
            importlib.import_module(f"smoothlab.{info.name}")
            for info in pkgutil.iter_modules(smoothlab.__path__)
        ]
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            if short in UNWRAPPED_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if _public_function(attr, obj, mod.__name__):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    for meth, fn in list(vars(obj).items()):
                        if _public_function(meth, fn, mod.__name__):
                            setattr(obj, meth, self._wrap(f"{short}.{attr}.{meth}", fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
        for attr in ("fftn", "ifftn"):
            setattr(scipy.fft, attr, self._wrap(FFT_SPAN, getattr(scipy.fft, attr), sized=True))


def _public_function(attr: str, obj, module_name: str) -> bool:
    # generator functions return before their work runs, so a span around
    # the call would measure nothing; their time stays with the consumer
    return (
        isinstance(obj, types.FunctionType)
        and obj.__module__ == module_name
        and not attr.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    )


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list], root_name: str) -> dict:
    """Per-layer aggregates of one traced run.

    Self time is a span's duration minus the durations of its direct
    children; transforms count against the layer of the innermost
    enclosing span.  ``root_self_s`` sums the self times of the spans named
    ``root_name`` and everything beneath them; it equals the roots' total
    duration when the spans nest properly.
    """
    child_s = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s: dict[str, float] = {}
    inclusive_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    fft_calls: dict[str, int] = {}
    fft_elements = 0
    members = 0
    root_of = [-1] * len(spans)
    root_self_s = 0.0
    min_self = 0.0
    for i, (name, parent, start, end, elements) in enumerate(spans):
        layer = layer_of(name)
        own = end - start - child_s[i]
        min_self = min(min_self, own)
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name != name:  # count a recursive call once
            inclusive_s[name] = inclusive_s.get(name, 0.0) + end - start
        root_of[i] = i if name == root_name else (root_of[parent] if parent >= 0 else -1)
        if root_of[i] >= 0:
            root_self_s += own
        if name == FFT_SPAN:
            owner = layer_of(parent_name) if parent >= 0 else "untraced"
            fft_calls[owner] = fft_calls.get(owner, 0) + 1
            fft_elements += elements
        elif (name.startswith("ensembles.band_limited_")
              and layer_of(parent_name) != "ensembles"):
            members += 1
    return {
        "spans": len(spans),
        "self_s": self_s,
        "inclusive_s": inclusive_s,
        "calls": calls,
        "fft_calls": fft_calls,
        "fft_bytes": fft_elements * FFT_BYTES_PER_ELEMENT,
        "ensemble_members": members,
        "root_self_s": root_self_s,
        "min_self_s": min_self,
    }

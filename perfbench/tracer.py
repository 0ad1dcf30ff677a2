"""Span tracing around the public function of each ``ksing`` layer.

A wrapper replaces every binding of a layer function in every loaded
``ksing`` module, because callers look functions up by different names:
``ktheory`` calls its own ``smith_normal_form`` global, ``cli`` its own
``determinant``, ``linalg.theorem_matrix`` its module's
``unipotent_inverse``.  Spans stay in memory and are written out once, at the
end of the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

#: Layers are the modules of the library; each entry is its public function.
LAYERS = {
    "params": ("validate_params", "iter_weight_tuples"),
    "quiver": ("build_quiver",),
    "cartan": ("path_counts_gf", "path_counts_bruteforce", "cartan_matrix"),
    "linalg": (
        "smith_normal_form",
        "unipotent_inverse",
        "theorem_matrix",
        "determinant",
        "pfaffian",
    ),
    "ktheory": ("pipeline_matrix", "compute_ktheory", "verify_paper"),
    "cli": ("main",),
}


def _matrix_bits(m, *args, **kwargs) -> int:
    return max(abs(x).bit_length() for row in m.entries for x in row)


def _params_key(params, *args, **kwargs) -> tuple:
    return (params.n, params.d, params.weights)


#: Values recorded from the arguments of a call, outside its span.
NOTES = {
    "linalg.smith_normal_form": _matrix_bits,
    "ktheory.compute_ktheory": _params_key,
}

# Span fields: name index, start, end, parent span, busy time, child time,
# failed.  A generator's busy time counts only the time spent producing items.
NAME, START, END, PARENT, BUSY, CHILD, FAILED = range(7)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.notes: dict[str, list] = {name: [] for name in NOTES}

    def install(self) -> None:
        """Wrap every layer function on each name that binds it."""
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"ksing.{layer}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "ksing":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _open(self, idx: int) -> list:
        span = [idx, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0, 0.0, False]
        self.spans.append(span)
        return span

    def _segment_end(self, span: list, t0: float) -> None:
        elapsed = perf_counter() - t0
        span[BUSY] += elapsed
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += elapsed

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        notes = self.notes.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = self._open(idx)
                sid = len(self.spans) - 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        self.stack.append(sid)
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        except BaseException:
                            span[FAILED] = True
                            raise
                        finally:
                            self._segment_end(span, t0)
                        yield item
                finally:
                    span[END] = perf_counter()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                notes.append(note(*args, **kwargs))
            span = self._open(idx)
            self.stack.append(len(self.spans) - 1)
            t0 = span[START]
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                self._segment_end(span, t0)
                span[END] = perf_counter()

        return traced

    def stats(self) -> dict:
        """Per function: calls, busy time, self time and failed calls."""
        out = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
            for name in self.names
        }
        for span in self.spans:
            s = out[self.names[span[NAME]]]
            s["calls"] += 1
            s["busy_s"] += span[BUSY]
            s["self_s"] += span[BUSY] - span[CHILD]
            s["failed"] += span[FAILED]
        return out

    def write(self, path, **meta) -> None:
        """Write every span; spans of one top-level call share a request id."""
        request = []
        rows = []
        for i, span in enumerate(self.spans):
            parent = span[PARENT]
            request.append(i if parent < 0 else request[parent])
            rows.append([span[NAME], span[START], span[END], parent, request[i], span[BUSY], span[FAILED]])
        payload = {
            **meta,
            "fields": ["name", "start", "end", "parent", "request", "busy", "failed"],
            "names": self.names,
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))

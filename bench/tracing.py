"""Span tracing for the traced benchmark run.

The tracer wraps, from outside the library, every public function of each
idealis layer module and every public ``Clopen`` method.  The wrapper is
also put in place of every other module's reference to the same function
(``nullset.clopen_enum``, ``cli.meager_eval``, ...), so calls between
layers are seen too.  Each call becomes one span: name, start, end and the
index of the enclosing span.  Spans live in compact arrays until the run
ends; ``summary`` then derives per-layer call counts and self times (a
span's duration minus the time its child spans cover), and ``write``
dumps them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array

LAYERS = (
    "space",
    "enumerations",
    "countable",
    "meager",
    "nullset",
    "closed_null",
    "domination",
    "fubini",
    "cli",
)

_NULL_QUERIES = ("nullset.null_member", "nullset.null_stage", "nullset.null_term")
_KCOMB = ("enumerations.kcomb_rank", "enumerations.kcomb_unrank")


def _public_functions(mod):
    for name, obj in list(vars(mod).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
            yield name, obj


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._restore: list = []
        # counters kept at the boundary where the work happens
        self.enum_args: set = set()
        self.enum_max_level = 0
        self.seq_code_bits = 0
        self.enum_under_null = 0
        self._null_active = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        if name == "enumerations.clopen_enum":

            def after(args, result):
                tracer.enum_args.add(args)
                if result.level > tracer.enum_max_level:
                    tracer.enum_max_level = result.level
                if tracer._null_active:
                    tracer.enum_under_null += 1

        elif name == "space.seq_code":

            def after(args, result):
                tracer.seq_code_bits += result.bit_length()

        else:
            after = None

        is_null = name.startswith("nullset.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            if is_null:
                tracer._null_active += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                if is_null:
                    tracer._null_active -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and the Clopen methods."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "idealis" or name.startswith("idealis."))
        }
        replaced = {}
        for layer in LAYERS:
            mod = mods["idealis." + layer]
            for name, fn in _public_functions(mod):
                replaced[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        clopen = mods["idealis.space"].Clopen
        for attr, value in list(vars(clopen).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self._wrap(f"space.Clopen.{attr}", value.__func__))
            elif isinstance(value, types.FunctionType):
                wrapped = self._wrap(f"space.Clopen.{attr}", value)
            else:
                continue  # properties stay unwrapped
            self._restore.append((clopen, attr, value))
            setattr(clopen, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def summary(self) -> dict:
        """Per-layer metrics, keyed by the names in BENCHMARK.json."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls_by_name = [0] * len(self.names)
        self_by_name = [0] * len(self.names)
        dur_by_name = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            calls_by_name[nid] += 1
            dur_by_name[nid] += dur
            self_by_name[nid] += dur - child[i]

        def calls(*full_names):
            return sum(calls_by_name[self._ids[f]] for f in full_names if f in self._ids)

        out = {}
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(layer_of) if lay == layer]
            out[f"{layer}.calls"] = sum(calls_by_name[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self_by_name[i] for i in ids) / 1e9
        out["space.seq_code_bits"] = self.seq_code_bits
        out["enumerations.clopen_enum.calls"] = calls("enumerations.clopen_enum")
        out["enumerations.clopen_enum.distinct"] = len(self.enum_args)
        out["enumerations.clopen_enum.max_level"] = self.enum_max_level
        out["enumerations.kcomb.calls"] = calls(*_KCOMB)
        out["enumerations.kprime.calls"] = calls("enumerations.kprime")
        queries = calls(*_NULL_QUERIES)
        out["nullset.enum_calls_per_query"] = (
            self.enum_under_null / queries if queries else 0.0
        )
        bp = self._ids.get("cli.build_parser")
        out["cli.build_parser_s"] = dur_by_name[bp] / 1e9 if bp is not None else 0.0
        return out

    def write(self, path: str) -> None:
        """Dump every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{names[self.span_name[i]]}\t{self.span_parent[i]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )

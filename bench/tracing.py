"""Layer tracing from outside the package: wrap module attributes, record spans.

The tracer changes no file of mcbrick.  It replaces each wrapped function in
every module that binds it (``levelstats`` holds its own reference to
``core.build_sector_block``, ``rp`` to ``rmatrix.haar_to_r``, and so on) and
puts every original back when the ``patched`` block ends.  CLI handlers import
lazily, so they pick up whatever the module attribute is at call time.

Spans stay in memory and are reduced to per-function figures at the end:
``calls`` (every call), ``completed`` (calls that returned), ``s`` (inclusive
time, nested calls of the same function counted once) and ``self_s``
(inclusive time minus the time covered by wrapped child spans).
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "mcbrick"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _tag_support(args, kwargs):
    return {"r": int(_arg(args, kwargs, 1, "r"))}


def _tag_sector(args, kwargs):
    circuit, basis = _arg(args, kwargs, 0, "circuit"), _arg(args, kwargs, 1, "basis")
    return {"L": circuit.L, "m": basis.magnetization, "k": basis.momentum}


def _count_columns(tracer, args, kwargs, result):
    tracer.add("core.build_sector_block.cols", _arg(args, kwargs, 1, "basis").dim)


def _count_blocks(tracer, args, kwargs, result):
    blocks = result if isinstance(result, list) else [result]
    tracer.add("levelstats.blocks", len(blocks))
    tracer.add("levelstats.eigenphases", sum(len(b.eigenphases) for b in blocks))


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``mcbrick.<module>.<qualname>``."""

    module: str
    qualname: str
    self_time: bool = False
    tag: Optional[Callable] = None      # (args, kwargs) -> dict kept on the span
    count: Optional[Callable] = None    # (tracer, args, kwargs, result) after return

    @property
    def name(self):
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("core", "build_sector_block", True, _tag_sector, _count_columns),
    Target("core", "propagator_apply"),
    Target("core", "apply_gate"),
    Target("core", "sector_basis"),
    Target("core", "build_propagator"),
    Target("core", "embed_operator"),
    Target("core", "commutator_defect"),
    Target("levelstats", "resolved_spectra", True, count=_count_blocks),
    Target("levelstats", "sector_spectrum", True, count=_count_blocks),
    Target("rp", "truncated_propagator", True, _tag_support),
    Target("rp", "rp_spectrum"),
    Target("rp", "conserved_density_vectors"),
    Target("rp", "gap_scaling", True),
    Target("rp", "unit_multiplicity"),
    Target("charges", "charge_q1"),
    Target("charges", "charge_q1_closed_form"),
    Target("charges", "higher_charge", True),
    Target("charges", "pauli_string_window_projection"),
    Target("charges", "ChargeFamily.conservation_defect"),
    Target("dynamics", "boundary_autocorrelation", True),
    Target("dynamics", "staggered_correlation", True),
    Target("dynamics", "domain_wall_evolution", True),
    Target("symmetry", "time_reversal_report", True),
    Target("symmetry", "spectral_match_error"),
    Target("symmetry", "equivalent_circuit"),
    Target("symmetry", "global_time_reversal"),
    Target("rmatrix", "haar_to_r"),
    Target("rmatrix", "check_yang_baxter"),
    Target("rmatrix", "r_matrix"),
    Target("gates", "haar_params_from_gate"),
    Target("gates", "sample_haar"),
)

COUNTERS = ("core.build_sector_block.cols", "levelstats.blocks", "levelstats.eigenphases")


class Span:
    __slots__ = ("name", "parent", "start", "end", "raised", "tag")

    def __init__(self, name, parent, tag=None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.raised = False
        self.tag = tag

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per call of a wrapped function, with its parent span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._open = []

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name, fn, tag=None, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._open[-1] if tracer._open else None,
                        tag(args, kwargs) if tag else None)
            tracer.spans.append(span)
            tracer._open.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = tracer.clock()
                tracer._open.pop()
            if count:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def summary(self):
        """Per-function calls, completed calls, inclusive and self time."""
        out = {}
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)] = children.get(id(span.parent), 0.0) + span.duration
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "completed": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["completed"] += not span.raised
            row["self_s"] += span.duration - children.get(id(span), 0.0)
            if not _inside_same_name(span):
                row["s"] += span.duration
        return out

    def tagged(self):
        """(name, tag, duration) of the completed spans that carry a tag."""
        return [(s.name, s.tag, s.duration) for s in self.spans if s.tag and not s.raised]


def _inside_same_name(span):
    parent = span.parent
    while parent is not None:
        if parent.name == span.name:
            return True
        parent = parent.parent
    return False


@contextmanager
def patched(tracer, targets=TARGETS):
    """Wrap each target in every loaded package module that binds it.

    Yields the names of targets that no longer exist.  All replaced
    attributes are restored on exit, also when the block raises.
    """
    for module in sorted({t.module for t in targets}):
        importlib.import_module(f"{PACKAGE}.{module}")  # so by-name bindings exist
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    saved, missing = [], []
    try:
        for t in targets:
            owner = sys.modules[f"{PACKAGE}.{t.module}"]
            *path, attr = t.qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                missing.append(t.name)
                continue
            wrapper = tracer.wrap(t.name, original, t.tag, t.count)
            # a method is bound on its class only; a function wherever a module holds it
            owners = [owner] if path else modules
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, key, value))
                        setattr(holder, key, wrapper)
        yield missing
    finally:
        for holder, key, value in reversed(saved):
            setattr(holder, key, value)

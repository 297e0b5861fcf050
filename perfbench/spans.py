"""Span tracer that times calls into balk1 from outside the package.

The tracer replaces module-level names that balk1's callers look up at call
time (``balk1.relindex.engine_values``, ``opnorm`` as bound in ``balanced``,
``opmodel`` and ``relindex``, ...) with timing wrappers, and restores them on
``uninstall``.  Nothing under ``src/`` is edited.  Spans are kept in memory
as tuples and written to gzip-compressed JSONL when the run ends.

A span is (id, stem, suffix, start, end, parent id, item id, bytes).  The
stem names the layer (``opmodel.quantize``), the suffix splits it by mode
count (``.N128``) or by suite family (``.core``).  Each layer gives two
per-layer metrics, seconds and calls, per round of the run (plus one set-up):
``opmodel.quantize_s.N128`` and ``starpoly.ideal_member.core_calls``.  Self
time is a span's duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, str, str, float, float, int, str, int]

SUITE_FAMILIES = ("rel1-implies-rel2", "core", "double-swap", "double-adjoint",
                  "double-canonical")


def suite_family(entry_name: str) -> str:
    """The family of a bundled suite entry; the single identities are 'core'."""
    head = entry_name.split(":", 1)[0]
    return head if head in SUITE_FAMILIES else "core"


@dataclass(frozen=True)
class Layer:
    """One traced function: where callers find it and how its spans are named."""

    stem: str
    module: str
    attr: str
    suffix: Optional[Callable[["Tracer", tuple, dict], str]] = None
    split: str = ""  # "family" or "modes": what the suffix distinguishes
    nbytes: Optional[Callable[[tuple], int]] = None


def _modes_suffix(tracer: "Tracer", args: tuple, kwargs: dict) -> str:
    # clip_to_contraction, kbalance_report, verify_split_blocks: first argument
    # is a TruncOp
    return f".N{args[0].modes}"


def _quantize_suffix(tracer: "Tracer", args: tuple, kwargs: dict) -> str:
    modes = args[1] if len(args) > 1 else kwargs["modes"]
    # verify_index_theorem quantizes first at every mode count, so the engine
    # calls that follow belong to this N
    tracer.context["N"] = modes
    return f".N{modes}"


def _current_modes_suffix(tracer: "Tracer", args: tuple, kwargs: dict) -> str:
    return f".N{tracer.context.get('N', 0)}"


def _family_suffix(tracer: "Tracer", args: tuple, kwargs: dict) -> str:
    return "." + suite_family(tracer.label)


def _complex_bytes(args: tuple) -> int:
    # computed, not measured: 16 bytes per complex128 input element
    return 16 * int(getattr(args[0], "size", 0))


LAYERS: Tuple[Layer, ...] = (
    Layer("starpoly.ideal_member", "balk1.starpoly.membership", "ideal_member",
          suffix=_family_suffix, split="family"),
    Layer("starpoly.certificate_is_valid", "balk1.starpoly.membership",
          "certificate_is_valid"),
    Layer("numkern.opnorm", "balk1.numkern", "opnorm", nbytes=_complex_bytes),
    Layer("balanced.check_balanced", "balk1.balanced", "check_balanced"),
    Layer("balanced.homotopy_eval", "balk1.balanced", "homotopy_eval"),
    Layer("balanced.validate_path", "balk1.balanced", "validate_path"),
    Layer("balanced.make_c", "balk1.balanced", "make_c"),
    Layer("balanced.unitalization_pair", "balk1.balanced", "unitalization_pair"),
    Layer("balanced.random_balanced_pair", "balk1.balanced",
          "random_balanced_pair"),
    Layer("loops.standard_symbol_pair", "balk1.loops", "standard_symbol_pair"),
    Layer("loops.topo_index", "balk1.loops", "topo_index"),
    Layer("loops.rotating_diagonal_pair", "balk1.loops", "rotating_diagonal_pair"),
    Layer("loops.subbundle_projection_loop", "balk1.loops",
          "subbundle_projection_loop"),
    Layer("opmodel.quantize", "balk1.opmodel", "quantize",
          suffix=_quantize_suffix, split="modes"),
    Layer("opmodel.clip_to_contraction", "balk1.opmodel", "clip_to_contraction",
          suffix=_modes_suffix, split="modes"),
    Layer("opmodel.kbalance_report", "balk1.opmodel", "kbalance_report",
          suffix=_modes_suffix, split="modes"),
    Layer("opmodel.verify_split_blocks", "balk1.opmodel", "verify_split_blocks",
          suffix=_modes_suffix, split="modes"),
    Layer("opmodel.splitting_projection", "balk1.opmodel",
          "splitting_projection"),
    Layer("relindex.engine_values", "balk1.relindex", "engine_values",
          suffix=_current_modes_suffix, split="modes"),
    Layer("relindex.verify_index_theorem", "balk1.relindex",
          "verify_index_theorem"),
    Layer("serialize.pair_to_dict", "balk1.serialize", "pair_to_dict"),
    Layer("serialize.pair_from_dict", "balk1.serialize", "pair_from_dict"),
)


class Tracer:
    """Collects spans from wrapped balk1 functions and from the harness."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.context: Dict[str, int] = {}
        self.item = ""
        self.label = ""
        self._stack = [0]
        self._next_id = 1
        self._saved: List[Tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of each layer's function in the loaded balk1
        modules.  Call ``uninstall`` in a ``finally`` block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "balk1" or name.startswith("balk1.")) and m]
        for layer in LAYERS:
            if layer.module not in sys.modules:
                continue  # a workload that never imports a layer never calls it
            original = getattr(sys.modules[layer.module], layer.attr)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        stem, suffix_of, nbytes_of = layer.stem, layer.suffix, layer.nbytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            suffix = suffix_of(self, args, kwargs) if suffix_of else ""
            nbytes = nbytes_of(args) if nbytes_of else 0
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, stem, suffix, start, end, parent,
                              self.item, nbytes))

        return wrapper

    # -- harness spans ----------------------------------------------------------

    def run(self, stem: str, item: str, label: str, fn: Callable, *args):
        """Call fn(*args) inside a top-level span that owns one item."""
        self.item, self.label = item, label
        self.context.clear()
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, stem, "", start, end, 0, item, 0))

    # -- output -------------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, stem, suffix, start, end, parent, item, nbytes in self.spans:
                row = {"id": sid, "name": stem + suffix,
                       "start": start - self.origin, "end": end - self.origin,
                       "parent": parent, "item": item}
                if nbytes:
                    row["bytes"] = nbytes
                fh.write(json.dumps(row) + "\n")


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    nbytes: int = 0


def summarize(spans: Sequence[Span], phase: Callable[[str], str]
              ) -> Dict[str, Dict[Tuple[str, str], LayerTotals]]:
    """Per-phase totals keyed by (stem, suffix); phase(item id) names the phase."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, _, start, end, parent, _, _ in spans:
        child_time[parent] += end - start
    out: Dict[str, Dict[Tuple[str, str], LayerTotals]] = {}
    for sid, stem, suffix, start, end, _, item, nbytes in spans:
        totals = out.setdefault(phase(item), {}).setdefault((stem, suffix),
                                                           LayerTotals())
        totals.calls += 1
        totals.seconds += end - start
        totals.self_seconds += end - start - child_time[sid]
        totals.nbytes += nbytes
    return out


def coverage(spans: Sequence[Span], item_stem: str) -> float:
    """Share of the item spans' time that their direct child spans cover."""
    item_ids = {s[0]: s[4] - s[3] for s in spans if s[1] == item_stem}
    covered = sum(s[4] - s[3] for s in spans if s[5] in item_ids)
    total = sum(item_ids.values())
    return covered / total if total else 0.0


# -- per-layer metrics ------------------------------------------------------------


def metric_name(stem: str, suffix: str, kind: str) -> str:
    """Mode counts follow the kind (``opmodel.quantize_s.N128``), suite
    families precede it (``starpoly.ideal_member.core_s``)."""
    if suffix.startswith(".N"):
        return f"{stem}_{kind}{suffix}"
    return f"{stem}{suffix}_{kind}"


def _suffixes(layer: Layer, modes: int) -> List[str]:
    if layer.split == "family":
        return [f".{family}" for family in SUITE_FAMILIES]
    if layer.split == "modes":
        return [f".N{modes}", f".N{2 * modes}"]
    return [""]


VIT_SELF = "relindex.verify_index_theorem.self_s"
OPNORM_BYTES = "numkern.opnorm_bytes"
CERT_TERMS = "starpoly.cert_terms"
OVERHEAD = "trace.overhead"


def per_layer_units(modes: int) -> Dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    out: Dict[str, str] = {}
    for layer in LAYERS:
        for suffix in _suffixes(layer, modes):
            out[metric_name(layer.stem, suffix, "s")] = "s"
            out[metric_name(layer.stem, suffix, "calls")] = "count"
    out.update({VIT_SELF: "s", OPNORM_BYTES: "B", CERT_TERMS: "count",
                OVERHEAD: "ratio"})
    return out


def phase_of(item: str) -> str:
    """Spans of items whose id starts with ``setup`` belong to set-up."""
    return "setup" if item.startswith("setup") else "run"


def per_layer_values(spans: Sequence[Span], modes: int, setups: int,
                     rounds: int) -> Dict[str, float]:
    """Layer totals per round of the run, plus the layer's share of one set-up.

    Metrics of layers a workload never calls are 0.
    """
    values: Dict[str, float] = {name: 0.0 for name in per_layer_units(modes)}
    phases = summarize(spans, phase_of)
    for phase, count in (("setup", setups), ("run", rounds)):
        for (stem, suffix), totals in phases.get(phase, {}).items():
            seconds = metric_name(stem, suffix, "s")
            if seconds not in values:
                continue  # the harness's own item and set-up spans
            values[seconds] += totals.seconds / count
            values[metric_name(stem, suffix, "calls")] += totals.calls / count
            if stem == "relindex.verify_index_theorem":
                values[VIT_SELF] += totals.self_seconds / count
            if stem == "numkern.opnorm":
                values[OPNORM_BYTES] += totals.nbytes / count
    return values

"""In-memory call spans around the public functions of each mdmfso layer.

The program is not edited: `Tracer.install` replaces each traced
function, wherever a module of the `mdmfso` package holds a reference to
it (so also names that `harness` imports directly), by a wrapper that
records a span (name, start, end, parent, unit). Spans of one work unit
share that unit's id. Spans stay in memory until the caller writes them.
"""

import functools
import sys
import time

import numpy as np

# metric prefix -> (module that defines the function, attribute)
FUNCTIONS = {
    "screens.generate_screen": ("mdmfso.screens", "generate_screen"),
    "screens.batch_generate": ("mdmfso.screens", "batch_generate"),
    "screens.structure_function": ("mdmfso.screens", "structure_function"),
    "optics.mode_field": ("mdmfso.optics", "mode_field"),
    "optics.polarization_expand": ("mdmfso.optics", "polarization_expand"),
    "framing.assemble_frames": ("mdmfso.framing", "assemble_frames"),
    "channel.wiener_phase": ("mdmfso.channel", "wiener_phase"),
    "channel.propagate": ("mdmfso.channel", "propagate"),
    "dsp.estimate_channel": ("mdmfso.dsp", "estimate_channel"),
    "dsp.estimate_phase": ("mdmfso.dsp", "estimate_phase"),
    "dsp.cancel_phase": ("mdmfso.dsp", "cancel_phase"),
    "dsp.mmse_decode": ("mdmfso.dsp", "mmse_decode"),
    "dsp.sic_order": ("mdmfso.dsp", "sic_order"),
    "dsp.sic_decode": ("mdmfso.dsp", "sic_decode"),
    "harness.monte_carlo": ("mdmfso.harness", "monte_carlo"),
    "harness.sweep_osnr": ("mdmfso.harness", "sweep_osnr"),
    "harness.run_realization": ("mdmfso.harness", "run_realization"),
    "harness.build_channel": ("mdmfso.harness", "build_channel"),
    "harness.decode_stream": ("mdmfso.harness", "decode_stream"),
    "harness.scintillation_stats": ("mdmfso.harness", "scintillation_stats"),
}

# metric prefix -> method of ModalCoupler (defined in harness or optics)
METHODS = {
    "optics.coupler_init": "__init__",
    "optics.coupling": "coupling",
}

NAMES = tuple(FUNCTIONS) + tuple(METHODS)


def _screen_bytes(args, result):
    # complex128 spectrum transformed plus the float64 raster returned
    return result.raster.size * (16 + 8)


def _coupling_bytes(args, result):
    # the screen raster plus every field stack the coupler holds
    coupler, screen = args[0], args[1]
    stacks = sum(
        v.nbytes for v in vars(coupler).values() if isinstance(v, np.ndarray)
    )
    return screen.raster.nbytes + stacks


# metric prefix -> bytes touched by one call, computed from array sizes
COMPUTED_BYTES = {
    "screens.generate_screen": _screen_bytes,
    "optics.coupling": _coupling_bytes,
}


def coupler_class():
    for module in ("mdmfso.optics", "mdmfso.harness"):
        cls = getattr(sys.modules[module], "ModalCoupler", None)
        if cls is not None:
            return cls
    raise LookupError("no ModalCoupler in mdmfso.optics or mdmfso.harness")


class Tracer:
    """Records nested call spans; `unit_roots` names the spans that open a
    work unit when no enclosing span belongs to one."""

    def __init__(self, unit_roots=()):
        self.spans = []  # [name, start, end, parent index, unit, bytes]
        self._open = []
        self._unit_roots = set(unit_roots)
        self._unit_counts = {}
        self._undo = []

    def wrap(self, name, fn):
        sizer = COMPUTED_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            unit = None if parent is None else self.spans[parent][4]
            if unit is None and name in self._unit_roots:
                unit = self._unit_counts.get(name, 0)
                self._unit_counts[name] = unit + 1
            span = [name, time.perf_counter(), None, parent, unit, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if sizer is not None:
                span[5] = sizer(args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function and method; `uninstall` undoes it."""
        modules = [
            m for k, m in list(sys.modules.items())
            if k == "mdmfso" or k.startswith("mdmfso.")
        ]
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[home], attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)
        cls = coupler_class()
        for name, attr in METHODS.items():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_metrics(self):
        """calls, total_s and self_s per traced name, plus mb_computed
        (mean per call) where COMPUTED_BYTES defines it.

        Self time is the span's duration minus its direct children's
        durations; children of one span never overlap (one thread).
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, unit, size in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        nbytes = dict.fromkeys(COMPUTED_BYTES, 0)
        for i, (name, start, end, parent, unit, size) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]
            if name in nbytes:
                nbytes[name] += size
        for name, total in nbytes.items():
            calls = out[f"{name}.calls"]
            out[f"{name}.mb_computed"] = total / calls / 1e6 if calls else 0.0
        return out

    def span_records(self):
        keys = ("name", "start", "end", "parent", "unit", "bytes")
        return [dict(zip(keys, span)) for span in self.spans]

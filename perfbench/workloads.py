"""Benchmark workloads: inputs from a seed, one entry-point call each, and
the per-unit correctness check against reference values.

Each workload turns the benchmark seed into an `ExperimentConfig` and
calls one public entry point of `mdmfso.harness` (plus, for the
statistics path, the `mdmfso.screens` functions that `mdmfso stats`
runs). The call returns observations: one record per work unit and, for
the statistics path, ensemble aggregates. References for config seeds
0..REF_SEEDS-1 were recorded with `record_refs.py`.

Functions are looked up on their modules at call time, so that the
tracer's wrappers (see tracing.py) see every call.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mdmfso import harness, screens

REF_DIR = Path(__file__).resolve().parent / "refs"
REF_SEEDS = 16  # references exist for config seeds 0..REF_SEEDS-1

MC_REALIZATIONS = 6
SWEEP_OSNR_DB = tuple(float(x) for x in range(12, 36, 2))
SWEEP_FRAMES = 4
STATS_SCREENS = 36

# (atol, rtol) per observed quantity. Loose enough for reordered
# floating-point sums (which may flip the odd hard decision near a
# decision boundary), tight enough that another channel realization or
# a broken decoder fails.
TOLERANCES = {
    "ber": (1e-4, 1e-3),
    "evm": (0.0, 1e-4),
    "power": (0.0, 1e-7),
    "scintillation_index": (0.0, 1e-5),
    "structure_function": (0.0, 1e-7),
}


def config_seed(seed):
    """Config seed of a benchmark seed: wrapped onto the recorded range."""
    return seed % REF_SEEDS


def run_mc_paired(seed):
    """Paired MMSE/SIC Monte-Carlo on the default config; unit = realization."""
    config = harness.ExperimentConfig(seed=seed, realizations=MC_REALIZATIONS)
    summary = harness.monte_carlo(config)
    units = [{} for _ in range(MC_REALIZATIONS)]
    for name, reports in summary.reports.items():
        for rep in reports:
            units[rep.realization][f"{name}.ber"] = [float(b) for b in rep.ber]
            units[rep.realization][f"{name}.evm"] = [float(e) for e in rep.evm_pct]
    return {"units": units, "aggregate": {}}


def run_sweep_rx(seed):
    """BER vs OSNR on the fixed default turbulent channel; unit = OSNR point."""
    config = harness.ExperimentConfig(
        seed=seed, n_frames=SWEEP_FRAMES, osnr_grid=SWEEP_OSNR_DB
    )
    rows = harness.sweep_osnr(config)
    units = {osnr: {} for osnr in SWEEP_OSNR_DB}
    for row in rows:
        units[row["osnr_db"]][f"{row['decoder']}.ber"] = [
            row["ber_avg"],
            row["ber_min"],
            row["ber_max"],
        ]
    return {"units": [units[osnr] for osnr in SWEEP_OSNR_DB], "aggregate": {}}


def stats_separations(batch):
    """The separation grid of `mdmfso stats`: 12 geometric steps, 5 px to L/5."""
    pitch = batch[0].pitch
    length = batch[0].physical_length
    steps = np.round(np.geomspace(5, 0.2 * length / pitch, 12)).astype(int)
    return np.unique(steps) * pitch


def run_stats_screens(seed):
    """The `mdmfso stats` path on the default screens; unit = screen."""
    config = harness.ExperimentConfig(seed=seed)
    batch = screens.batch_generate(config.screen_config(), STATS_SCREENS)
    _, d_phi = screens.structure_function(batch, stats_separations(batch))
    stats = harness.scintillation_stats(batch, config)
    return {
        "units": [{"power": [float(p)]} for p in stats["powers"]],
        "aggregate": {
            "scintillation_index": [stats["scintillation_index"]],
            "structure_function": [float(d) for d in d_phi],
        },
    }


@dataclass(frozen=True)
class Workload:
    run: Callable  # config seed -> observations
    units: int  # work units per call
    sizes: dict  # the sizes its references were recorded with
    unit_roots: tuple  # span names that open a work unit in the trace
    # exact trace counts the workload must show, so that it keeps
    # exercising only the layers it was chosen for
    separation: dict


_NO_RECEIVE_CHAIN = (
    "framing.assemble_frames",
    "channel.wiener_phase",
    "channel.propagate",
    "dsp.estimate_channel",
    "dsp.estimate_phase",
    "dsp.cancel_phase",
    "dsp.mmse_decode",
    "dsp.sic_order",
    "dsp.sic_decode",
)

WORKLOADS = {
    "mc_paired": Workload(
        run=run_mc_paired,
        units=MC_REALIZATIONS,
        sizes={"realizations": MC_REALIZATIONS},
        unit_roots=("harness.run_realization",),
        separation={},
    ),
    "sweep_rx": Workload(
        run=run_sweep_rx,
        units=len(SWEEP_OSNR_DB),
        sizes={"osnr_db": list(SWEEP_OSNR_DB), "frames": SWEEP_FRAMES},
        unit_roots=("harness.run_realization",),
        separation={"screens.generate_screen.calls": 1, "optics.coupler_init.calls": 1},
    ),
    "stats_screens": Workload(
        run=run_stats_screens,
        units=STATS_SCREENS,
        sizes={"screens": STATS_SCREENS},
        unit_roots=("screens.generate_screen", "optics.coupling"),
        separation={f"{fn}.calls": 0 for fn in _NO_RECEIVE_CHAIN},
    ),
}


def load_reference(workload, seed):
    """Recorded observations for one config seed, or None if unrecorded."""
    path = REF_DIR / f"{workload}.json"
    with open(path) as fh:
        data = json.load(fh)
    if data["sizes"] != WORKLOADS[workload].sizes:
        raise ValueError(f"{path} was recorded with other workload sizes")
    return data["seeds"].get(str(seed))


def _close(values, expected, key):
    atol, rtol = TOLERANCES[key.rsplit(".", 1)[-1]]
    return len(values) == len(expected) and all(
        math.isfinite(v) and abs(v - e) <= atol + rtol * abs(e)
        for v, e in zip(values, expected)
    )


def _record_ok(obs, ref):
    return obs.keys() == ref.keys() and all(_close(obs[k], ref[k], k) for k in ref)


def count_failed(obs, ref, n_units):
    """Number of the call's `n_units` work units whose observations miss
    the reference.

    A unit fails on its own record; every unit fails when the ensemble
    aggregates miss, when the call returned another number of units, or
    when there is no reference to check against.
    """
    if (
        ref is None
        or len(obs["units"]) != n_units
        or len(ref["units"]) != n_units
        or not _record_ok(obs["aggregate"], ref["aggregate"])
    ):
        return n_units
    return sum(not _record_ok(o, r) for o, r in zip(obs["units"], ref["units"]))

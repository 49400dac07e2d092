"""Command line front-end.

Subcommands: gen-screens, stats, run, sweep, monte-carlo. Every
subcommand takes --config (JSON file of ExperimentConfig keys), --seed
(override), --decoder and --out, and exits 0 on success or 1 with a
diagnostic on any module error. Each subcommand but gen-screens is one
harness call (screen_statistics, run_realization, sweep_osnr or
monte_carlo), whose results it writes to --out and prints; it creates
--out only once that call has succeeded. gen-screens writes its screens
as screens.iter_screens streams them, and creates --out with the first.
"""

import argparse
from dataclasses import replace
import json
import os
import sys

from . import harness, screens


def _load_config(args):
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    cfg = harness.ExperimentConfig.from_dict(data)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "decoder", None):
        cfg = replace(cfg, decoder=args.decoder)
    return cfg


def _add_common(parser):
    parser.add_argument("--config", help="JSON file with experiment config keys")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument(
        "--decoder", choices=["mmse", "sic", "both"], default=None
    )
    parser.add_argument("--out", default=".", help="output directory")


def cmd_gen_screens(args):
    cfg = _load_config(args)
    ensemble = screens.iter_screens(cfg.screen_config(), args.count)
    for i, (member, screen) in enumerate(ensemble):
        # --out is made once the first screen exists
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"screen_{i:04d}.phs")
        screens.write_screen(path, screen, member)
    print(f"wrote {args.count} screens to {args.out}")
    return 0


def cmd_stats(args):
    cfg = _load_config(args)
    rs, d_emp, stats = harness.screen_statistics(cfg, args.count)
    os.makedirs(args.out, exist_ok=True)
    d_ref = screens.kolmogorov_structure_function(rs, cfg.fried)
    harness.write_csv(
        os.path.join(args.out, "structure_function.csv"),
        ("r_m", "d_phi", "d_phi_kolmogorov", "ratio"),
        ((r, de, dr, de / dr) for r, de, dr in zip(rs, d_emp, d_ref)),
    )
    payload = {
        "screens": args.count,
        "fried": cfg.fried,
        "scintillation_index": stats["scintillation_index"],
        "lognormal_mu": stats["lognormal_mu"],
        "lognormal_sigma": stats["lognormal_sigma"],
        "ks_distance": stats["ks_distance"],
    }
    harness.write_json(os.path.join(args.out, "scintillation.json"), payload)
    print(
        f"sigma_I^2 = {stats['scintillation_index']:.4g}, "
        f"KS = {stats['ks_distance']:.3f}"
    )
    return 0


def cmd_run(args):
    cfg = _load_config(args)
    reports = harness.run_realization(cfg, realization=args.realization)
    os.makedirs(args.out, exist_ok=True)
    harness.write_run_csv(
        os.path.join(args.out, "run.csv"), {name: [rep] for name, rep in reports.items()}
    )
    for name in sorted(reports):
        rep = reports[name]
        tag = "<" if rep.error_free else "="
        print(
            f"{name}: avg BER {tag} {rep.ber_bound:.4e}, "
            f"EVM {rep.evm_avg:.2f}%, outage {int(rep.outage)}"
        )
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    if args.osnr:
        cfg = replace(cfg, osnr_grid=tuple(args.osnr))
    rows = harness.sweep_osnr(cfg)
    os.makedirs(args.out, exist_ok=True)
    harness.write_sweep_csv(os.path.join(args.out, "sweep.csv"), rows)
    for row in rows:
        print(
            f"OSNR {row['osnr_db']:5.1f} dB {row['decoder']:>4}: "
            f"avg BER {row['ber_bound']:.4e}"
        )
    return 0


def cmd_monte_carlo(args):
    cfg = _load_config(args)
    if args.count is not None:
        cfg = replace(cfg, realizations=args.count)
    summary = harness.monte_carlo(cfg)
    os.makedirs(args.out, exist_ok=True)
    harness.write_run_csv(os.path.join(args.out, "realizations.csv"), summary.reports)
    harness.write_summary(os.path.join(args.out, "summary.json"), summary)
    harness.write_histogram_csv(os.path.join(args.out, "histogram.csv"), summary.histogram)
    for name in sorted(summary.averages):
        print(
            f"{name}: ensemble BER {summary.averages[name]:.4e}, "
            f"outage {summary.outage_probability[name]:.3f}"
        )
    if cfg.decoder == "both":
        # both decoders read the same samples, so realizations compare in pairs
        pairs = list(zip(summary.reports["sic"], summary.reports["mmse"]))
        wins = sum(a.ber_avg < b.ber_avg for a, b in pairs)
        ties = sum(a.ber_avg == b.ber_avg for a, b in pairs)
        ratio = summary.averages["mmse"] / summary.averages["sic"]
        print(
            f"paired: SIC better on {wins}, tied on {ties}, worse on "
            f"{len(pairs) - wins - ties} of {len(pairs)} realizations; "
            f"MMSE/SIC ensemble BER ratio {ratio:.2f}"
        )
        sic, mmse = max(pairs, key=lambda ab: ab[0].ber_avg - ab[1].ber_avg)
        print(
            f"largest SIC-minus-MMSE gap at realization {sic.realization}: "
            f"{sic.ber_avg - mmse.ber_avg:+.3e}"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdmfso",
        description="Mode-division-multiplexed FSO link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-screens", help="write turbulence screens to disk")
    _add_common(p)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_gen_screens)

    p = sub.add_parser("stats", help="structure function and scintillation")
    _add_common(p)
    p.add_argument("--count", type=int, default=120)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="single link realization")
    _add_common(p)
    p.add_argument("--realization", type=int, default=0)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="BER vs OSNR on a fixed channel")
    _add_common(p)
    p.add_argument("--osnr", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("monte-carlo", help="turbulence ensemble")
    _add_common(p)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_monte_carlo)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: spectra, weak traces, image transport, filters.

Config resolution: ``--config PATH`` wins, then the ``CFCOMM_CONFIG``
environment variable, then the packaged reference bench (``--fitted`` picks
the variant with fitted visibilities).  All structured output is JSON with
sorted keys so repeated runs are byte-identical.

Exit codes: 0 success, 2 configuration/usage errors, 3 when the requested
detector has no carrier amplitude to condition on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import circuit as ci
from . import protocol as pr
from . import spectral as sp
from .config import DeviceConfig, load_config, reference_device
from .errors import CfcommError, ConfigError, UndefinedPostselectionError

ENV_CONFIG = "CFCOMM_CONFIG"


def _resolve_config(args) -> DeviceConfig:
    if args.config:
        return load_config(args.config)
    env = os.environ.get(ENV_CONFIG)
    if env:
        return load_config(env)
    return reference_device(fitted=args.fitted)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_spectrum(args) -> int:
    cfg = _resolve_config(args)
    c = ci.build_circuit(cfg, args.preset)
    terminal = ci.propagate(c)
    mode = c.detectors[args.detector]
    if terminal.carrier_prob(mode) < ci.POSTSELECTION_FLOOR:
        raise UndefinedPostselectionError(
            f"{args.detector} collects no carrier for preset {args.preset}; "
            "nothing to normalize a spectrum against")
    seed = cfg.seed if args.seed is None else args.seed
    spec = sp.scan_spectrum(
        c, args.detector, cfg.scan_etalon, cfg.eoms,
        half_range_ghz=args.half_range, step_ghz=args.step,
        photons=args.photons, seed=seed, noise=not args.no_noise)
    spec.tuning = args.preset

    cal_circuit = ci.build_circuit(cfg, "calibration")
    cal_spec = sp.scan_spectrum(
        cal_circuit, "det0", cfg.scan_etalon, cfg.eoms,
        half_range_ghz=args.half_range, step_ghz=args.step,
        photons=args.photons, seed=seed, noise=False)
    cal_spec.tuning = "calibration"
    calibration = sp.extract_peaks(cal_spec, cfg.eoms)
    table = sp.extract_peaks(spec, cfg.eoms, calibration=calibration)
    spec.to_csv(args.out)  # last step that can fail: no CSV from a failed run
    _emit(table.to_jsonable())
    return 0


def cmd_trace(args) -> int:
    cfg = _resolve_config(args)
    c = ci.build_circuit(cfg, args.preset, include_eoms=False)
    report = ci.weak_trace(c, args.detector)
    floor = 1e-12
    _emit({arm: (0.0 if v < floor else v)
           for arm, v in sorted(report.values.items())})
    return 0


def cmd_send_image(args) -> int:
    cfg = _resolve_config(args)
    image = pr.read_pbm(args.image)
    result = pr.transmit_image(cfg, image, policy=args.policy, seed=args.seed)
    pr.write_pbm(args.out, result.image)
    if args.stats:
        try:
            with open(args.stats, "w", newline="\n") as fh:
                fh.write(json.dumps(result.stats(), sort_keys=True))
                fh.write("\n")
        except OSError as exc:
            os.remove(args.out)  # a failed run leaves no decoded image
            raise ConfigError(f"cannot write stats {args.stats}: {exc}") from None
    _emit(result.stats())
    return 0


def cmd_source_filter(args) -> int:
    cfg = _resolve_config(args)
    report = sp.source_filter_cascade(cfg.source_etalons,
                                      cfg.source_raw_linewidth_ghz)
    _emit({"effective_linewidth_ghz": report.effective_linewidth_ghz,
           "sidepeak_suppression_db": report.sidepeak_suppression_db})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcomm",
        description="Simulate exchange-free bit transport on the nested bench.")
    parser.add_argument("--config", help="device config JSON "
                        f"(default: ${ENV_CONFIG} or the packaged bench)")
    parser.add_argument("--fitted", action="store_true",
                        help="use the packaged bench with fitted visibilities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="scan the light reaching a detector")
    p.add_argument("--preset", choices=ci.PRESETS, required=True)
    p.add_argument("--detector", choices=("det0", "det1"), required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--photons", type=float, default=1e6)
    p.add_argument("--seed", type=int, default=None,
                   help="counting-noise seed (default: config seed)")
    p.add_argument("--half-range", type=float, default=4.0,
                   help="scan half-range in GHz")
    p.add_argument("--step", type=float, default=0.05, help="scan step in GHz")
    p.add_argument("--no-noise", action="store_true",
                   help="emit expected counts instead of Poisson draws")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("trace", help="two-state weak trace on every arm")
    p.add_argument("--preset", choices=ci.PRESETS, required=True)
    p.add_argument("--detector", choices=("det0", "det1"), required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("send-image", help="transport a P1 bitmap bit by bit")
    p.add_argument("--image", required=True, help="input PBM (plain P1)")
    p.add_argument("--out", required=True, help="decoded PBM output path")
    p.add_argument("--stats", help="also write the stats JSON here")
    p.add_argument("--policy", default="first-click",
                   help="'first-click' or 'majority:<clicks>'")
    p.add_argument("--seed", type=int, default=None,
                   help="channel seed (default: config seed)")
    p.set_defaults(func=cmd_send_image)

    p = sub.add_parser("source-filter",
                       help="effective line of the filtered source")
    p.set_defaults(func=cmd_source_filter)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UndefinedPostselectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CfcommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

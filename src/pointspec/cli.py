"""Command-line interface: reproducible runs from JSON configs.

Subcommands: generate | classes | freq | autocorr | diffract | metric |
partition | verify.  A data subcommand only computes; `main` builds its
source, and once it has returned creates the output directory and writes
its files and a manifest echoing the fully resolved config.  Re-running
from a manifest reproduces the outputs byte for byte (no timestamps,
fixed float formatting, deterministic seeds).

Exit codes: 0 ok, 3 numerical check failure, 2 config error: a config that
cannot be read or parsed, or any value the library rejects (its ValueError or
NotImplementedError; the library alone checks values).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .geometry import Interval, cluster_1d, enumerate_cluster_classes
from .hull import build_partition_1d, hull_metric
from .output import write_json, write_points
from .sources import source_from_config
from .stats import (
    VanHoveSpec,
    default_offsets,
    estimate_frequency,
    write_frequency_csv,
)
from .spectra import (
    autocorr_direct,
    autocorr_from_frequencies,
    peak_scan,
    write_autocorr_csv,
)
from .verify import SUITES, run_suite


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config file not found: %s" % path)
    except json.JSONDecodeError as e:
        raise ConfigError("config is not valid JSON: %s" % e)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if "config" in cfg and "command" in cfg:  # a manifest: unwrap
        cfg = cfg["config"]
    return cfg


def _require(cfg, key, typ, what="config"):
    if key not in cfg:
        raise ConfigError("missing %r in %s" % (key, what))
    v = cfg[key]
    if typ is float and isinstance(v, int):
        v = float(v)
    if not isinstance(v, typ):
        raise ConfigError("%r in %s must be %s" % (key, what, typ))
    return v


def _number(sub, key, default, typ=float):
    """sub[key], or default when absent, converted by typ (entry by entry
    when default is a list); a boolean, a value typ cannot convert, or a
    fraction where typ is int is a ConfigError."""
    v = sub.get(key, default)
    many = isinstance(default, list)

    def convert(x):
        if isinstance(x, bool) or (typ is int and float(x) != int(x)):
            raise ValueError
        return typ(x)
    try:
        if many and not isinstance(v, list):
            raise TypeError
        return [convert(x) for x in v] if many else convert(v)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%r must be %s, not %r"
                          % (key, "a list of numbers" if many else "a number", v))


def _section(cfg, name):
    """cfg[name], a JSON object ({} when absent)."""
    sub = cfg.get(name, {})
    if not isinstance(sub, dict):
        raise ConfigError("%r must be an object" % name)
    return sub


def _van_hove(cfg, dim=1):
    sub = _section(cfg, "van_hove")
    return VanHoveSpec(n0=_number(sub, "n0", 125),
                       doublings=_number(sub, "doublings", 4, int),
                       dim=_number(sub, "dim", dim, int))


def _weights(cfg, m):
    w = cfg.get("weights", [1] * m)
    if not isinstance(w, list):
        raise ConfigError("weights must be a list with one entry per color")
    out = []
    for entry in w:
        pair = isinstance(entry, (list, tuple)) and len(entry) == 2
        try:
            out.append(complex(*entry) if pair else complex(entry))
        except (TypeError, ValueError):
            raise ConfigError("weight %r is neither a number nor a [re, im] pair" % (entry,))
    return out


def _make_source(doc, seed):
    try:
        return source_from_config(doc, seed=seed)
    except TypeError as e:  # a config value of the wrong JSON type
        raise ConfigError(str(e))


def _cluster(doc, m):
    """Cluster from per-color coordinate lists, e.g. [[0.0, 1.0], []] (1D)."""
    if not isinstance(doc, list) or len(doc) != m \
            or not all(isinstance(part, list) for part in doc):
        raise ConfigError("cluster must be a list of %d per-color coordinate lists" % m)
    try:
        return cluster_1d(*[[float(c) for c in part] for part in doc])
    except (TypeError, ValueError):
        raise ConfigError("cluster coordinates must be numbers: %r" % (doc,))


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _region_1d(doc):
    if isinstance(doc, (list, tuple)) and len(doc) == 2:
        try:
            return Interval(float(doc[0]), float(doc[1]))
        except (TypeError, ValueError):
            pass
    raise ConfigError("region must be [lo, hi] with numeric ends, not %r" % (doc,))


def _plot_data(header, line, rows):
    """Writer of a --plot-data file: a '# header' line, then one line per row."""
    def write(path):
        with open(path, "w") as fh:
            fh.write("# %s\n" % header)
            fh.writelines(line % row for row in rows)
    return write


# ---------------------------------------------------------------------------
# subcommands: each takes (args, cfg, source, its config section) and returns
# {file name: writer of that file}; main writes them and the manifest


def cmd_generate(args, cfg, src, sub):
    region = _region_1d(_require(sub, "region", (list, tuple), "'generate'"))
    return {"points.json": partial(write_points, patch=src.window(region), field=src.field)}


def cmd_classes(args, cfg, src, sub):
    R = _number(sub, "R", 1.0)
    table = enumerate_cluster_classes(src, R, _region_1d(sub.get("scan", [0, 200])))
    rows = [{"count": count, "cluster": rep.to_json()}
            for rep, count in zip(table.representatives, table.counts)]
    return {"classes.json": partial(write_json, doc={"radius": R, "n_classes": table.n_classes,
                                                     "classes": rows})}


def cmd_freq(args, cfg, src, sub):
    spec = _van_hove(cfg, dim=src.dim)
    P = _cluster(sub.get("cluster", [[0.0]] + [[]] * (src.m - 1)), src.m)
    n_off = _number(sub, "offsets", 50, int)
    span = _number(sub, "offset_span", 10.0)
    offsets = [(0.0,)] + list(default_offsets(n_off - 1, span)) if n_off > 1 else [(0.0,)]
    est = estimate_frequency(src, P, spec, offsets)
    return {"freq.csv": partial(write_frequency_csv, est),
            "freq.json": partial(write_json, doc=est.to_json())}


def cmd_autocorr(args, cfg, src, sub):
    spec = _van_hove(cfg, dim=src.dim)
    radius = _number(sub, "radius", 10.0)
    n = _number(sub, "n", spec.schedule()[-1])
    w = _weights(cfg, src.m)
    method = sub.get("method", "both")
    measures = []
    if method in ("direct", "both"):
        measures.append(autocorr_direct(src, w, radius, spec, n))
    if method in ("frequencies", "both"):
        measures.append(autocorr_from_frequencies(src, w, radius, spec, n))
    if not measures:
        raise ConfigError("autocorr method must be direct|frequencies|both")
    out = {"autocorr.csv": partial(write_autocorr_csv, measures)}
    if args.plot_data:
        out["autocorr.dat"] = _plot_data("t re_c im_c", "%.17g %.17g %.17g\n",
                                         [(t, c.real, c.imag) for t, c in measures[0].items()])
    return out


def cmd_diffract(args, cfg, src, sub):
    spec = _van_hove(cfg, dim=src.dim)
    k_lo = _number(sub, "k_min", -3.0)
    k_hi = _number(sub, "k_max", 3.0)
    resolution = _number(sub, "resolution", 0.01)
    schedule = _number(sub, "n_schedule", [1000, 2000])
    w = _weights(cfg, src.m)
    est = peak_scan(src, w, (k_lo, k_hi), resolution, schedule, spec)
    out = {"diffract.csv": est.to_csv}
    if args.plot_data:
        out["diffract.dat"] = _plot_data("k intensity retained", "%.17g %.17g %d\n",
                                         [(e.k, e.intensity, e.retained) for e in est.entries])
    return out


def cmd_metric(args, cfg, src, sub):
    other = _make_source(_require(sub, "other_source", dict, "'metric'"), args.seed)
    bracket = hull_metric(src, other, eps_grid=_number(sub, "eps_grid", 0.01))
    return {"metric.json": partial(write_json, doc=bracket.to_json())}


def cmd_partition(args, cfg, src, sub):
    R = _number(sub, "R", 3.0)
    delta = _number(sub, "delta", 0.2)
    scan_length = _number(sub, "scan_length", 0.0) if "scan_length" in sub else None
    part = build_partition_1d(src, R, delta, scan_length=scan_length)
    return {"partition.json": partial(write_json, doc={"radius": R, "delta": delta,
                                                       "n_cells": part.n_cells,
                                                       "cells": part.to_json()})}


def cmd_verify(args):
    results = run_suite(args.suite, fast=args.fast)
    lines = [r.line() for r in results]
    for line in lines:
        print(line)
    n_fail = sum(not r.passed for r in results)
    print("%d/%d checks passed" % (len(results) - n_fail, len(results)))
    if args.out:
        out = _outdir(args)
        with open(out / "verify.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 3 if n_fail else 0


COMMANDS = {
    "generate": cmd_generate,
    "classes": cmd_classes,
    "freq": cmd_freq,
    "autocorr": cmd_autocorr,
    "diffract": cmd_diffract,
    "metric": cmd_metric,
    "partition": cmd_partition,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pointspec",
        description="colored Delone point sets: generators, statistics, spectra")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config (or a manifest)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and changes nothing; peak "
                            "refinement uses a second thread when the process may run "
                            "on two CPUs, and no output depends on either")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--plot-data", action="store_true", dest="plot_data")
    v = sub.add_parser("verify")
    v.add_argument("suite", help="one of: %s" % ", ".join(sorted(SUITES)))
    v.add_argument("--fast", action="store_true", help="smoke mode: reduced n and samples")
    v.add_argument("--out", default=None)
    v.add_argument("--threads", type=int, default=1)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _load_config(args.config)
        src = _make_source(_require(cfg, "source", dict), args.seed)
        writers = COMMANDS[args.command](args, cfg, src, _section(cfg, args.command))
        out = _outdir(args)  # only once the computation has succeeded
        for name, write in writers.items():
            write(out / name)
        write_json(out / "manifest.json", {"command": args.command, "config": cfg,
                                           "outputs": sorted(writers)})
        return 0
    except (ValueError, NotImplementedError) as e:  # ConfigError is a ValueError
        print("config error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

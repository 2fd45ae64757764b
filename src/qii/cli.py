"""Command-line front end: loop generation, inequality verification, model
runs, application bounds, conjecture searches, and table/plot emission.

Exit codes: 0 success, 1 usage error, 2 scientific violation or
propagated computation error -- so CI can gate on inequality violations.
A run builds every input it reads (model, loop, chain, search configs)
before it writes anything, then writes a manifest.json echoing the fully
resolved configuration, the seed, the package version and the thread
variables as read from the environment, which is sufficient to reproduce
the run bit-identically; only verify's loops and search's evaluations run
after it.  The environment variable QII_THREADS caps the verify worker
count; the entries of a JSON --config file are parsed as the same flags,
which typed flags override.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache, partial
from math import ceil
from pathlib import Path

import numpy as np

from . import __version__
from .applications import (adiabatic_cone_demo, check_cone_angle, check_pairing,
                           check_period_ratio, check_steps, eph_bound_chain,
                           superfluid_weight_1d, wannier_bound_chain)
from .errors import DegenerateSpec, QiiError, WrongDimension, ZeroVector, file_errors
from .geometry import aggregate_summary, bloch_solid_angle, loop_distance, summarize
from .inequalities import plane_check, sphere_check, strong_qii, weak_qii
from .loops import (_unit_axis, bloch_circle, check_fourier_shape, check_polar_angle,
                    check_seed, fourier_loop, great_circle, load_loop, random_fourier_spec,
                    save_loop, spherical_polygon, split_self_intersections)
from .models import (bloch_table_from_csv, bz_loop, check_fermi_energy, fermi_surface_loop,
                     model_from_json)
from .search import SearchConfig, minimize_margin
from .svgplot import line_chart, scatter_under_quarter_circle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextmanager
def _flag_rules():
    """A QiiError raised inside is a usage error: every input read there is a flag."""
    try:
        yield
    except QiiError as exc:
        raise _UsageError(str(exc)) from None


def _fmt(v):
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


# recorded, never set: BLAS threading can stall pooled runs (see the README)
_THREAD_VARIABLES = ("QII_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _prepare_outdir(args, command) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {key: str(val) if isinstance(val, Path) else val
              for key, val in sorted(vars(args).items()) if key != "command"}
    manifest = {"command": command, "config": config, "version": __version__,
                "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES}}
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return out


def _worker_count() -> int:
    """The verify worker count: QII_THREADS, a positive integer, or 1 when unset."""
    text = os.environ.get("QII_THREADS", "1")
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise _UsageError(f"QII_THREADS must be a positive integer, got {text!r}")


# ---------------------------------------------------------------- verify

def _loop_for_index(m, k, n, seed, index):
    for retry in range(16):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index, retry]))
        spec = random_fourier_spec(m, k, n, rng)
        try:
            return spec, fourier_loop(spec)
        except DegenerateSpec:
            continue
    raise DegenerateSpec(f"no valid loop for index {index} after 16 retries")


class _Row(list):
    """One margins.csv row; its verdict rides along but is not a column."""
    violated = False


def _verify_row(m, k, n, seed, strong, i):
    _, loop = _loop_for_index(m, k, n, seed, i)
    s = summarize(loop)
    weak = weak_qii(s)
    row = _Row([i, s.d_fs, s.gamma_b, weak.margin, weak.inputs["margin_abs"],
                s.convergence_est])
    row.violated = weak.violated
    if strong:
        subs = _subloop_reports(split_self_intersections(loop), whole=s)
        row += [min(r.margin for _, _, r in subs), len(subs)]
        row.violated |= any(w.violated or r.violated for _, w, r in subs)
    return row


def run_weak_suite(m, n_loops, k, n, seed, strong=False, workers=1):
    """Margins of n_loops random Fourier loops; returns the row list in index
    order.  With workers > 1 each worker process takes a contiguous block of
    loop indices, and the rows are byte-identical to a serial run's."""
    row = partial(_verify_row, m, k, n, seed, strong)
    if workers <= 1:
        return [row(i) for i in range(n_loops)]
    # imported here: the process-pool modules add about 1 MB of resident
    # memory that a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(row, range(n_loops),
                             chunksize=max(1, ceil(n_loops / workers))))


def _cmd_verify(args) -> int:
    workers = _worker_count()
    out = _prepare_outdir(args, "verify")
    rows = run_weak_suite(args.m, args.loops, args.k, args.n, args.seed,
                          strong=args.strong, workers=workers)
    header = ["index", "d_fs", "gamma_b", "weak_margin", "weak_margin_abs",
              "convergence_est"]
    if args.strong:
        header += ["strong_margin", "n_subloops"]
    _write_csv(out / "margins.csv", header, rows)
    print(f"verify: m={args.m} loops={args.loops} n={args.n} seed={args.seed} "
          f"min weak margin {min(r[3] for r in rows):.3e}")
    index = next((r[0] for r in rows if r.violated), None)
    if index is not None:
        _, loop = _loop_for_index(args.m, args.k, args.n, args.seed, index)
        save_loop(out / "violation_loop.csv", loop, generator="fourier-random",
                  parameters={"k": args.k, "index": index}, seed=args.seed)
        print(f"verify: VIOLATION at loop {index}; serialized to "
              f"{out / 'violation_loop.csv'}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- figure1

def _sphere_row(label, perim, area):
    """A spherical.csv row.  Within about 1e-154 of a pole the right side
    4 pi A - A^2 / R^2 is subnormal or 0, and its quotient has lost digits."""
    rep = sphere_check(perim, area, 0.5)
    if rep.rhs < np.finfo(float).tiny:
        raise _UsageError(f"--theta is too close to a pole: the area of spherical row "
                          f"{label} underflows")
    return [label, perim, area, rep.inputs["quotient"], rep.margin]


def _cmd_figure1(args) -> int:
    planar = []
    for n in args.n_list:
        perim = 2.0 * n * np.sin(np.pi / n)
        area = 0.5 * n * np.sin(2.0 * np.pi / n)
        rep = plane_check(perim, area)
        planar.append([n, perim, area, rep.inputs["quotient"], rep.margin])

    spherical = []
    for n in args.n_list:
        if n > 2048:
            # the circle row is the limit of the polygon rows, and the cap
            # bounds the corner loop's memory for extreme --n-list values
            continue
        loop = spherical_polygon(n, args.theta, 1)   # chord sums and fan are exact at the corners
        spherical.append(_sphere_row(n, loop_distance(loop),
                                     abs(bloch_solid_angle(loop)) * 0.25))   # radius 1/2
    # the smaller cap, as in the polygon rows, whose solid angle lies in (-2 pi, 2 pi];
    # pi s^2 as a product keeps every digit near either pole, where 1 - |cos| cancels
    s = min(np.sin(args.theta / 2.0), np.cos(args.theta / 2.0))
    spherical.append(_sphere_row("circle", np.pi * np.sin(args.theta), np.pi * s * s))
    out = _prepare_outdir(args, "figure1")
    header = ["n_sides", "perimeter", "area", "quotient", "margin"]
    _write_csv(out / "planar.csv", header, planar)
    _write_csv(out / "spherical.csv", header, spherical)

    series = {"planar": ([r[0] for r in planar], [r[3] for r in planar])}
    sph_numeric = [r for r in spherical if isinstance(r[0], int)]
    if sph_numeric:
        series["spherical"] = ([r[0] for r in sph_numeric],
                               [r[3] for r in sph_numeric])
    line_chart(out / "figure1.svg", series,
               title="inverse isoperimetric quotient vs polygon sides",
               xlabel="sides", ylabel="quotient")
    print(f"figure1: wrote {out / 'planar.csv'}, {out / 'spherical.csv'}")
    return 0


# ---------------------------------------------------------------- models

# model JSON parameter -> flag destination, per kind selectable by --model
_MODEL_FLAGS = {
    "ssh": {"v": "v", "w": "w"},
    "creutz": {"t": "t"},
    "rhombohedral": {"n_layers": "layers", "scale": "scale"},
    "dirac": {"v_f": "vf"},
}


def _model_from_args(args):
    if getattr(args, "model_json", None):
        with file_errors(args.model_json):
            return model_from_json(Path(args.model_json).read_text(encoding="utf-8"))
    if getattr(args, "table_csv", None):
        return bloch_table_from_csv(args.table_csv, a=args.a)
    flags = _MODEL_FLAGS[args.model]
    return model_from_json({
        "kind": args.model, "lattice_const": args.a,
        "parameters": {name: getattr(args, dest) for name, dest in flags.items()}})


def _add_model_flags(parser):
    parser.add_argument("--model", default="ssh", choices=list(_MODEL_FLAGS))
    parser.add_argument("--v", type=float, default=0.0, help="SSH intracell hopping")
    parser.add_argument("--w", type=float, default=1.0, help="SSH intercell hopping")
    parser.add_argument("--t", type=float, default=1.0, help="Creutz hopping")
    parser.add_argument("--layers", type=int, default=1, help="rhombohedral layer count")
    parser.add_argument("--scale", type=float, default=1.0, help="rhombohedral scale")
    parser.add_argument("--vf", type=float, default=1.0, help="Dirac Fermi velocity")
    parser.add_argument("--a", type=float, default=1.0, help="lattice constant")
    parser.add_argument("--band", default="lower", choices=["lower", "upper"])
    parser.add_argument("--ef", type=float, default=1.0, help="Fermi energy (2D models)")
    parser.add_argument("--model-json", default=None,
                        help="JSON model config {kind, parameters, lattice_const}")
    parser.add_argument("--table-csv", default=None,
                        help="CSV Bloch-vector table (k, nx, ny, nz)")


def _subloop_reports(parts, whole=None):
    """(summary, weak, strong) of each sub-loop in `parts`, with `whole`, the
    summary of the loop if made, for a loop that did not split.  The strong QII
    is a theorem for every two-band loop, and a split sub-loop of one is a
    two-band loop, so only M > 2 makes it a conjecture."""
    summaries = [whole] if whole is not None and len(parts) == 1 else map(summarize, parts)
    conjecture = parts[0].dim > 2
    return [(s, weak_qii(s), strong_qii(s, conjecture=conjecture)) for s in summaries]


def _cmd_models(args) -> int:
    spec = _model_from_args(args)
    if spec.dim_k == 1:
        band, loop = args.band, bz_loop(spec, args.band, args.nk)
    else:   # a Fermi surface at E_F > 0 lies in the upper band
        band, (loop, _) = "upper", fermi_surface_loop(spec, args.ef, args.nk)
    out = _prepare_outdir(args, "models")
    subs = _subloop_reports(split_self_intersections(loop))
    rows = [[spec.describe(), band, i, s.n_segments, s.d_fs, s.gamma_b,
             wrep.margin, srep.margin, int(srep.saturated)]
            for i, (s, wrep, srep) in enumerate(subs)]
    summaries = [s for s, _, _ in subs]
    agg = aggregate_summary(summaries)
    rows.append([spec.describe(), band, "aggregate", agg.n_segments, agg.d_fs,
                 agg.gamma_total, agg.d_fs - agg.gamma_total, "", ""])
    _write_csv(out / "models.csv",
               ["model", "band", "subloop", "n", "d_fs", "gamma_b",
                "weak_margin", "strong_margin", "strong_saturated"], rows)
    if args.svg:
        scatter_under_quarter_circle(out / "models.svg",
                                     [s.d_fs for s in summaries],
                                     [abs(s.gamma_b) for s in summaries],
                                     title=spec.describe())
    print(f"models: {spec.describe()} d_fs={agg.d_fs:.6f} gamma_b={agg.gamma_total:.6f} "
          f"({len(summaries)} subloop(s))")
    return 2 if any(w.violated or s.violated for _, w, s in subs) else 0


# ---------------------------------------------------------------- apps

def _speed_chain(args):
    _, gamma, report = adiabatic_cone_demo(args.theta_c, ratio=args.ratio, steps=args.steps)
    return report.chain, (f"gamma_b={gamma:.9g}", f"eq8_residual={report.residual:.3e}")


# --app -> (bound chain, notes the report adds); each chain raises its own
# model-fit error
_APPS = {
    "wannier": lambda a: (wannier_bound_chain(_model_from_args(a), a.band, a.nk), ()),
    "speed": _speed_chain,
    "eph": lambda a: (eph_bound_chain(_model_from_args(a), a.ef, a.nk), ()),
    "sfweight": lambda a: (superfluid_weight_1d(_model_from_args(a), a.u, a.nu, a.nk), ()),
}


def _cmd_apps(args) -> int:
    chain, notes = _APPS[args.app](args)
    out = _prepare_outdir(args, "apps")
    _write_csv(out / "chain.csv", ["label", "value", "unit"],
               [[label, value, chain.unit] for label, value in chain.entries])
    monotone = chain.is_monotone()
    report_doc = {"app": args.app, "entries": list(chain.entries),
                  "unit": chain.unit, "notes": list(chain.notes) + list(notes),
                  "monotone": monotone}
    (out / "report.json").write_text(
        json.dumps(report_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    values = " >= ".join(f"{v:.9g}" for v in chain.values)
    print(f"apps/{args.app}: {values} [{chain.unit}]")
    return 0 if monotone else 2


# ---------------------------------------------------------------- search

def _search_record(cfg, result) -> dict:
    return {
        "config": cfg.to_dict(),
        "best_margin": result.best_margin,
        "margin_at_n": result.margin_at_n,
        "evals": result.evals,
        "status": result.status,
        "violation": result.violation,
        "history": [list(h) for h in result.history],
        "best_spec": {
            "m": result.best_spec.m_dim, "k": result.best_spec.k,
            "n": result.best_spec.n,
            "coeffs_re": result.best_spec.coeffs.real.tolist(),
            "coeffs_im": result.best_spec.coeffs.imag.tolist(),
        },
    }


def _cmd_search(args) -> int:
    # one checked SearchConfig per --seeds entry (the resume path: add seeds to
    # extend an earlier campaign), else one for --seed
    with _flag_rules():
        cfgs = [SearchConfig(m_dim=args.m, k=args.k, n=args.n, budget=args.budget,
                             restarts=args.restarts, seed=seed, coeff_bound=args.coeff_bound)
                for seed in (args.seeds or [args.seed])]
    out = _prepare_outdir(args, "search")
    seeds = [cfg.seed for cfg in cfgs]
    runs = [(cfg, minimize_margin(cfg)) for cfg in cfgs]
    # merging keeps the worst margin, the first of equals
    cfg, result = min(runs, key=lambda run: run[1].best_margin)
    record = _search_record(cfg, result)
    record["seeds"] = seeds
    record["runs"] = [_search_record(c, r) for c, r in runs]
    (out / "run.json").write_text(
        json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    total_evals = sum(r.evals for _, r in runs)
    print(f"search: m={args.m} seeds={seeds} best_margin="
          f"{result.best_margin:.3e} evals={total_evals} status={result.status}")
    if result.violation:
        save_loop(out / "counterexample_loop.csv", fourier_loop(result.best_spec),
                  generator="search", parameters=cfg.to_dict(), seed=cfg.seed)
        print(f"search: VIOLATION at n={cfg.n}; serialized to "
              f"{out / 'counterexample_loop.csv'}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- loop-io

# one export per --generator: (loop, header parameters) of the parsed flags

def _export_bloch_circle(args):
    return bloch_circle(args.theta, args.n), {"theta": args.theta, "n": args.n}


def _export_great_circle(args):
    try:   # --axis as three floats with a finite non-zero norm
        axis = [float(x) for x in args.axis.split(",")]
        _unit_axis(axis)
    except (ValueError, WrongDimension, ZeroVector) as exc:
        raise _UsageError(f"bad --axis {args.axis!r}: {exc}") from None
    return (great_circle(axis, args.n, turns=args.turns),
            {"axis": axis, "n": args.n, "turns": args.turns})


def _export_spherical_polygon(args):
    return (spherical_polygon(args.vertices, args.theta, args.n_per_edge),
            {"vertices": args.vertices, "theta": args.theta, "n_per_edge": args.n_per_edge})


def _export_fourier_random(args):
    spec = random_fourier_spec(args.m, args.k, args.n, args.seed)
    return fourier_loop(spec), {"m": args.m, "k": args.k, "n": args.n}


def _cmd_loop_io(args) -> int:
    if args.action == "export":
        with _flag_rules():
            loop, params = globals()["_export_" + args.generator.replace("-", "_")](args)
        _prepare_outdir(args, "loop-io")
        save_loop(args.file, loop, generator=args.generator, parameters=params,
                  seed=args.seed)
        print(f"loop-io: wrote {args.file} ({loop.n} states, dim {loop.dim})")
        return 0

    loop, meta = load_loop(args.file)
    _prepare_outdir(args, "loop-io")
    subs = _subloop_reports(split_self_intersections(loop) if args.split else [loop])
    doc = {"meta": meta, "n": loop.n, "dim": loop.dim, "subloops": [{
        "n": s.n_segments, "d_fs": s.d_fs, "gamma_b": s.gamma_b,
        "weak_margin": wrep.margin, "strong_margin": srep.margin,
    } for s, wrep, srep in subs]}
    print(json.dumps(doc, sort_keys=True, indent=2))
    if any(w.violated or s.violated for _, w, s in subs):
        print(f"loop-io: VIOLATION in {args.file}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parser

def _int_list(text):
    return [int(x) for x in text.split(",") if x]


@lru_cache(maxsize=1)
def build_parser():
    """(parser, subcommand parsers by name), built once per process; every
    parse_args call returns a fresh namespace."""
    parser = _Parser(prog="qii",
                     description="quantum isoperimetric inequality toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    by_name = {}

    p = by_name["verify"] = subs.add_parser(
        "verify", help="random-loop inequality property suite")
    p.add_argument("--m", type=int, required=True, help="Hilbert-space dimension")
    p.add_argument("--loops", type=int, default=1000)
    p.add_argument("--k", type=int, default=2, help="harmonic cutoff")
    p.add_argument("--n", type=int, default=2048, help="loop resolution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strong", action="store_true",
                   help="also check the strong QII on split sub-loops")

    p = by_name["figure1"] = subs.add_parser(
        "figure1", help="planar and spherical polygon quotient tables, "
                        "the spherical polygons measured at their corners")
    p.add_argument("--theta", type=float, default=np.pi / 4)
    p.add_argument("--n-list", type=_int_list, default=(3, 4, 6, 10000))

    p = by_name["models"] = subs.add_parser(
        "models", help="Brillouin-zone / Fermi-surface loop summaries")
    _add_model_flags(p)
    p.add_argument("--nk", type=int, default=2048)
    p.add_argument("--svg", action="store_true")

    p = by_name["apps"] = subs.add_parser(
        "apps", help="physical bound chains")
    p.add_argument("--app", required=True, choices=list(_APPS))
    _add_model_flags(p)
    p.add_argument("--nk", type=int, default=256)
    p.add_argument("--u", type=float, default=1.0, help="Hubbard interaction")
    p.add_argument("--nu", type=float, default=0.5, help="filling factor")
    p.add_argument("--theta-c", type=float, default=np.pi / 3, help="cone angle")
    p.add_argument("--ratio", type=float, default=50.0,
                   help="drive period / Larmor period")
    p.add_argument("--steps", type=int, default=20000)

    p = by_name["search"] = subs.add_parser(
        "search", help="derivative-free strong-QII conjecture probe")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_int_list, default=None,
                   help="run one search per seed and merge (resume path)")
    p.add_argument("--coeff-bound", type=float, default=1.5)

    p = by_name["loop-io"] = subs.add_parser(
        "loop-io", help="import/export loop CSV files")
    p.add_argument("action", choices=["export", "import"])
    p.add_argument("file", help="loop CSV path")
    p.add_argument("--generator", default="bloch-circle",
                   choices=["bloch-circle", "great-circle", "spherical-polygon",
                            "fourier-random"])
    p.add_argument("--theta", type=float, default=np.pi / 4)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--axis", default="0,0,1")
    p.add_argument("--turns", type=int, default=1)
    p.add_argument("--vertices", type=int, default=3)
    p.add_argument("--n-per-edge", type=int, default=64)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", action="store_true")

    for name, sub in by_name.items():
        sub.add_argument("--out", default="qii-out",
                         help="output directory for tables and manifests")
        sub.add_argument("--config", default=None,
                         help="JSON file with default values for these flags")
    return parser, by_name


def _config_flags(sub, path) -> list:
    """The entries of the --config file at `path` as `--flag=value` tokens of
    the subcommand parser `sub`: a list joined with commas, a switch from a
    JSON boolean, null only where the flag's default is None."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read --config {path}: {exc}") from None
    if not isinstance(entries, dict):
        raise _UsageError("--config must hold a JSON object")
    flags = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    unknown = set(entries) - set(flags)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for dest, value in entries.items():
        action = flags[dest]
        flag = action.option_strings[0]
        if action.nargs == 0:   # a switch such as --strong
            if not isinstance(value, bool):
                raise _UsageError(f"config {dest!r} must be true or false, got {value!r}")
            tokens += [flag] if value else []
        elif value is None:
            if action.default is not None:
                raise _UsageError(f"config {dest!r} may not be null")
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{flag}={text}")
    return tokens


def _check_args(args):
    """Usage rules on the parsed flags, --config included, that no input builder raises."""
    # every float flag; a bad --ef is a Fermi-energy error (exit 2) below
    for dest, value in vars(args).items():
        if isinstance(value, float) and dest != "ef" and not np.isfinite(value):
            raise _UsageError(f"--{dest.replace('_', '-')} must be finite, got {value}")
    if args.command == "figure1" and min(args.n_list, default=0) < 3:
        raise _UsageError(f"polygons need --n-list entries >= 3, got {args.n_list}")
    if args.command in ("models", "apps"):
        if args.nk < 3:
            raise _UsageError(f"a k-point loop needs --nk >= 3, got {args.nk}")
        check_fermi_energy(args.ef)
    if args.command == "verify" and args.loops < 1:
        raise _UsageError(f"need --loops >= 1, got {args.loops}")
    with _flag_rules():
        if args.command == "verify":
            check_fourier_shape(args.m, args.k, args.n)
            check_seed(args.seed)
        if args.command == "figure1":
            check_polar_angle(args.theta)
        if args.command == "apps":   # whether the app reads the flag or not
            check_steps(args.steps)
            check_period_ratio(args.ratio)
            check_cone_angle(args.theta_c)
            if args.app == "sfweight":
                check_pairing(args.u, args.nu)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = build_parser()
    try:
        # parse once to find --config in any spelling, then again with its
        # entries as flags right after the subcommand, so typed flags win
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_flags(by_name[args.command], args.config) + argv[at:])
        _check_args(args)
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (QiiError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

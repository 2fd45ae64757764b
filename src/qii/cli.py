"""Command-line front end: loop generation, inequality verification, model
runs, application bounds, conjecture searches, and table/plot emission.

Exit codes: 0 success, 1 usage error, 2 scientific violation or
propagated computation error -- so CI can gate on inequality violations.
Every run with an output directory writes a manifest.json echoing the
fully resolved configuration, the seed, and the package version, which
is sufficient to reproduce the run bit-identically.  The environment
variable QII_THREADS caps the verify worker count; the entries of a JSON
--config file are parsed as the same flags, which typed flags override.
"""

import argparse
import csv
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .applications import (adiabatic_cone_demo, check_cone_angle, eph_bound_chain,
                           superfluid_weight_1d, wannier_bound_chain)
from .errors import DegenerateSpec, QiiError, WrongDimension, ZeroVector
from .geometry import aggregate_summary, bloch_solid_angle, loop_distance, summarize
from .inequalities import plane_check, sphere_check, strong_qii, weak_qii
from .loops import (_unit_axis, bloch_circle, check_fourier_shape, check_seed,
                    fourier_loop, great_circle, load_loop, random_fourier_spec,
                    save_loop, spherical_polygon, split_self_intersections)
from .models import (bloch_table_from_csv, bz_loop, check_fermi_energy,
                     fermi_surface_loop, model_from_json)
from .search import SearchConfig, minimize_margin
from .svgplot import line_chart, scatter_under_quarter_circle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(v):
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _prepare_outdir(args, command) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {key: str(val) if isinstance(val, Path) else val
              for key, val in sorted(vars(args).items()) if key != "command"}
    manifest = {"command": command, "config": config, "version": __version__}
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return out


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("QII_THREADS", "1")))
    except ValueError:
        return 1


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


def _verify_rows(params):
    m, k, n, seed, indices, strong = params
    rows = []
    for i in indices:
        _, loop = _loop_for_index(m, k, n, seed, i)
        s = summarize(loop)
        weak = weak_qii(s)
        row = _Row([i, s.d_fs, s.gamma_b, weak.margin, weak.inputs["margin_abs"],
                    s.convergence_est])
        reports = [weak]
        if strong:
            parts = split_self_intersections(loop)
            subs = [s] if parts[0] is loop else map(summarize, parts)
            strongs = [strong_qii(p, conjecture=(m > 2 or len(parts) > 1)) for p in subs]
            row += [min(r.margin for r in strongs), len(parts)]
            reports += strongs
        row.violated = any(r.violated for r in reports)
        rows.append(row)
    return rows


def run_weak_suite(m, n_loops, k, n, seed, strong=False, workers=1):
    """Margins of n_loops random Fourier loops; returns the row list."""
    indices = list(range(n_loops))
    if workers <= 1:
        return _verify_rows((m, k, n, seed, indices, strong))
    # imported here: the process-pool modules add about 1 MB of resident
    # memory that a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    chunks = [indices[i::workers] for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_verify_rows,
                              [(m, k, n, seed, c, strong) for c in chunks]))
    rows = [row for part in parts for row in part]
    rows.sort(key=lambda r: r[0])
    return rows


def _cmd_verify(args) -> int:
    out = _prepare_outdir(args, "verify")
    rows = run_weak_suite(args.m, args.loops, args.k, args.n, args.seed,
                          strong=args.strong, workers=_worker_count())
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

def _cmd_figure1(args) -> int:
    out = _prepare_outdir(args, "figure1")
    planar = []
    for n in args.n_list:
        perim = 2.0 * n * np.sin(np.pi / n)
        area = 0.5 * n * np.sin(2.0 * np.pi / n)
        rep = plane_check(perim, area)
        planar.append([n, perim, area, rep.inputs["quotient"], rep.margin])
    _write_csv(out / "planar.csv",
               ["n_sides", "perimeter", "area", "quotient", "margin"], planar)

    spherical = []
    for n in args.n_list:
        if n > 2048:
            continue  # geodesic sampling cost grows linearly; the limit is the circle row
        loop = spherical_polygon(n, args.theta, args.n_per_edge)
        perim = loop_distance(loop)
        area = bloch_solid_angle(loop) * 0.25  # radius 1/2
        rep = sphere_check(perim, abs(area), 0.5)
        spherical.append([n, perim, abs(area), rep.inputs["quotient"], rep.margin])
    perim, area = np.pi * np.sin(args.theta), 0.5 * np.pi * (1.0 - np.cos(args.theta))
    circle = sphere_check(perim, area, 0.5)
    spherical.append(["circle", perim, area, circle.inputs["quotient"], circle.margin])
    _write_csv(out / "spherical.csv",
               ["n_sides", "perimeter", "area", "quotient", "margin"], spherical)

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


def _subloop_reports(loop, summaries):
    """(weak, strong) reports of the sub-loop summaries of `loop`, and whether any is
    violated.  The strong QII is a theorem only for a two-band loop that did not split."""
    conjecture = loop.dim > 2 or len(summaries) > 1
    reports = [(weak_qii(s), strong_qii(s, conjecture=conjecture)) for s in summaries]
    return reports, any(w.violated or s.violated for w, s in reports)


def _cmd_models(args) -> int:
    spec = _model_from_args(args)
    out = _prepare_outdir(args, "models")
    if spec.dim_k == 1:
        loop = bz_loop(spec, args.band, args.nk)
    else:
        loop, _ = fermi_surface_loop(spec, args.ef, args.nk)
    summaries = [summarize(p) for p in split_self_intersections(loop)]
    reports, violated = _subloop_reports(loop, summaries)
    rows = [[spec.describe(), args.band, i, s.n_segments, s.d_fs, s.gamma_b,
             wrep.margin, srep.margin, int(srep.saturated)]
            for i, (s, (wrep, srep)) in enumerate(zip(summaries, reports))]
    agg = aggregate_summary(summaries)
    rows.append([spec.describe(), args.band, "aggregate", agg.n_segments, agg.d_fs,
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
    return 2 if violated else 0


# ---------------------------------------------------------------- apps

def _cmd_apps(args) -> int:
    out = _prepare_outdir(args, "apps")
    notes = ()
    if args.app == "wannier":
        chain = wannier_bound_chain(_model_from_args(args), args.band, args.nk)
    elif args.app == "sfweight":
        chain = superfluid_weight_1d(_model_from_args(args), args.u, args.nu, args.nk)
    elif args.app == "eph":
        chain = eph_bound_chain(_model_from_args(args), args.ef, args.nk)
    elif args.app == "speed":
        _, gamma, report = adiabatic_cone_demo(args.theta_c, ratio=args.ratio,
                                               steps=args.steps)
        chain = report.chain
        notes = (f"gamma_b={gamma:.9g}", f"eq8_residual={report.residual:.3e}")
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


def _search_configs(args) -> list:
    """One checked SearchConfig per search the run makes: one per --seeds
    entry (the resume path: add seeds to extend an earlier campaign), else
    one for --seed."""
    return [SearchConfig(m_dim=args.m, k=args.k, n=args.n, budget=args.budget,
                         restarts=args.restarts, seed=seed, coeff_bound=args.coeff_bound)
            for seed in (args.seeds or [args.seed])]


def _cmd_search(args) -> int:
    out = _prepare_outdir(args, "search")
    cfgs = _search_configs(args)
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
        loop = fourier_loop(result.best_spec.with_resolution(4 * cfg.n))
        save_loop(out / "counterexample_loop.csv", loop, generator="search",
                  parameters=cfg.to_dict(), seed=cfg.seed)
        print(f"search: VIOLATION candidate persisted at 4n; serialized to "
              f"{out / 'counterexample_loop.csv'}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- loop-io

def _cmd_loop_io(args) -> int:
    _prepare_outdir(args, "loop-io")
    if args.action == "export":
        gen = args.generator
        if gen == "bloch-circle":
            loop = bloch_circle(args.theta, args.n)
            params = {"theta": args.theta, "n": args.n}
        elif gen == "great-circle":
            axis = _axis_arg(args.axis)
            loop = great_circle(axis, args.n, turns=args.turns)
            params = {"axis": axis, "n": args.n, "turns": args.turns}
        elif gen == "spherical-polygon":
            loop = spherical_polygon(args.vertices, args.theta, args.n_per_edge)
            params = {"vertices": args.vertices, "theta": args.theta,
                      "n_per_edge": args.n_per_edge}
        else:   # fourier-random
            spec = random_fourier_spec(args.m, args.k, args.n, args.seed)
            loop = fourier_loop(spec)
            params = {"m": args.m, "k": args.k, "n": args.n}
        save_loop(args.file, loop, generator=gen, parameters=params,
                  seed=getattr(args, "seed", None))
        print(f"loop-io: wrote {args.file} ({loop.n} states, dim {loop.dim})")
        return 0

    loop, meta = load_loop(args.file)
    parts = split_self_intersections(loop) if args.split else [loop]
    summaries = [summarize(p) for p in parts]
    reports, violated = _subloop_reports(loop, summaries)
    doc = {"meta": meta, "n": loop.n, "dim": loop.dim, "subloops": [{
        "n": s.n_segments, "d_fs": s.d_fs, "gamma_b": s.gamma_b,
        "weak_margin": wrep.margin, "strong_margin": srep.margin,
    } for s, (wrep, srep) in zip(summaries, reports)]}
    print(json.dumps(doc, sort_keys=True, indent=2))
    if violated:
        print(f"loop-io: VIOLATION in {args.file}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parser

def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _axis_arg(text):
    """--axis as three floats with a finite non-zero norm."""
    try:
        axis = [float(x) for x in str(text).split(",")]
        _unit_axis(axis)
    except (ValueError, WrongDimension, ZeroVector) as exc:
        raise _UsageError(f"bad --axis {text!r}: {exc}") from None
    return axis


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
        "figure1", help="planar and spherical polygon quotient tables")
    p.add_argument("--theta", type=float, default=np.pi / 4)
    p.add_argument("--n-list", type=_int_list, default=(3, 4, 6, 10000))
    p.add_argument("--n-per-edge", type=int, default=64)

    p = by_name["models"] = subs.add_parser(
        "models", help="Brillouin-zone / Fermi-surface loop summaries")
    _add_model_flags(p)
    p.add_argument("--nk", type=int, default=2048)
    p.add_argument("--svg", action="store_true")

    p = by_name["apps"] = subs.add_parser(
        "apps", help="physical bound chains")
    p.add_argument("--app", required=True,
                   choices=["wannier", "speed", "eph", "sfweight"])
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
    """Usage checks on the parsed flags, --config entries included."""
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
    if args.command == "apps":
        if args.steps < 1:
            raise _UsageError(f"need --steps >= 1, got {args.steps}")
        if not args.ratio > 0:
            raise _UsageError(f"need --ratio > 0, got {args.ratio}")
        if args.app == "sfweight" and not args.u > 0:
            raise _UsageError(f"need an attraction --u > 0, got {args.u}")
    if args.command == "verify" and args.loops < 1:
        raise _UsageError(f"need --loops >= 1, got {args.loops}")
    export = args.command == "loop-io" and args.action == "export"
    if export and args.generator == "great-circle":
        if args.turns < 1:
            raise _UsageError(f"need --turns >= 1, got {args.turns}")
        _axis_arg(args.axis)
    try:
        if args.command == "verify" or export and args.generator == "fourier-random":
            check_fourier_shape(args.m, args.k, args.n)
            check_seed(args.seed)
        if args.command == "search":
            _search_configs(args)
        if args.command == "apps":
            check_cone_angle(args.theta_c)
    except QiiError as exc:
        raise _UsageError(str(exc)) from None


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
    except (QiiError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

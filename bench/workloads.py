"""The benchmark's two workloads, their host-speed probes and the checks on their outputs.

Each workload makes one cycle of inputs from the seed and runs it again and
again through qii's public entry points; every output goes into a tally that
is checked after timing.  An item is one loop (verify), one objective
evaluation (search) or one bound chain (bands); a batch is one qii command or
one directly called item.  Load is a closed loop: one client issues the next
item when the last one returns.
"""

import contextlib
import io
import time

import numpy as np

from qii import applications, cli, geometry, inequalities, loops, models, search
from qii.config import TOL
from qii.errors import DegenerateSpec

FLOOR = TOL.saturation_floor
EXACT = 1e-5   # quantized totals (N pi, T pi), as in acceptance criterion 08


def sub_seed(seed, *keys):
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


_PROBE = np.random.default_rng(0)
_PROBE_H = [h + h.conj().T for h in (_PROBE.normal(size=(2, 2)) + 1j * _PROBE.normal(size=(2, 2))
                                     for _ in range(8))]
_PROBE_ARRAY = _PROBE.normal(size=(512, 512)) + 1j * _PROBE.normal(size=(512, 512))
_PROBE_BLOCH = _PROBE.normal(size=(3, 3))   # const, cos and sin Bloch-vector coefficients
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def probe_calls():
    """Seconds for interpreter work and small numpy calls: 2x2 eigh, 3-vectors.

    This is the pattern of the objective calls at n = 256.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += i * 0.5
    for j in range(60):
        h = _PROBE_H[j % 8]
        _, v = np.linalg.eigh(h)
        acc += float(np.real(np.vdot(v[:, 0], h @ v[:, 0])))
    x = np.zeros(3)
    for _ in range(60):
        x = x + np.array([1.0, 2.0, 3.0]) * 0.5
    return time.perf_counter() - t0


def _probe_state(k):
    const, cos, sin = _PROBE_BLOCH
    n = const + np.cos(k) * cos + np.sin(k) * sin
    h = n[0] * _SX + n[1] * _SY + n[2] * _SZ
    if not np.allclose(h, h.conj().T):
        raise ValueError("probe Hamiltonian is not Hermitian")
    _, vecs = np.linalg.eigh(h)
    v = vecs[:, 0]
    return v * np.exp(-1j * np.angle(v[0]))


def probe_bloch():
    """Seconds for a small two-band Bloch computation written in plain numpy.

    Lower-band states and projector differences on 12 k points: the pattern
    of the per-k model code (``band_state``, ``qgt_at``), without calling it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
        v0, v1 = _probe_state(k), _probe_state(k + 1e-4)
        dp = np.outer(v1, v1.conj()) - np.outer(v0, v0.conj())
        acc += float(np.real(np.trace(dp @ dp)))
    return time.perf_counter() - t0


def probe_arrays():
    """Seconds for passes over a 4 MB complex array, the size class of the n = 2048 loops."""
    t0 = time.perf_counter()
    np.abs(_PROBE_ARRAY * 1.0001).sum()
    return time.perf_counter() - t0


class Tally:
    """Item and batch durations and outputs of one cycle or pass."""

    def __init__(self):
        self.durations = []
        self.batches = []   # (wall seconds, items in the batch)
        self.outputs = []   # (kind, items covered, payload), checked later
        self.errors = []    # (items covered, message) for items that raised
        self.probes = []    # the workload's host probe in seconds, one after each batch

    @property
    def attempted(self):
        return sum(n for _, n, _ in self.outputs) + sum(n for n, _ in self.errors)


class Hooks:
    """Item boundaries and CLI results, read from outside the program.

    ``qii.cli._loop_for_index`` starts each verify loop and the return of
    ``qii.cli.run_weak_suite`` ends the last one; every objective call made by
    ``qii.search._nelder_mead`` is one search item.  The rows and search
    results the CLI computes are kept for the checks.
    """

    def __init__(self):
        self.tally = Tally()
        self.tracer = None
        self.probe = None
        self.starts = []
        self.items = 0
        self.rows = []
        self.results = []
        self._sink = io.StringIO()

        loop_for_index = cli._loop_for_index

        def item_loop(*args):
            self.start()
            return loop_for_index(*args)

        run_weak_suite = cli.run_weak_suite

        def suite(*args, **kwargs):
            try:
                rows = run_weak_suite(*args, **kwargs)
            finally:
                self.close()
            self.rows.extend(rows)
            return rows

        nelder_mead = search._nelder_mead

        def simplex(fn, *args):
            if self.tracer is not None:
                fn = self.tracer.span("search.eval", fn)

            def evaluation(x):
                self.start()
                return fn(x)

            try:
                return nelder_mead(evaluation, *args)
            finally:
                self.close()

        minimize_margin = cli.minimize_margin

        def minimize(cfg):
            result = minimize_margin(cfg)
            self.results.append((cfg, result))
            return result

        cli._loop_for_index = item_loop
        cli.run_weak_suite = suite
        search._nelder_mead = simplex
        cli.minimize_margin = minimize

    def start(self):
        self.starts.append(time.perf_counter())
        self.items += 1
        if self.tracer is not None:
            self.tracer.item = self.items

    def close(self):
        marks = self.starts
        if marks:
            marks.append(time.perf_counter())
            self.tally.durations.extend(b - a for a, b in zip(marks, marks[1:]))
            self.starts = []

    def timed(self, fn):
        self.start()
        try:
            return fn()
        finally:
            self.close()
            self.tally.batches.append((self.tally.durations[-1], 1))
            self.tally.probes.append(self.probe())

    def cli(self, argv):
        """Run one qii command in this process; returns its exit code."""
        self.rows, self.results, self.starts = [], [], []
        before = len(self.tally.durations)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            code = cli.main(argv)
        self.tally.batches.append((time.perf_counter() - t0,
                                   len(self.tally.durations) - before))
        self._sink.seek(0)
        self._sink.truncate()
        self.tally.probes.append(self.probe())
        return code


class Workload:
    """One cycle of seeded inputs, its checks, and the probe of host speed for it.

    The host's speed for the same work moves by up to 1.6x over seconds to
    minutes, with load from outside this process, and different kinds of
    work slow down by different amounts.  So each workload times a probe
    made of the kinds of work it does after every batch, and the run
    divides a cycle's times by the probe's mean over the cycle, relative to
    ``probe_ref_s``.  The probes call no qii code, so a change to qii moves
    the normalized times as it moves the measured ones.
    """
    name = ""
    cycle_s = 1.0   # nominal seconds per cycle (2-core x86-64 host); sizes traced runs
    # each workload sets probes (functions returning seconds) and probe_ref_s,
    # their summed uncontended seconds on that host

    def __init__(self, seed, smoke, hooks, out):
        self.seed, self.smoke, self.hooks, self.out = seed, smoke, hooks, out
        hooks.probe = self.host_probe

    def host_probe(self):
        return sum(probe() for probe in self.probes)

    def trace_cycles(self, seconds):
        """Cycles per traced pass: three passes take about `seconds`."""
        return 1 if self.smoke else max(1, round(seconds / 3.0 / self.cycle_s))

    def _item(self, kind, key, fn):
        try:
            out = self.hooks.timed(fn)
        except Exception as exc:  # a raising item counts as failed; the run goes on
            self.hooks.tally.errors.append((1, f"{kind} {key}: {exc!r}"))
            return
        self.hooks.tally.outputs.append((kind, 1, (key, out)))


class Split(Workload):
    """The split layer at two sizes, one cycle after the other.

    ``qii verify --strong`` on random Fourier loops (n = 2048), multi-turn
    great circles and rhombohedral Fermi-surface loops: split dominates, and
    only the multi-turn loops re-split.  ``qii search`` at n = 256: thousands
    of small splits plus Nelder-Mead overhead, where a split with a higher
    constant cost loses.
    """
    name = "split"
    cycle_s = 4.8
    probes = (probe_calls, probe_arrays)
    probe_ref_s = 2.1e-3

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 256 if self.smoke else 2048
        self.random_loops = 4 if self.smoke else 40
        self.turns = (2, 3) if self.smoke else (2, 4, 8, 16, 32)
        self.per_turn = 16 if self.smoke else 64
        self.layers = (1, 2) if self.smoke else (1, 2, 3, 4, 5)
        self.fermi_n = 128 if self.smoke else 1024
        self.search_n = 64 if self.smoke else 256
        self.budget = 150 if self.smoke else 500
        self.paths = 2 if self.smoke else 6
        self.restarts = 1 if self.smoke else 5

    def setup(self):
        e_f = np.random.default_rng(np.random.SeedSequence([self.seed, 3])).uniform(0.5, 2.0)
        self.fermi = [(n_layers, models.fermi_surface_loop(models.rhombohedral(n_layers),
                                                           e_f, self.fermi_n)[0])
                      for n_layers in self.layers]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        self.axes = [rng.normal(size=3) for _ in self.turns]
        self._verify(3, 1, sub_seed(self.seed, 0), self.n)
        self._search(sub_seed(self.seed, 0), 100, 1)

    def run_cycle(self):
        # four commands, so host probes fall between them
        for part in range(4):
            self._verify(3, self.random_loops // 4, sub_seed(self.seed, 5, part), self.n)
        for turns, axis in zip(self.turns, self.axes):
            self._split_item("great-circle", turns, lambda: loops.great_circle(
                axis, self.per_turn * turns, turns=turns))
        for n_layers, loop in self.fermi:
            self._split_item("fermi-surface", n_layers, lambda: loop)
        for i in range(self.paths):   # several paths, so no single path sets the cost
            self._search(sub_seed(self.seed, 1, i), self.budget, self.restarts)

    def _verify(self, m, count, seed, n):
        argv = ["verify", "--strong", "--m", str(m), "--loops", str(count), "--k", "2",
                "--n", str(n), "--seed", str(seed), "--out", self.out]
        tally = self.hooks.tally
        before = len(tally.durations)
        code = self.hooks.cli(argv)
        rows = self.hooks.rows
        if code != 0 or len(rows) != count or len(tally.durations) - before != count:
            tally.errors.append((count, f"verify {argv}: exit {code}, {len(rows)} rows"))
            return
        tally.outputs.append(("strong-rows", count, tuple(tuple(r) for r in rows)))

    def _split_item(self, kind, windings, make):
        """split -> summarize -> strong_qii on a loop that winds `windings` times."""
        def item():
            parts = loops.split_self_intersections(make())
            summaries = [geometry.summarize(p) for p in parts]
            reports = [inequalities.strong_qii(s, conjecture=len(parts) > 1)
                       for s in summaries]
            agg = geometry.aggregate_summary(summaries)
            return (len(parts), agg.d_fs, agg.gamma_total,
                    min(r.margin + r.tol for r in reports))
        self._item(kind, windings, item)

    def _search(self, seed, budget, restarts):
        tally = self.hooks.tally
        before = len(tally.durations)
        code = self._cli_search(seed, budget, restarts, self.search_n)
        calls = len(tally.durations) - before
        if code != 0 or len(self.hooks.results) != 1:
            tally.errors.append((max(calls, 1), f"search seed {seed}: exit {code}"))
            return
        cfg, r = self.hooks.results[0]
        tally.outputs.append(("search", calls, (
            budget, cfg.dims, calls, r.evals, r.status, r.violation,
            r.best_margin, r.margin_at_n, r.history)))

    def _cli_search(self, seed, budget, restarts, n):
        return self.hooks.cli(["search", "--m", "3", "--k", "2", "--n", str(n),
                               "--budget", str(budget), "--restarts", str(restarts),
                               "--seed", str(seed), "--out", self.out])

    def check(self, kind, payload):
        """(items that failed, first message) for one tally output."""
        if kind == "search":
            budget, dims, calls, evals, status, violation, best, _, _ = payload
            if evals != calls:
                return calls, f"search reports {evals} evals for {calls} objective calls"
            # the budget is tested before each simplex step, so the last step may
            # run over by at most one shrink (dims evaluations)
            if not budget <= evals <= budget + dims or status != "budget_exhausted":
                return calls, f"search used {evals} of budget {budget} ({status})"
            if violation or best < -TOL.violation:
                return calls, f"search flagged margin {best!r}"
            return 0, ""
        if kind == "strong-rows":
            # columns: index, d_fs, gamma_b, weak margin, |weak| margin,
            # convergence estimate, strong margin, sub-loops
            bad = [r for r in payload if r[3] < -FLOOR or r[6] < -max(FLOOR, 10.0 * r[5])]
            return len(bad), (f"{kind} loop {bad[0][0]} margin below tolerance"
                              if bad else "")
        windings, (n_parts, d_fs, gamma_total, slack) = payload
        want = windings * np.pi
        if n_parts != windings:
            return 1, f"{kind} x{windings}: {n_parts} sub-loops"
        if abs(d_fs - want) > EXACT or abs(abs(gamma_total) - want) > EXACT:
            return 1, f"{kind} x{windings}: d={d_fs!r} gamma={gamma_total!r}"
        if slack < 0.0:
            return 1, f"{kind} x{windings}: strong margin below -tol_for"
        return 0, ""

    def objective_ms(self, rounds=3):
        """Median ms per qii_objective call on a fixed set of m=3, n=256 specs."""
        specs = []
        for i in range(64):
            spec = loops.random_fourier_spec(3, 2, self.search_n, np.random.default_rng(
                np.random.SeedSequence([0, i])))
            try:
                search.qii_objective(spec)
            except DegenerateSpec:
                continue
            specs.append(spec)
        times = []
        for _ in range(rounds):
            for spec in specs:
                t0 = time.perf_counter()
                search.qii_objective(spec)
                times.append(time.perf_counter() - t0)
        return 1e3 * float(np.median(times))

    def reference(self):
        self.hooks.cli(["verify", "--strong", "--m", "3", "--loops", "2", "--k", "2",
                        "--n", "512", "--seed", "0", "--out", self.out])
        ref = {f"loop{int(r[0])}.{col}": r[j] for r in self.hooks.rows
               for j, col in ((6, "strong_margin"), (7, "n_subloops"))}
        self._cli_search(0, 150, 1, 64)
        _, r = self.hooks.results[0]
        return {**ref, "search.best_margin": r.best_margin, "search.evals": r.evals}


def _values(chain):
    return tuple(float(v) for v in chain.values)


class Bands(Workload):
    name = "bands"
    cycle_s = 2.9
    probes = (probe_bloch,)
    probe_ref_s = 1.2e-3

    def __init__(self, *args):
        super().__init__(*args)
        self.n_models = 2 if self.smoke else 16
        self.n_k = 24 if self.smoke else 96
        self.eph_n = 32 if self.smoke else 256
        self.layers = (1, 2) if self.smoke else (1, 2, 3, 4, 5)
        self.fixed = [("ssh(0,1)", models.ssh(0, 1)), ("ssh(1,0)", models.ssh(1, 0)),
                      ("ssh(2,1)", models.ssh(2, 1)), ("ssh(1,2)", models.ssh(1, 2)),
                      ("creutz", models.creutz(1.0))]

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 4]))
        self.random = [applications.random_gapped_bloch_spec(rng)
                       for _ in range(self.n_models)]
        self.v_f, self.e_f, self.e_f_rh = rng.uniform(0.5, 2.0, size=3)
        self._chains("warm-up", self.random[0])

    def run_cycle(self):
        for i, spec in enumerate(self.random):
            self._chains(f"random{i}", spec)
        for label, spec in self.fixed:
            self._chains(label, spec)
        dirac = models.dirac(self.v_f)
        self._item("eph-dirac", (self.v_f, self.e_f), lambda: _values(
            applications.eph_bound_chain(dirac, self.e_f, self.eph_n)))
        for n_layers in self.layers:
            spec = models.rhombohedral(n_layers)
            self._item("eph-rhombohedral", (n_layers, self.e_f_rh), lambda: _values(
                applications.eph_bound_chain(spec, self.e_f_rh, self.eph_n)))

    def _chains(self, label, spec, n_k=None):
        n_k = n_k or self.n_k
        self._item("wannier", label, lambda: _values(
            applications.wannier_bound_chain(spec, n_k=n_k)))
        self._item("superfluid", label, lambda: _values(
            applications.superfluid_weight_1d(spec, 1.0, 0.5, n_k=n_k)))

    def check(self, kind, payload):
        key, values = payload
        v = np.asarray(values)
        # monotone to the saturation floor, scaled to the chain's magnitude:
        # eph chains on rhombohedral N >= 4 reach ~40 and rise by ~1e-6 there
        if np.diff(v).max() > FLOOR * max(1.0, np.abs(v).max()):
            return 1, f"{kind} {key}: chain not monotone {values}"
        if key == "creutz" and v.max() - v.min() > FLOOR:
            return 1, f"{kind} creutz: chain not saturated {values}"
        if kind == "eph-dirac":
            v_f, e_f = key
            if np.abs(v - np.pi * v_f / (2.0 * e_f)).max() > 1e-6:
                return 1, f"eph dirac {key}: {values} != pi v_F / 2 E_F"
        if kind == "eph-rhombohedral":
            n_layers, e_f = key
            l_fs = 2.0 * np.pi * e_f ** (1.0 / n_layers)
            d_fs, gamma = np.sqrt(v[2:] * l_fs)
            if max(abs(d_fs - n_layers * np.pi), abs(gamma - n_layers * np.pi)) > EXACT:
                return 1, f"eph rhombohedral {key}: aggregate d={d_fs!r} != N pi"
        return 0, ""

    def reference(self):
        tally = self.hooks.tally
        start = len(tally.outputs)
        for label, spec in self.fixed:
            self._chains(label, spec, n_k=32)
        self._item("eph-dirac", (1.0, 1.0), lambda: _values(
            applications.eph_bound_chain(models.dirac(1.0), 1.0, 32)))
        self._item("eph-rhombohedral", (2, 1.0), lambda: _values(
            applications.eph_bound_chain(models.rhombohedral(2), 1.0, 32)))
        return {f"{kind}.{key}.{i}": v for kind, _, (key, values) in tally.outputs[start:]
                for i, v in enumerate(values)}


WORKLOADS = {w.name: w for w in (Split, Bands)}

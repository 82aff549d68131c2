"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of each layer module (the
package's modules) and rebinds the wrapper under every name that refers to
the original in the package's modules; the verifier's suite table is wrapped
entry by entry.  Each wrapped call is a span: its inclusive time, and its self
time, which is the inclusive time minus that of the wrapped calls it makes.
Spans nest per thread, since the verifier runs suites on a pool.
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import inspect
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

from checks import SUITES

LAYERS = ("group", "hermite", "weil_brezin", "invariants", "spectrum", "weyl", "cli", "verify")

# per-layer time metrics that sum the self time of some functions of one layer
_GROUPS = {
    "invariants.pullback_s": ("invariants", ("phi_pullback_matrix", "psi_pullback_matrix")),
    "invariants.oracle_s": ("invariants", ("fixed_subspace_dim",)),
    "invariants.characters_s": ("invariants", ("character_table", "dim_from_characters",
                                               "sector_dimensions", "gauss_sum",
                                               "gauss_sum_direct")),
    "invariants.constraint_s": ("invariants", ("phi_constraint_solve", "psi_constraint_solve")),
    "invariants.combination_self_s": ("invariants", ("eigenfunction_combination",)),
    "spectrum.enumerate_s": ("spectrum", ("enumerate_spectrum", "dual_lattice")),
    "weyl.counting_s": ("weyl", ("counting_function",)),
    "weyl.bieberbach_s": ("weyl", ("bieberbach_spectrum",)),
    "weyl.side_columns_s": ("weyl", ("parity_counts", "oscillator_pair_sums")),
    "weyl.constant_s": ("weyl", ("weyl_constant",)),
}

METRICS = (
    [("hermite.calls", "count"), ("hermite.self_s", "s"),
     ("weil_brezin.points", "count"), ("weil_brezin.self_s", "s"),
     ("weil_brezin.seeds_per_point", "count"),
     ("group.calls", "count"), ("group.self_s", "s"),
     ("invariants.pullback_s", "s"), ("invariants.pullback_entries", "count"),
     ("invariants.oracle_s", "s"), ("invariants.oracle_calls", "count"),
     ("invariants.characters_s", "s"), ("invariants.constraint_s", "s"),
     ("invariants.combination_self_s", "s"),
     ("spectrum.enumerate_s", "s"), ("spectrum.lines", "count"),
     ("weyl.counting_s", "s"), ("weyl.bieberbach_s", "s"), ("weyl.side_columns_s", "s"),
     ("weyl.constant_s", "s"), ("weyl.samples", "count"),
     ("cli.self_s", "s"), ("cli.bytes_written", "B")]
    + [(f"verify.{name}_s", "s") for name in SUITES]
    + [("verify.parallelism", "ratio"),
       ("setup.import_numpy_s", "s"), ("setup.import_scipy_s", "s"),
       ("setup.import_self_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> calls, inclusive, self
        self.edges = Counter()  # (caller key, callee key) -> calls
        self.counters = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []  # (namespace dict, name, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, key, fn, after=None):
        local, lock, stats, edges = self._local, self._lock, self.stats, self.edges

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                with lock:
                    s = stats[key]
                    s[0] += 1
                    s[1] += dt
                    s[2] += dt - frame[1]
                    if parent is not None:
                        edges[(parent[0], key)] += 1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, measure):
        def after(result):
            with self._lock:
                self.counters[name] += measure(result)
        return after

    def install(self) -> None:
        entries = self._count("pullback_entries", lambda r: r.matrix.size)
        after = {
            "invariants.phi_pullback_matrix": entries,
            "invariants.psi_pullback_matrix": entries,
            "spectrum.enumerate_spectrum": self._count("lines", len),
            "weyl.bieberbach_spectrum": self._count("lines", len),
            "weyl.counting_function": self._count("samples", lambda r: len(r.t)),
        }
        namespaces = [m.__dict__ for name, m in sorted(sys.modules.items())
                      if name.split(".", 1)[0] == self.package.__name__]
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                public = not name.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapped = self._wrap(key, fn, after.get(key))
                for ns in namespaces:
                    for alias, value in list(ns.items()):
                        if value is fn:
                            self._saved.append((ns, alias, fn))
                            ns[alias] = wrapped
        suites = self.modules["verify"].SUITES
        for name, fn in list(suites.items()):
            self._saved.append((suites, name, fn))
            suites[name] = self._wrap(f"suite.{name}", fn)

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._saved):
            ns[name] = original
        self._saved.clear()

    # -- metrics ------------------------------------------------------------

    def _sum(self, layer, index, names=None):
        total = 0
        for key, v in self.stats.items():
            owner, name = key.split(".", 1)
            if owner == layer and (names is None or name in names):
                total += v[index]
        return total

    def metrics(self) -> dict:
        out = {}
        for layer in ("hermite", "group"):
            out[f"{layer}.calls"] = self._sum(layer, 0)
            out[f"{layer}.self_s"] = self._sum(layer, 2)
        points = self._sum("weil_brezin", 0, ("weil_brezin_eval",))
        seeds = self.edges[("weil_brezin.weil_brezin_eval", "hermite.scaled_hermite")]
        out["weil_brezin.points"] = points
        out["weil_brezin.self_s"] = self._sum("weil_brezin", 2)
        out["weil_brezin.seeds_per_point"] = seeds / points if points else 0.0
        for metric, (layer, names) in _GROUPS.items():
            out[metric] = self._sum(layer, 2, names)
        out["invariants.pullback_entries"] = self.counters["pullback_entries"]
        out["invariants.oracle_calls"] = self._sum("invariants", 0, ("fixed_subspace_dim",))
        out["spectrum.lines"] = self.counters["lines"]
        out["weyl.samples"] = self.counters["samples"]
        out["cli.self_s"] = self._sum("cli", 2)
        out["cli.bytes_written"] = self.counters["bytes_written"]
        suite_total = 0.0
        for name in SUITES:
            out[f"verify.{name}_s"] = self._sum("suite", 1, (name,))
            suite_total += out[f"verify.{name}_s"]
        wall = self._sum("verify", 1, ("run_suites",))
        out["verify.parallelism"] = suite_total / wall if wall else 0.0
        return out


# ---------------------------------------------------------------------------
# set-up breakdown from `python -X importtime`

_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_breakdown(src: str, env: dict, repeats: int = 3) -> dict:
    """Seconds spent importing numpy, scipy and the package itself (own modules
    only), medians over fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {src!r}); import heis_spectra.cli"
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(_attribute(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _attribute(stderr: str) -> dict:
    entries = []  # (depth, cumulative us, module) in the order printed (children first)
    for line in stderr.splitlines():
        m = _LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, int(m.group(2)), m.group(4)))
    totals = {"numpy": 0, "scipy": 0, "heis_spectra": 0}
    # walk parents before children; an entry counts when no ancestor is of its own
    # family, and numpy loaded by scipy counts as scipy
    stack = []  # families of the open ancestors
    for depth, cum, name in reversed(entries):
        del stack[depth:]
        family = name.split(".", 1)[0]
        if family == "heis_spectra" and family not in stack:
            totals[family] += cum
        elif family in ("numpy", "scipy") and "numpy" not in stack and "scipy" not in stack:
            totals[family] += cum
            if "heis_spectra" in stack:
                totals["heis_spectra"] -= cum
        stack.append(family)
    return {"setup.import_numpy_s": totals["numpy"] / 1e6,
            "setup.import_scipy_s": totals["scipy"] / 1e6,
            "setup.import_self_s": totals["heis_spectra"] / 1e6}

"""Workload definitions and output checks for the host-time benchmark.

A workload is the command line a user types (``python -m repro ...``)
plus the checks that decide whether one run of it produced the right
outputs.  Both the untraced runs (subprocesses) and the traced run
(in-process, see ``tracer.py``) build their argument lists and check
their outputs here, so the two can never drift apart.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".hostbench_out"
REFERENCES = HERE / "references.json"

@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "cli" | "sweep"
    apps: tuple[str, ...]
    scale: str = "default"
    params: dict = field(default_factory=dict)
    axes: tuple[tuple[str, str], ...] = ()
    jobs: int = 1

    def n_cells(self) -> int:
        n = len(self.apps)
        for _name, values in self.axes:
            n *= len(values.split(","))
        return n

    def programs(self) -> list[tuple[str, str, dict]]:
        """(app, scale, params) of every Program the command constructs."""
        return [(app, self.scale, dict(self.params)) for app in self.apps]

    def argv(self, seed: int, jobs: int | None = None,
             cache_dir: str | None = None,
             json_path: str | None = None) -> list[str]:
        """Arguments after ``python -m repro`` (also ``repro.cli.main``'s)."""
        if self.kind == "cli":
            (app,) = self.apps
            out = [app, "--scale", self.scale]
            for key, val in sorted(self.params.items()):
                out += ["--param", f"{key}={val}"]
            return out
        out = ["sweep", *self.apps, "--scale", self.scale]
        for name, values in self.axes:
            out += ["--axis", f"{name}={values}"]
        out += ["--axis", f"seed={seed}",
                "--jobs", str(self.jobs if jobs is None else jobs),
                "--cache-dir", str(cache_dir), "--json", str(json_path),
                "--quiet"]
        return out


_SWEEP_AXES = (("combine", "off,on"), ("drop", "0,0.01"),
               ("nodes", "4,8"), ("profile", "off,on"))

#: Why each workload exists: see README.md ("Workloads").
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-jacobi-paper", "cli", ("jacobi",), scale="paper"),
        # 20 of the paper's 40 sweeps: pde's host time is nearly linear in
        # the sweep count, so every layer keeps its share within ~4 points
        # at half the wall.
        Workload("cli-pde-paper", "cli", ("pde",), scale="paper",
                 params={"iters": 20}),
        Workload("sweep-fault-matrix", "sweep", ("shallow", "cg", "lu"),
                 axes=_SWEEP_AXES, jobs=2),
    )
}

#: Tiny versions of each workload: same code paths, seconds to run.
SMOKE = {
    "cli-jacobi-paper": Workload(
        "cli-jacobi-paper", "cli", ("jacobi",), params={"n": 64, "iters": 2}),
    "cli-pde-paper": Workload(
        "cli-pde-paper", "cli", ("pde",), params={"n": 16, "iters": 2}),
    "sweep-fault-matrix": Workload(
        "sweep-fault-matrix", "sweep", ("cg",),
        axes=(("drop", "0,0.01"), ("nodes", "4"), ("profile", "off,on")),
        jobs=2),
}


def get_workload(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]


def reference_key(workload: Workload, smoke: bool) -> str:
    return f"{workload.name}{'/smoke' if smoke else ''}"


def source_digest() -> str:
    """Digest of the simulator's sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------- #
# CLI runs
# --------------------------------------------------------------------- #
#: printed simulated outputs of one CLI run, kept as the printed strings
CLI_FIELDS = {
    "sim_elapsed_ms": re.compile(r"^simulated time:\s+([0-9.]+) ms", re.M),
    "messages": re.compile(r"^messages:\s+(\d+) total", re.M),
    "misses_per_node": re.compile(r"^misses:\s+(\d+)/node", re.M),
    "wire_mb": re.compile(r"^bytes on wire:\s+([0-9.]+) MB", re.M),
}
_AUDIT_CLEAN = re.compile(r"^coherence audit:\s+clean", re.M)


def parse_cli_output(stdout: str) -> dict:
    out = {}
    for name, pattern in CLI_FIELDS.items():
        m = pattern.search(stdout)
        if m:
            out[name] = m.group(1)
    return out


def check_cli_run(returncode: int, stdout: str, reference: dict | None) -> list[str]:
    """Failures of one CLI run; an empty list means it passed.

    Exit 0 means the run's bitwise shmem == uniproc numerics check passed
    (the CLI raises otherwise); the audit line proves the end-of-run
    coherence audit was clean; the printed simulated outputs must equal
    the recorded reference.
    """
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    if not _AUDIT_CLEAN.search(stdout):
        failures.append("no clean coherence-audit line")
    got = parse_cli_output(stdout)
    if reference is None:
        failures.append("no recorded reference")
        return failures
    for name in CLI_FIELDS:
        if got.get(name) != reference.get(name):
            failures.append(
                f"{name}: printed {got.get(name)!r}, reference "
                f"{reference.get(name)!r}"
            )
    return failures


# --------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------- #
#: row fields that pin a cell's simulated result (the table minus provenance)
ROW_FIELDS = ("app", "cell", "elapsed_ms", "comm_ms", "misses_per_node",
              "completed")


def load_sweep_json(path: str | Path) -> tuple[list[dict], dict]:
    """(cells, serve stats) from a ``repro sweep --json`` file."""
    with open(path) as fh:
        payload = json.load(fh)
    return payload["cells"], payload["stats"]


def result_rows(cells: list[dict]) -> list[dict]:
    return [{k: c[k] for k in ROW_FIELDS} for c in cells]


def check_sweep_cold(cells: list[dict], expected: list[dict] | None,
                     n_cells: int) -> tuple[list[str], set[int]]:
    """Failures of a cold sweep's ``--json`` cells, and the failed cells.

    Every cell must finish (no degraded cell) and, when ``expected`` rows
    are given (recorded, or the set's first run), equal them.
    """
    if len(cells) != n_cells:
        return [f"{len(cells)} cells, expected {n_cells}"], set(range(n_cells))
    failures, bad = [], set()
    degraded = [i for i, c in enumerate(cells) if not c["completed"]]
    if degraded:
        bad.update(degraded)
        failures.append(
            f"{len(degraded)} degraded cell(s), first: "
            f"{cells[degraded[0]]['app']} [{cells[degraded[0]]['cell']}]"
        )
    if expected is not None:
        got = result_rows(cells)
        differ = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        if len(expected) != n_cells:
            differ = list(range(n_cells))
        if differ:
            bad.update(differ)
            failures.append(
                f"{len(differ)} row(s) differ from the reference, first: "
                f"{got[differ[0]]['app']} [{got[differ[0]]['cell']}]"
            )
    return failures, bad


def check_sweep_warm(cold: list[dict], warm: list[dict],
                     hit_rate: float) -> tuple[list[str], set[int]]:
    """Failures of a warm re-run over the cold run's cache.

    Every cell must be a cache hit and its row (with its key) must equal
    the cold row.
    """
    n = len(cold)
    if hit_rate != 1.0 or len(warm) != n:
        return [f"warm hit rate {hit_rate:.1%} over {len(warm)} cells, "
                f"expected 100% over {n}"], set(range(n))
    differ = [i for i, (c, w) in enumerate(zip(cold, warm))
              if {k: c[k] for k in ROW_FIELDS + ("key",)}
              != {k: w[k] for k in ROW_FIELDS + ("key",)}]
    if differ:
        return [f"{len(differ)} warm row(s) differ from the cold rows, "
                f"first: {warm[differ[0]]['app']} [{warm[differ[0]]['cell']}]"
                ], set(differ)
    return [], set()


def load_references(path: str | Path = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_sweep_rows(references: dict, workload: Workload, smoke: bool,
                        seed: int, digest: str) -> tuple[list[dict] | None, Path | None]:
    """Rows a sweep with ``seed`` must produce, and where to record them.

    The recorded seed compares against ``references.json``.  Any other
    seed compares against the first run of that seed on this source tree
    (kept under ``.hostbench_out``); when there is none yet, the caller
    records the run it just made through the returned path.
    """
    ref = references.get(reference_key(workload, smoke))
    if ref is not None and seed == ref["seed"]:
        return ref["rows"], None
    path = OUT / "set-first" / f"{reference_key(workload, smoke).replace('/', '-')}-seed{seed}-{digest}.json"
    if path.exists():
        with open(path) as fh:
            return json.load(fh), None
    return None, path


def record_rows(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(rows, fh)
    tmp.replace(path)

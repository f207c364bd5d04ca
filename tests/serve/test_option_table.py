"""The run-option table: one declaration per option for every front end.

``repro.serve.matrix.OPTIONS`` generates the run CLI's flags, the sweep
axes and ``repro diff``'s cell specs.  These tests pin the surface it
generates (copied from the hand-written parsers it replaced) and check
that a flag and its axis build the same request.
"""

import pytest

from repro.cli import build_parser
from repro.serve.cli import _sweep_requests, build_diff_parser, build_sweep_parser
from repro.serve.matrix import AXES, request_from_args

# --------------------------------------------------------------------- #
# the option surface: (option strings, dest, default) of every parser
# --------------------------------------------------------------------- #
RUN = [
    ((), 'app', None),
    (('--advisory',), 'advisory', None),
    (('--audit',), 'audit', False),
    (('--backend',), 'backend', 'shmem'),
    (('--checkpoint-every',), 'checkpoint_every', 0),
    (('--combine', '--no-combine'), 'combine', False),
    (('--combine-max-msgs',), 'combine_max_msgs', None),
    (('--combine-wait',), 'combine_wait', None),
    (('--critical-path',), 'critical_path', False),
    (('--fault-crash',), 'fault_crash', []),
    (('--fault-drop',), 'fault_drop', 0.0),
    (('--fault-dup',), 'fault_dup', 0.0),
    (('--fault-jitter',), 'fault_jitter', 0.0),
    (('--fault-link',), 'fault_link', []),
    (('--fault-partition',), 'fault_partition', []),
    (('--fault-retries',), 'fault_retries', None),
    (('--fault-seed',), 'fault_seed', 0),
    (('--fault-stall',), 'fault_stall', 0.0),
    (('--fault-stall-us',), 'fault_stall_us', 0.0),
    (('--heartbeat-us',), 'heartbeat_us', None),
    (('--help', '-h'), 'help', '==SUPPRESS=='),
    (('--no-bulk',), 'no_bulk', False),
    (('--no-opt',), 'no_opt', False),
    (('--no-switch', '--switch'), 'switch', False),
    (('--nodes',), 'nodes', 8),
    (('--param',), 'param', []),
    (('--pre',), 'pre', False),
    (('--profile-phases',), 'profile_phases', False),
    (('--protocol',), 'protocol', 'invalidate'),
    (('--rt-elim',), 'rt_elim', False),
    (('--rto-adaptive',), 'rto_adaptive', False),
    (('--rto-max-us',), 'rto_max_us', None),
    (('--scale',), 'scale', 'default'),
    (('--single-cpu',), 'single_cpu', False),
    (('--switch-bw',), 'switch_bw', None),
    (('--switch-ports',), 'switch_ports', None),
    (('--trace-cap',), 'trace_cap', 1000000),
    (('--trace-kinds',), 'trace_kinds', None),
    (('--trace-messages',), 'trace_messages', None),
    (('--trace-out',), 'trace_out', None),
    (('--whatif',), 'whatif', None),
]
SWEEP = [
    ((), 'apps', None),
    (('--axis',), 'axis', []),
    (('--cache-dir',), 'cache_dir', None),
    (('--check-serial',), 'check_serial', False),
    (('--help', '-h'), 'help', '==SUPPRESS=='),
    (('--jobs',), 'jobs', 1),
    (('--json',), 'json', None),
    (('--min-hit-rate',), 'min_hit_rate', None),
    (('--no-cache',), 'no_cache', False),
    (('--nodes',), 'nodes', 8),
    (('--quiet',), 'quiet', False),
    (('--scale',), 'scale', 'default'),
]
DIFF = [
    ((), 'app', None),
    ((), 'cell_a', None),
    ((), 'cell_b', None),
    (('--cache-dir',), 'cache_dir', None),
    (('--help', '-h'), 'help', '==SUPPRESS=='),
    (('--jobs',), 'jobs', 1),
    (('--json',), 'json', None),
    (('--no-cache',), 'no_cache', False),
    (('--nodes',), 'nodes', 8),
    (('--scale',), 'scale', 'default'),
]
AXIS_NAMES = ['bulk', 'combine', 'drop', 'dup', 'jitter_us', 'nodes', 'optimize', 'pre', 'profile', 'protocol', 'rt_elim', 'scale', 'seed', 'switch']



def _surface(parser):
    return sorted(
        (tuple(sorted(a.option_strings)), a.dest, repr(a.default))
        for a in parser._actions
    )


@pytest.mark.parametrize(
    "build, expected",
    [(build_parser, RUN), (build_sweep_parser, SWEEP), (build_diff_parser, DIFF)],
    ids=["run", "sweep", "diff"],
)
def test_parser_surface_unchanged(build, expected):
    assert _surface(build()) == [(s, d, repr(v)) for s, d, v in expected]


def test_axis_names_unchanged():
    assert sorted(AXES) == AXIS_NAMES


# --------------------------------------------------------------------- #
# a flag and its axis build equal requests
# --------------------------------------------------------------------- #
#: axis -> (run-CLI flags, axis value) setting it away from its default
NON_DEFAULT = {
    "optimize": (["--no-opt"], "off"),
    "bulk": (["--no-bulk"], "off"),
    "rt_elim": (["--rt-elim"], "on"),
    "pre": (["--pre"], "on"),
    "protocol": (["--protocol", "update"], "update"),
    "combine": (["--combine"], "on"),
    "switch": (["--switch"], "on"),
    "drop": (["--fault-drop", "0.05"], "0.05"),
    "dup": (["--fault-dup", "0.02"], "0.02"),
    "jitter_us": (["--fault-jitter", "2.5"], "2.5"),
    "seed": (["--fault-seed", "3"], "3"),
    "nodes": (["--nodes", "4"], "4"),
    "scale": (["--scale", "paper"], "paper"),
    "profile": (["--profile-phases", "--critical-path"], "on"),
}


def test_every_axis_has_a_case():
    assert sorted(NON_DEFAULT) == sorted(AXES)


@pytest.mark.parametrize("axis", sorted(NON_DEFAULT))
def test_flag_and_axis_build_equal_requests(axis):
    flags, value = NON_DEFAULT[axis]
    run = request_from_args("jacobi", build_parser().parse_args(["jacobi", *flags]))
    # The run CLI optimizes by default; a sweep cell needs optimize=on.
    axes = {"optimize": "on", axis: value}
    argv = ["jacobi"]
    for name, v in axes.items():
        argv += ["--axis", f"{name}={v}"]
    (cell,) = _sweep_requests(build_sweep_parser().parse_args(argv))
    assert run == cell


def test_defaults_build_equal_requests():
    run = request_from_args("jacobi", build_parser().parse_args(["jacobi"]))
    (cell,) = _sweep_requests(
        build_sweep_parser().parse_args(["jacobi", "--axis", "optimize=on"])
    )
    assert run == cell

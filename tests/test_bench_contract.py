"""The benchmark under bench/ must keep importing, building and passing its
workloads.

bench/run.py imports the package and bench/workloads.py in-process, so a
package change that breaks a name, a signature or a reference computation
the workloads rely on would make every benchmark run fail with malformed
output.  This builds each workload's operations, parses every command line
with the CLI's parser, runs every check on a deliberately wrong output, and
runs real commands through their reference checks, without touching the
files under bench/.
"""

import contextlib
import io
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import commands  # noqa: E402
import workloads  # noqa: E402

from treerecon.cli import build_parser, main  # noqa: E402


@pytest.mark.parametrize("name", sorted(commands.WORKLOADS))
def test_workload_builds_with_references(name):
    ops = workloads.build(name, 1, workloads.load_refs())
    assert ops
    parser = build_parser()
    for op in ops:
        args = parser.parse_args([*op.argv, "--threads", "1", "--format", "json"])
        assert hasattr(args, "func"), op.name
        if op.spec is not None:
            assert callable(op.check)
            assert op.check("not json")  # any failure message, no exception


def test_every_workload_is_listed():
    assert sorted(commands.WORKLOADS) == ["bounds_q2", "optimize", "simulate", "verify"]


def _reference_ops(name):
    """Every operation of the simulate and verify workloads, whose references
    depend on the seed's trees; for the others, the first operation of each
    check kind and set of check parameters."""
    ops = workloads.build(name, 1, workloads.load_refs())
    if name in ("simulate", "verify"):
        return ops
    firsts = {}
    for op in ops:
        if op.spec is not None:
            kind, params = op.spec
            firsts.setdefault((kind, frozenset(params)), op)
    return list(firsts.values())


@pytest.mark.parametrize("name", sorted(commands.WORKLOADS))
def test_workload_passes_its_reference_checks(name):
    # the lazy references (near-center limit, Potts objective, Dirichlet
    # cloud, exact enumerations) run only here; an exception in one would
    # end a benchmark run without its result line
    for op in _reference_ops(name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*op.argv, "--threads", "1", "--format", "json"])
        assert code == op.expect_exit, op.name
        assert op.check(out.getvalue()) is None, op.name

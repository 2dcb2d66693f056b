"""The benchmark under bench/ must keep importing and building its workloads.

bench/run.py imports the package and bench/workloads.py in-process, so a
package change that breaks a name, a signature or a reference computation
the workloads rely on would make every benchmark run fail with malformed
output.  This builds each workload's operations, parses every command line
with the CLI's parser and runs every check on a deliberately wrong output,
without touching the files under bench/.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import commands  # noqa: E402
import workloads  # noqa: E402

from treerecon.cli import build_parser  # noqa: E402


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

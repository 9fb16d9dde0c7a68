"""The benchmark's checkers accept dld's real output and count wrong output.

    python3 -m pytest perfbench
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dld.cli import main  # noqa: E402


def outputs_of(plan):
    outs = []
    for argv in plan.argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        outs.append((code, buf.getvalue()))
    return outs


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_hold_for_every_seed(workload, seed, tmp_path):
    plan = workloads.WORKLOADS[workload][1](seed, tmp_path)
    verdict = plan.check(outputs_of(plan))
    assert verdict.problems == []
    assert verdict.failed == 0


def test_list_build_counts_a_dropped_link(tmp_path):
    plan = workloads.list_build(1, tmp_path, nodes=6)
    ((code, out),) = outputs_of(plan)
    links = out.strip().split(", ")
    dropped = ", ".join(links[:3] + links[4:]) + "\n"
    verdict = plan.check([(code, dropped)])
    assert verdict.problems == [f"final: missing {links[3]}"]


def test_gc_churn_counts_a_flipped_reply_and_a_dropped_link(tmp_path):
    plan = workloads.gc_churn(2, tmp_path, nodes=5, rounds=2)
    ((code, out),) = outputs_of(plan)
    lines = out.splitlines()
    flip = next(i for i, x in enumerate(lines) if x.startswith("clrspot(x) T"))
    lines[flip] = lines[flip].replace(" T ", " F ", 1)
    rgc = next(i for i, x in enumerate(lines) if x.startswith("rgc T"))
    lines[rgc] = lines[rgc].rsplit(", ", 1)[0]
    verdict = plan.check([(code, "\n".join(lines) + "\n")])
    assert len(verdict.problems) == 2
    assert verdict.problems[0].startswith(f"line {flip + 1}:")
    assert verdict.problems[1].startswith(f"line {rgc + 1}: missing")


def test_verify_counts_a_summary_off_by_one(tmp_path):
    plan = workloads.verify(0, 1, 1, 1, 2)
    outs = outputs_of(plan)
    code, out = outs[1]
    checked = int(out.split("checked=")[1].split()[0])
    outs[1] = (code, out.replace(f"checked={checked}",
                                 f"checked={checked + 1}"))
    verdict = plan.check(outs)
    assert verdict.failed == 0
    assert verdict.problems == [
        f"gc-cross: checked={checked + 1}, want {checked}",
        "gc-cross: passed+failed != checked"]


def test_verify_counts_reported_failures(tmp_path):
    plan = workloads.verify(0, 1, 1, 1, 2)
    outs = outputs_of(plan)
    code, out = outs[0]
    checked = int(out.split("checked=")[1].split()[0])
    outs[0] = (1, f"checked={checked} passed={checked - 1} failed=1\n")
    verdict = plan.check(outs)
    assert verdict.failed == 1
    assert verdict.problems == []


def test_verify_counts_match_the_default_universe():
    assert workloads.deterministic_states(2, 1, 2, 2) == 1296
    assert workloads.action_instances(2, 1) == 102
    assert workloads.all_links(2, 1, 2, 2) == 14


def test_smoke_runs_every_workload():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == len(workloads.WORKLOADS)

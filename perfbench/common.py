"""Shared plumbing: checkout paths, the hermetic environment, child
processes, statistics and the run record."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space (private work directories) and run records, inside the
#: checkout; listed in the root ``.gitignore``.
OUT = ROOT / ".perfbench"

#: Wall-clock limit for any one child process.
CHILD_TIMEOUT = 150.0


def make_hermetic() -> None:
    """Drop every ``REPRO_*`` switch from this process's environment
    (children inherit it) and point imports at the checkout's source, so
    a developer's shell cannot fork a code path of the program."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(work: Path) -> dict:
    """Environment of a program process: hermetic, with a private
    evaluation cache inside the run's work directory."""
    env = dict(os.environ)
    env["REPRO_EVAL_CACHE"] = str(work / "eval_cache")
    return env


def start_coldpass(work: Path, name: str,
                   tasks: list[dict]) -> subprocess.Popen:
    """Start a fresh ``coldpass.py`` process on ``tasks``; collect its
    report with :func:`finish_coldpass`."""
    task_file = work / f"{name}.task.json"
    task_file.write_text(json.dumps({"tasks": tasks}))
    return subprocess.Popen(
        [sys.executable, str(HERE / "coldpass.py"), str(task_file),
         str(work / f"{name}.out.json")],
        cwd=ROOT, env=child_env(work), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)


def finish_coldpass(work: Path, name: str, proc: subprocess.Popen) -> dict:
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:  # a timeout, or the benchmark is stopping
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"cold pass {name} exited {proc.returncode}:\n"
                           + err[-2000:])
    return json.loads((work / f"{name}.out.json").read_text())


def run_coldpass(work: Path, name: str, tasks: list[dict]) -> dict:
    return finish_coldpass(work, name, start_coldpass(work, name, tasks))


# -- statistics -------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """90th percentile, interpolated within the observed range."""
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- run record -------------------------------------------------------------

def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git
    (the benchmark's checkout is usually not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit()}

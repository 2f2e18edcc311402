"""Reachability audit: which ``src/`` functions does no entry point call?

Runs every entry point of the repository under a call hook and prints a
per-module table of the function lines that no run ever entered::

    python scripts/reach_audit.py              # table + total
    python scripts/reach_audit.py --functions  # also name each function

The entry points are the CLI subcommands (a small smoke of each, on a
generated dataset), ``benchmarks/e2e/selftest.py``, the four ``examples/``
scripts and the thirteen paper-figure benches at scale 0.15.  Each one runs
as a subprocess whose ``PYTHONPATH`` starts with a generated
``sitecustomize.py``; that module installs a ``sys.setprofile`` hook (and
the same hook for every thread) when the audit's environment variable is
set.  Subprocesses an entry point starts itself (the ``serve`` server of the
e2e harness, process-pool workers, examples spawning the CLI) inherit the
environment, so they are hooked too.  Every process appends one line per
function it enters for the first time to a shared file, as it happens, so a
process that is killed or leaves through ``os._exit`` loses nothing.

A function is *reached* when its code object was entered at least once;
its lines are the span of its ``def`` (decorators included).  The lines of
an unreached function nested in a reached one count on their own; those of
a function nested in an unreached one count once, with the outer function.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Where the hooked processes append the functions they enter.
OUT_VAR = "REACH_AUDIT_OUT"
#: Only functions under this directory are recorded.
ROOT_VAR = "REACH_AUDIT_ROOT"

#: The ``sitecustomize.py`` every audited process imports at start-up.
HOOK_SOURCE = '''\
import os
import sys
import threading

_OUT = os.environ.get("REACH_AUDIT_OUT")
_ROOT = os.environ.get("REACH_AUDIT_ROOT")
if _OUT and _ROOT:
    _fd = os.open(_OUT, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen = set()
    _prefix = os.path.realpath(_ROOT) + os.sep

    def _reach_hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                path = os.path.realpath(code.co_filename)
                if path.startswith(_prefix):
                    os.write(_fd, ("%s\\t%d\\t%s\\n" % (
                        path, code.co_firstlineno, code.co_name)).encode())

    sys.setprofile(_reach_hook)
    threading.setprofile(_reach_hook)
'''


class Entry(NamedTuple):
    """One entry point: a command run from ``cwd`` (default: the work dir)
    that must exit with one of ``ok``."""

    name: str
    argv: Sequence[str]
    cwd: Optional[Path] = None
    env: Tuple[Tuple[str, str], ...] = ()
    ok: Tuple[int, ...] = (0,)


class Function(NamedTuple):
    """One ``def`` in a source file: its code-object key and line span."""

    module: str
    qualname: str
    first: int
    last: int
    key: Tuple[str, int, str]


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def default_entries(work: Path) -> List[Entry]:
    """Every entry point of this repository, in run order."""
    data, trace, base, wal = (str(work / name) for name in (
        "data.json", "trace.jsonl", "base.json", "wal"))
    deltas, served = str(work / "deltas.json"), str(work / "served")
    benches = ROOT / "benchmarks"
    bench_env = (("REPRO_BENCH_HEPTH_SCALE", "0.15"),
                 ("REPRO_BENCH_DBLP_SCALE", "0.15"),
                 ("REPRO_BENCH_BIG_SCALE", "0.15"))
    figures = sorted(str(path.name) for path in benches.glob("bench_*.py")
                     if path.name != "bench_kernels.py")
    return [
        Entry("cli info", _cli("info")),
        Entry("cli generate dblp-big", _cli(
            "generate", "--preset", "dblp-big", "--scale", "0.1",
            "--output", str(work / "big.json"))),
        Entry("cli generate dblp", _cli(
            "generate", "--preset", "dblp", "--scale", "0.1",
            "--output", str(work / "dblp.json"))),
        Entry("cli generate hepth", _cli(
            "generate", "--preset", "hepth", "--scale", "0.2", "--output", data)),
        Entry("cli cover", _cli("cover", "--dataset", data, "--trace-out", trace)),
        Entry("cli cover compact", _cli(
            "cover", "--dataset", data, "--store-backend", "compact")),
        Entry("cli trace-report", _cli("trace-report", trace)),
        Entry("cli match mln smp", _cli("match", "--dataset", data)),
        Entry("cli match mln mmp processes", _cli(
            "match", "--dataset", data, "--scheme", "mmp", "--executor",
            "processes", "--workers", "2", "--store-backend", "compact",
            "--retries", "1", "--output", str(work / "clusters.json"))),
        Entry("cli match rules no-mp", _cli(
            "match", "--dataset", data, "--matcher", "rules", "--scheme", "no-mp")),
        Entry("cli match pairwise full", _cli(
            "match", "--dataset", data, "--matcher", "pairwise", "--scheme", "full")),
        Entry("cli match rules threads", _cli(
            "match", "--dataset", data, "--matcher", "rules", "--executor",
            "threads", "--workers", "2")),
        Entry("cli stream-trace", _cli(
            "stream-trace", "--dataset", data, "--batches", "4",
            "--base-output", base, "--trace-output", deltas)),
        Entry("cli stream durable", _cli(
            "stream", "--dataset", base, "--deltas", deltas, "--verify",
            "--durable-dir", wal, "--checkpoint-every", "2")),
        Entry("cli stream compact", _cli(
            "stream", "--dataset", base, "--deltas", deltas, "--matcher",
            "rules", "--store-backend", "compact", "--executor", "serial")),
        Entry("cli recover", _cli("recover", "--durable-dir", wal, "--verify")),
        Entry("cli serve durable", _cli(
            "serve", "--dataset", base, "--durable-dir", served, "--port", "0",
            "--duration", "1")),
        Entry("cli serve recover", _cli(
            "serve", "--durable-dir", served, "--port", "0", "--duration", "1")),
        Entry("e2e selftest", [sys.executable, str(benches / "e2e" / "selftest.py")]),
        *(Entry(f"example {name}", [sys.executable, str(ROOT / "examples" / name)])
          for name in ("quickstart.py", "bibliography_dedup.py",
                       "custom_matcher.py", "parallel_grid.py")),
        # pytest-benchmark pauses any profile hook while it times a figure,
        # so the figures run untimed.  pytest exits 1 when a figure's shape
        # assertion fails, which some do at this scale; the figure's code
        # has run by then.
        Entry("paper-figure benches",
              [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--benchmark-disable", *figures], cwd=benches, env=bench_env,
              ok=(0, 1)),
    ]


# ------------------------------------------------------------------ running
def hooked_env(hook_dir: Path, out: Path, package_root: Path,
               extra: Iterable[Tuple[str, str]] = ()) -> Dict[str, str]:
    """The environment of an audited process: hook first on the path."""
    env = dict(os.environ)
    path = [str(hook_dir), str(package_root.parent)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env[OUT_VAR] = str(out)
    env[ROOT_VAR] = str(package_root)
    env.update(extra)
    return env


def run_entries(entries: Sequence[Entry], package_root: Path, work: Path,
                log=None) -> Tuple[Set[Tuple[str, int, str]], List[dict]]:
    """Run every entry hooked; the set of entered ``(file, line, name)``
    keys, and one ``{name, returncode, ok, seconds}`` row per entry."""
    hook_dir = work / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK_SOURCE)
    out = work / "reached.tsv"
    out.write_text("")
    runs: List[dict] = []
    for entry in entries:
        started = time.perf_counter()
        done = subprocess.run(
            list(entry.argv), cwd=str(entry.cwd or work),
            env=hooked_env(hook_dir, out, package_root, entry.env),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        row = {"name": entry.name, "returncode": done.returncode,
               "ok": done.returncode in entry.ok,
               "seconds": round(time.perf_counter() - started, 1)}
        runs.append(row)
        if log is not None:
            log(f"{entry.name}: exit {done.returncode} in {row['seconds']} s")
            if not row["ok"]:
                log(done.stderr[-2000:])
    reached: Set[Tuple[str, int, str]] = set()
    for line in out.read_text().splitlines():
        path, first, name = line.split("\t")
        reached.add((path, int(first), name))
    return reached, runs


# ----------------------------------------------------------------- analysis
def functions_of(package_root: Path) -> List[Function]:
    """Every ``def`` under ``package_root``, keyed like the hook's lines."""
    found: List[Function] = []
    base = package_root.parent
    for path in sorted(package_root.rglob("*.py")):
        real = os.path.realpath(path)
        parts = path.relative_to(base).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    found.append(Function(module, qualname, first, child.end_lineno,
                                          (real, first, child.name)))
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def unreached(functions: Sequence[Function],
              reached: Set[Tuple[str, int, str]]) -> List[Function]:
    """The functions never entered, less those nested in another one never
    entered (the outer function's lines already count theirs)."""
    missing = [f for f in functions if f.key not in reached]
    top: List[Function] = []
    for function in missing:
        if not any(outer.module == function.module and outer.first <= function.first
                   and function.last <= outer.last and outer is not function
                   for outer in missing):
            top.append(function)
    return top


def table(functions: Sequence[Function], missing: Sequence[Function]) -> List[dict]:
    """One row per module with at least one unreached function line."""
    covered: Dict[str, Set[int]] = {}
    for function in functions:
        covered.setdefault(function.module, set()).update(
            range(function.first, function.last + 1))
    dead: Dict[str, int] = {}
    count: Dict[str, int] = {}
    for function in missing:
        dead[function.module] = dead.get(function.module, 0) \
            + function.last - function.first + 1
        count[function.module] = count.get(function.module, 0) + 1
    return [{"module": module, "function_lines": len(covered[module]),
             "unreached_lines": dead[module], "unreached_functions": count[module]}
            for module in sorted(dead, key=lambda m: (-dead[m], m))]


def format_rows(rows: Sequence[dict], missing: Sequence[Function],
                with_functions: bool) -> str:
    out = ["| module | function lines | unreached lines | unreached functions |",
           "|---|---:|---:|---:|"]
    for row in rows:
        out.append(f"| `{row['module']}` | {row['function_lines']} | "
                   f"{row['unreached_lines']} | {row['unreached_functions']} |")
    out.append(f"| **total** | | **{sum(row['unreached_lines'] for row in rows)}** | "
               f"**{sum(row['unreached_functions'] for row in rows)}** |")
    if with_functions:
        out.append("")
        for function in sorted(missing, key=lambda f: (f.module, f.first)):
            out.append(f"{function.module}:{function.first} {function.qualname} "
                       f"({function.last - function.first + 1} lines)")
    return "\n".join(out)


def audit(entries: Sequence[Entry], package_root: Path, work: Path,
          log=None) -> dict:
    """Run ``entries`` and report what they leave unreached under
    ``package_root``: ``{rows, unreached, total, runs}``."""
    reached, runs = run_entries(entries, package_root, work, log)
    functions = functions_of(package_root)
    missing = unreached(functions, reached)
    rows = table(functions, missing)
    return {"rows": rows, "unreached": missing, "runs": runs,
            "total": sum(row["unreached_lines"] for row in rows)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--functions", action="store_true",
                        help="list every unreached function after the table")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as tmp:
        report = audit(default_entries(Path(tmp)), SRC / "repro", Path(tmp),
                       log=lambda text: print(text, file=sys.stderr))
    print(format_rows(report["rows"], report["unreached"], args.functions))
    failed = [run["name"] for run in report["runs"] if not run["ok"]]
    print(f"unreached src/ function lines: {report['total']}")
    if failed:
        print("entry points that failed (their reach is incomplete): "
              + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The reachability audit (``scripts/reach_audit.py``) on a toy package.

The toy package has three functions: one the entry point calls itself, one
only a subprocess of the entry point calls, and one nothing calls.  The
audit's table must name exactly the third.  Its broken variant is a hook
that does not reach the entry point's children — the prototype's failure
mode if the hook were installed in-process instead of through
``sitecustomize`` — and the same check must then fail, naming the
subprocess-only function too.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach_audit.py"
_spec = importlib.util.spec_from_file_location("reach_audit", SCRIPT)
reach_audit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach_audit)

TOY = '''\
def called_in_process():
    return 1


def called_in_a_subprocess():
    return 2


def never_called():
    x = 3
    return x
'''

ENTRY = (
    "import subprocess, sys, toy\n"
    "toy.called_in_process()\n"
    "subprocess.run([sys.executable, '-c',\n"
    "                'import toy; toy.called_in_a_subprocess()'], check=True)\n")


def toy_audit(tmp_path: Path) -> dict:
    package = tmp_path / "pkgroot" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(TOY)
    entry = reach_audit.Entry("toy entry", [sys.executable, "-c", ENTRY])
    return reach_audit.audit([entry], package, tmp_path / "work")


def assert_names_only_the_uncalled(report: dict) -> None:
    assert all(run["ok"] for run in report["runs"]), report["runs"]
    named = [function.qualname for function in report["unreached"]]
    assert named == ["never_called"], f"the audit names {named}"
    assert report["rows"] == [{"module": "toy", "function_lines": 7,
                               "unreached_lines": 3,
                               "unreached_functions": 1}]
    assert report["total"] == 3


def test_the_audit_names_exactly_the_uncalled_function(tmp_path):
    assert_names_only_the_uncalled(toy_audit(tmp_path))


def test_the_check_catches_a_hook_missing_in_the_child(tmp_path, monkeypatch):
    # The hook stops at the entry point: its children no longer see where
    # to write, so what they call goes uncounted.
    monkeypatch.setattr(reach_audit, "HOOK_SOURCE", reach_audit.HOOK_SOURCE
                        + textwrap.dedent('''
                            os.environ.pop("REACH_AUDIT_OUT", None)
                        '''))
    report = toy_audit(tmp_path)
    assert [f.qualname for f in report["unreached"]] == [
        "called_in_a_subprocess", "never_called"]
    with pytest.raises(AssertionError, match="called_in_a_subprocess"):
        assert_names_only_the_uncalled(report)


def test_nested_unreached_functions_count_once(tmp_path):
    package = tmp_path / "pkgroot" / "nest"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(textwrap.dedent('''\
        class Outer:
            def used(self):
                def inner_unused():
                    return 0
                return 1

            def unused(self):
                def inner():
                    return 2
                return inner()
        '''))
    entry = reach_audit.Entry("nest", [
        sys.executable, "-c", "import nest; nest.Outer().used()"])
    report = reach_audit.audit([entry], package, tmp_path / "work")
    assert [f.qualname for f in report["unreached"]] == [
        "Outer.used.inner_unused", "Outer.unused"]
    assert report["total"] == 2 + 4

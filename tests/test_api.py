import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import agestruct as ag

from conftest import package_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(set(ag.__all__)) == len(ag.__all__)
    for name in ag.__all__:
        assert hasattr(ag, name), name


def _fresh(code):
    """The JSON line that ``code`` prints last, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = 'import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "agestruct")))'


def test_bare_import_loads_only_errors():
    assert _fresh(f"import agestruct; {_LOADED}") == ["agestruct", "agestruct.errors"]


def test_cli_import_loads_no_solver():
    loaded = _fresh(f"import agestruct.cli; {_LOADED}")
    assert not {f"agestruct.{name}" for name in ("oracle", "reconstruct", "stability", "steady")} & set(loaded)


def test_submodules_resolve_after_a_bare_import():
    names = ["oracle", "steady", "reconstruct", "stability", "csvio", "cli"]
    code = f"import json, agestruct; print(json.dumps([getattr(agestruct, n).__name__ for n in {names!r}]))"
    assert _fresh(code) == [f"agestruct.{name}" for name in names]


def test_public_names_are_their_modules_objects():
    for name in ag.__all__:
        obj = getattr(ag, name)
        if name != "__version__":
            assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(ag.__all__) <= set(dir(ag))


def test_star_import_binds_every_public_name():
    names = {}
    exec("from agestruct import *", names)
    assert set(ag.__all__) <= set(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ag.no_such_name  # noqa: B018
    assert not hasattr(ag, "no_such_name")


def test_readme_library_use_runs_as_documented(capsys):
    # the python block under README "Library use", run as it stands
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert math.isclose(names["eq"].p_star, 1.0, rel_tol=1e-12)  # "p_star = 1.0 here"
    assert names["stab"].verdict == "asymptotically stable"
    assert len(capsys.readouterr().out.splitlines()) == 2

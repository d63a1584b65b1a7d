import math
import re
from pathlib import Path

import agestruct as ag

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    assert len(set(ag.__all__)) == len(ag.__all__)
    for name in ag.__all__:
        assert hasattr(ag, name), name


def test_readme_library_use_runs_as_documented(capsys):
    # the python block under README "Library use", run as it stands
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert math.isclose(names["eq"].p_star, 1.0, rel_tol=1e-12)  # "p_star = 1.0 here"
    assert names["stab"].verdict == "asymptotically stable"
    assert len(capsys.readouterr().out.splitlines()) == 2

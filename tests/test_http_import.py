"""The HTTP stack (`requests`, `urllib3`, `http.client`) loads only when an HttpBackend is built.

Each check runs in a fresh interpreter, since this test process may already hold `requests`.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import depinsim

HTTP_STACK = ("requests", "urllib3", "http.client")
SCRIPTED = {"backend": "scripted", "script": {"*enter*": "yes", "*exit*": "no"}}


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    package_root = str(Path(depinsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["depinsim", "depinsim.cli"])
def test_importing_the_package_loads_no_http_stack(module, tmp_path):
    proc = run_python(f"""
        import sys
        import {module}
        print([name for name in {HTTP_STACK!r} if name in sys.modules])
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, config", [
    (["run", "--seed", "1", "--out-dir", "run"], {"horizon_months": 6}),
    (["run", "--policy", "llm", "--out-dir", "llm", "--charts", "off"], {"horizon_months": 6, "llm": SCRIPTED}),
    (["compare", "--patience", "1,3", "--seeds", "2", "--out-dir", "compare"], {"horizon_months": 6, "llm": SCRIPTED}),
    (["vesting", "--horizon", "12", "--out-dir", "vesting"], None),
], ids=["heuristic run", "scripted llm run", "scripted compare", "vesting"])
def test_commands_run_with_requests_unimportable(argv, config, tmp_path):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", "config.json"]
    proc = run_python(f"""
        import sys
        sys.modules["requests"] = None  # any `import requests` now raises ImportError
        from depinsim.cli import main
        code = main({argv!r})
        assert not [name for name in {HTTP_STACK!r} if sys.modules.get(name) is not None], "the HTTP stack was loaded"
        sys.exit(code)
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_building_an_http_backend_loads_requests(tmp_path):
    proc = run_python("""
        import sys
        from depinsim.llm_gateway import HttpBackend
        try:
            HttpBackend("localhost:9")  # no scheme: rejected before the HTTP stack loads
        except ValueError:
            pass
        assert "requests" not in sys.modules
        HttpBackend("http://127.0.0.1:9")  # sends nothing
        assert "requests" in sys.modules
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr

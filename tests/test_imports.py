"""Only the chain route loads scipy.

`import scipy.sparse` alone adds about 20 MB of resident memory, so the
simulation, closed-form, series and trace paths must run without it.  Each
case runs in a fresh interpreter, since this test process has long since
imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoa_lab

PRELUDE = """\
import contextlib, io, json, sys
from aoa_lab.cli import main
from aoa_lab.core import make_params
from aoa_lab.validation import route_rows
with contextlib.redirect_stdout(io.StringIO()):
    result = {call}
assert result == 0 or isinstance(result, list), result
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

ROUTES = {
    "analytic": "route_rows(make_params(0.3, 0.5), 'analytic')",
    "sim": "route_rows(make_params(0.3, 0.5), 'sim', slots=20_000, seed=1)",
    "series": "route_rows(make_params(0.3, 0.5), 'series')",
    "cli_simulate": "main(['simulate', '--lambda1', '0.05', '--lambda2', '0.05', "
                    "'--slots', '20000', '--seed', '1'])",
    "cli_trace": "main(['trace', '--events', {events!r}])",
}


def scipy_modules(call: str) -> list:
    """The scipy modules loaded after `call` in a fresh interpreter."""
    src = str(Path(aoa_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PRELUDE.format(call=call)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_route_does_not_load_scipy(name, tmp_path):
    events = tmp_path / "ev.csv"
    events.write_text("t,data,energy\n1,1,0\n2,0,1\n3,1,1\n")
    assert scipy_modules(ROUTES[name].format(events=str(events))) == []


def test_chain_route_loads_scipy_sparse():
    loaded = scipy_modules("route_rows(make_params(0.5, 0.5), 'chain', tail_eps=1e-10)")
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" in loaded

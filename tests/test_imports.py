"""Only the chain route loads scipy, and only a pooled sweep the process pool.

`import scipy.sparse` alone adds about 20 MB of resident memory, so the
simulation, closed-form, series and trace paths must run without it.  They
must run without `multiprocessing`, `concurrent.futures.process` and
`fractions` too: only `sweep`'s process pool and `findings` use those.  Each
case runs in a fresh interpreter, since this test process has long since
imported them all.
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
from aoa_lab.validation import route_rows, sweep
with contextlib.redirect_stdout(io.StringIO()):
    result = {call}
assert result == 0 or isinstance(result, (list, tuple)), result
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "multiprocessing")
                        or m in ("concurrent.futures.process", "fractions"))))
"""

ROUTES = {
    "analytic": "route_rows(make_params(0.3, 0.5), 'analytic')",
    "sim": "route_rows(make_params(0.3, 0.5), 'sim', slots=20_000, seed=1)",
    "series": "route_rows(make_params(0.3, 0.5), 'series')",
    "cli_simulate": "main(['simulate', '--lambda1', '0.05', '--lambda2', '0.05', "
                    "'--slots', '20000', '--seed', '1'])",
    "cli_trace": "main(['trace', '--events', {events!r}])",
}


def loaded_modules(call: str) -> list:
    """The scipy, `multiprocessing`, `concurrent.futures.process` and
    `fractions` modules loaded after `call` in a fresh interpreter."""
    src = str(Path(aoa_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", PRELUDE.format(call=call)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_route_loads_neither_scipy_nor_the_pool(name, tmp_path):
    events = tmp_path / "ev.csv"
    events.write_text("t,data,energy\n1,1,0\n2,0,1\n3,1,1\n")
    assert loaded_modules(ROUTES[name].format(events=str(events))) == []


def test_chain_route_loads_scipy_sparse():
    loaded = loaded_modules("route_rows(make_params(0.5, 0.5), 'chain', tail_eps=1e-10)")
    assert "scipy.sparse" in loaded
    assert "scipy.sparse.linalg" in loaded


def test_pooled_sim_sweep_loads_the_process_pool():
    # Two points on two workers: `sweep` starts a pool, and loads it then.
    loaded = loaded_modules("sweep([make_params(0.3, 0.5), make_params(0.5, 0.5)], ['sim'], "
                            "slots=2000, seed=1, max_workers=2).rows")
    assert "concurrent.futures.process" in loaded
    assert "multiprocessing" in loaded
    assert not any(m.split(".")[0] == "scipy" for m in loaded)

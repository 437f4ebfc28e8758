import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import irshield

SERVING_MODULES = ("irshield.server", "irshield.client", "irshield.enclave", "socket", "hmac", "uuid")

PROBE = """
import sys
import irshield
loaded = [name for name in {modules!r} if name in sys.modules]
assert not loaded, f"import irshield loaded {{loaded}}"
for name in irshield.__all__:
    getattr(irshield, name)
from irshield import deploy, Server, client_predict, seal
assert irshield.Server is Server
assert "irshield.server" in sys.modules
"""


def test_import_loads_no_serving_stack_and_every_name_resolves():
    src = str(Path(irshield.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=SERVING_MODULES)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(irshield.__path__)])
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"irshield.{module}")
    assert not [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        irshield.no_such_name


def test_name_loads_from_its_module_on_first_use_and_is_kept(monkeypatch):
    from irshield.tensor import Tensor

    monkeypatch.delitem(vars(irshield), "Tensor", raising=False)  # as if never used
    assert irshield.Tensor is Tensor
    assert vars(irshield)["Tensor"] is Tensor

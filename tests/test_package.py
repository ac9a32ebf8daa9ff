import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import folkclass


def test_every_name_is_its_submodules_object():
    assert len(folkclass._EXPORTS) == 60
    for name, module in folkclass._EXPORTS.items():
        assert getattr(folkclass, name) is getattr(
            importlib.import_module(f"folkclass.{module}"), name)


def test_all_and_dir_list_every_name():
    assert sorted(folkclass.__all__) == sorted(folkclass._EXPORTS)
    assert set(folkclass.__all__) <= set(dir(folkclass))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from folkclass import *", namespace)
    assert {name: namespace[name] for name in folkclass.__all__} == {
        name: getattr(folkclass, name) for name in folkclass.__all__}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        folkclass.no_such_name
    assert not hasattr(folkclass, "no_such_name")


def test_bare_import_loads_no_numpy_until_a_numeric_name_is_used():
    script = ("import sys, folkclass\n"
              "print('numpy' in sys.modules)\n"
              "print(folkclass.svm.__name__, folkclass.TrainConfig.__module__)\n"
              "print('numpy' in sys.modules)\n")
    src = Path(folkclass.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "folkclass.svm folkclass.svm", "True"]

"""Every example script must run clean (the NAS campaign is exercised
by the benchmark suite instead — it takes minutes)."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "attack_demos.py",
    "key_exchange_demo.py",
    "pipelined_encryption.py",
    "heat_stencil.py",
    "campaign_demo.py",
    "comm_characterization.py",
]


def _load(name):
    path = os.path.join(EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    module = _load(script)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"
    assert "FAIL" not in out
    assert "!!!" not in out


def test_all_examples_have_main_and_docstring():
    for name in os.listdir(EXAMPLES_DIR):
        if not name.endswith(".py"):
            continue
        module = _load(name) if name in FAST_EXAMPLES else None
        path = os.path.join(EXAMPLES_DIR, name)
        source = open(path).read()
        assert '"""' in source.split("\n", 2)[-1] or source.startswith(
            ('"""', "#!/usr/bin/env python3")
        ), name
        assert "def main()" in source, name
        assert '__name__ == "__main__"' in source, name

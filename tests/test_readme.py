"""The README's examples and commands, and the experiment drivers, work as written."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sketchout
from sketchout import cli
from sketchout.synth import phase_grid

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
SH_LINES = [
    line.strip()
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines()
]
CLI_LINES = [line for line in SH_LINES if line.startswith("sketchout ")]
#: A phase config's keys are phase_grid's keywords.
PHASE_KEYS = inspect.signature(phase_grid).parameters


def test_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_parses(line):
    # a flag the parser no longer knows exits 2
    try:
        cli._build_parser().parse_args(shlex.split(line, comments=True)[1:])
    except SystemExit as exc:
        pytest.fail("README command does not parse (exit %s): %s" % (exc.code, line))


def test_script_lines_name_existing_files():
    scripts = [line for line in SH_LINES if line.startswith("python3 scripts/")]
    assert scripts
    for line in scripts:
        assert (ROOT / shlex.split(line)[1]).is_file(), line


def test_phase_configs_exist_and_are_complete():
    lines = [line for line in CLI_LINES if line.split()[1] == "phase"]
    assert lines
    required = {key for key, par in PHASE_KEYS.items() if par.default is par.empty}
    for line in lines:
        path = ROOT / cli._build_parser().parse_args(shlex.split(line)[1:]).config
        assert path.is_file(), line
        keys = set(json.loads(path.read_text()))
        assert required <= keys, (line, required - keys)
        assert keys <= set(PHASE_KEYS), (line, keys - set(PHASE_KEYS))


def test_phase_config_bullet_lists_every_key_and_default():
    bullet = README.split("* phase configs — ")[1].split("\n* ")[0]
    assert set(re.findall(r"`(\w+)`", bullet)) - {"phase_grid"} == set(PHASE_KEYS)
    # an optional key is written `key` (default as JSON)
    written = dict(re.findall(r"`(\w+)`\s+\(([^):,]+)", bullet))
    for key, par in PHASE_KEYS.items():
        if par.default is not par.empty:
            assert written.get(key) == json.dumps(par.default), key


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_top_level_names_are_the_documented_ones():
    paragraph = README.split("The top level of `sketchout` holds")[1].split("\n\n")[0]
    assert sorted(set(re.findall(r"`(\w+)`", paragraph))) == sorted(sketchout.__all__)


MODULES = ["sketchout"] + ["sketchout." + m.name for m in pkgutil.iter_modules(sketchout.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a name in __all__ that the module lacks fails the import
    namespace = {}
    exec("from %s import *" % module, namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)

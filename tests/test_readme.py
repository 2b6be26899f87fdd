"""The README's examples run as written, so the README cannot drift from the code."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ising_reram import DeviceConfig, SolverConfig, load_config_document

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_python_quick_start_runs():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    verdict, energy = out.getvalue().splitlines()
    assert verdict.split()[0] in ("SAT", "Unknown") and energy.endswith(" nJ")


def test_readme_config_document_loads():
    (doc,) = map(json.loads, _blocks("json"))
    device, solver = load_config_document(doc)
    assert device == DeviceConfig(**doc["device"]) and solver == SolverConfig(**doc["solver"])


def test_readme_cli_lines_exit_as_documented(tmp_path):
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("ising-reram ")]
    assert [line.split()[1] for line in lines] == ["gen", "solve", "bench", "kernels"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for line in lines:
        argv = shlex.split(line, comments=True)
        stdout = None
        if ">" in argv:
            i = argv.index(">")
            argv, stdout = argv[:i], (tmp_path / argv[i + 1]).open("w")
        with stdout or contextlib.nullcontext():
            done = subprocess.run(
                [sys.executable, "-m", "ising_reram.cli", *argv[1:]], cwd=tmp_path, env=env,
                stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        # The solve line documents "exit 0 SAT, 1 unknown, 2 input error".
        assert done.returncode in ((0, 1) if argv[1] == "solve" else (0,)), done.stderr
    for name in ("inst.cnf", "report.json", "suite.csv", "kernels.csv"):
        assert (tmp_path / name).read_text().strip()


def test_readme_names_no_private_name():
    assert not [name for name in re.findall(r"`([^`\n]+)`", README) if name.startswith("_")]

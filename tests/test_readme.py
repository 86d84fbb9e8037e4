"""The README's examples run: every `weakiv ...` command in its sh blocks
parses with the CLI's own parser, its settings are valid, and it names a
shipped design where it takes one; and the library quick start runs on a
generated data.csv."""

import re
import shlex
from pathlib import Path

import numpy as np

from weakiv import _settings, available_designs
from weakiv.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _commands():
    """The `weakiv` command lines of the sh blocks, with continuations joined."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "weakiv":
                commands.append(words[1:])
    return commands


def test_command_examples_parse():
    commands = _commands()
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        _settings.read_args(args)
        if hasattr(args, "design"):
            assert args.design in available_designs(), argv


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S).group(1)
    rng = np.random.default_rng(0)
    n = 400
    q = rng.standard_normal((n, 3))
    exper = rng.uniform(0.0, 30.0, n)
    e = rng.standard_normal((n, 2))
    educ = 12.0 + q @ [0.6, 0.4, -0.3] + 0.05 * exper + e[:, 1]
    wage = 1.0 + 0.08 * educ + 0.02 * exper + e[:, 0] + 0.5 * e[:, 1]
    table = np.column_stack([wage, educ, q, exper])
    lines = ["wage,educ,q1,q2,q3,exper"] + [",".join(map(repr, row)) for row in table.tolist()]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3

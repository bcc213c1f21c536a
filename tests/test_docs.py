"""The README's code examples run as written, and its CLI synopsis matches the parser."""

import argparse
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import twinfock
from twinfock import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the given heading of README.md."""
    text = README.read_text()
    section = text[text.index(f"\n{heading}\n"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("## Library example"), str(README), "exec"), {})
    p_fa_closed, p_fa_oracle, p_md_closed = map(float, out.getvalue().split())
    assert abs(p_fa_closed - p_fa_oracle) < 1e-10
    assert p_md_closed == 0.25


def test_every_named_module_attribute_exists():
    # each backticked `module.name` or `twinfock.module.name` names a real attribute
    modules = "|".join(info.name for info in pkgutil.iter_modules(twinfock.__path__))
    named = set(re.findall(rf"`(?:twinfock\.)?({modules})\.(\w+)", README.read_text()))
    assert named
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"twinfock.{module}"), name)]
    assert not missing


def test_quoted_constants_match_the_code():
    # each `module.NAME` = value, such as `cli.VERIFY_WORK_CAP` = 10^8, reads the attribute's value
    modules = "|".join(info.name for info in pkgutil.iter_modules(twinfock.__path__))
    quoted = re.findall(rf"`(?:twinfock\.)?({modules})\.([A-Z_]+)`\s+=\s+(\d+)(?:\^(\d+))?",
                        README.read_text())
    assert quoted
    wrong = [f"{module}.{name}" for module, name, base, power in quoted
             if getattr(importlib.import_module(f"twinfock.{module}"), name)
             != int(base) ** int(power or 1)]
    assert not wrong


def _subparsers():
    """Subcommand name -> its argparse parser, as build_parser defines them."""
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_settings_tables_match_the_sweep_flags():
    subparsers = _subparsers()
    for command, table in (("pfa-curves", cli.PFA_SETTINGS), ("pmd-curve", cli.PMD_SETTINGS)):
        dests = {a.dest for a in subparsers[command]._actions} - {"help", "config"}
        assert dests == table.keys(), command


def test_cli_synopsis_names_every_flag():
    # each subcommand's lines of the ## CLI block name exactly its parser's flags
    text = README.read_text()
    section = text[text.index("\n## CLI\n"):]
    synopsis = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    documented = {}
    for line in synopsis.splitlines():
        if line.startswith("twinfock "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    defined = {command: {flag for a in sub._actions for flag in a.option_strings}
               for command, sub in _subparsers().items()}
    assert documented == {command: flags - {"-h", "--help"} for command, flags in defined.items()}

"""Golden test for the command-line surface.

``cli_surface.json`` records, for the top-level parser and every
subcommand, each argument's option strings, ``dest``, default,
choices, ``nargs``, ``required`` flag, type and action — everything a
user or script can observe when typing a command, except the help
text, which may be reworded freely.  Any drift means a flag was
renamed, dropped, re-defaulted or retyped; review it, and regenerate
the snapshot only for an intended change to the surface::

    PYTHONPATH=src python tests/golden/test_golden_cli_surface.py
"""

import argparse
import json
import pathlib

import pytest

from repro.cli import _parser

GOLDEN_PATH = pathlib.Path(__file__).parent / "cli_surface.json"


def _argument(action):
    return {
        "strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": (list(action.choices)
                    if action.choices is not None else None),
        "nargs": action.nargs,
        "required": action.required,
        "type": (getattr(action.type, "__name__", repr(action.type))
                 if action.type is not None else None),
        "action": type(action).__name__,
    }


def _arguments(command):
    """Positionals in declaration order (their order is behaviour),
    then options sorted by their strings (theirs is only help
    layout)."""
    arguments = [_argument(action) for action in command._actions
                 if not isinstance(action, argparse._SubParsersAction)]
    positionals = [arg for arg in arguments if not arg["strings"]]
    options = sorted((arg for arg in arguments if arg["strings"]),
                     key=lambda arg: arg["strings"])
    return positionals + options


def surface():
    """``{command: [argument, ...]}``; ``""`` is the top level."""
    parser = _parser()
    commands = {"": parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands.update(action.choices)
    return {name: _arguments(command)
            for name, command in commands.items()}


# A missing snapshot reads as empty, so the tests fail rather than the
# module, and the maintenance entry point below can write the first.
GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {})
LIVE = surface()


def test_same_subcommands_in_the_same_order():
    assert list(LIVE) == list(GOLDEN)


@pytest.mark.parametrize("command", sorted(GOLDEN),
                         ids=lambda name: name or "repro")
def test_command_arguments_match_snapshot(command):
    assert LIVE.get(command) == GOLDEN[command]


def regenerate():  # pragma: no cover — maintenance helper
    """Rewrite cli_surface.json, one argument per line."""
    commands = [
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(argument)}"
                     for argument in arguments)
        + "\n ]"
        for name, arguments in surface().items()]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(commands) + "\n}\n")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
    print(f"wrote {GOLDEN_PATH}")

"""Every ``--machine`` option offers exactly the shared preset registry."""

from __future__ import annotations

import argparse

import pytest

from repro.crashcheck.cli import main as crashcheck_main
from repro.dirtbuster.cli import main as dirtbuster_main
from repro.faults.cli import main as faults_main
from repro.obs.cli import main as obs_main
from repro.sanitize.cli import main as sanitize_main
from repro.sim.machine import PRESETS

CLIS = {
    "crashcheck": crashcheck_main,
    "dirtbuster": dirtbuster_main,
    "faults": faults_main,
    "obs": obs_main,
    "sanitize": sanitize_main,
}


@pytest.mark.parametrize("cli", sorted(CLIS))
def test_machine_choices_are_the_presets(cli, monkeypatch, capsys):
    """Record every ``--machine`` argument the CLI's parser declares."""
    declared = []
    add_argument = argparse._ActionsContainer.add_argument

    def recording(self, *args, **kwargs):
        if "--machine" in args:
            declared.append(kwargs.get("choices"))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    with pytest.raises(SystemExit):
        CLIS[cli](["--help"])
    capsys.readouterr()
    assert declared
    for choices in declared:
        assert list(choices) == sorted(PRESETS)


def test_preset_names():
    assert sorted(PRESETS) == ["a", "a-cxl", "b-fast", "b-slow", "dram"]

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ofdmpcs import Distribution, OFDMConfig, make_constellation


@pytest.fixture(scope="session")
def qam16():
    return make_constellation("qam", 16)


@pytest.fixture(scope="session")
def qam64():
    return make_constellation("qam", 64)


@pytest.fixture(scope="session")
def psk64():
    return make_constellation("psk", 64)


@pytest.fixture(scope="session")
def psk8():
    return make_constellation("psk", 8)


@pytest.fixture
def uniform16(qam16):
    return Distribution.uniform(qam16)


@pytest.fixture
def uniform64(qam64):
    return Distribution.uniform(qam64)


@pytest.fixture
def ofdm8():
    return OFDMConfig(n_subcarriers=8)


@pytest.fixture
def ofdm64():
    return OFDMConfig(n_subcarriers=64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cli_artifacts(tmp_path):
    """Run one command of the CLI on INI text; returns its output directory.

    Each call writes its config and its artifacts to a directory of its own.
    """
    from ofdmpcs.cli import EXIT_OK, main

    runs = itertools.count()

    def run(ini, command, *flags):
        work = tmp_path / f"run{next(runs)}"
        work.mkdir()
        config = work / "exp.ini"
        config.write_text(ini)
        out = work / "out"
        assert main([command, "--config", str(config), "--out", str(out),
                     *flags]) == EXIT_OK
        return out

    return run

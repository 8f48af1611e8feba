"""The benchmark's workloads: INI configs and the CLI invocations run on them.

Each workload is a closed loop: one client, one invocation in flight.  The
sizes fix which layer dominates each workload (see each ``why``).

The workload seed selects one of ``N_CONFIG_SEEDS`` pinned ``[run] seed``
values, or the single one a workload pins.  References for each of them were
captured once from the seed commit (``capture_refs.py``), so the checker can
compare every artifact with the artifact the same inputs produced there.
"""

from __future__ import annotations

from dataclasses import dataclass

N_CONFIG_SEEDS = 10

COMMANDS = ("shape", "air", "af", "detect", "tradeoff", "lut-export")


@dataclass(frozen=True)
class Invocation:
    """One ``python -m ofdmpcs.cli`` call; ``key`` names its reference."""

    key: str
    command: str
    config: str
    flags: tuple[str, ...] = ()

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir,
                *self.flags]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict            # config name -> INI text with a {seed} field
    invocations: tuple
    pinned_seed: int | None = None   # [run] seed for every workload seed

    def config_seeds(self) -> tuple[int, ...]:
        """The ``[run] seed`` values the workload seed selects from."""
        if self.pinned_seed is not None:
            return (self.pinned_seed,)
        return tuple(range(N_CONFIG_SEEDS))

    def config_seed(self, seed: int) -> int:
        """The ``[run] seed`` that workload seed ``seed`` feeds."""
        seeds = self.config_seeds()
        return seeds[seed % len(seeds)]

    def render(self, config_name: str, seed: int) -> str:
        return self.configs[config_name].format(seed=self.config_seed(seed))


# The README example, verbatim apart from the seed and the output directory.
README_16QAM = """\
[run]
seed = {seed}

[constellation]
family = qam
order = 16

[ofdm]
n_subcarriers = 64

[channel]
sigma2 = 0.01
snr_db_min = 0
snr_db_max = 20
snr_db_step = 10
n_mc = 20000

[shaping]
c0 = 1.2
c0_min = 1.0
c0_max = 1.32
c0_step = 0.16
n_mc = 10000
air_n_mc = 20000

[af]
tau_min_tp = 0.0
tau_max_tp = 0.5
n_tau = 33
nu_min_df = 0.0
nu_max_df = 0.5
n_nu = 2
n_mc = 5000

[detection]
sensing_snr_db = 13
snr_db_min = 10
snr_db_max = 18
snr_db_step = 2
p_fa = 1e-4
n_trials = 1000
ref_cells = 16
guard_cells = 2
"""

# Tight outer stop on 64-QAM.  Shaper n_mc 2000 (and 1000 on 256-QAM below)
# keeps a round near 3.5 s, so a run takes its medians over many rounds.
TIGHT_64QAM = """\
[run]
seed = {seed}

[constellation]
family = qam
order = 64

[channel]
sigma2 = 0.05

[shaping]
c0_min = 1.2
c0_max = 1.4
c0_step = 0.1
outer_tol = 1e-9
n_mc = 2000
air_n_mc = 20000
"""

# Tight outer stop on 256-QAM (32 rings, 256 points).
TIGHT_256QAM = """\
[run]
seed = {seed}

[constellation]
family = qam
order = 256

[channel]
sigma2 = 0.01

[shaping]
c0 = 1.2
outer_tol = 1e-9
n_mc = 1000
air_n_mc = 20000
"""

WORKLOADS = {w.name: w for w in (
    Workload(
        name="cli-16qam",
        why=("README 16-QAM session, seven invocations: interpreter start and "
             "import dominate, then detection and the Monte-Carlo AF"),
        configs={"readme": README_16QAM},
        invocations=(
            Invocation("shape-optimal", "shape", "readme"),
            Invocation("shape-heuristic", "shape", "readme",
                       ("--method", "heuristic")),
            Invocation("air", "air", "readme"),
            Invocation("af", "af", "readme"),
            Invocation("detect", "detect", "readme"),
            Invocation("tradeoff", "tradeoff", "readme"),
            Invocation("lut-export", "lut-export", "readme"),
        )),
    Workload(
        name="shaper-tight",
        why=("run_mba to outer_tol 1e-9 on 64-QAM (9 rings) and 256-QAM "
             "(32 rings): the iterative shaper dominates, no detection or AF"),
        configs={"t64": TIGHT_64QAM, "t256": TIGHT_256QAM},
        invocations=(
            Invocation("lut-export", "lut-export", "t64"),
            Invocation("shape-optimal", "shape", "t256"),
        ),
        # The number of outer iterations to the tight stop depends on the
        # draws (at shaper n_mc 10000, seven 64-QAM c0 values took 240-338
        # of them over config seeds 0-9).  A pinned seed keeps a round's
        # work the same in every run (176 outer iterations), so wall_s
        # measures the code, not the input.
        pinned_seed=0),
)}

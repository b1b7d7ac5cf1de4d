"""One set-up in a fresh interpreter: import gnwaves, parse the config, and
build the Grid, multiplier, GNContext and initial state, as run_experiment
does before it integrates. The benchmark times this process from outside.

    python3 perfbench/setup_probe.py <config file>
"""

import sys

import bootstrap

bootstrap.prepare()

from gnwaves.operators import GNContext  # noqa: E402
from gnwaves.params import parse_config  # noqa: E402
from gnwaves.runner import build_multiplier, initial_state  # noqa: E402
from gnwaves.spectral import Grid  # noqa: E402


def main(config_path):
    with open(config_path, encoding="utf-8") as fh:
        config = parse_config(fh.read())
    grid = Grid(config.grid_n, config.domain_half_length)
    spec = build_multiplier(config)
    GNContext(grid, config.params, spec, cg_tol=config.cg_tol,
              cg_max_iter=config.cg_max_iter, dealias=config.dealias)
    initial_state(config, grid)


if __name__ == "__main__":
    main(sys.argv[1])

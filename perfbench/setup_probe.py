"""Set-up time of one gridsynth run, measured from a fresh process.

Usage, from the checkout root: python3 perfbench/setup_probe.py <config> <spawn>

<spawn> is the CLOCK_MONOTONIC reading of the parent just before it started
this process. The probe imports every gridsynth module a workload uses,
loads the workload's config file and prints the seconds since <spawn>.
"""
import sys
import time
from pathlib import Path


def main() -> None:
    config_path, spawn = sys.argv[1], float(sys.argv[2])
    sys.path.insert(0, str(Path.cwd() / "src"))
    from gridsynth import cli, config, toydata  # noqa: F401  (cli imports the rest)

    config.load_run_config(config_path)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC) - spawn))


if __name__ == "__main__":
    main()

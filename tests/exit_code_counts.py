"""Count, per experiment, how many of N fixed draws of the exit-code
property's overrides exit 0, 2 or 3 (or otherwise).

    PYTHONPATH=src python tests/exit_code_counts.py [N]

The draws are those of test_properties.test_exit_code_contract on the
derandomized profile, so the counts repeat from run to run; the test runs
the first 20 of them.  Pytest does not collect this file.
"""

import collections
import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis.configuration import set_hypothesis_home_dir

from liqlab.config import EXPERIMENTS

from test_properties import cli_overrides, run_cli


def exit_codes(experiment: str, n_draws: int) -> collections.Counter:
    codes = collections.Counter()

    @settings(max_examples=n_draws, deadline=None)
    @given(overrides=cli_overrides)
    def record(overrides):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                code = run_cli(experiment, overrides, Path(tmp) / "out")
            except Exception as exc:  # anything raised past main breaks the contract
                code = type(exc).__name__
        codes[code] += 1

    record()
    return codes


if __name__ == "__main__":
    n_draws = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    print(f"{'experiment':16} {'draws':>5} {'exit 0':>6} {'exit 2':>6} {'exit 3':>6}  other")
    with (tempfile.TemporaryDirectory() as home, warnings.catch_warnings(),
          contextlib.redirect_stderr(io.StringIO())):
        set_hypothesis_home_dir(home)   # no .hypothesis/ in the working directory
        warnings.simplefilter("ignore")
        for experiment in EXPERIMENTS:
            codes = exit_codes(experiment, n_draws)
            other = {code: n for code, n in codes.items() if code not in (0, 2, 3)}
            print(f"{experiment:16} {sum(codes.values()):5} {codes[0]:6} {codes[2]:6} "
                  f"{codes[3]:6}  {other or ''}")

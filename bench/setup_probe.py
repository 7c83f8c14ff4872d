"""Time the set-up a fresh interpreter pays before its first real job.

Usage: python3 setup_probe.py SRC_DIR CONFIG OUT_DIR SUBCOMMAND...

Imports `wfspectral.cli`, `wfspectral.spectral` and `wfspectral.density`
(with numpy, scipy and mpmath), then runs a warm-up: each subcommand once
with the CONFIG document, a workload's model at a tiny truncation (see
workloads.warmup_config). That triggers the libraries' first-call set-up.
Prints "<import seconds> <import + warm-up seconds>".
"""

import contextlib
import io
import sys
import time
import warnings


def warm_up(cli, config, out_dir, subcommands):
    """Run each subcommand once with the warm-up config, untimed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sub in subcommands:
            argv = [sub, "--config", str(config), "--out", str(out_dir)]
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up job failed: {argv}")


def main(argv):
    src, config, out, subcommands = argv[1], argv[2], argv[3], argv[4:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import wfspectral.cli
    import wfspectral.density  # noqa: F401
    import wfspectral.spectral  # noqa: F401
    imported = time.perf_counter()
    warm_up(wfspectral.cli, config, out, subcommands)
    print(repr(imported - start), repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

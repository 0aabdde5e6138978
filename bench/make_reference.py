"""Regenerate the stored reference outputs in ``reference/``.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are known to be right: every later
benchmark run is checked against what it writes.  It computes every
operation any seed can draw, each score-* operation also with its
embedding perturbed to measure its round-off noise, so it takes about a
quarter of an hour.
"""

import argparse
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from io import StringIO

import program
import workloads


def score_universe(cb, ops) -> dict:
    outcomes = {}
    for prepared in program.prepare_score_ops(cb, ops):
        start = time.perf_counter()
        got = program.outcome(program.score(cb, prepared))
        got["noise"] = program.roundoff_noise(cb, prepared, got)
        outcomes[prepared[0].key] = got
        print(f"{prepared[0].key}: {time.perf_counter() - start:.3f} s", flush=True)
    return outcomes


def suite_universe(cb) -> dict:
    outcomes = {}
    for suite_seed in workloads.SUITE_SEEDS:
        with tempfile.TemporaryDirectory(dir=program.work_dir()) as out_dir:
            start = time.perf_counter()
            with redirect_stdout(StringIO()):
                status = cb.cli.main(workloads.suite_argv(suite_seed, out_dir))
            if status != 0:
                raise SystemExit(f"suite --seed {suite_seed} exited with {status}")
            for key, got in program.suite_outcomes(out_dir)[0].items():
                if got is None:
                    raise SystemExit(f"suite --seed {suite_seed}: {key} failed")
                outcomes[f"{suite_seed}/{key}"] = got
        print(f"suite seed {suite_seed}: {time.perf_counter() - start:.3f} s", flush=True)
    return outcomes


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    cb = program.import_curvebench()
    for name in workloads.WORKLOADS:
        if name == "score-warm":
            outcomes = score_universe(cb, workloads.warm_universe())
        elif name == "score-cold":
            outcomes = score_universe(cb, workloads.cold_universe())
        else:
            outcomes = suite_universe(cb)
        path = program.REFERENCE_DIR / f"{name}.json"
        doc = {"workload": name, "provenance": program.provenance(), "outcomes": outcomes}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(outcomes)} reference outcomes to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Record the expected outputs every benchmark job is checked against.

    python3 perfbench/record.py

Runs every job any seed can draw, for every workload, and writes
``perfbench/expected.json``: the SHA-256 of each job's JSON output, keyed
by its argv, and for ``check-suite`` the names of the checks that ran for
each configuration.  It refuses to write when a job fails its other output
checks.  The recorded file must come from a commit whose outputs are known
good; a change that claims a speed-up leaves it alone.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import asreg2.cli as cli  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import WORKLOADS, check_output, digest  # noqa: E402


def main():
    expected = {"digests": {}, "check_names": {}}
    problems = []
    for workload in WORKLOADS.values():
        runs = []
        for job in workload.space():
            wall, rc, out, error = run_job(cli, job.argv)
            print("%-15s %6.3fs %s" % (workload.name, wall, job.key), flush=True)
            if error:
                problems.append("%s: %s" % (job.key, error))
                continue
            runs.append((job, rc, out))
            expected["digests"][job.key] = digest(out)
            if workload.name == "check-suite" and rc == 0:
                names = sorted(c["name"] for c in json.loads(out)["result"]["checks"])
                known = expected["check_names"].setdefault(job.label, names)
                if known != names:
                    problems.append("%s: check names differ between variants" % job.key)
        for job, rc, out in runs:
            problems += ["%s: %s" % (job.key, p)
                         for p in check_output(workload.name, job, rc, out, expected)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of a benchmark run: set up a workload, then maybe time passes.

    python3 perfbench/child.py <workload> <tiny 0|1> <work dir> <seed> <seconds> <first> <stride>

Prints "ready" once set-up is done; run.py times the interval from starting
the process to that line.  With seconds > 0 it then runs passes first,
first + stride, ... for that long and prints them, with its peak resident
memory, as one JSON line.
"""

import json
import resource
import sys
from pathlib import Path

from source import add_source_path


def main(argv):
    name, tiny, workdir, seed, seconds, first, stride = argv
    add_source_path()
    import workloads

    workdir = Path(workdir)
    wl = workloads.make(name, tiny=tiny == "1")
    config = wl.prepare(workdir)
    print("ready", flush=True)
    if float(seconds) > 0:
        passes = workloads.timed_passes(wl, config, workdir, int(seed), float(seconds),
                                        int(first), int(stride))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"passes": [p.to_json() for p in passes], "peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

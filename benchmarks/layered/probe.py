"""Set-up probe: a fresh interpreter gets one operation ready, then exits.

    python3 probe.py <src dir> phase <config.json>...
    python3 probe.py <src dir> verify <gap gamma> <K>

Prints one JSON line with the import time of mixcut.cli and the time to
read and validate the configs and resolve their models (or build the verify
config), then exits.  The parent times the whole spawn until that line.
"""

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[0])
    from mixcut import cli  # noqa: F401  (the import is what is timed)
    from mixcut import harness, model

    t1 = time.perf_counter()
    if argv[1] == "phase":
        for path in argv[2:]:
            config = harness.ExperimentConfig.from_file(path)
            config.validate()
            for k in config.k_values:
                harness.resolve_model(config.model_source, k)
    else:
        mdl = model.constant_gap_mixture(int(argv[3]), gamma=float(argv[2]))
        harness.VerifyConfig(model=mdl)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

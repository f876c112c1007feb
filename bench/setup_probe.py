"""Set-up probe, run in a fresh interpreter by the harness.

Usage: python3 setup_probe.py SPEC_PATH

Times the import of ``qcrb_lab.cli`` plus the first ``load_model_spec`` of
SPEC_PATH, which builds the model, observable and POVM, and prints one JSON
object with the times and the path the package was imported from.
"""

import json
import sys
from time import perf_counter


def main(spec_path: str) -> None:
    start = perf_counter()
    import qcrb_lab.cli  # noqa: F401  (the import is what is timed)
    from qcrb_lab.modelspec import load_model_spec

    imported = perf_counter()
    load_model_spec(spec_path)
    loaded = perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                      "setup_s": loaded - start,
                      "package": qcrb_lab.cli.__file__}))


if __name__ == "__main__":
    main(sys.argv[1])
